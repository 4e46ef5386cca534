"""The report bytes of ``eval``, ``complexity`` and ``leakcheck``, and every
file ``synth`` writes, pinned by sha256 for fixed inputs, so a change to how
report rows or synthetic specs are built cannot move a byte of what the CLI
prints or writes."""

import hashlib
import shutil
from pathlib import Path

import pytest

from srsdkit.cli import main

REPORT_DIGESTS = {
    "eval-mixed": "a04c6a3203bf5f13c79db0d1de84cf4d1ee365ead87776571dd1b371596a6f45",
    "eval-self": "a3faa8f3285b8823041a2d6ed2febd4222e917aa11e6b6e649418ef076050d41",
    "complexity-csv": "4c20271564b979a3c407471da8494993e6431a92916c7eb32d0df03e04449fe3",
    "complexity-json": "5c50b5c89481d305572cb51083f092adbbc740c6235111220f60e47c77b4e535",
    "leakcheck-synth": "a303ecd7a2ec2423cbaf74efe7bbd76b349e9b8762b2ff22402ba034174582bb",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stdout(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def easy_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "easy"
    assert main(["generate", "--set", "easy", "--rows", "200", "--seed", "3",
                 "--out", str(root)]) == 0
    return root


def test_report_bytes_are_pinned(tmp_path, easy_data, capsys):
    capsys.readouterr()
    digests = {}

    # A data root where one predicted problem has no val.txt, so its
    # selection_score is null.
    data = tmp_path / "data"
    shutil.copytree(easy_data, data)
    (data / "I.12.1" / "val.txt").unlink()
    # Predictions: exact (flat file), approximate, faulting on test rows
    # (log of a variable that takes both signs, so r_squared is null), and a
    # nested <id>/true_eq.txt file; the other 26 problems are skipped.
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / "I.12.1.txt").write_text("mul2 X1 X2\n")
    (preds / "I.12.5.txt").write_text("mul3 0.5 X1 X2\n")
    (preds / "I.12.4.txt").write_text("log X1\n")
    (preds / "I.14.3").mkdir()
    shutil.copy(easy_data / "I.14.3" / "true_eq.txt", preds / "I.14.3" / "true_eq.txt")
    digests["eval-mixed"] = _sha(_stdout(capsys, "eval", "--pred-dir", str(preds),
                                         "--data-dir", str(data)))
    digests["eval-self"] = _sha(_stdout(capsys, "eval", "--pred-dir", str(easy_data),
                                        "--data-dir", str(easy_data)))

    csv_path = tmp_path / "scatter.csv"
    digests["complexity-json"] = _sha(_stdout(capsys, "complexity", "--out", str(csv_path)))
    digests["complexity-csv"] = _sha(csv_path.read_text(encoding="utf-8"))

    # A small synthetic corpus plus two easy problems sampled at another
    # seed, so some skeletons match with ranges that overlap only in part.
    corpus = tmp_path / "corpus"
    _stdout(capsys, "synth", "--n", "4", "--seed", "8", "--rows", "100", "--out", str(corpus))
    other = tmp_path / "other"
    _stdout(capsys, "generate", "--set", "easy", "--rows", "100", "--seed", "4",
            "--out", str(other))
    for pid in ("I.12.1", "I.12.5"):
        shutil.copytree(other / pid, corpus / pid)
    digests["leakcheck-synth"] = _sha(_stdout(capsys, "leakcheck", "--corpus", str(corpus),
                                              "--catalog", str(easy_data)))
    assert digests == REPORT_DIGESTS


SYNTH_DIGESTS = Path(__file__).with_name("synth_n30_seed1_rows100.sha256")


def test_synth_bytes_are_pinned(tmp_path, capsys):
    # Every file `synth --n 30 --seed 1 --rows 100` writes, in `sha256sum`
    # format: `sha256sum -c` in the output directory checks it too.
    out = tmp_path / "corpus"
    assert main(["synth", "--n", "30", "--seed", "1", "--rows", "100", "--out", str(out)]) == 0
    capsys.readouterr()
    written = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.rglob("*") if path.is_file()}
    pinned = {name: digest for digest, name in
              (line.split("  ", 1) for line in SYNTH_DIGESTS.read_text(encoding="utf-8").splitlines())}
    assert sorted(written) == sorted(pinned)
    assert [name for name in sorted(written) if written[name] != pinned[name]] == []
