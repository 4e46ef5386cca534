"""The library calls behind ``eval`` and ``leakcheck``: each returns exactly
the report the command prints, and names the problem of a bad prediction."""

import json
import shutil

import pytest

from srsdkit import datagen, evalkit, synthgen
from srsdkit.cli import main
from srsdkit.expr import expression_to_prefix


def _printed(report: dict) -> str:
    """The text the CLI prints for ``report``."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _run(capsys, *argv) -> tuple[int, str, str]:
    capsys.readouterr()
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def easy100(tmp_path_factory):
    root = tmp_path_factory.mktemp("lib") / "easy"
    assert main(["generate", "--set", "easy", "--rows", "100", "--seed", "1",
                 "--out", str(root)]) == 0
    return root


@pytest.fixture(scope="module")
def corpus5(tmp_path_factory, easy100):
    """A 5-equation synthetic corpus plus two easy problems, so that some
    skeletons match the easy set and some do not."""
    root = tmp_path_factory.mktemp("lib") / "corpus"
    assert main(["synth", "--n", "5", "--seed", "2", "--rows", "120", "--out", str(root)]) == 0
    for pid in ("I.12.1", "I.14.4"):
        shutil.copytree(easy100 / pid, root / pid)
    return root


@pytest.fixture(scope="module")
def mixed_preds(tmp_path_factory, easy100):
    """Good, wrong, self-scored (a copied problem directory) and missing
    predictions."""
    root = tmp_path_factory.mktemp("lib") / "preds"
    root.mkdir()
    truth = datagen.read_true_equation(easy100 / "I.12.1" / "true_eq.txt")
    (root / "I.12.1.txt").write_text(" ".join(expression_to_prefix(truth)) + "\n")
    (root / "I.12.4.txt").write_text("mul2 X1 X1\n")
    (root / "I.14.3.txt").write_text("add2 X1 1.5\n")
    shutil.copytree(easy100 / "II.3.24", root / "II.3.24")
    return root


@pytest.mark.parametrize("tau", [None, "0.5"])
def test_eval_report_is_what_eval_prints(easy100, mixed_preds, capsys, tau):
    flags = [] if tau is None else ["--tau", tau]
    code, out, _ = _run(capsys, "eval", "--pred-dir", str(mixed_preds),
                        "--data-dir", str(easy100), *flags)
    assert code == 0
    kwargs = {} if tau is None else {"tau": float(tau)}
    report = evalkit.eval_report(mixed_preds, easy100, **kwargs)
    assert _printed(report) == out
    assert [row["id"] for row in report["problems"]] == ["I.12.1", "I.12.4", "I.14.3", "II.3.24"]
    assert len(report["skipped"]) == 26
    assert report["summary"]["easy"]["count"] == 4


def test_eval_report_of_a_data_dir_against_itself(easy100, capsys):
    code, out, _ = _run(capsys, "eval", "--pred-dir", str(easy100), "--data-dir", str(easy100))
    assert code == 0
    assert _printed(evalkit.eval_report(str(easy100), str(easy100))) == out


@pytest.mark.parametrize("corpus_side", ["corpus", "easy"])
def test_leakcheck_report_is_what_leakcheck_prints(easy100, corpus5, capsys, corpus_side):
    corpus = corpus5 if corpus_side == "corpus" else easy100
    code, out, _ = _run(capsys, "leakcheck", "--corpus", str(corpus), "--catalog", str(easy100))
    assert code == 0
    report = synthgen.leakcheck_report(corpus, easy100)
    assert _printed(report) == out
    assert sum(e["n_matches"] for e in report["per_equation"]) >= 2


def test_an_undecodable_prediction_names_its_problem(easy100, tmp_path, capsys):
    (tmp_path / "I.12.1.txt").write_text("add2 X1\n")
    code, out, err = _run(capsys, "eval", "--pred-dir", str(tmp_path),
                          "--data-dir", str(easy100))
    assert (code, out) == (2, "")
    assert err == "error: I.12.1: invalid prediction: truncated sequence: expected a token at 2\n"
    with pytest.raises(datagen.DataError, match=r"^I\.12\.1: invalid prediction: truncated"):
        evalkit.eval_report(tmp_path, easy100)


def test_problem_dirs_are_the_directories_with_a_true_equation(easy100, tmp_path):
    assert [p.name for p in datagen.problem_dirs(easy100)] == sorted(
        p.name for p in easy100.iterdir() if p.is_dir())
    (tmp_path / "no-truth").mkdir()
    with pytest.raises(datagen.DataError, match="no problem directories"):
        datagen.problem_dirs(tmp_path)
