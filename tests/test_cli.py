import filecmp
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from srsdkit import datagen
from srsdkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def easy_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "easy"
    code = main(["generate", "--set", "easy", "--rows", "200", "--seed", "3",
                 "--out", str(root)])
    assert code == 0
    return root


def test_generate_layout_and_manifest(easy_data, capsys):
    capsys.readouterr()
    dirs = [p for p in easy_data.iterdir() if p.is_dir()]
    assert len(dirs) == 30
    for name in ("train.txt", "val.txt", "test.txt", "true_eq.txt"):
        assert (easy_data / "I.12.1" / name).is_file()
    manifest = json.loads((easy_data / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 3
    assert manifest["config"]["rows"] == 200
    assert len(manifest["problems"]) == 30
    ids = [p["id"] for p in manifest["problems"]]
    assert ids == sorted(ids)


def test_generate_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code, _, _ = run(capsys, "generate", "--set", "easy", "--rows", "50",
                         "--seed", "9", "--out", str(out))
        assert code == 0
    mismatch = []
    for path in sorted(a.rglob("*")):
        if path.is_file():
            twin = b / path.relative_to(a)
            if not filecmp.cmp(path, twin, shallow=False):
                mismatch.append(path.name)
    assert mismatch == []


def test_generate_rejects_zero_rows(capsys):
    code, _, err = run(capsys, "generate", "--set", "easy", "--rows", "0",
                       "--out", "/tmp/nowhere")
    assert code == 1
    assert "rows" in err


@pytest.mark.parametrize("command, empty", [
    (["generate", "--set", "easy", "--rows", "5"], "val"),
    (["generate", "--set", "easy", "--rows", "1"], "train"),
    (["generate", "--set", "easy", "--rows", "10", "--split", "0.5,0.5,1e-10"], "test"),
    (["synth", "--n", "1", "--rows", "9"], "val"),
])
def test_rows_that_leave_a_split_empty_are_usage_errors(tmp_path, capsys, command, empty):
    # An empty split file would make eval, discover and leakcheck exit 2.
    out = tmp_path / "out"
    code, _, err = run(capsys, *command, "--seed", "1", "--out", str(out))
    assert code == 1
    assert f"leaves the {empty} split empty" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, name", [
    (["--copies-max", "0"], "--copies-max"),
    (["--k-lo", "3", "--k-hi", "1"], "--k-lo"),
    (["--alpha", "-1"], "--alpha"),
    (["--alpha", "nan"], "--alpha"),
    (["--max-tokens", "0"], "--max-tokens"),
])
def test_synth_with_impossible_sampling_flags_is_usage_error(tmp_path, capsys, flags, name):
    out = tmp_path / "out"
    code, _, err = run(capsys, "synth", "--n", "2", "--rows", "100", "--seed", "1", *flags,
                       "--out", str(out))
    assert code == 1
    assert err.startswith("usage error: ") and name in err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-5"])
@pytest.mark.parametrize("command", ["generate", "discover"])
def test_workers_below_one_are_usage_errors(tmp_path, easy_data, capsys, command, workers):
    out = tmp_path / "out"
    source = ["--set", "easy"] if command == "generate" else ["--data-dir", str(easy_data)]
    code, _, err = run(capsys, command, *source, "--workers", workers, "--out", str(out))
    assert code == 1
    assert err == f"usage error: --workers must be >= 1, got {workers}\n"
    assert not out.exists()


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "generate", "--frobnicate", "1", "--out", "/tmp/x")
    assert code == 1


def test_ned_golden_pair(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("mul2 C pow X2 C\n")
    truth.write_text("mul3 C X1 pow X2 C\n")
    code, out, _ = run(capsys, "ned", "--pred", str(pred), "--truth", str(truth))
    assert code == 0
    payload = json.loads(out)
    assert payload["ned"] == 0.16667
    assert payload["edit_distance"] == 1.0
    assert payload["truth_nodes"] == 6


def test_ned_accepts_true_eq_files(easy_data, capsys):
    path = str(easy_data / "I.12.4" / "true_eq.txt")
    code, out, _ = run(capsys, "ned", "--pred", path, "--truth", path)
    assert code == 0
    assert json.loads(out)["ned"] == 0.0


def test_ned_missing_file_is_data_error(capsys):
    code, _, err = run(capsys, "ned", "--pred", "/nonexistent/p.txt",
                       "--truth", "/nonexistent/t.txt")
    assert code == 2
    assert err


def test_ned_malformed_tokens_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("add2 X1\n")
    code, _, _ = run(capsys, "ned", "--pred", str(bad), "--truth", str(bad))
    assert code == 2


def test_eval_identical_dirs(easy_data, capsys):
    code, out, _ = run(capsys, "eval", "--pred-dir", str(easy_data),
                       "--data-dir", str(easy_data))
    assert code == 0
    payload = json.loads(out)
    summary = payload["summary"]["easy"]
    assert summary["accuracy_rate"] == 1.0
    assert summary["solution_rate"] == 1.0
    assert summary["mean_normalized_edit_distance"] == 0.0
    assert summary["count"] == 30
    assert payload["problems"][0]["selection_score"] == 0.0
    ids = [p["id"] for p in payload["problems"]]
    assert ids == sorted(ids)


def test_eval_summary_counts_rows_scored_with_tau(easy_data, capsys):
    code, out, _ = run(capsys, "eval", "--pred-dir", str(easy_data),
                       "--data-dir", str(easy_data), "--tau", "1.5")
    assert code == 0
    payload = json.loads(out)
    assert not any(p["accuracy_hit"] for p in payload["problems"])
    assert payload["summary"]["easy"]["accuracy_rate"] == 0.0
    assert payload["summary"]["easy"]["solution_rate"] == 1.0


def test_eval_missing_predictions_is_data_error(tmp_path, easy_data, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, _ = run(capsys, "eval", "--pred-dir", str(empty),
                     "--data-dir", str(easy_data))
    assert code == 2


def test_eval_prediction_with_missing_variable_is_data_error(tmp_path, easy_data, capsys):
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / "I.12.1.txt").write_text("mul2 X1 X9\n")
    code, _, err = run(capsys, "eval", "--pred-dir", str(preds),
                       "--data-dir", str(easy_data))
    assert code == 2
    assert "I.12.1" in err and "X9" in err


@pytest.mark.parametrize("name", ["test.txt", "true_eq.txt"])
def test_eval_of_a_file_that_is_not_utf8_is_data_error(tmp_path, easy_data, capsys, name):
    data = tmp_path / "data"
    shutil.copytree(easy_data, data)
    path = data / "I.12.1" / name
    text = path.read_bytes()
    path.write_bytes(text[:5] + b"\xff" + text[5:])
    code, _, err = run(capsys, "eval", "--pred-dir", str(data), "--data-dir", str(data))
    assert code == 2
    assert err == f"error: {path}: not UTF-8 text (invalid start byte at byte offset 5)\n"


def _put_ff(path, text: bytes) -> str:
    """Write ``text`` to ``path`` with a 0xff byte at offset 5; the error
    line the CLI should print for it."""
    path.write_bytes(text[:5] + b"\xff" + text[5:])
    return f"error: {path}: not UTF-8 text (invalid start byte at byte offset 5)\n"


def test_eval_of_a_prediction_that_is_not_utf8_is_data_error(tmp_path, easy_data, capsys):
    preds = tmp_path / "preds"
    preds.mkdir()
    expected = _put_ff(preds / "I.12.1.txt", b"mul2 X1 X2\n")
    code, _, err = run(capsys, "eval", "--pred-dir", str(preds), "--data-dir", str(easy_data))
    assert code == 2
    assert err == expected


@pytest.mark.parametrize("side", ["--pred", "--truth"])
def test_ned_of_a_file_that_is_not_utf8_is_data_error(tmp_path, capsys, side):
    good = tmp_path / "good.txt"
    good.write_text("mul2 X1 X2\n")
    bad = tmp_path / "bad.txt"
    expected = _put_ff(bad, b"mul2 X1 X2\n")
    files = {"--pred": good, "--truth": good, side: bad}
    code, _, err = run(capsys, "ned", "--pred", str(files["--pred"]),
                       "--truth", str(files["--truth"]))
    assert code == 2
    assert err == expected


def test_eval_with_a_manifest_that_is_not_utf8_is_data_error(tmp_path, easy_data, capsys):
    data = tmp_path / "data"
    shutil.copytree(easy_data, data)
    manifest = data / "manifest.json"
    expected = _put_ff(manifest, manifest.read_bytes())
    code, _, err = run(capsys, "eval", "--pred-dir", str(data), "--data-dir", str(data))
    assert code == 2
    assert err == expected


def test_discover_with_a_gp_config_that_is_not_utf8_is_data_error(tmp_path, easy_data, capsys):
    cfg = tmp_path / "gp.json"
    expected = _put_ff(cfg, b'{"generations": 1}')
    code, _, err = run(capsys, "discover", "--data-dir", str(easy_data),
                       "--gp-config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 2
    assert err == expected


@pytest.mark.parametrize("command", [
    ["generate", "--set", "easy", "--rows", "10"],
    ["complexity"],
    ["synth", "--n", "1", "--rows", "10"],
])
def test_catalog_that_is_not_utf8_is_data_error(tmp_path, capsys, command):
    catalog_path = tmp_path / "bad.json"
    catalog_path.write_bytes(b"[\xff]")
    out = ["--out", str(tmp_path / "out")] if command[0] != "complexity" else []
    code, _, err = run(capsys, *command, "--catalog", str(catalog_path), *out)
    assert code == 2
    assert err == f"error: {catalog_path}: not UTF-8 text (invalid start byte at byte offset 1)\n"


def test_deeply_nested_prediction_is_scored(tmp_path, easy_data, capsys):
    deep = "sin " * 3000 + "X1\n"
    pred = tmp_path / "deep.txt"
    pred.write_text(deep)
    truth = tmp_path / "x1.txt"
    truth.write_text("X1\n")
    # Decoding, skeletons and edit distances are iterative: ned scores it.
    code, out, _ = run(capsys, "ned", "--pred", str(pred), "--truth", str(truth))
    assert code == 0
    assert json.loads(out) == {"ned": 1.0, "edit_distance": 3000.0, "truth_nodes": 1}
    # So are canonicalization and the tree order: eval scores a deeper one.
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / "I.12.1.txt").write_text("sin " * 10_000 + "X1\n")
    code, out, _ = run(capsys, "eval", "--pred-dir", str(preds),
                       "--data-dir", str(easy_data))
    assert code == 0
    (row,) = [row for row in json.loads(out)["problems"] if row["id"] == "I.12.1"]
    assert row["normalized_edit_distance"] == 1.0


def test_power_cascade_prediction_is_scored(tmp_path, easy_data, capsys):
    # Raising a 1,000-level nest of (e*X2)^0.5 to 2^1000 distributes the
    # exponent down every level when the prediction is canonicalized.
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / "I.12.1.txt").write_text(
        "pow " + "pow mul2 2.718281828459045 " * 1000 + "X2" + " 0.5" * 1000
        + f" {2.0 ** 1000!r}\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        code, out, _ = run(capsys, "eval", "--pred-dir", str(preds),
                           "--data-dir", str(easy_data))
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert [row["id"] for row in json.loads(out)["problems"]] == ["I.12.1"]


def test_deeply_nested_formula_generates_the_same_bytes_with_two_workers(tmp_path, capsys):
    from srsdkit.catalog import builtin_problems, dumps

    text = dumps(builtin_problems("easy")[:1])
    formula = json.loads(text)[0]["formula"]
    catalog_path = tmp_path / "deep.json"
    catalog_path.write_text(text.replace(json.dumps(formula),
                                         json.dumps("sin(" * 10_000 + formula + ")" * 10_000)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        for workers in ("1", "2"):
            code, _, _ = run(capsys, "generate", "--catalog", str(catalog_path), "--set", "easy",
                             "--rows", "10", "--seed", "4", "--workers", workers,
                             "--out", str(tmp_path / workers))
            assert code == 0
    finally:
        sys.setrecursionlimit(limit)
    files = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*.txt"))
    assert len(files) == 4
    for path in files:
        assert filecmp.cmp(tmp_path / "1" / path, tmp_path / "2" / path, shallow=False), path
    assert (tmp_path / "1" / files[0].parent / "true_eq.txt").read_text().startswith("sin " * 10_000)


def test_malformed_constants_are_data_errors(tmp_path, easy_data, capsys):
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / "I.12.1.txt").write_text("mul2 1e999 X1\n")
    code, _, err = run(capsys, "eval", "--pred-dir", str(preds),
                       "--data-dir", str(easy_data))
    assert code == 2
    assert err == "error: constant '1e999' at token 1 is not a finite decimal literal\n"

    for bad in ("abc", "inf"):
        corpus = tmp_path / bad
        shutil.copytree(easy_data / "I.12.4", corpus / "I.12.4")
        path = corpus / "I.12.4" / "true_eq.txt"
        tokens, table = path.read_text().splitlines()
        path.write_text(tokens + "\n" + " ".join([bad] + table.split()[1:]) + "\n")
        code, _, err = run(capsys, "leakcheck", "--corpus", str(corpus),
                           "--catalog", str(easy_data))
        assert code == 2
        assert err == (f"error: {path}: constant {bad!r} at entry 0 of the constant "
                       "table is not a finite decimal literal\n")


def test_complexity_rows_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "scatter.csv"
    code, out, _ = run(capsys, "complexity", "--out", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 120
    sets = {r["set"] for r in payload["rows"]}
    assert sets == {"easy", "medium", "hard"}
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "id,op_count,domain_range,set"
    assert len(lines) == 121


def test_synth_corpus_and_leakcheck(tmp_path, easy_data, capsys):
    corpus = tmp_path / "corpus"
    code, out, _ = run(capsys, "synth", "--n", "5", "--seed", "2", "--rows", "120",
                       "--out", str(corpus))
    assert code == 0
    manifest = json.loads(out)
    assert len(manifest["equations"]) == 5
    for entry in manifest["equations"]:
        assert (corpus / entry["equation_file"]).is_file()
        assert 1 <= len(entry["datasets"]) <= 10
        for d in entry["datasets"]:
            if d["status"] == "ok":
                assert (corpus / d["dir"] / "true_eq.txt").is_file()
                assert all(-8 <= k <= 8 for k in d["k"].values())

    code, out, _ = run(capsys, "leakcheck", "--corpus", str(easy_data),
                       "--catalog", str(easy_data))
    assert code == 0
    assert json.loads(out)["mean_iou"] == 1.0


def test_leakcheck_synth_vs_catalog(tmp_path, easy_data, capsys):
    corpus = tmp_path / "c2"
    run(capsys, "synth", "--n", "4", "--seed", "8", "--rows", "100", "--out", str(corpus))
    code, out, _ = run(capsys, "leakcheck", "--corpus", str(corpus),
                       "--catalog", str(easy_data))
    assert code == 0
    payload = json.loads(out)
    assert 0.0 <= payload["mean_iou"] <= 1.0


# sha256 of the `leakcheck` stdout for two fixed inputs: many skeleton matches
# (easy against itself) and a synthetic corpus against easy.
LEAKCHECK_DIGESTS = {
    "easy": "ea82ee1a14070dc2e2ae911e7e6e55aa1013efe4aeb696d9f12c947faffa4a22",
    "synth": "ef7c42705baff3b83b709e84572241e7abd4fdb4622259896d3d0fc3f354c63b",
}


def test_leakcheck_output_is_pinned(tmp_path, easy_data, capsys):
    corpus = tmp_path / "synth"
    code, _, _ = run(capsys, "synth", "--n", "5", "--seed", "2", "--rows", "120",
                     "--out", str(corpus))
    assert code == 0
    digests = {}
    for name, root in (("easy", easy_data), ("synth", corpus)):
        code, out, _ = run(capsys, "leakcheck", "--corpus", str(root),
                           "--catalog", str(easy_data))
        assert code == 0
        digests[name] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digests == LEAKCHECK_DIGESTS


@pytest.fixture(scope="module")
def synth_corpus(tmp_path_factory):
    """The synthetic corpus of the ``synth`` digest: no skeleton it holds
    occurs in the easy set."""
    root = tmp_path_factory.mktemp("synth") / "corpus"
    assert main(["synth", "--n", "5", "--seed", "2", "--rows", "120", "--out", str(root)]) == 0
    return root


def _spy_reads(monkeypatch) -> list:
    """Record the path of every dataset file the CLI reads."""
    reads = []
    original = datagen.read

    def spy(path, *args, **kwargs):
        reads.append(Path(path))
        return original(path, *args, **kwargs)

    monkeypatch.setattr(datagen, "read", spy)
    return reads


def _skeleton_lines(root) -> dict:
    """Problem directory -> line 1 of its ``true_eq.txt`` (the skeleton's tokens)."""
    return {p.parent: p.read_text().splitlines()[0] for p in root.glob("*/true_eq.txt")}


def test_leakcheck_reads_data_files_only_of_skeleton_matches(
        tmp_path, easy_data, synth_corpus, capsys, monkeypatch):
    corpus = tmp_path / "mixed"
    shutil.copytree(synth_corpus, corpus)
    for pid in ("I.12.1", "I.14.4"):
        shutil.copytree(easy_data / pid, corpus / pid)
    corpus_lines, easy_lines = _skeleton_lines(corpus), _skeleton_lines(easy_data)
    shared = set(corpus_lines.values()) & set(easy_lines.values())
    matched = {d for lines in (corpus_lines, easy_lines) for d, line in lines.items()
               if line in shared}
    assert 4 <= len(matched) < len(corpus_lines) + len(easy_lines)

    reads = _spy_reads(monkeypatch)
    code, out, _ = run(capsys, "leakcheck", "--corpus", str(corpus),
                       "--catalog", str(easy_data))
    assert code == 0
    assert sorted(reads) == sorted(d / name for d in matched
                                   for name in ("train.txt", "val.txt", "test.txt"))
    assert sum(e["n_matches"] for e in json.loads(out)["per_equation"]) >= 2

    reads.clear()
    code, _, _ = run(capsys, "leakcheck", "--corpus", str(easy_data),
                     "--catalog", str(easy_data))
    assert code == 0
    assert len(reads) == 2 * 3 * 30  # every file, once per side


def test_leakcheck_without_a_match_reads_no_data_file(easy_data, synth_corpus, capsys,
                                                       monkeypatch):
    reads = _spy_reads(monkeypatch)
    code, out, _ = run(capsys, "leakcheck", "--corpus", str(synth_corpus),
                       "--catalog", str(easy_data))
    assert code == 0
    assert reads == []
    payload = json.loads(out)
    assert payload["mean_iou"] == payload["mean_of_mean_iou"] == 0.0
    assert {e["n_matches"] for e in payload["per_equation"]} == {0}


def test_leakcheck_validates_data_files_only_of_skeleton_matches(
        tmp_path, easy_data, synth_corpus, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(synth_corpus, corpus)
    unmatched = sorted(_skeleton_lines(synth_corpus))[0].name
    (corpus / unmatched / "test.txt").write_text("1 nan\n")
    code, out, _ = run(capsys, "leakcheck", "--corpus", str(corpus),
                       "--catalog", str(easy_data))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LEAKCHECK_DIGESTS["synth"]

    # The same corruption in a problem whose skeleton the easy set shares.
    shutil.copytree(easy_data / "I.12.1", corpus / "I.12.1")
    bad = corpus / "I.12.1" / "test.txt"
    bad.write_text("1 nan\n")
    code, _, err = run(capsys, "leakcheck", "--corpus", str(corpus),
                       "--catalog", str(easy_data))
    assert code == 2
    assert err == f"error: {bad}: non-finite value in data row 1\n"


def test_leakcheck_of_a_problem_without_data_files_is_data_error(
        tmp_path, easy_data, synth_corpus, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(synth_corpus, corpus)
    empty = sorted(_skeleton_lines(synth_corpus))[0].name  # matches no easy skeleton
    for name in ("train.txt", "val.txt", "test.txt"):
        (corpus / empty / name).unlink()
    code, _, err = run(capsys, "leakcheck", "--corpus", str(corpus),
                       "--catalog", str(easy_data))
    assert code == 2
    assert err == f"error: {corpus / empty}: no dataset files\n"


def test_leakcheck_of_split_files_of_different_widths_is_data_error(
        tmp_path, easy_data, synth_corpus, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(synth_corpus, corpus)
    shutil.copytree(easy_data / "I.12.1", corpus / "I.12.1")
    wide = corpus / "I.12.1" / "val.txt"
    wide.write_text("1 2 3 4\n")
    code, _, err = run(capsys, "leakcheck", "--corpus", str(corpus),
                       "--catalog", str(easy_data))
    assert code == 2
    assert err == f"error: {wide}: expected 3 columns as in train.txt, found 4\n"


def test_discover_and_eval_roundtrip(tmp_path, easy_data, capsys):
    preds = tmp_path / "preds"
    code, out, _ = run(capsys, "discover", "--data-dir", str(easy_data),
                       "--problems", "I.12.1", "--seeds", "2", "--seed", "0",
                       "--out", str(preds))
    assert code == 0
    manifest = json.loads(out)
    assert manifest["problems"][0]["id"] == "I.12.1"
    assert (preds / "I.12.1.txt").is_file()
    code, out, _ = run(capsys, "eval", "--pred-dir", str(preds),
                       "--data-dir", str(easy_data))
    assert code == 0
    payload = json.loads(out)
    row = [p for p in payload["problems"] if p["id"] == "I.12.1"][0]
    assert row["symbolic_solution"] is True
    assert len(payload["skipped"]) == 29


def test_discover_rejects_bad_gp_config(tmp_path, easy_data, capsys):
    cfg = tmp_path / "gp.json"
    cfg.write_text(json.dumps({"population_size": 1}))
    code, _, _ = run(capsys, "discover", "--data-dir", str(easy_data),
                     "--gp-config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1
    cfg.write_text(json.dumps({"nope": 3}))
    code, _, _ = run(capsys, "discover", "--data-dir", str(easy_data),
                     "--gp-config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1


@pytest.mark.parametrize("config, key", [
    ({"population_size": "abc"}, "population_size"),
    ({"population_size": 4, "generations": 0, "top_k": True}, "top_k"),
    ({"population_size": 4, "generations": 0, "top_k": 0}, "top_k"),
    ({"operators": 5}, "operators"),
    ({"operators": [["add"]]}, "operators"),
    ({"const_range": [1]}, "const_range"),
    ({"generations": 1.5, "population_size": 10}, "generations"),
    ({"p_crossover": "0.5"}, "p_crossover"),
])
def test_discover_with_a_malformed_gp_config_is_usage_error(tmp_path, easy_data, capsys,
                                                            config, key):
    cfg = tmp_path / "gp.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, "discover", "--data-dir", str(easy_data),
                       "--gp-config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith("usage error: ") and key in err


def test_discover_with_a_seed_in_the_gp_config_is_usage_error(tmp_path, easy_data, capsys):
    # The seed has one home, --seed; a config key would silently override it.
    cfg = tmp_path / "gp.json"
    cfg.write_text(json.dumps({"population_size": 10, "generations": 2, "seed": 5}))
    out = tmp_path / "o"
    code, _, err = run(capsys, "discover", "--data-dir", str(easy_data), "--seed", "1",
                       "--gp-config", str(cfg), "--out", str(out))
    assert code == 1
    assert err.startswith("usage error: ") and "--seed" in err
    assert not out.exists()


def test_discover_with_a_gp_config_that_is_not_an_object_is_data_error(tmp_path, easy_data,
                                                                       capsys):
    cfg = tmp_path / "gp.json"
    cfg.write_text("5\n")
    code, _, err = run(capsys, "discover", "--data-dir", str(easy_data),
                       "--gp-config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 2
    assert err == f"error: {cfg}: not a JSON object\n"


@pytest.mark.parametrize("manifest", ["[1, 2]", '{"problems": 5}', '{"problems": [1]}'])
def test_eval_with_a_manifest_that_is_not_an_object_of_problems_is_data_error(
        tmp_path, easy_data, capsys, manifest):
    data = tmp_path / "data"
    shutil.copytree(easy_data, data)
    (data / "manifest.json").write_text(manifest)
    code, _, err = run(capsys, "eval", "--pred-dir", str(data), "--data-dir", str(data))
    assert code == 2
    assert err.startswith(f"error: {data / 'manifest.json'}: not a JSON object")


def test_synth_discover_eval_loop_names_no_sets(tmp_path, capsys):
    # synth's manifest lists `equations`, not `problems`.
    corpus, preds, cfg = tmp_path / "corpus", tmp_path / "preds", tmp_path / "gp.json"
    cfg.write_text('{"population_size": 20, "generations": 2}')
    assert main(["synth", "--n", "4", "--seed", "2", "--rows", "100", "--out", str(corpus)]) == 0
    assert main(["discover", "--data-dir", str(corpus), "--gp-config", str(cfg),
                 "--seeds", "1", "--out", str(preds)]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "eval", "--pred-dir", str(preds), "--data-dir", str(corpus))
    assert code == 0 and err == ""
    rows = json.loads(out)["problems"]
    assert len(rows) == len(list(preds.glob("synth-*.txt"))) > 0
    assert {row["set"] for row in rows} == {"unknown"}


def test_eval_of_an_overflowing_prediction_warns_nothing(tmp_path, easy_data, capsys):
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / "I.12.1.txt").write_text("mul2 1e200 X1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "eval", "--pred-dir", str(preds),
                             "--data-dir", str(easy_data))
    assert code == 0 and err == ""
    (row,) = json.loads(out)["problems"]
    assert row["r_squared"] is None and not row["accuracy_hit"]


def test_seed_env_fallback(tmp_path, easy_data, capsys, monkeypatch):
    monkeypatch.setenv("SRSD_SEED", "77")
    out_dir = tmp_path / "env"
    code, out, _ = run(capsys, "generate", "--set", "easy", "--rows", "20",
                       "--out", str(out_dir))
    assert code == 0
    assert json.loads(out)["config"]["master_seed"] == 77


def test_generate_with_noise_perturbs_targets_only(tmp_path, capsys):
    clean_dir, noisy_dir = tmp_path / "clean", tmp_path / "noisy"
    run(capsys, "generate", "--set", "easy", "--rows", "100", "--seed", "6",
        "--out", str(clean_dir))
    code, out, _ = run(capsys, "generate", "--set", "easy", "--rows", "100",
                       "--seed", "6", "--noise", "0.01", "--out", str(noisy_dir))
    assert code == 0
    assert json.loads(out)["config"]["noise_level"] == 0.01
    import numpy as np
    from srsdkit.datagen import read
    clean = read(clean_dir / "I.12.1" / "train.txt")
    noisy = read(noisy_dir / "I.12.1" / "train.txt")
    assert (clean.X == noisy.X).all()
    assert not (clean.y == noisy.y).all()


@pytest.mark.parametrize("noise", ["inf", "nan", "-1"])
def test_generate_with_a_non_finite_or_negative_noise_is_usage_error(tmp_path, capsys, noise):
    out = tmp_path / "out"
    code, _, err = run(capsys, "generate", "--set", "easy", "--rows", "10", "--noise", noise,
                       "--out", str(out))
    assert code == 1
    assert err == f"usage error: --noise must be finite and >= 0, got {float(noise)}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_generate_refuses_noise_that_overflows_and_writes_no_non_finite_cell(tmp_path, capsys):
    # III.7.38's noise scale overflows at this level; the problems written
    # before it still hold only finite cells.
    out = tmp_path / "out"
    code, _, err = run(capsys, "generate", "--set", "easy", "--rows", "10", "--noise", "1e300",
                       "--out", str(out))
    assert code == 2
    assert err == "error: III.7.38: noise level 1e+300 gives a non-finite noise scale\n"
    assert not (out / "III.7.38").exists()
    splits = [p for p in out.glob("*/*.txt") if p.name != "true_eq.txt"]
    assert splits
    for path in splits:
        assert np.isfinite(datagen.read(path).values).all()


def test_generate_custom_split_ratios(tmp_path, capsys):
    out_dir = tmp_path / "custom"
    code, out, _ = run(capsys, "generate", "--set", "easy", "--rows", "100",
                       "--seed", "2", "--split", "0.6,0.2,0.2", "--out", str(out_dir))
    assert code == 0
    entry = [p for p in json.loads(out)["problems"] if p["id"] == "I.12.1"][0]
    assert entry["splits"] == {"train": 60, "val": 20, "test": 20}
    code, _, _ = run(capsys, "generate", "--set", "easy", "--rows", "100",
                     "--split", "0.5,0.5,0.5", "--out", str(tmp_path / "bad"))
    assert code == 1  # invalid flag value is a usage error


def test_generate_from_custom_catalog_file(tmp_path, capsys):
    from srsdkit.catalog import builtin_problems, save

    catalog_path = tmp_path / "two.json"
    save(builtin_problems("easy")[:2], catalog_path)
    out_dir = tmp_path / "custom-data"
    code, out, _ = run(capsys, "generate", "--catalog", str(catalog_path),
                       "--set", "easy", "--rows", "50", "--seed", "1",
                       "--out", str(out_dir))
    assert code == 0
    assert len(json.loads(out)["problems"]) == 2
    code, _, _ = run(capsys, "generate", "--catalog", str(catalog_path),
                     "--set", "hard", "--rows", "50", "--out", str(tmp_path / "x"))
    assert code == 2  # no hard problems in that file


def test_complexity_set_filter(capsys):
    code, out, _ = run(capsys, "complexity", "--set", "medium")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 40
    assert {r["set"] for r in rows} == {"medium"}


def test_commands_do_not_mutate_inputs(tmp_path, easy_data, capsys):
    snapshot = {
        p: p.read_bytes() for p in sorted(easy_data.rglob("*")) if p.is_file()
    }
    run(capsys, "eval", "--pred-dir", str(easy_data), "--data-dir", str(easy_data))
    run(capsys, "leakcheck", "--corpus", str(easy_data), "--catalog", str(easy_data))
    run(capsys, "discover", "--data-dir", str(easy_data), "--problems", "I.12.1",
        "--seeds", "1", "--out", str(tmp_path / "p"))
    for path, before in snapshot.items():
        assert path.read_bytes() == before, path


def test_workers_do_not_change_output(tmp_path, capsys):
    a, b = tmp_path / "w1", tmp_path / "w2"
    run(capsys, "generate", "--set", "easy", "--rows", "40", "--seed", "5",
        "--out", str(a))
    run(capsys, "generate", "--set", "easy", "--rows", "40", "--seed", "5",
        "--workers", "2", "--out", str(b))
    for path in sorted(a.rglob("*.txt")):
        twin = b / path.relative_to(a)
        assert filecmp.cmp(path, twin, shallow=False), path
    cfg = tmp_path / "gp.json"
    cfg.write_text(json.dumps({"population_size": 10, "generations": 1}))
    for workers, out in (("1", tmp_path / "d1"), ("2", tmp_path / "d2")):
        code, _, _ = run(capsys, "discover", "--data-dir", str(a), "--gp-config", str(cfg),
                         "--problems", "I.12.1", "I.12.4", "--workers", workers,
                         "--out", str(out))
        assert code == 0
    for path in sorted((tmp_path / "d1").iterdir()):
        twin = tmp_path / "d2" / path.name
        assert filecmp.cmp(path, twin, shallow=False), path


def test_importing_the_cli_loads_no_process_pool():
    # The pool's modules load only when a command runs with --workers > 1.
    probe = ("import sys, srsdkit.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
