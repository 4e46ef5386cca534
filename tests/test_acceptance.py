"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints a PASS/FAIL line in the terminal summary (see conftest).
"""

import filecmp
import json
import math
import random
import time

import numpy as np
import pytest

from srsdkit.catalog import builtin_problems, load_builtin
from srsdkit.cli import main as cli_main
from srsdkit.datagen import derive_seed, inject_noise, sample
from srsdkit.evalkit import is_symbolic_solution, r_squared
from srsdkit.expr import (
    add,
    canonicalize,
    const,
    evaluate_many,
    mul,
    parse,
    skeletonize,
)
from srsdkit.synthgen import (
    LeakageItem,
    leakage_report,
    observed_ranges,
    sample_equation,
    train_bigram,
)
from srsdkit.treedist import edit_distance, normalized_edit_distance

from gen_util import agreeing_rows, random_expression, random_skeleton
from oracle import brute_force_distance


def _skel(text, names, consts=None):
    return skeletonize(canonicalize(parse(text, names, consts)))


def test_golden_ned_vectors():
    start = time.monotonic()
    truth_field = _skel("q1/(4*pi*epsilon*r^2)", ["q1", "r"], {"epsilon": 8.854e-12})
    pred_st_field = _skel("0.31 * r^-1.6", ["q1", "r"])
    truth_energy = _skel("m * g * z", ["m", "z"], {"g": 9.807})
    pred_st_energy = _skel("m * z", ["m", "z"])
    pred_dsr = _skel(
        "x1 * x2 * (0.7 - (1.3*x2 + 2.9*log(cos(x2))) * (-x1 + x2 + 4.2) / x2)",
        ["x1", "x2"],
    )
    assert normalized_edit_distance(pred_st_field, truth_field) == pytest.approx(0.167, abs=5e-4)
    assert normalized_edit_distance(pred_st_energy, truth_energy) == pytest.approx(0.250, abs=5e-4)
    assert normalized_edit_distance(truth_energy, truth_energy) == pytest.approx(0.000, abs=5e-4)
    assert normalized_edit_distance(pred_dsr, truth_energy) == pytest.approx(1.000, abs=5e-4)
    assert time.monotonic() - start < 1.0


def test_edit_distance_matches_brute_force_oracle():
    start = time.monotonic()
    rng = random.Random(20240817)
    mismatches = 0
    for _ in range(200):
        a = random_skeleton(rng, max_nodes=7)
        b = random_skeleton(rng, max_nodes=7)
        if edit_distance(a, b) != brute_force_distance(a, b):
            mismatches += 1
    assert mismatches == 0
    assert time.monotonic() - start < 30.0


def test_canonicalizer_aliases_and_properties():
    forms = ["x + x + x", "4*x - x", "x + 2*x"]
    canons = [canonicalize(parse(t, ["x"])) for t in forms]
    assert canons[0] == canons[1] == canons[2]

    rng = random.Random(1234)
    checked = 0
    for _ in range(1000):
        e = random_expression(rng)
        c = canonicalize(e)
        assert canonicalize(c) == c  # idempotence
        X = np.array([[rng.uniform(-3.0, 3.0) for _ in range(3)] for _ in range(100)])
        checked += agreeing_rows(e, c, X)
    assert checked > 10_000


def test_catalog_integrity():
    assert len(builtin_problems("easy")) == 30
    assert len(builtin_problems("medium")) == 40
    assert len(builtin_problems("hard")) == 50
    assert load_builtin("I.12.4").constants["epsilon"] == 8.854e-12
    for spec in builtin_problems():
        ds = sample(spec, 1000, derive_seed(17, spec.id))
        assert ds.n_rows == 1000
        assert np.isfinite(ds.values).all(), spec.id
        _, faulted = evaluate_many(spec.canonical_expression, ds.X)
        assert not faulted.any(), spec.id
        for j, var in enumerate(spec.sampled_variables):
            col = ds.X[:, j]
            if var.sign == "positive":
                assert (col > 0).all(), (spec.id, var.name)
            elif var.sign == "negative":
                assert (col < 0).all(), (spec.id, var.name)
            elif var.sign == "nonnegative":
                assert (col >= 0).all(), (spec.id, var.name)
            if var.value_class in ("integer", "wide_integer"):
                assert (col == np.rint(col)).all(), (spec.id, var.name)


def test_noise_injection():
    spec = load_builtin("I.12.1")
    ds = sample(spec, 1_000_000, derive_seed(0, spec.id))
    assert (inject_noise(ds, 0.0, seed=3).values == ds.values).all()
    gamma = 0.1
    noisy = inject_noise(ds, gamma, seed=3)
    sigma = gamma * math.sqrt(abs(ds.y.mean()))
    assert (noisy.y - ds.y).std() == pytest.approx(sigma, rel=0.05)


def test_metric_examples():
    assert abs(r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) - 1.0) <= 1e-12
    assert abs(r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) - 0.0) <= 1e-12
    assert abs(r_squared([1.0, 2.0, 4.0], [1.0, 2.0, 3.0]) - 0.5) <= 1e-12

    truth = parse("mu * Nn", ["mu", "Nn"])
    assert is_symbolic_solution(add(parse("mu * Nn", ["mu", "Nn"]), const(7.0)), truth)
    assert is_symbolic_solution(mul(const(2.0), parse("mu * Nn", ["mu", "Nn"])), truth)
    assert not is_symbolic_solution(parse("mu * Nn + mu", ["mu", "Nn"]), truth)


def test_end_to_end_generate_discover_eval(tmp_path, capsys):
    start = time.monotonic()
    data = tmp_path / "data"
    preds = tmp_path / "preds"
    assert cli_main(["generate", "--set", "easy", "--rows", "2000", "--seed", "1",
                     "--out", str(data)]) == 0
    capsys.readouterr()
    assert cli_main(["discover", "--data-dir", str(data), "--seeds", "5", "--seed", "0",
                     "--out", str(preds)]) == 0
    capsys.readouterr()
    assert cli_main(["eval", "--pred-dir", str(preds), "--data-dir", str(data)]) == 0
    payload = json.loads(capsys.readouterr().out)
    row = [p for p in payload["problems"] if p["id"] == "I.12.1"][0]
    assert row["symbolic_solution"] is True or row["normalized_edit_distance"] == 0.0
    assert time.monotonic() - start < 300.0


def test_synthetic_equation_generator_and_leakage():
    model = train_bigram([s.skeleton for s in builtin_problems()], alpha=1.0)
    for i in range(1000):
        expr = sample_equation(model, 24, np.random.SeedSequence([100, i]))
        assert expr.variables()
        assert not canonicalize(expr).is_constant

    items = []
    for pid in ("I.12.1", "I.14.3", "I.27.6", "II.38.14"):
        spec = load_builtin(pid)
        ds = sample(spec, 300, derive_seed(2, pid))
        items.append(LeakageItem(pid, spec.skeleton, observed_ranges(ds.X)))
    self_check = leakage_report(items, items)
    assert self_check.mean_iou == 1.0

    disjoint = leakage_report(items[2:3], items[3:4])  # skeletons differ
    assert disjoint.mean_iou == 0.0


def test_cli_determinism(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli_main(["generate", "--set", "easy", "--rows", "60", "--seed", "21",
                         "--out", str(out)]) == 0
    capsys.readouterr()
    for path in sorted(a.rglob("*")):
        if path.is_file():
            assert filecmp.cmp(path, b / path.relative_to(a), shallow=False), path

    corpus_a, corpus_b = tmp_path / "ca", tmp_path / "cb"
    for out in (corpus_a, corpus_b):
        assert cli_main(["synth", "--n", "3", "--seed", "4", "--rows", "80",
                         "--out", str(out)]) == 0
    capsys.readouterr()
    for path in sorted(corpus_a.rglob("*")):
        if path.is_file():
            assert filecmp.cmp(path, corpus_b / path.relative_to(corpus_a), shallow=False), path

    preds_a, preds_b = tmp_path / "pa", tmp_path / "pb"
    for out in (preds_a, preds_b):
        assert cli_main(["discover", "--data-dir", str(a), "--problems", "I.12.1",
                         "--seeds", "2", "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert filecmp.cmp(preds_a / "I.12.1.txt", preds_b / "I.12.1.txt", shallow=False)
