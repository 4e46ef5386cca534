import json
import math
import random
import warnings

import numpy as np
import pytest

from srsdkit.catalog import load_builtin
from srsdkit.datagen import Dataset, derive_seed, sample, split
from srsdkit.evalkit import (
    NoViableCandidateError,
    ZeroVarianceError,
    evaluate_against,
    is_symbolic_solution,
    r_squared,
    relative_error_score,
    select_best,
    summarize,
)
from srsdkit.expr import (
    add,
    canonicalize,
    const,
    evaluate_many,
    mul,
    op_node,
    parse,
    to_program,
    var,
)

from gen_util import random_expression
from oracle import masked_relative_error_score


def test_r_squared_perfect_predictions():
    assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0


def test_r_squared_mean_predictor_is_zero():
    assert r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0


def test_r_squared_half():
    assert r_squared([1.0, 2.0, 4.0], [1.0, 2.0, 3.0]) == 0.5


def test_r_squared_exactness():
    assert abs(r_squared([1.0, 2.0, 4.0], [1.0, 2.0, 3.0]) - 0.5) <= 1e-12
    assert abs(r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) - 1.0) <= 1e-12
    assert abs(r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) - 0.0) <= 1e-12


def test_r_squared_zero_variance_is_undefined():
    with pytest.raises(ZeroVarianceError):
        r_squared([1.0, 2.0], [5.0, 5.0])


def test_r_squared_of_overflowing_squares_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert r_squared([1e200, 2e200, 3e200], [1.0, 2.0, 3.0]) == -math.inf


def test_r_squared_shape_validation():
    with pytest.raises(ValueError):
        r_squared([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        r_squared([], [])


def _report(pid, set_name, r2, sol, ned):
    return {
        "id": pid, "set": set_name, "r_squared": r2,
        "accuracy_hit": r2 > 0.999, "symbolic_solution": sol,
        "edit_distance": ned * 4, "normalized_edit_distance": ned,
        "selection_score": None,
    }


def _rates(reports):
    easy = summarize(reports)["easy"]
    return easy["accuracy_rate"], easy["solution_rate"]


def test_accuracy_rate_examples():
    perfect = [_report(f"p{i}", "easy", 1.0, True, 0.0) for i in range(5)]
    assert _rates(perfect)[0] == 1.0
    duds = [_report(f"p{i}", "easy", 0.5, False, 1.0) for i in range(5)]
    assert _rates(duds)[0] == 0.0
    mixed = [_report(f"p{i}", "easy", 1.0 if i < 3 else 0.0, False, 1.0) for i in range(30)]
    assert _rates(mixed)[0] == pytest.approx(0.1)


def test_rates_are_monotone_under_failures():
    reports = [_report("a", "easy", 1.0, True, 0.0)]
    before_acc, before_sol = _rates(reports)
    reports.append(_report("b", "easy", -2.0, False, 1.0))
    after_acc, after_sol = _rates(reports)
    assert after_acc <= before_acc
    assert after_sol <= before_sol


TRUTH = parse("mu * Nn", ["mu", "Nn"])


def test_scalar_multiple_is_a_solution():
    pred = mul(const(2.0), parse("mu * Nn", ["mu", "Nn"]))
    assert is_symbolic_solution(pred, TRUTH)


def test_constant_offset_is_a_solution():
    pred = add(parse("mu * Nn", ["mu", "Nn"]), const(7.0))
    assert is_symbolic_solution(pred, TRUTH)


def test_additive_variable_is_not_a_solution():
    pred = parse("mu * Nn + mu", ["mu", "Nn"])
    assert not is_symbolic_solution(pred, TRUTH)


def test_identity_is_a_solution():
    assert is_symbolic_solution(TRUTH, TRUTH)


def test_solution_detection_on_power_form_truth():
    truth = parse("q1/(4*pi*epsilon*r^2)", ["q1", "r"], {"epsilon": 8.854e-12})
    pred = mul(const(-3.5), parse("q1/(4*pi*epsilon*r^2)", ["q1", "r"], {"epsilon": 8.854e-12}))
    assert is_symbolic_solution(pred, truth)


def test_zero_prediction_is_not_a_scalar_solution():
    assert not is_symbolic_solution(const(0.0), TRUTH)


def _toy_dataset(xs, ys):
    xs = np.asarray(xs, dtype=float).reshape(len(xs), -1)
    values = np.column_stack([xs, np.asarray(ys, dtype=float)])
    return Dataset(values)


def test_relative_error_score_example():
    # predictions [2, 4] against targets [1, 4]
    ds = _toy_dataset([[2.0], [4.0]], [1.0, 4.0])
    assert relative_error_score(var(0), ds.X, ds.y) == pytest.approx(0.5)


def test_relative_error_skips_tiny_targets():
    ds = _toy_dataset([[2.0], [4.0]], [0.0, 4.0])
    assert relative_error_score(var(0), ds.X, ds.y) == 0.0


def test_relative_error_faulting_majority_is_inf():
    ds = _toy_dataset([[-1.0], [-2.0], [3.0]], [1.0, 1.0, 1.0])
    score = relative_error_score(parse("log(x)", ["x"]), ds.X, ds.y)
    assert math.isinf(score)


def test_relative_error_score_is_bit_identical_to_masked_reference():
    rng = random.Random(77)
    data = np.random.default_rng(77)
    # log(-(|x1| + 1)) faults on every row.
    always_faults = op_node("log", op_node("neg", add(op_node("abs", var(0)), const(1.0))))
    seen = {"inf": 0, "every_row_used": 0, "rows_skipped": 0}
    for trial in range(400):
        expr = always_faults if trial % 50 == 0 else random_expression(rng, max_depth=5)
        rows = 0 if trial % 40 == 1 else int(data.integers(1, 80))
        X = data.uniform(-3, 3, (rows, 3)) * np.exp(data.uniform(-6, 6, (rows, 3)))
        y = data.uniform(-5, 5, rows)
        if trial % 2:
            y[data.random(rows) < 0.2] = 0.0
            y[data.random(rows) < 0.1] = 1e-310  # below TINY_TARGET
        for arg in (expr, to_program(expr)):
            got = relative_error_score(arg, X, y)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # mean of 0 rows
                want = masked_relative_error_score(expr, X, y)
            assert got.hex() == want.hex()
        if math.isinf(got):
            seen["inf"] += 1
        elif evaluate_many(expr, X)[1].any() or (np.abs(y) < 1e-300).any():
            seen["rows_skipped"] += 1
        else:
            seen["every_row_used"] += 1
    assert min(seen.values()) > 20
    assert relative_error_score(var(0), np.empty((0, 1)), np.empty(0)) == math.inf


def test_select_best_prefers_exact_truth():
    spec = load_builtin("I.12.1")
    ds = sample(spec, 300, derive_seed(2, spec.id))
    exact = spec.canonical_expression
    off = add(spec.canonical_expression, const(1.0))
    assert select_best([off, exact], ds) is exact
    assert select_best([exact, off], ds) is exact


def test_select_best_single_candidate():
    spec = load_builtin("I.12.1")
    ds = sample(spec, 50, 0)
    only = add(spec.canonical_expression, const(5.0))
    assert select_best([only], ds) is only


def test_select_best_tie_breaks_by_smaller_skeleton_then_order():
    ds = _toy_dataset([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0])
    small = var(0)
    big = mul(const(1.0), add(var(0), const(0.0)))  # canonicalizes to x, larger pre-canon? no: same
    # Both evaluate identically; skeleton sizes after canonicalization are both 1,
    # so input order decides.
    assert select_best([big, small], ds) is big
    # A genuinely bigger skeleton loses regardless of order (abs(x) == x on
    # this all-positive data but keeps its extra node after canonicalization).
    bigger = parse("abs(x)", ["x"])
    assert select_best([bigger, small], ds) is small
    assert select_best([small, bigger], ds) is small


def test_select_best_no_viable_candidate():
    ds = _toy_dataset([[-1.0], [-2.0]], [1.0, 2.0])
    with pytest.raises(NoViableCandidateError):
        select_best([parse("log(x)", ["x"])], ds)


def test_select_best_permutation_invariance():
    spec = load_builtin("I.14.3")
    ds = sample(spec, 200, 4)
    candidates = [
        add(spec.canonical_expression, const(3.0)),
        spec.canonical_expression,
        mul(const(0.5), spec.canonical_expression),
    ]
    winner = select_best(candidates, ds)
    assert select_best(list(reversed(candidates)), ds) is winner


def test_evaluate_problem_exact_prediction():
    spec = load_builtin("I.12.1")
    train, val, test = split(sample(spec, 1000, 3))
    report = evaluate_against(spec.expression, spec.canonical_expression, test, spec.id,
                              spec.set_name, validation=val)
    assert report["normalized_edit_distance"] == 0.0
    assert report["symbolic_solution"]
    assert report["r_squared"] == 1.0
    assert report["accuracy_hit"]
    assert report["selection_score"] == 0.0
    assert (report["id"], report["set"]) == ("I.12.1", "easy")


def test_evaluate_problem_partial_structure_match():
    spec = load_builtin("I.12.4")
    _, _, test = split(sample(spec, 1000, 3))
    pred = parse("0.37 * r^-1.8", ["q1", "r"])
    report = evaluate_against(pred, spec.canonical_expression, test, spec.id, spec.set_name)
    assert report["normalized_edit_distance"] == pytest.approx(0.167, abs=5e-4)
    assert not report["symbolic_solution"]


def test_evaluate_problem_faulting_prediction_scores_minus_inf():
    spec = load_builtin("I.12.4")  # q1 takes both signs, so log(q1) faults
    _, _, test = split(sample(spec, 1000, 3))
    report = evaluate_against(parse("log(q1)", ["q1", "r"]), spec.canonical_expression, test,
                              spec.id, spec.set_name, tau=-1e300)
    # The null stands for -inf: the row misses even τ = -1e300.
    assert report["r_squared"] is None
    assert not report["accuracy_hit"]


def test_ned_zero_implies_solution_for_constant_position_disagreements():
    spec = load_builtin("I.14.3")
    _, _, test = split(sample(spec, 500, 6))
    pred = parse("3.3 * m * z", ["m", "z"])
    report = evaluate_against(pred, spec.canonical_expression, test, spec.id, spec.set_name)
    assert report["normalized_edit_distance"] == 0.0
    assert report["symbolic_solution"]


def test_solution_implies_ned_bounded_by_two_over_truth_size():
    # A constant/scalar discrepancy can add at most a wrapper node plus a
    # constant node to the skeleton.
    from srsdkit.treedist import normalized_edit_distance
    from srsdkit.expr import canonicalize, skeletonize

    for pid in ("I.12.1", "I.12.4", "I.26.2", "II.38.14"):
        spec = load_builtin(pid)
        truth = spec.canonical_expression
        truth_skel = spec.skeleton
        for pred in (mul(const(2.5), truth), add(truth, const(7.0))):
            assert is_symbolic_solution(pred, truth)
            ned = normalized_edit_distance(skeletonize(canonicalize(pred)), truth_skel)
            assert ned <= 2.0 / len(truth_skel) + 1e-12, pid


def test_summarize_groups_by_set():
    reports = [
        _report("e1", "easy", 1.0, True, 0.0),
        _report("e2", "easy", 0.0, False, 0.5),
        _report("m1", "medium", 1.0, False, 0.25),
    ]
    summary = summarize(reports)
    assert summary["easy"] == {"count": 2, "accuracy_rate": 0.5, "solution_rate": 0.5,
                               "mean_normalized_edit_distance": 0.25}
    assert summary["medium"]["count"] == 1
    with pytest.raises(ValueError):
        summarize([])


def test_eval_rows_are_json_safe():
    # Non-finite scores become null: R² of a faulting prediction, and a
    # selection score of +inf or of a problem without validation rows.
    spec = load_builtin("I.12.4")
    _, val, test = split(sample(spec, 1000, 3))
    pred = parse("log(-1 - q1^2)", ["q1", "r"])  # faults on every row
    rows = [
        evaluate_against(pred, spec.canonical_expression, test, spec.id, spec.set_name,
                         validation=validation)
        for validation in (None, val)
    ]
    assert relative_error_score(canonicalize(pred), val.X, val.y) == math.inf
    for row in rows:
        assert row["r_squared"] is None and row["selection_score"] is None
        assert json.loads(json.dumps(row, allow_nan=False)) == row
