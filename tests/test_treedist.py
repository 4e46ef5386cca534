import hashlib
import random

import pytest

from srsdkit.catalog import builtin_problems
from srsdkit.expr import canonicalize, parse, skeletonize
from srsdkit.treedist import (
    distance_result,
    edit_distance,
    normalized_edit_distance,
)

from gen_util import random_skeleton
from oracle import brute_force_distance, recursive_forest_distance


def skel(text, names, consts=None):
    return skeletonize(canonicalize(parse(text, names, consts)))


TRUTH_I_12_4 = skel("q1/(4*pi*epsilon*r^2)", ["q1", "r"], {"epsilon": 8.854e-12})
TRUTH_I_14_3 = skel("m * g * z", ["m", "z"], {"g": 9.807})

# Constant values are irrelevant to the skeleton metric; generic
# non-cancelling values stand in.
PRED_ST_I_12_4 = skel("0.31 * r^-1.6", ["q1", "r"])
PRED_ST_I_14_3 = skel("m * z", ["m", "z"])
PRED_DSR_I_14_3 = skel(
    "x1 * x2 * (0.7 - (1.3*x2 + 2.9*log(cos(x2))) * (-x1 + x2 + 4.2) / x2)",
    ["x1", "x2"],
)


def test_identical_trees_have_zero_distance():
    for t in (TRUTH_I_12_4, TRUTH_I_14_3, PRED_DSR_I_14_3):
        assert edit_distance(t, t) == 0
        assert normalized_edit_distance(t, t) == 0.0


def test_golden_single_variable_drop():
    assert len(TRUTH_I_12_4) == 6
    result = distance_result(PRED_ST_I_12_4, TRUTH_I_12_4)
    assert result.raw == 1
    assert result.normalized == pytest.approx(0.167, abs=5e-4)


def test_golden_constant_drop():
    assert len(TRUTH_I_14_3) == 4
    result = distance_result(PRED_ST_I_14_3, TRUTH_I_14_3)
    assert result.raw == 1
    assert result.normalized == pytest.approx(0.250, abs=5e-4)


def test_golden_overcomplex_prediction_caps_at_one():
    assert normalized_edit_distance(PRED_DSR_I_14_3, TRUTH_I_14_3) == 1.0


def test_example_inserting_one_constant_costs_one():
    a = skel("x1 * x2", ["x1", "x2"])
    b = skel("3 * x1 * x2", ["x1", "x2"])
    assert edit_distance(a, b) == 1


def test_normalization_uses_truth_size_even_when_pred_is_larger():
    small = skel("x1", ["x1"])
    big = skel("x1 * x2 * 3", ["x1", "x2"])
    # truth = small: d / 1 caps at 1; truth = big: d / 4.
    assert normalized_edit_distance(big, small) == 1.0
    assert normalized_edit_distance(small, big) == pytest.approx(3 / 4)


def test_constant_tokens_do_not_matter():
    # C and every numeric literal are one label; a variable is its own.
    for a, b in ((["mul2", "C", "X1"], ["mul2", "9.807", "X1"]),
                 (["mul2", "1", "X1"], ["mul2", "-7.5e3", "X1"])):
        assert edit_distance(a, b) == 0
        assert distance_result(a, b) == distance_result(b, a)
    assert edit_distance(["mul2", "C", "X1"], ["mul2", "X2", "X1"]) == 1


# sha256 of repr([(raw, truth_nodes, normalized), ...]) over every fifth
# catalog skeleton as prediction against all 120 as truth, in catalog order.
CATALOG_NED_DIGEST = "6124d7d8e0f256aaca1c8de9c2fa7cda338142fa2eb94f7188c8e512050ac68f"


def test_catalog_ned_values_are_pinned():
    skeletons = [spec.skeleton for spec in builtin_problems()]
    assert len(skeletons) == 120
    results = [distance_result(pred, truth) for pred in skeletons[::5] for truth in skeletons]
    text = repr([(r.raw, r.truth_nodes, r.normalized) for r in results])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CATALOG_NED_DIGEST


def test_oracle_equivalence_on_random_pairs():
    rng = random.Random(20240817)
    mismatches = []
    for k in range(220):
        a = random_skeleton(rng, max_nodes=7)
        b = random_skeleton(rng, max_nodes=7)
        zs = edit_distance(a, b)
        bf = brute_force_distance(a, b)
        if zs != bf:
            mismatches.append((k, a, b, zs, bf))
    assert mismatches == []


def test_matches_recursive_forest_formulation_on_larger_trees():
    rng = random.Random(424242)
    for _ in range(300):
        a = random_skeleton(rng, max_nodes=12)
        b = random_skeleton(rng, max_nodes=12)
        assert edit_distance(a, b) == recursive_forest_distance(a, b)


def test_metric_properties_on_random_triples():
    rng = random.Random(7)
    for _ in range(60):
        a = random_skeleton(rng, max_nodes=6)
        b = random_skeleton(rng, max_nodes=6)
        c = random_skeleton(rng, max_nodes=6)
        dab = edit_distance(a, b)
        assert dab == edit_distance(b, a)
        assert edit_distance(a, a) == 0
        assert edit_distance(a, c) <= dab + edit_distance(b, c)
        assert 0.0 <= normalized_edit_distance(a, b) <= 1.0


def test_normalized_zero_iff_identical_up_to_constant_labels():
    rng = random.Random(99)
    for _ in range(80):
        a = random_skeleton(rng, max_nodes=6)
        b = random_skeleton(rng, max_nodes=6)
        # These skeletons hold no numeric literals, so equal tokens are the
        # same tree: the leakage join's premise.
        assert (normalized_edit_distance(a, b) == 0.0) == (a == b)
