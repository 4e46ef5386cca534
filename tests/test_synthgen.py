import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracle import to_infix

from srsdkit import treedist
from srsdkit.catalog import builtin_problems, load_builtin
from srsdkit.datagen import ArgumentError, derive_seed, sample
from srsdkit.expr import canonicalize, parse, skeletonize, var
from srsdkit.synthgen import (
    K_MAX,
    K_MIN,
    START,
    LeakageItem,
    SynthError,
    assign_ranges,
    domain_iou,
    leakage_report,
    observed_ranges,
    range_exponent,
    sample_equation,
    train_bigram,
)


@pytest.fixture(scope="module")
def catalog_model():
    return train_bigram([s.skeleton for s in builtin_problems()], alpha=1.0)


def test_bigram_conditionals_sum_to_one(catalog_model):
    for context in [START, "mul2", "C", "X1", "pow"]:
        dist = {t: catalog_model.probability(context, t) for t in catalog_model.vocabulary}
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(p > 0 for p in dist.values())


def test_single_sequence_corpus_prefers_that_sequence():
    seq = ["mul2", "X1", "X2"]
    model = train_bigram([seq], alpha=0.1)
    # The trained transitions dominate any alternative at each step.
    assert model.probability(START, "mul2") > model.probability(START, "X1")
    assert model.probability("mul2", "X1") > model.probability("mul2", "X2")
    assert model.probability("X1", "X2") > model.probability("X1", "X1")


def test_alpha_zero_gives_zero_probability_to_unseen_bigrams():
    model = train_bigram([["mul2", "X1", "X2"]], alpha=0.0)
    assert model.probability("X2", "X1") == 0.0
    assert model.probability("mul2", "X1") == 1.0


def test_empty_corpus_rejected():
    with pytest.raises(SynthError):
        train_bigram([])


def test_sampled_equations_decode_and_are_not_constant(catalog_model):
    for i in range(100):
        expr = sample_equation(catalog_model, 24, np.random.SeedSequence([9, i]))
        assert expr.variables(), "equation must use at least one variable"
        assert not canonicalize(expr).is_constant
        skeleton = skeletonize(canonicalize(expr))
        assert treedist.edit_distance(skeleton, skeleton) == 0  # it decodes


def test_sampling_is_deterministic(catalog_model):
    a = sample_equation(catalog_model, 24, np.random.SeedSequence([4, 2]))
    b = sample_equation(catalog_model, 24, np.random.SeedSequence([4, 2]))
    assert a == b


def test_max_tokens_one_yields_single_leaf(catalog_model):
    # With one token of budget only leaves are feasible; constants alone get
    # rejected, so retries land on a bare variable.
    expr = sample_equation(catalog_model, 1, np.random.SeedSequence([1]))
    assert expr.is_variable


def test_assign_ranges_formula_instantiation(catalog_model):
    expr = sample_equation(catalog_model, 16, np.random.SeedSequence([5]))
    spec = assign_ranges(expr, np.random.SeedSequence([6]), problem_id="synth-x")
    for var in spec.sampled_variables:
        k = range_exponent(var)
        assert -8 <= k <= 8
        assert var.dist.lo == pytest.approx(10.0 ** (k - 1))
        assert var.dist.hi == pytest.approx(10.0 ** (k + 1))
        assert var.sign == "positive"
    # the spec carries the sampled tree, with no formula to parse
    assert spec.formula is None
    assert spec.expression.variables() == expr.variables()
    assert skeletonize(spec.canonical_expression) == skeletonize(canonicalize(expr))


def test_assign_ranges_canonicalizes_as_the_written_and_parsed_formula(catalog_model):
    # The spec's tree is nested left as the infix chains `synth` once wrote
    # and parsed back, so its canonical constants keep the same last bits.
    for seed in range(5):
        for i in range(100):
            expr = sample_equation(catalog_model, 32, np.random.SeedSequence([seed, i]))
            spec = assign_ranges(expr, np.random.SeedSequence([seed, i, 0]))
            names = spec.variable_names
            parsed = canonicalize(parse(to_infix(expr, names), names))
            assert repr(spec.canonical_expression) == repr(parsed), (seed, i)


def test_assign_ranges_from_a_spec_shares_its_trees(catalog_model):
    expr = sample_equation(catalog_model, 32, np.random.SeedSequence([1, 3]))
    first = assign_ranges(expr, np.random.SeedSequence([1]), problem_id="a")
    second = assign_ranges(first, np.random.SeedSequence([2]), problem_id="b")
    fresh = assign_ranges(expr, np.random.SeedSequence([2]), problem_id="b")
    assert second.canonical_expression is first.canonical_expression
    assert second.skeleton is first.skeleton
    assert (first.id, second.id) == ("a", "b")
    assert second.variables == fresh.variables != first.variables
    assert repr(second.canonical_expression) == repr(fresh.canonical_expression)


def test_assign_ranges_k_zero_bounds():
    from srsdkit.expr import var, mul
    spec = assign_ranges(mul(var(0), var(1)), np.random.SeedSequence([0]), k_lo=0, k_hi=0)
    for v in spec.sampled_variables:
        assert (v.dist.lo, v.dist.hi) == (pytest.approx(0.1), pytest.approx(10.0))


@pytest.mark.parametrize("k", [K_MIN, K_MAX])
def test_assign_ranges_accepts_the_extreme_exponents(k):
    spec = assign_ranges(var(0), 1, k_lo=k, k_hi=k)
    (variable,) = spec.sampled_variables
    assert 0.0 < variable.dist.lo < variable.dist.hi < float("inf")
    assert range_exponent(variable) == k


@pytest.mark.parametrize("k_lo, k_hi, bound", [
    (308, 308, "k_lo"), (0, 308, "k_hi"), (-323, -323, "k_lo"), (-323, 0, "k_lo"),
])
def test_assign_ranges_refuses_an_exponent_out_of_bounds(k_lo, k_hi, bound):
    k = k_lo if bound == "k_lo" else k_hi
    with pytest.raises(ArgumentError) as info:
        assign_ranges(var(0), 1, k_lo=k_lo, k_hi=k_hi)
    assert str(info.value) == f"{bound} must be in [-322, 307], got {k}"


def test_assign_ranges_draws_k_independently():
    from srsdkit.expr import var, mul
    seen_pairs = set()
    for i in range(40):
        spec = assign_ranges(mul(var(0), var(1)), np.random.SeedSequence([i]))
        ks = tuple(range_exponent(v) for v in spec.sampled_variables)
        seen_pairs.add(ks)
    assert any(a != b for a, b in seen_pairs)


def test_domain_iou_examples():
    assert domain_iou((0.0, 2.0), (0.0, 2.0)) == 1.0
    assert domain_iou((0.0, 1.0), (2.0, 3.0)) == 0.0
    assert domain_iou((0.0, 2.0), (1.0, 3.0)) == pytest.approx(1 / 3)
    assert domain_iou((1.0, 1.0), (1.0, 1.0)) == 1.0
    assert domain_iou((1.0, 1.0), (2.0, 2.0)) == 0.0
    with pytest.raises(ValueError):
        domain_iou((2.0, 1.0), (0.0, 1.0))


@given(
    a=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
    b=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
)
def test_domain_iou_symmetric_and_bounded(a, b):
    a = (min(a), max(a))
    b = (min(b), max(b))
    iou = domain_iou(a, b)
    assert 0.0 <= iou <= 1.0
    assert iou == domain_iou(b, a)
    assert domain_iou(a, a) == 1.0


def _items(pids, seed=0):
    out = []
    for pid in pids:
        spec = load_builtin(pid)
        ds = sample(spec, 400, derive_seed(seed, pid))
        out.append(LeakageItem(pid, spec.skeleton, observed_ranges(ds.X)))
    return out


def test_leakage_identical_corpus_scores_one():
    items = _items(["I.12.1", "I.14.3", "I.27.6"])
    result = leakage_report(items, items)
    assert result.mean_iou == 1.0
    for eq in result.per_equation:
        assert eq.n_matches >= 1
        assert eq.max_iou == 1.0


def test_leakage_disjoint_skeletons_score_zero():
    corpus = _items(["I.27.6"])     # nested reciprocal structure
    targets = _items(["I.18.16"])   # four-factor product with a sine
    result = leakage_report(corpus, targets)
    assert result.mean_iou == 0.0
    assert result.per_equation[0].n_matches == 0


def test_leakage_step2_runs_only_for_skeleton_matches():
    corpus = _items(["I.12.1", "I.27.6"])
    targets = _items(["I.12.5", "I.18.16"])  # I.12.5 shares the two-factor skeleton
    result = leakage_report(corpus, targets)
    # exactly one skeleton-identical pair: I.12.1 (corpus) vs I.12.5 (target)
    assert [(e.target_id, e.n_matches) for e in result.per_equation] == [
        ("I.12.5", 1), ("I.18.16", 0)]
    ious = [domain_iou(a, b) for a, b in zip(corpus[0].ranges, targets[0].ranges)]
    assert result.per_equation[0].max_iou == sum(ious) / len(ious)


def test_leakage_computes_no_edit_distance(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("leakage_report must not compute edit distances")

    monkeypatch.setattr(treedist, "edit_distance", forbidden)
    result = leakage_report(_items(["I.12.1", "I.27.6"]), _items(["I.12.5", "I.18.16"]))
    assert [e.n_matches for e in result.per_equation] == [1, 0]


def test_leakage_partial_overlap_value():
    # I.12.1 and I.12.5 share the product skeleton; the first column ranges
    # overlap as [1e-3,1e-1] vs [1e-2,1e0], the second are disjoint decades.
    corpus = _items(["I.12.5"])
    targets = _items(["I.12.1"])
    result = leakage_report(corpus, targets)
    (eq,) = result.per_equation
    assert eq.n_matches == 1
    assert 0.0 < eq.max_iou < 0.2
    assert result.mean_iou == result.mean_of_mean_iou == eq.max_iou == eq.mean_iou


def _unread(item):
    return dataclasses.replace(item, ranges=None)


def test_leakage_reads_ranges_only_of_matched_items():
    corpus = _items(["I.12.1", "I.27.6"])
    targets = _items(["I.12.5", "I.18.16"])  # only I.12.1 and I.12.5 match
    assert corpus[0].skeleton == targets[0].skeleton
    full = leakage_report(corpus, targets)
    assert leakage_report([corpus[0], _unread(corpus[1])],
                          [targets[0], _unread(targets[1])]) == full
    with pytest.raises(ValueError, match="I.12.1"):
        leakage_report([_unread(corpus[0]), corpus[1]], targets)
    with pytest.raises(ValueError, match="I.12.5"):
        leakage_report(corpus, [_unread(targets[0]), targets[1]])


def test_leakage_without_a_match_reads_no_ranges():
    result = leakage_report([_unread(i) for i in _items(["I.27.6"])],
                            [_unread(i) for i in _items(["I.18.16"])])
    assert (result.mean_iou, result.mean_of_mean_iou) == (0.0, 0.0)
    assert [e.n_matches for e in result.per_equation] == [0]


def test_leakage_requires_nonempty_inputs():
    items = _items(["I.12.1"])
    with pytest.raises(ValueError):
        leakage_report([], items)
    with pytest.raises(ValueError):
        leakage_report(items, [])
