import math
import random

import numpy as np
import pytest

from srsdkit.expr import (
    OPERATORS,
    VariableIndexError,
    const,
    div,
    evaluate_many,
    from_program,
    mul,
    op_node,
    operator_token,
    parse,
    pow_,
    skeletonize,
    to_program,
    var,
)

from gen_util import random_expression, random_raw_expression
from oracle import recursive_evaluate_many


def _at(expr, *row):
    """``evaluate_many`` of ``expr`` on the one row ``row``: (value, faulted)."""
    values, bad = evaluate_many(expr, np.array([row], dtype=np.float64))
    return values[0], bool(bad[0])


@pytest.mark.parametrize("expr", [
    pow_(var(0), const(2.0)),
    pow_(var(0), const(0.5)),
    pow_(var(0), const(-1.0)),
    op_node("exp", pow_(var(0), const(0.5))),
    pow_(var(0), const(3.0)),
    pow_(var(0), const(-2.0)),
    pow_(var(0), const(2.5)),
    op_node("sqrt", var(0)),
], ids=["x^2", "x^0.5", "x^-1", "exp(x^0.5)", "x^3", "x^-2", "x^2.5", "sqrt"])
def test_a_row_has_the_same_bits_in_a_one_row_table(expr):
    # np.power writing into its own one-element operand rounds x^2, x^0.5
    # and x^-1 as its scalar-exponent shortcut does, not as its loop does.
    X = 10 ** np.random.default_rng(3).uniform(-4, 4, (5000, 1))
    full, full_faults = evaluate_many(expr, X)
    rows = [evaluate_many(expr, X[i:i + 1]) for i in range(X.shape[0])]
    assert np.concatenate([v for v, _ in rows]).tobytes() == full.tobytes()
    assert np.array_equal(np.concatenate([f for _, f in rows]), full_faults)


def test_product_at_point():
    assert _at(mul(var(0), var(1)), 0.5, 0.2) == (pytest.approx(0.1), False)


def test_log_of_zero_faults():
    assert _at(op_node("log", var(0)), 0.0)[1]


def test_negative_integer_power():
    assert _at(pow_(var(0), const(-2.0)), 2.0) == (0.25, False)


@pytest.mark.parametrize(
    "expr, row",
    [
        (div(const(1.0), var(0)), (0.0,)),
        (pow_(const(0.0), const(-1.0)), ()),
        (pow_(const(-8.0), const(0.5)), ()),
        (op_node("sqrt", const(-1.0)), ()),
        (op_node("log", const(-3.0)), ()),
        (op_node("exp", const(1000.0)), ()),  # overflow is a fault, not inf
    ],
)
def test_domain_faults(expr, row):
    assert _at(expr, *row)[1]


def test_row_too_short():
    with pytest.raises(VariableIndexError):
        _at(var(3), 1.0)


def test_evaluate_many_matches_scalar_on_clean_rows():
    e = parse("x * exp(-y^2) + sqrt(abs(x))", ["x", "y"])
    X = np.array([[1.0, 0.5], [-2.0, 1.5], [0.25, -0.5]])
    values, bad = evaluate_many(e, X)
    assert not bad.any()
    for i, (x, y) in enumerate(X):
        assert values[i] == pytest.approx(x * math.exp(-y**2) + math.sqrt(abs(x)), rel=1e-12)


def test_evaluate_many_flags_faulting_rows():
    e = parse("1 / x", ["x"])
    values, bad = evaluate_many(e, np.array([[2.0], [0.0], [4.0]]))
    assert bad.tolist() == [False, True, False]
    assert values[0] == 0.5 and values[2] == 0.25


def test_evaluate_many_flags_intermediate_overflow():
    # 1/exp(1000) ends finite (0.0) but blows up along the way.
    e = parse("1 / exp(x)", ["x"])
    _, bad = evaluate_many(e, np.array([[1000.0], [1.0]]))
    assert bad.tolist() == [True, False]


def test_evaluate_many_is_bit_identical_to_recursive_oracle():
    rng = random.Random(321)
    data = np.random.default_rng(321)
    extremes = np.array([1e300, -1e300, 700.0, -700.0, 1e-300])
    faulted = hidden = 0
    for trial in range(1200):
        if trial < 400:
            e = random_expression(rng, max_depth=6)
            # Wide magnitudes so that overflow, division by zero and domain
            # faults all occur, both at the root and inside the tree.
            X = data.uniform(-3, 3, (64, 3)) * np.exp(data.uniform(-8, 8, (64, 3)))
            X[data.random(64) < 0.1, 0] = 0.0
        else:
            # All 13 operators on columns of extreme magnitude, so that
            # non-finite intermediates occur and some come out finite
            # (exp(-inf), x / inf, tanh(inf), pow(nan, 0)).
            e = random_raw_expression(rng, max_depth=5)
            X = data.uniform(-3, 3, (64, 3))
            pick = data.random((64, 3)) < 0.5
            X[pick] = data.choice(extremes, pick.sum())
        want_values, want_bad = recursive_evaluate_many(e, X)
        for arg in (e, to_program(e)):
            values, bad = evaluate_many(arg, X)
            assert bad.tolist() == want_bad.tolist()
            assert values[~bad].view(np.int64).tolist() == want_values[~want_bad].view(np.int64).tolist()
        faulted += bad.any()
        # A faulting row with a finite root value: the non-finite value
        # vanished inside the tree, so only a check below the root flags it.
        hidden += (want_bad & np.isfinite(want_values)).any()
    assert faulted > 250
    assert hidden > 40


PROBES = [0.0, 1.0, -1.0, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("name", list(OPERATORS))
def test_only_hides_nonfinite_operators_turn_a_nonfinite_operand_finite(name):
    # evaluate_many checks isfinite only at the root and on the operator
    # results that a hides_nonfinite operator takes; that is exact only if
    # every other ufunc keeps any non-finite operand non-finite.
    spec = OPERATORS[name]
    arity = spec.arity or 2
    cases = [
        tuple(bad if i == position else other for i in range(arity))
        for position in range(arity)
        for bad in (math.inf, -math.inf, math.nan)
        for other in PROBES
    ]
    with np.errstate(all="ignore"):
        # One call over every case, as the SIMD loops see it, and one per case.
        batch = spec.ufunc(*np.array(cases).T)
        single = np.array([spec.ufunc(*np.array(case)[:, None])[0] for case in cases])
    assert np.isfinite(batch).tolist() == np.isfinite(single).tolist()
    hiding = [case for case, value in zip(cases, single) if math.isfinite(value)]
    assert bool(hiding) == spec.hides_nonfinite, hiding


def test_evaluate_many_checks_a_variable_only_at_the_root():
    # Data files hold finite cells only; on other input a variable leaf below
    # the root is not checked, as in the recursive oracle.
    X = np.array([[-math.inf, math.inf], [1.0, 2.0]])
    for e in (op_node("exp", var(0)), div(const(1.0), var(1)), op_node("tanh", var(1))):
        bad = evaluate_many(e, X)[1]
        assert bad.tolist() == recursive_evaluate_many(e, X)[1].tolist() == [False, False]
    assert evaluate_many(var(1), X)[1].tolist() == [True, False]


def test_evaluate_many_deep_chain_does_not_recurse():
    e = var(0)
    for _ in range(5000):
        e = op_node("neg", e)
    values, bad = evaluate_many(e, np.array([[1.5], [-2.0]]))
    assert values.tolist() == [1.5, -2.0] and not bad.any()


def test_evaluate_many_bare_variable_returns_a_copy():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    values, bad = evaluate_many(var(1), X)
    values[:] = 0.0
    assert X.tolist() == [[1.0, 2.0], [3.0, 4.0]] and not bad.any()


def test_evaluate_many_rejects_missing_column():
    with pytest.raises(VariableIndexError, match="X9"):
        evaluate_many(mul(var(0), var(8)), np.ones((3, 2)))
    # The leftmost missing variable is named, though the loop meets X9 first.
    with pytest.raises(VariableIndexError, match=r"X5 \(index 4\)"):
        evaluate_many(to_program(mul(var(4), var(8))), np.ones((3, 2)))


def test_evaluate_many_rejects_a_malformed_program():
    sin, add, log = (operator_token(name, arity) for name, arity in (("sin", 1), ("add", 2), ("log", 1)))
    X = np.ones((3, 2))
    # One operand too many: sin(X1 + 1) would come back and log X2 be lost.
    with pytest.raises(ValueError, match="^malformed program: it leaves 2 operands, not one$"):
        evaluate_many((sin, add, (0,), 1.0, log, (1,)), X)
    with pytest.raises(ValueError, match="^malformed program: 'add' at position 0 lacks an operand$"):
        evaluate_many((add, (0,)), X)


def test_program_round_trips_to_the_same_tree():
    rng = random.Random(99)
    for _ in range(500):
        e = random_expression(rng, max_depth=6)
        program = to_program(e)
        assert len(program) == len(skeletonize(e))
        back = from_program(program)
        assert back == e and repr(back) == repr(e)
        assert to_program(back) == program


def test_program_tokens_keep_variables_and_constants_apart():
    # In Python 1 == 1.0, so bare ints would make X2 and the constant 1 one key.
    assert len({to_program(var(1)): "X2", to_program(const(1.0)): "1.0"}) == 2
    assert to_program(var(0)) != to_program(const(0.0))
    assert len({to_program(mul(var(1), var(0))), to_program(mul(const(1.0), const(0.0)))}) == 2
    # Constants compare as Expression constants do: 0.0 == -0.0.
    assert const(0.0) == const(-0.0)
    assert to_program(const(0.0)) == to_program(const(-0.0))
    assert hash(to_program(const(0.0))) == hash(to_program(const(-0.0)))
