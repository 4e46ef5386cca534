import random

import numpy as np
import pytest

from srsdkit.expr import (
    DomainFault,
    VariableIndexError,
    const,
    div,
    evaluate,
    evaluate_many,
    from_program,
    mul,
    op_node,
    parse,
    pow_,
    to_program,
    var,
)

from gen_util import random_expression
from oracle import recursive_evaluate_many


def test_product_at_point():
    assert evaluate(mul(var(0), var(1)), (0.5, 0.2)) == pytest.approx(0.1)


def test_log_of_zero_faults():
    with pytest.raises(DomainFault):
        evaluate(op_node("log", var(0)), (0.0,))


def test_negative_integer_power():
    assert evaluate(pow_(var(0), const(-2.0)), (2.0,)) == 0.25


def test_fault_carries_path_of_offending_subexpression():
    expr = mul(var(0), div(const(1.0), var(1)))
    with pytest.raises(DomainFault) as err:
        evaluate(expr, (3.0, 0.0))
    assert err.value.path == (1,)


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
    with pytest.raises(DomainFault):
        evaluate(expr, row)


def test_row_too_short():
    with pytest.raises(DomainFault):
        evaluate(var(3), (1.0,))


def test_evaluate_many_matches_scalar_on_clean_rows():
    e = parse("x * exp(-y^2) + sqrt(abs(x))", ["x", "y"])
    X = np.array([[1.0, 0.5], [-2.0, 1.5], [0.25, -0.5]])
    values, bad = evaluate_many(e, X)
    assert not bad.any()
    for i, row in enumerate(X):
        assert values[i] == pytest.approx(evaluate(e, row), rel=1e-12)


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


def test_evaluators_agree_on_random_expressions():
    rng = random.Random(123)
    checked = 0
    for _ in range(150):
        e = random_expression(rng, max_depth=4)
        X = np.array([[rng.uniform(-3, 3) for _ in range(3)] for _ in range(8)])
        values, bad = evaluate_many(e, X)
        for i, row in enumerate(X):
            try:
                expected = evaluate(e, row)
            except DomainFault:
                assert bad[i]
                continue
            if not bad[i]:
                assert values[i] == pytest.approx(expected, rel=1e-9, abs=1e-12)
                checked += 1
    assert checked > 200


def test_evaluate_many_is_bit_identical_to_recursive_oracle():
    rng = random.Random(321)
    data = np.random.default_rng(321)
    faulted = 0
    for _ in range(400):
        e = random_expression(rng, max_depth=6)
        # Wide magnitudes so that overflow, division by zero and domain
        # faults all occur, both at the root and inside the tree.
        X = data.uniform(-3, 3, (64, 3)) * np.exp(data.uniform(-8, 8, (64, 3)))
        X[data.random(64) < 0.1, 0] = 0.0
        want_values, want_bad = recursive_evaluate_many(e, X)
        for arg in (e, to_program(e)):
            values, bad = evaluate_many(arg, X)
            assert bad.tolist() == want_bad.tolist()
            assert values[~bad].view(np.int64).tolist() == want_values[~want_bad].view(np.int64).tolist()
        faulted += bad.any()
    assert faulted > 50


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


def test_program_round_trips_to_the_same_tree():
    rng = random.Random(99)
    for _ in range(500):
        e = random_expression(rng, max_depth=6)
        program = to_program(e)
        assert len(program) == e.node_count()
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
