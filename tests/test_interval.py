import numpy as np
import pytest

from srsdkit.catalog import builtin_problems
from srsdkit.datagen import _box
from srsdkit.expr import OPERATORS, canonicalize, evaluate_many, parse, sure_fault, to_program
from srsdkit.expr.interval import RULES

_MAX = np.finfo(np.float64).max


def verdict(formula: str, box):
    """``sure_fault`` of the canonical program of ``formula`` in ``x`` (and
    ``y``) over ``box``."""
    program = to_program(canonicalize(parse(formula, ["x", "y"])))
    return sure_fault(program, box)


def faults_everywhere(formula: str, box) -> bool:
    """Whether ``evaluate_many`` faults on every one of 1,000 random points
    of ``box`` and on its corners."""
    rng = np.random.default_rng(0)
    columns = [np.concatenate([[lo, hi], rng.uniform(lo, hi, 1000)]) for lo, hi in box]
    _, faulted = evaluate_many(canonicalize(parse(formula, ["x", "y"])), np.column_stack(columns))
    return bool(faulted.all())


def test_every_canonical_operator_has_a_rule():
    canonical = {name for name, op in OPERATORS.items() if op.canonical}
    assert canonical - set(RULES) == set()


# One case per sure-fault rule, each as (formula, box, operator, position).
SURE_FAULTS = [
    ("exp(x)", [(711.0, 720.0)], "exp", 0),
    ("log(x)", [(-2.0, -1e-300)], "log", 0),
    ("x^0.5", [(-2.0, -1.0)], "pow", 0),
    ("x^y", [(-2.0, -1.0), (0.1, 0.9)], "pow", 0),
    ("x^100", [(1e8, 1e9)], "pow", 0),
    ("x^y", [(2.0, 3.0), (2000.0, 3000.0)], "pow", 0),
    ("x + y", [(1e308, 1.5e308), (1e308, 1.5e308)], "add", 0),
    ("-x - y", [(1e308, 1.5e308), (1e308, 1.5e308)], "add", 0),
    ("x * y", [(1e200, 1e201), (-1e201, -1e200)], "mul", 0),
    ("1 + exp(x)", [(711.0, 720.0)], "exp", 1),
    ("sqrt(-1 - x^2)", [(0.0, 1.0)], "pow", 0),
]


@pytest.mark.parametrize("formula, box, name, position", SURE_FAULTS)
def test_each_sure_fault_rule_names_its_operator(formula, box, name, position):
    assert verdict(formula, box) == (name, position)
    assert faults_everywhere(formula, box)


# Each rule's edge: doubt gives no verdict, even where every row faults.
NO_VERDICT = [
    ("exp(x)", [(709.99, 720.0)]),              # exp just below 710
    ("log(x)", [(-2.0, 0.0)]),                  # the operand reaches 0
    ("log(x - 0.9999)", [(0.0, 1.0)]),          # the operand straddles 0
    ("x^y", [(-2.0, -1.0), (0.5, 1.5)]),       # the exponent may be 1
    ("x^2", [(-2.0, -1.0)]),                    # an integer exponent
    ("x^y", [(-2.0, 0.0), (0.1, 0.9)]),        # the base reaches 0
    ("x^y", [(1.0, 3.0), (2000.0, 3000.0)]),   # ln of the base reaches 0
    ("x + y", [(1e308, 1.5e308), (-1e308, 1e308)]),
    ("x * y", [(1e200, 1e201), (0.0, 1e200)]),  # the product may be 0
    ("tan(x) * 1e300 * 1e300", [(1.0, 2.0)]),   # tan is unbounded
]


@pytest.mark.parametrize("formula, box", NO_VERDICT)
def test_a_rule_gives_no_verdict_at_its_edge(formula, box):
    assert verdict(formula, box) is None


def test_a_product_that_underflows_first_gives_no_verdict():
    # The fold rounds x * x to 0 before the other factors: 0, not overflow.
    box = [(1e-170, 1e-170), (1e300, 1e300)]
    program = ("mul", 5, np.multiply), (0,), (0,), (1,), (1,), (1,)
    assert sure_fault(program, box) is None
    _, faulted = evaluate_many(program, np.array([[1e-170, 1e300]]))
    assert not faulted.any()


def test_bounds_carry_through_bounded_operators():
    # sin, cos and tanh stay in [-1, 1], abs and exp map their bounds.
    assert verdict("log(sin(x) - 2)", [(0.0, 100.0)]) == ("log", 0)
    assert verdict("log(tanh(x) + cos(x) - 2.5)", [(0.0, 100.0)]) == ("log", 0)
    assert verdict("log(tanh(x) + cos(x) - 1.5)", [(0.0, 100.0)]) is None
    assert verdict("log(-abs(x) - 1)", [(-3.0, 2.0)]) == ("log", 0)
    assert verdict("log(-exp(x))", [(-5.0, 5.0)]) == ("log", 0)
    # An integer power is bounded on each side of 0, and unbounded across
    # it when negative.
    assert verdict("log(-x^2 - 1)", [(-2.0, 3.0)]) == ("log", 0)
    assert verdict("log(x^3)", [(-2.0, -1.0)]) == ("log", 0)
    assert verdict("log(-x^(-1))", [(2.0, 4.0)]) == ("log", 0)
    assert verdict("log(-x^(-1))", [(-1.0, 1.0)]) is None


def test_a_column_past_the_box_is_unbounded():
    assert sure_fault(to_program(canonicalize(parse("log(-x)", ["x"]))), []) is None


def test_no_builtin_problem_gets_a_verdict():
    for spec in builtin_problems():
        assert sure_fault(to_program(spec.canonical_expression), _box(spec)) is None, spec.id
