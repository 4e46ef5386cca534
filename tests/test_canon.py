import hashlib
import itertools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from srsdkit.catalog import builtin_problems
from srsdkit.expr import (
    OPERATORS,
    CanonicalizationError,
    add,
    canonicalize,
    compare,
    const,
    div,
    evaluate_many,
    expression_to_prefix,
    from_program,
    mul,
    neg,
    op_node,
    parse,
    pow_,
    skeletonize,
    structurally_equal,
    to_program,
    var,
)
from srsdkit.expr import canon
from srsdkit.expr.canon import _try_fold

from gen_util import (
    CONSTANT_POOL,
    agreeing_rows,
    expressions,
    random_expression,
    random_power_nest,
    random_raw_expression,
)
from oracle import recursive_compare, recursive_rewrite_pow, recursive_structurally_equal


def canon_text(text, names, consts=None):
    return canonicalize(parse(text, names, consts))


def test_three_aliases_of_3x_are_identical():
    from srsdkit.expr import expression_to_prefix

    forms = ["x + x + x", "4*x - x", "x + 2*x"]
    canons = [canon_text(t, ["x"]) for t in forms]
    assert canons[0] == canons[1] == canons[2] == mul(const(3.0), var(0))
    serialized = {" ".join(expression_to_prefix(c)) for c in canons}
    assert len(serialized) == 1  # identical down to the bytes


def test_additive_identity_elimination():
    assert canonicalize(add(var(0), const(0.0))) == var(0)
    assert canon_text("x * 1", ["x"]) == var(0)
    assert canon_text("x ^ 1", ["x"]) == var(0)


def test_div_elimination_rule():
    got = canonicalize(div(var(0), pow_(var(1), const(2.0))))
    assert got == mul(pow_(var(1), const(-2.0)), var(0))


def test_neg_and_sqrt_are_rewritten_away():
    def ops_used(e, found):
        if e.is_operator:
            found.add(e.op)
            for c in e.children:
                ops_used(c, found)
        return found

    e = canon_text("-sqrt(x) / (y - 2)", ["x", "y"])
    used = ops_used(e, set())
    assert not used & {"div", "neg", "sqrt"}


def test_zero_annihilation():
    assert canon_text("x * 0", ["x"]) == const(0.0)
    assert canon_text("0 * sin(x) * y", ["x", "y"]) == const(0.0)


def test_constant_folding_includes_pi():
    e = canon_text("2 * pi * 3", [])
    assert e == const(6 * math.pi)


def test_folding_never_stores_non_finite():
    # log(0) cannot fold; the node survives symbolically.
    e = canonicalize(op_node("log", const(0.0)))
    assert e.op == "log"


# Zero to a negative power, a negative base to a fractional power, log of
# zero and of negatives, exp and pow overflow, subnormals and the largest
# doubles.
FOLD_EDGE_ARGUMENTS = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -3.0, -8.0, 709.0, 710.0, -745.0,
                       1e-300, 5e-324, 1e154, 1e308, -1e308]
SUM_AND_PRODUCT_OVERFLOW = [(1e308, 1e308), (-1e308, -1e308), (1e308, 1e308, -1e308),
                            (1e308, 10.0), (1e308, 10.0, 0.0), (1e154, 1e155, -1.0)]


@pytest.mark.parametrize("name", [name for name, op in OPERATORS.items() if op.canonical])
def test_a_constant_node_folds_exactly_where_evaluate_many_does_not_fault(name):
    arity = OPERATORS[name].arity or 2
    cases = list(itertools.product(FOLD_EDGE_ARGUMENTS, repeat=arity))
    if OPERATORS[name].arity is None:
        cases += SUM_AND_PRODUCT_OVERFLOW
    rng = random.Random(1607)
    cases += [tuple(rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(-40.0, 40.0))
                    for _ in range(arity)) for _ in range(2000)]
    no_columns = np.empty((1, 0))
    folded_cases = 0
    for args in cases:
        node = op_node(name, *map(const, args))
        folded = _try_fold(node)
        values, bad = evaluate_many(node, no_columns)
        assert (folded is None) == bool(bad[0]), args
        if folded is not None:
            # The math function and the ufunc may differ in the last bit.
            assert math.isclose(folded.value, values[0], rel_tol=1e-12), args
            folded_cases += 1
    assert folded_cases > 0


def test_a_folded_zero_sum_is_positive_zero():
    # The scalar add folds from 0.0, so -0.0 + -0.0 folds to 0.0; np.add gives -0.0.
    assert repr(canonicalize(add(const(-0.0), const(-0.0)))) == "const(0.0)"


def test_like_power_merge():
    assert canon_text("x * x", ["x"]) == pow_(var(0), const(2.0))
    assert canon_text("x * x^3", ["x"]) == pow_(var(0), const(4.0))
    assert canon_text("x^0.5 * x^0.5", ["x"]) == var(0)
    assert canon_text("x / x", ["x"]) == const(1.0)


def test_integer_exponent_distributes_over_products():
    got = canon_text("(x * y)^-1", ["x", "y"])
    assert got == mul(pow_(var(0), const(-1.0)), pow_(var(1), const(-1.0)))
    # Non-integer exponents must not distribute.
    kept = canon_text("(x * y)^0.5", ["x", "y"])
    assert kept.op == "pow" and kept.children[0].op == "mul"


def test_nested_integer_exponents_merge():
    assert canon_text("(x^0.5)^2", ["x"]) == var(0)
    kept = canon_text("(x^2)^0.5", ["x"])
    assert kept.op == "pow" and kept.children[0].op == "pow"


def test_scalar_ratio_reduces_to_constant():
    f = parse("q1/(4*pi*epsilon*r^2)", ["q1", "r"], {"epsilon": 8.854e-12})
    ratio = canonicalize(div(mul(const(2.0), f), f))
    assert ratio.is_constant
    assert ratio.value == pytest.approx(2.0, rel=1e-12)


def test_like_terms_with_non_atomic_core():
    got = canon_text("2*sin(x)*y + 3*y*sin(x)", ["x", "y"])
    assert got == mul(op_node("sin", var(0)), const(5.0), var(1))


@settings(max_examples=300, deadline=None)
@given(expressions())
def test_idempotence(e):
    c = canonicalize(e)
    assert canonicalize(c) == c


@settings(max_examples=200, deadline=None)
@given(expressions(max_leaves=6), expressions(max_leaves=6))
def test_commutation_soundness(a, b):
    assert canonicalize(add(a, b)) == canonicalize(add(b, a))
    assert canonicalize(mul(a, b)) == canonicalize(mul(b, a))


def test_idempotence_bulk_seeded():
    rng = random.Random(31337)
    for _ in range(1000):
        e = random_expression(rng)
        c = canonicalize(e)
        assert canonicalize(c) == c


def test_semantic_preservation_bulk_seeded():
    rng = random.Random(271828)
    trees = 0
    comparisons = 0
    while trees < 1000:
        e = random_expression(rng)
        c = canonicalize(e)
        trees += 1
        X = np.array([[rng.uniform(-3.0, 3.0) for _ in range(3)] for _ in range(100)])
        comparisons += agreeing_rows(e, c, X)
    assert comparisons > 20000


def test_canonical_form_flattens_nested_sums_and_products():
    e = canon_text("(a + (b + c)) * (a * (b * c))", ["a", "b", "c"])

    def check(node):
        if node.is_operator and node.op in ("add", "mul"):
            assert len(node.children) >= 2
            assert all(not (c.is_operator and c.op == node.op) for c in node.children)
        for c in node.children:
            check(c)

    check(e)


def test_constant_offset_difference_reduces_to_constant():
    f = parse("mu * Nn", ["mu", "Nn"])
    pred = add(parse("mu * Nn", ["mu", "Nn"]), const(7.0))
    diff = canonicalize(add(pred, neg(f)))
    assert diff == const(7.0)


EXTREME_CONSTANTS = [1e308, -1e308, 5e-324, -0.0, 1.0000000000001]

# sha256 of the canonical prefix lines of the trees in the test below,
# recorded while canonicalization was still a recursive pass.
CANONICAL_FORMS_DIGEST = "08f3b0b2e356d04e1b50435347c575b839df2a981f5119768b7785d8cd8b6b74"


def test_canonical_forms_are_pinned():
    trees = [spec.expression for spec in builtin_problems()]
    rng = random.Random(1302)
    trees += [random_raw_expression(rng) for _ in range(1000)]
    trees += [random_raw_expression(rng, constants=CONSTANT_POOL + EXTREME_CONSTANTS)
              for _ in range(2000)]
    digest = hashlib.sha256()
    for e in trees:
        digest.update(" ".join(expression_to_prefix(canonicalize(e))).encode() + b"\n")
    assert digest.hexdigest() == CANONICAL_FORMS_DIGEST


def _with_constants(e, f):
    """``e`` with every constant ``v`` replaced by ``f(v)``."""
    return from_program(tuple(f(t) if type(t) is float else t for t in to_program(e)))


def test_order_and_equality_match_the_recursive_reference():
    rng = random.Random(4242)
    pool = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]
    pairs = []
    for _ in range(1000):
        a = random_raw_expression(rng, max_depth=4, constants=pool)
        pairs += [
            (a, random_raw_expression(rng, max_depth=4, constants=pool)),
            (a, _with_constants(a, float)),
            (a, _with_constants(a, lambda v: -v if v == 0.0 else v)),
            (a, _with_constants(a, lambda v: v * (1 + 4e-13))),
            (a, _with_constants(a, lambda v: v * (1 + 1e-9))),
        ]
    verdicts = set()
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            order = recursive_compare(x, y)
            same = recursive_structurally_equal(x, y)
            assert compare(x, y) == order
            assert (x == y) == (order == 0)
            assert structurally_equal(x, y) == same
            verdicts.add((order, same))
        if a == b:
            assert hash(a) == hash(b)
    # Equal, tolerantly equal but ordered, and different pairs all occur.
    assert verdicts == {(0, True), (-1, True), (1, True), (-1, False), (1, False)}


def _power_chain(levels: int):
    """``levels`` nested ``(e * x2)^0.5``, raised to ``2^levels``."""
    e = var(1)
    for _ in range(levels):
        e = pow_(mul(const(math.e), e), const(0.5))
    return pow_(e, const(2.0 ** levels))


def test_power_cascade_matches_the_recursive_reference(monkeypatch):
    trees = [spec.expression for spec in builtin_problems()]
    rng = random.Random(1803)
    trees += [random_expression(rng, max_depth=6) for _ in range(1000)]
    trees += [random_raw_expression(rng, max_depth=6) for _ in range(1000)]
    trees += [random_power_nest(rng) for _ in range(2000)]
    trees += [_power_chain(levels) for levels in (1, 2, 5, 30, 100)]
    iterative = [repr(canonicalize(e)) for e in trees]
    cascades = []

    def reference(base, exponent):
        if base.is_operator and base.op in ("mul", "pow") and exponent.is_constant \
                and exponent.value.is_integer() and exponent.value not in (0.0, 1.0):
            cascades.append(base.op)
        return recursive_rewrite_pow(base, exponent)

    monkeypatch.setattr(canon, "_rewrite_pow", reference)
    assert [repr(canonicalize(e)) for e in trees] == iterative
    assert cascades.count("mul") > 1000 and cascades.count("pow") > 1000


def test_a_thousand_level_power_cascade_canonicalizes():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        c = canonicalize(_power_chain(1000))
        assert canonicalize(c) == c
    finally:
        sys.setrecursionlimit(limit)
    # e raised to about 2^1000, constants whose product would overflow, and x2.
    assert skeletonize(c) == ("mul4", "pow", "C", "C", "C", "C", "X2")


def test_running_out_of_passes_is_a_named_error(monkeypatch):
    # div(X1, X2) takes two passes: one rewrites it, the next finds no change.
    expr = div(var(0), var(1))
    assert canonicalize(expr) == canonicalize(canonicalize(expr))
    monkeypatch.setattr(canon, "_MAX_PASSES", 1)
    with pytest.raises(CanonicalizationError, match="fixed point in 1 passes"):
        canonicalize(expr)
    assert issubclass(CanonicalizationError, ValueError)
