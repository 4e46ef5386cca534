"""Shared random generators, hypothesis strategies and checks for the test suite."""

from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import strategies as st

from srsdkit.expr import Expression, const, evaluate_many, op_node, var

# A modest pool keeps properties meaningful without hypothesis zeroing in on
# adjacent-float corner cases that the folding tolerance deliberately merges.
CONSTANT_POOL = [-7.5, -3.0, -2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.5, 10.0]

UNARY = ["sin", "cos", "tan", "tanh", "exp", "log", "sqrt", "abs", "neg"]


def leaves(n_vars=3):
    return st.one_of(
        st.sampled_from(CONSTANT_POOL).map(const),
        st.integers(min_value=0, max_value=n_vars - 1).map(var),
    )


def expressions(max_leaves=10, n_vars=3):
    """Raw expression trees (may contain div/neg/sqrt)."""

    def extend(children):
        return st.one_of(
            st.builds(lambda a, b: op_node("add", a, b), children, children),
            st.builds(lambda a, b: op_node("mul", a, b), children, children),
            st.builds(lambda a, b: op_node("div", a, b), children, children),
            st.builds(lambda a, b: op_node("pow", a, b), children, st.sampled_from(
                [const(-2.0), const(-1.0), const(0.5), const(1.0), const(2.0), const(3.0)])),
            st.builds(lambda o, a: op_node(o, a), st.sampled_from(UNARY), children),
        )

    return st.recursive(leaves(n_vars), extend, max_leaves=max_leaves)


def random_expression(rng: random.Random, max_depth=4, n_vars=3) -> Expression:
    """Plain seeded generator for bulk property runs."""
    if max_depth <= 1 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return const(rng.choice(CONSTANT_POOL))
        return var(rng.randrange(n_vars))
    pick = rng.random()
    sub = lambda: random_expression(rng, max_depth - 1, n_vars)
    if pick < 0.25:
        return op_node("add", *(sub() for _ in range(rng.choice([2, 2, 3]))))
    if pick < 0.5:
        return op_node("mul", *(sub() for _ in range(rng.choice([2, 2, 3]))))
    if pick < 0.6:
        return op_node("div", sub(), sub())
    if pick < 0.7:
        return op_node("pow", sub(), const(rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0, 3.0])))
    return op_node(rng.choice(UNARY), sub())


def random_power_nest(rng: random.Random, max_depth=8, n_vars=3) -> Expression:
    """Seeded nest of products, quotients, square roots and powers with
    integer or half-integer exponents: the trees down which an integer
    exponent cascades when canonicalized."""
    if max_depth <= 1 or rng.random() < 0.15:
        if rng.random() < 0.3:
            return const(rng.choice([-1.0, 0.5, 2.0, 3.0, math.e, 1e200]))
        return var(rng.randrange(n_vars))
    sub = lambda: random_power_nest(rng, max_depth - 1, n_vars)
    pick = rng.random()
    if pick < 0.3:
        return op_node("mul", *(sub() for _ in range(rng.choice([2, 2, 3]))))
    if pick < 0.45:
        return op_node("div", sub(), sub())
    if pick < 0.6:
        return op_node(rng.choice(["sqrt", "sqrt", "neg", "sin"]), sub())
    exponent = rng.choice([-3.0, -2.0, -1.0, -0.5, 0.5, 1.5, 2.0, 3.0, 4.0, 2.0 ** 40])
    return op_node("pow", sub(), const(exponent))


# Every operator with its arity (None: n-ary), listed here rather than read
# from the operator table under test.
ALL_OPERATORS = [("add", None), ("mul", None), ("pow", 2), ("div", 2), ("sin", 1), ("cos", 1),
                 ("tan", 1), ("tanh", 1), ("exp", 1), ("log", 1), ("abs", 1), ("neg", 1),
                 ("sqrt", 1)]


def random_raw_expression(rng: random.Random, max_depth=5, n_vars=3,
                          constants=CONSTANT_POOL) -> Expression:
    """Seeded tree over all 13 operators, each equally likely, with any
    subtree as either operand of ``pow`` and ``div``, and constant leaves
    drawn from ``constants``."""
    if max_depth <= 1 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return const(rng.choice(constants))
        return var(rng.randrange(n_vars))
    name, arity = rng.choice(ALL_OPERATORS)
    n = rng.choice([2, 2, 3]) if arity is None else arity
    return op_node(name, *(random_raw_expression(rng, max_depth - 1, n_vars, constants)
                           for _ in range(n)))


# Skeleton tokens with their arities, listed here rather than read from the
# operator table under test.
SKELETON_LEAVES = ["C", "X1", "X2", "X3"]
SKELETON_TOKENS = [("add2", 2), ("add3", 3), ("mul2", 2), ("mul3", 3), ("pow", 2),
                   ("sin", 1), ("cos", 1), ("exp", 1), ("log", 1)] + [
                   (leaf, 0) for leaf in SKELETON_LEAVES]


def random_skeleton(rng: random.Random, max_nodes=7) -> tuple[str, ...]:
    """Random skeleton token tuple of at most ``max_nodes`` tokens, every
    operator with the operand count its token says."""
    budget = rng.randint(1, max_nodes)
    tokens: list[str] = []

    def build(cap: int) -> int:
        """Append one subtree of at most ``cap`` tokens; return its size."""
        token, arity = rng.choice(SKELETON_TOKENS)
        if arity == 0 or arity >= cap:
            tokens.append(rng.choice(SKELETON_LEAVES))
            return 1
        tokens.append(token)
        used = 1
        for later in reversed(range(arity)):  # keep a token for each later operand
            used += build(cap - used - later)
        return used

    build(budget)
    return tuple(tokens)


def agreeing_rows(raw: Expression, canonical: Expression, X: np.ndarray) -> int:
    """Check that ``raw`` and its canonical form agree, to 1e-9 relative
    (absolute below 1), on every row of ``X`` where neither faults in
    ``evaluate_many``; return the number of such rows."""
    before, bad_before = evaluate_many(raw, X)
    after, bad_after = evaluate_many(canonical, X)
    ok = ~(bad_before | bad_after)
    before, after = before[ok], after[ok]
    assert (abs(after - before) <= 1e-9 * np.maximum(1.0, abs(before))).all(), (raw, canonical)
    return int(ok.sum())
