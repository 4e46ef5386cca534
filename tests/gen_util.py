"""Shared random generators and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from srsdkit.expr import Expression, SkeletonTree, const, op_node, var

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


# Every operator with its arity (None: n-ary), listed here rather than read
# from the operator table under test.
ALL_OPERATORS = [("add", None), ("mul", None), ("pow", 2), ("div", 2), ("sin", 1), ("cos", 1),
                 ("tan", 1), ("tanh", 1), ("exp", 1), ("log", 1), ("abs", 1), ("neg", 1),
                 ("sqrt", 1)]


def random_raw_expression(rng: random.Random, max_depth=5, n_vars=3) -> Expression:
    """Seeded tree over all 13 operators, each equally likely, with any
    subtree as either operand of ``pow`` and ``div``."""
    if max_depth <= 1 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return const(rng.choice(CONSTANT_POOL))
        return var(rng.randrange(n_vars))
    name, arity = rng.choice(ALL_OPERATORS)
    n = rng.choice([2, 2, 3]) if arity is None else arity
    return op_node(name, *(random_raw_expression(rng, max_depth - 1, n_vars) for _ in range(n)))


SKELETON_LABELS = ["add", "mul", "pow", "sin", "cos", "exp", "log", "C", "X1", "X2", "X3"]


def random_skeleton(rng: random.Random, max_nodes=7) -> SkeletonTree:
    """Random ordered labeled tree within a node budget.

    Shapes are unconstrained by operator arity on purpose: the edit distance
    is defined on arbitrary ordered labeled trees.
    """
    budget = rng.randint(1, max_nodes)

    def build(cap: int) -> tuple[SkeletonTree, int]:
        label = rng.choice(SKELETON_LABELS)
        if cap <= 1 or label in ("C", "X1", "X2", "X3"):
            leaf = rng.choice(["C", "X1", "X2", "X3"])
            return SkeletonTree(leaf), 1
        n_children = rng.randint(1, min(3, cap - 1))
        used = 1
        children = []
        for _ in range(n_children):
            child, spent = build(cap - used)
            children.append(child)
            used += spent
            if used >= cap:
                break
        return SkeletonTree(label, tuple(children)), used

    tree, _ = build(budget)
    return tree
