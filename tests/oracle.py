"""Independent oracles for the tree edit distance and batch evaluation.

* :func:`brute_force_distance` enumerates every order-consistent one-to-one
  node mapping (Tai mapping) between two small trees and takes the cheapest:
  mapped pairs pay the rename cost, unmapped nodes pay delete/insert.
  Exponential; usable up to ~7 nodes.
* :func:`recursive_forest_distance` is the textbook memoized recursion over
  ordered forests (split on the rightmost roots). Polynomial-ish with
  memoization; usable to a few dozen nodes.

Both share nothing with the keyroot/forest dynamic program they check.

* :func:`recursive_evaluate_many` is the straightforward recursive batch
  evaluator: a fresh array per node, a column copy per variable leaf. The
  iterative ``evaluate_many`` must match its values and fault masks bit for
  bit.
* :func:`masked_relative_error_score` is the relative-error fitness as it
  was written before its lean tail: ``mean``, boolean indexing and
  ``abs(.)**2``. ``relative_error_score`` must give the same bits.
* :func:`recursive_skeletonize` builds a skeleton node by node, numbering
  constants as it meets them; ``skeletonize``, which decodes the tree's
  preorder tokens, must give the same labels and display indices.
* :func:`line_write_text` and :func:`line_read_values` are the dataset
  writer and reader as they were written before ``np.loadtxt``: one
  ``repr`` per cell, and one ``float`` per cell of ``str.splitlines``.
  ``datagen.write`` must give the same bytes, and ``datagen.read`` the same
  bits or the same ``DataError`` text, on every file without underscores,
  non-ASCII text or line separators other than ``\\n``, ``\\r\\n`` and ``\\r``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from srsdkit.datagen import DataError
from srsdkit.evalkit import TINY_TARGET
from srsdkit.expr import Expression, SkeletonTree, evaluate_many


def _number(root: SkeletonTree):
    """(label, preorder, postorder) triples, in preorder."""
    out = []
    clock = [0, 0]

    def walk(node):
        pre = clock[0]
        clock[0] += 1
        my = len(out)
        out.append([node.label, pre, None])
        for c in node.children:
            walk(c)
        out[my][2] = clock[1]
        clock[1] += 1

    walk(root)
    return out


def _relation(n1, n2) -> str:
    if n1[1] < n2[1]:
        return "anc" if n1[2] > n2[2] else "left"
    return "desc" if n1[2] < n2[2] else "right"


# Unit costs, written out here rather than imported from the code under test.
INSERT_COST = 1.0
DELETE_COST = 1.0


def rename_cost(a: str, b: str) -> float:
    return 0.0 if a == b else 1.0


def brute_force_distance(a: SkeletonTree, b: SkeletonTree) -> float:
    na, nb = _number(a), _number(b)
    base = len(na) * DELETE_COST + len(nb) * INSERT_COST
    best = [base]
    # Mapping node i of `a` to node j of `b` changes the cost by
    # rename(i, j) - delete - insert; precompute the best possible gain.
    max_gain = DELETE_COST + INSERT_COST

    def search(ai: int, pairs: list[tuple[int, int]], used_b: set[int], cost: float):
        remaining = len(na) - ai
        if cost - remaining * max_gain >= best[0]:
            return
        if ai == len(na):
            best[0] = min(best[0], cost)
            return
        for bj in range(len(nb)):
            if bj in used_b:
                continue
            if any(_relation(na[pi], na[ai]) != _relation(nb[pj], nb[bj]) for pi, pj in pairs):
                continue
            delta = rename_cost(na[ai][0], nb[bj][0]) - max_gain
            pairs.append((ai, bj))
            used_b.add(bj)
            search(ai + 1, pairs, used_b, cost + delta)
            pairs.pop()
            used_b.remove(bj)
        search(ai + 1, pairs, used_b, cost)

    search(0, [], set(), base)
    return best[0]


def recursive_forest_distance(a: SkeletonTree, b: SkeletonTree) -> float:
    @lru_cache(maxsize=None)
    def node_count(forest):
        return sum(1 + node_count(t.children) for t in forest)

    @lru_cache(maxsize=None)
    def fdist(f1, f2):
        if not f1 and not f2:
            return 0.0
        if not f2:
            return node_count(f1) * DELETE_COST
        if not f1:
            return node_count(f2) * INSERT_COST
        v, w = f1[-1], f2[-1]
        delete_root = fdist(f1[:-1] + v.children, f2) + DELETE_COST
        insert_root = fdist(f1, f2[:-1] + w.children) + INSERT_COST
        match_roots = (
            fdist(v.children, w.children)
            + fdist(f1[:-1], f2[:-1])
            + rename_cost(v.label, w.label)
        )
        return min(delete_root, insert_root, match_roots)

    return fdist((a,), (b,))


def recursive_evaluate_many(expr: Expression, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    bad = np.zeros(X.shape[0], dtype=bool)
    with np.errstate(all="ignore"):
        values = _eval_many(expr, X, bad)
    bad |= ~np.isfinite(values)
    return values, bad


def _eval_many(expr: Expression, X: np.ndarray, bad: np.ndarray) -> np.ndarray:
    if expr.is_constant:
        return np.full(X.shape[0], expr.value)
    if expr.is_variable:
        return X[:, expr.index].copy()

    args = [_eval_many(c, X, bad) for c in expr.children]
    op = expr.op
    if op == "add":
        out = args[0]
        for a in args[1:]:
            out = out + a
    elif op == "mul":
        out = args[0]
        for a in args[1:]:
            out = out * a
    elif op == "pow":
        out = np.power(args[0], args[1])
    elif op == "div":
        out = args[0] / args[1]
    elif op == "neg":
        out = -args[0]
    elif op == "log":
        out = np.log(args[0])
    elif op == "sqrt":
        out = np.sqrt(args[0])
    elif op == "exp":
        out = np.exp(args[0])
    elif op == "sin":
        out = np.sin(args[0])
    elif op == "cos":
        out = np.cos(args[0])
    elif op == "tan":
        out = np.tan(args[0])
    elif op == "tanh":
        out = np.tanh(args[0])
    elif op == "abs":
        out = np.abs(args[0])
    else:
        raise AssertionError(op)
    bad |= ~np.isfinite(out)
    return out


def masked_relative_error_score(expr, X: np.ndarray, y: np.ndarray) -> float:
    values, faulted = evaluate_many(expr, X)
    if faulted.mean() > 0.5:
        return math.inf
    usable = (~faulted) & (np.abs(y) >= TINY_TARGET)
    if not usable.any():
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = (values[usable] - y[usable]) / y[usable]
        score = float(np.mean(np.abs(ratio) ** 2))
    return math.inf if math.isnan(score) else score


def recursive_skeletonize(expr: Expression) -> SkeletonTree:
    counter = [0]

    def walk(node: Expression) -> SkeletonTree:
        if node.is_constant:
            counter[0] += 1
            return SkeletonTree("C", display_index=counter[0])
        if node.is_variable:
            return SkeletonTree(f"X{node.index + 1}")
        return SkeletonTree(node.op, tuple(walk(c) for c in node.children))

    return walk(expr)


def line_write_text(values: np.ndarray) -> str:
    lines = []
    for row in values:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def line_read_values(path) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8")
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise DataError(f"{path}: non-numeric value on line {lineno}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(
                f"{path}: expected {width} columns, found {len(row)} on line {lineno}"
            )
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    values = np.array(rows, dtype=np.float64)
    bad_rows = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad_rows.size:
        raise DataError(f"{path}: non-finite value in data row {bad_rows[0] + 1}")
    return values
