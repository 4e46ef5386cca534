"""Ordered-tree edit distance (Zhang-Shasha) and its normalized form.

The distance is the minimum total cost of node insertions, deletions and
renames transforming one ordered labeled tree into the other, under unit
costs: every edit costs 1, except that a rename is free exactly when the
labels match, where every constant node (``C`` or a numeric literal) matches
every other constant node, while ``X1`` matches only ``X1`` and so on.

Both trees are given as preorder token sequences, skeletons or valued, and
are read by :func:`~srsdkit.expr.skeleton.decode_preorder`, so a token that
does not decode raises ``DecodeError``. An n-ary operator's label has no
arity suffix: ``add2`` and ``add3`` nodes rename for free.

The normalized distance divides by the node count of the *truth* tree and is
capped at 1; the normalization is deliberately asymmetric, including when the
prediction is the larger tree.

Both trees are assumed to come out of the canonicalize/skeletonize pipeline,
which sorts commutative operands into a fixed total order; without that, an
ordered-tree distance would charge for operand permutations.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .expr.skeleton import decode_preorder, variable_index


@dataclass(frozen=True)
class DistanceResult:
    raw: float
    truth_nodes: int
    normalized: float


def _postorder(tokens: Sequence[str]) -> tuple[list[str], list[int]]:
    """Labels in postorder plus l(i): the postorder index of the leftmost
    leaf descendant of node i (both 0-based)."""
    labels: list[str] = []
    leftmost: list[int] = []

    def emit(label: str, first: int) -> int:
        labels.append(label)
        leftmost.append(first)
        return first

    # The decoder builds nodes in postorder. A leaf is its own leftmost leaf;
    # an operator's is its first operand's, which that operand's build returned.
    decode_preorder(
        tokens,
        lambda token, position: emit("C" if variable_index(token) is None else token, len(labels)),
        lambda label, first, *rest: emit(label, first),
    )
    return labels, leftmost


def _keyroots(leftmost: list[int]) -> list[int]:
    """Nodes with no ancestor sharing their leftmost leaf, ascending."""
    seen: dict[int, int] = {}
    for i, l in enumerate(leftmost):
        seen[l] = i  # postorder guarantees the last writer is the highest node
    return sorted(seen.values())


def edit_distance(a: Sequence[str], b: Sequence[str]) -> float:
    """Exact minimum-cost edit distance between two non-empty ordered trees."""
    la, lma = _postorder(a)
    lb, lmb = _postorder(b)
    n, m = len(la), len(lb)
    kra, krb = _keyroots(lma), _keyroots(lmb)

    dist = [[0.0] * m for _ in range(n)]

    for i in kra:
        for j in krb:
            # Forest distance over the subtrees rooted at keyroots i and j.
            ioff, joff = lma[i], lmb[j]
            rows, cols = i - ioff + 2, j - joff + 2
            fd = [[0.0] * cols for _ in range(rows)]
            for x in range(1, rows):
                fd[x][0] = fd[x - 1][0] + 1.0
            for y in range(1, cols):
                fd[0][y] = fd[0][y - 1] + 1.0
            for x in range(1, rows):
                for y in range(1, cols):
                    ni, nj = ioff + x - 1, joff + y - 1
                    if lma[ni] == ioff and lmb[nj] == joff:
                        fd[x][y] = min(
                            fd[x - 1][y] + 1.0,
                            fd[x][y - 1] + 1.0,
                            fd[x - 1][y - 1] + (0.0 if la[ni] == lb[nj] else 1.0),
                        )
                        dist[ni][nj] = fd[x][y]
                    else:
                        fd[x][y] = min(
                            fd[x - 1][y] + 1.0,
                            fd[x][y - 1] + 1.0,
                            fd[lma[ni] - ioff][lmb[nj] - joff] + dist[ni][nj],
                        )
    return dist[n - 1][m - 1]


def distance_result(pred: Sequence[str], truth: Sequence[str]) -> DistanceResult:
    raw = edit_distance(pred, truth)
    size = len(truth)  # one token per node
    return DistanceResult(raw=raw, truth_nodes=size, normalized=min(1.0, raw / size))


def normalized_edit_distance(pred: Sequence[str], truth: Sequence[str]) -> float:
    """min(1, d(pred, truth) / |truth|); always normalized by the truth tree."""
    return distance_result(pred, truth).normalized
