"""Ordered-tree edit distance (Zhang-Shasha) and its normalized form.

The distance is the minimum total cost of node insertions, deletions and
renames transforming one ordered labeled tree into the other. Under the
default unit-cost model a rename is free exactly when the labels match, where
every constant node (label ``C``) matches every other constant node
regardless of its display index, while ``X1`` matches only ``X1`` and so on.

The normalized distance divides by the node count of the *truth* tree and is
capped at 1; the normalization is deliberately asymmetric, including when the
prediction is the larger tree.

Both trees are assumed to come out of the canonicalize/skeletonize pipeline,
which sorts commutative operands into a fixed total order; without that, an
ordered-tree distance would charge for operand permutations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr.skeleton import SkeletonTree


@dataclass(frozen=True)
class EditCostModel:
    """Unit costs by default; rename is 0 for matching labels, 1 otherwise."""

    insert_cost: float = 1.0
    delete_cost: float = 1.0
    mismatch_cost: float = 1.0

    def rename(self, a: str, b: str) -> float:
        return 0.0 if a == b else self.mismatch_cost


UNIT_COSTS = EditCostModel()


@dataclass(frozen=True)
class DistanceResult:
    raw: float
    truth_nodes: int
    normalized: float


def _postorder(root: SkeletonTree) -> tuple[list[str], list[int]]:
    """Labels in postorder plus l(i): the postorder index of the leftmost
    leaf descendant of node i (both 0-based)."""
    labels: list[str] = []
    leftmost: list[int] = []

    def walk(node: SkeletonTree) -> int:
        first = None
        for child in node.children:
            idx = walk(child)
            if first is None:
                first = idx
        labels.append(node.label)
        my_index = len(labels) - 1
        leftmost.append(first if first is not None else my_index)
        return leftmost[my_index]

    walk(root)
    return labels, leftmost


def _keyroots(leftmost: list[int]) -> list[int]:
    """Nodes with no ancestor sharing their leftmost leaf, ascending."""
    seen: dict[int, int] = {}
    for i, l in enumerate(leftmost):
        seen[l] = i  # postorder guarantees the last writer is the highest node
    return sorted(seen.values())


def edit_distance(a: SkeletonTree, b: SkeletonTree, costs: EditCostModel = UNIT_COSTS) -> float:
    """Exact minimum-cost edit distance between two non-empty ordered trees."""
    la, lma = _postorder(a)
    lb, lmb = _postorder(b)
    n, m = len(la), len(lb)
    kra, krb = _keyroots(lma), _keyroots(lmb)

    dist = [[0.0] * m for _ in range(n)]
    ins, dele = costs.insert_cost, costs.delete_cost

    for i in kra:
        for j in krb:
            # Forest distance over the subtrees rooted at keyroots i and j.
            ioff, joff = lma[i], lmb[j]
            rows, cols = i - ioff + 2, j - joff + 2
            fd = [[0.0] * cols for _ in range(rows)]
            for x in range(1, rows):
                fd[x][0] = fd[x - 1][0] + dele
            for y in range(1, cols):
                fd[0][y] = fd[0][y - 1] + ins
            for x in range(1, rows):
                for y in range(1, cols):
                    ni, nj = ioff + x - 1, joff + y - 1
                    if lma[ni] == ioff and lmb[nj] == joff:
                        fd[x][y] = min(
                            fd[x - 1][y] + dele,
                            fd[x][y - 1] + ins,
                            fd[x - 1][y - 1] + costs.rename(la[ni], lb[nj]),
                        )
                        dist[ni][nj] = fd[x][y]
                    else:
                        fd[x][y] = min(
                            fd[x - 1][y] + dele,
                            fd[x][y - 1] + ins,
                            fd[lma[ni] - ioff][lmb[nj] - joff] + dist[ni][nj],
                        )
    return dist[n - 1][m - 1]


def distance_result(pred: SkeletonTree, truth: SkeletonTree, costs: EditCostModel = UNIT_COSTS) -> DistanceResult:
    raw = edit_distance(pred, truth, costs)
    size = truth.node_count()
    return DistanceResult(raw=raw, truth_nodes=size, normalized=min(1.0, raw / size))


def normalized_edit_distance(pred: SkeletonTree, truth: SkeletonTree) -> float:
    """min(1, d(pred, truth) / |truth|); always normalized by the truth tree."""
    return distance_result(pred, truth).normalized
