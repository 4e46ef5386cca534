"""Scoring: R-squared accuracy, symbolic solution detection, relative-error
model selection, normalized edit distance aggregation, and report assembly.

R-squared here is the standard coefficient of determination
``1 - SSE/SST``; a prediction that faults anywhere on the test rows scores
``-inf`` rather than having its failures masked. Symbolic solution detection
is syntactic: the prediction counts as a solution when the canonicalized
difference reduces to a constant or the canonicalized ratio reduces to a
nonzero constant, so the verdict is deterministic and independent of any
fitted tolerance (with the usual caveat that detection is only as strong as
the canonicalizer's rewrite rules; an undecided case reports False).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import BUILTIN_SETS
from .datagen import Dataset
from .expr import (
    Expression,
    canonicalize,
    div,
    evaluate_many,
    neg,
    op_node,
    skeletonize,
)
from .treedist import distance_result

TINY_TARGET = 1e-300  # rows with |y| below this are skipped by Eq-style relative error
DEFAULT_TAU = 0.999


class ZeroVarianceError(ValueError):
    """R-squared is undefined when the targets are all identical."""


class NoViableCandidateError(ValueError):
    """Every candidate scored infinitely badly on the validation rows."""


@dataclass
class EvalReport:
    problem_id: str
    set_name: str
    r_squared: float
    accuracy_hit: bool
    symbolic_solution: bool
    edit_distance: float
    normalized_edit_distance: float
    selection_score: float | None = None


def r_squared(predictions, targets) -> float:
    """Standard coefficient of determination, 1 - SSE/SST."""
    preds = np.asarray(predictions, dtype=np.float64)
    ys = np.asarray(targets, dtype=np.float64)
    if preds.shape != ys.shape or preds.ndim != 1 or preds.size == 0:
        raise ValueError("predictions and targets must be equal-length nonempty vectors")
    sst = float(np.sum((ys - ys.mean()) ** 2))
    if sst == 0.0:
        raise ZeroVarianceError("targets are all identical; R^2 is undefined")
    sse = float(np.sum((preds - ys) ** 2))
    return 1.0 - sse / sst


def is_symbolic_solution(pred: Expression, truth: Expression) -> bool:
    """True when pred differs from truth by an additive constant or a nonzero
    multiplicative scalar, as decided by the canonical rewrite rules."""
    difference = canonicalize(op_node("add", pred, neg(truth)))
    if difference.is_constant:
        return True
    ratio = canonicalize(div(pred, truth))
    return ratio.is_constant and ratio.value != 0.0


def relative_error_score(expr, X: np.ndarray, y: np.ndarray) -> float:
    """Mean squared relative error of ``expr`` (an ``Expression`` or a
    program), skipping near-zero targets and faulting rows; infinity when
    over half the rows fault or nothing is scorable."""
    values, faulted = evaluate_many(expr, X)
    n_faulted = np.count_nonzero(faulted)
    if 2 * n_faulted > faulted.size:  # exact, and total on 0 rows
        return math.inf
    usable = ~faulted
    usable &= np.abs(y) >= TINY_TARGET
    n_usable = np.count_nonzero(usable)
    if n_usable == 0:
        return math.inf
    if n_usable < usable.size:
        values, y = values[usable], y[usable]
    # values is this call's own array, so the ratio is formed in place.
    with np.errstate(over="ignore", invalid="ignore"):
        values -= y
        values /= y
        values *= values
        score = float(np.add.reduce(values) / n_usable)
    return math.inf if math.isnan(score) else score


def select_best(candidates: list[Expression], validation: Dataset) -> Expression:
    """Pick the candidate minimizing the relative-error score on validation
    rows; ties break by smaller skeleton, then by input order."""
    if not candidates:
        raise ValueError("no candidates to select from")
    if validation.n_rows == 0:
        raise ValueError("validation dataset is empty")
    scores = [relative_error_score(c, validation.X, validation.y) for c in candidates]
    best_score = min(scores)
    if math.isinf(best_score):
        raise NoViableCandidateError("all candidates scored +inf on the validation rows")
    # Only the candidates tied on the best score need a skeleton size.
    _, position = min(
        (len(skeletonize(canonicalize(candidate))), position)
        for position, (candidate, score) in enumerate(zip(candidates, scores))
        if score == best_score
    )
    return candidates[position]


def evaluate_against(
    pred: Expression,
    truth: Expression,
    test: Dataset,
    problem_id: str,
    set_name: str = "unknown",
    tau: float = DEFAULT_TAU,
    validation: Dataset | None = None,
) -> EvalReport:
    """Score a prediction against an explicit truth expression."""
    pred_canonical = canonicalize(pred)
    truth_canonical = canonicalize(truth)
    dist = distance_result(skeletonize(pred_canonical), skeletonize(truth_canonical))
    values, faulted = evaluate_many(pred_canonical, test.X)
    if faulted.any():
        score = -math.inf  # faults on test rows are not masked
    else:
        score = r_squared(values, test.y)
    return EvalReport(
        problem_id=problem_id,
        set_name=set_name,
        r_squared=score,
        accuracy_hit=score > tau,
        symbolic_solution=is_symbolic_solution(pred, truth_canonical),
        edit_distance=dist.raw,
        normalized_edit_distance=dist.normalized,
        selection_score=(
            relative_error_score(pred_canonical, validation.X, validation.y)
            if validation is not None
            else None
        ),
    )


def summarize(reports: list[EvalReport]) -> dict[str, dict]:
    """The JSON-ready per-set table, counted from the rows: the rates are
    shares of ``accuracy_hit`` and ``symbolic_solution``, so accuracy uses
    the τ the rows were scored with."""
    if not reports:
        raise ValueError("cannot summarize an empty report list")
    names = [s for s in BUILTIN_SETS if any(r.set_name == s for r in reports)]
    names += sorted({r.set_name for r in reports} - set(BUILTIN_SETS))
    summary = {}
    for name in names:
        group = [r for r in reports if r.set_name == name]
        summary[name] = {
            "count": len(group),
            "accuracy_rate": sum(r.accuracy_hit for r in group) / len(group),
            "solution_rate": sum(r.symbolic_solution for r in group) / len(group),
            "mean_normalized_edit_distance": (
                sum(r.normalized_edit_distance for r in group) / len(group)
            ),
        }
    return summary


def _json_float(x: float | None) -> float | None:
    if x is None or not math.isfinite(x):
        return None
    return x


def report_payload(reports: list[EvalReport], summary: dict[str, dict]) -> dict:
    """JSON-ready document with a stable ordering for diffability;
    ``summary`` is :func:`summarize` of the same reports."""
    problems = [
        {
            "id": r.problem_id,
            "set": r.set_name,
            "r_squared": _json_float(r.r_squared),
            "accuracy_hit": r.accuracy_hit,
            "symbolic_solution": r.symbolic_solution,
            "edit_distance": r.edit_distance,
            "normalized_edit_distance": r.normalized_edit_distance,
            "selection_score": _json_float(r.selection_score),
        }
        for r in sorted(reports, key=lambda r: r.problem_id)
    ]
    return {"problems": problems, "summary": summary}
