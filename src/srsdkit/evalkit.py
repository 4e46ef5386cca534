"""Scoring: R-squared accuracy, symbolic solution detection, relative-error
model selection, and the per-problem report rows with their per-set summary,
for one problem or, by :func:`eval_report`, a directory of predictions.

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
from pathlib import Path

import numpy as np

from . import datagen
from .catalog import BUILTIN_SETS
from .errors import ArgumentError, DataError, read_json
from .expr import (
    DecodeError,
    Expression,
    Memo,
    VariableIndexError,
    canonicalize,
    div,
    evaluate_many,
    neg,
    op_node,
    prefix_to_expression,
    skeletonize,
)
from .expr.evaluate import _HELD_BY_OWNER  # the owner of FitnessRows holds np.errstate
from .treedist import distance_result

TINY_TARGET = 1e-300  # rows with |y| below this are skipped by Eq-style relative error
DEFAULT_TAU = 0.999


class ZeroVarianceError(DataError):
    """R-squared is undefined when the targets are all identical."""


class NoViableCandidateError(ValueError):
    """Every candidate scored infinitely badly on the validation rows."""


def r_squared(predictions, targets) -> float:
    """Standard coefficient of determination, 1 - SSE/SST."""
    preds = np.asarray(predictions, dtype=np.float64)
    ys = np.asarray(targets, dtype=np.float64)
    if preds.shape != ys.shape or preds.ndim != 1 or preds.size == 0:
        raise ValueError("predictions and targets must be equal-length nonempty vectors")
    # A sum of squares may overflow to inf; the ratio then says what it means
    # (R^2 of -inf or nan), so numpy's warning is noise.
    with np.errstate(over="ignore"):
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


class FitnessRows:
    """One ``X`` and ``y`` made ready for the many :func:`relative_error_score`
    calls of a GP run. The target-side terms, which depend only on ``y``, are
    computed once, and ``memo`` keeps ``sin``, ``cos``, ``exp`` and ``log``
    results over ``X`` (see :class:`.expr.Memo`). It lives as long as the run,
    belongs to these two arrays only, and is used, like its memo, inside
    ``np.errstate(all="ignore")`` held by its owner."""

    __slots__ = ("X", "y", "usable", "n_usable", "memo")

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self.X = X
        self.y = y
        self.usable = np.abs(y) >= TINY_TARGET
        self.n_usable = np.count_nonzero(self.usable)
        self.memo = Memo(X)


def relative_error_score(expr, X: np.ndarray, y: np.ndarray, rows: FitnessRows | None = None) -> float:
    """Mean squared relative error of ``expr`` (an ``Expression`` or a
    program), skipping near-zero targets and faulting rows; infinity when
    over half the rows fault or nothing is scorable. ``rows``, made for
    this very ``X`` and ``y``, saves the work that depends only on them and
    gives the same score."""
    if rows is None:
        usable = np.abs(y) >= TINY_TARGET
        n_usable = np.count_nonzero(usable)
        memo = None
    elif y is not rows.y:
        raise ValueError("the fitness rows were made for another target")
    else:
        usable, n_usable, memo = rows.usable, rows.n_usable, rows.memo
    values, faulted = evaluate_many(expr, X, memo)
    n_faulted = np.count_nonzero(faulted)
    if 2 * n_faulted > faulted.size:  # exact, and total on 0 rows
        return math.inf
    if n_faulted:
        usable = usable & ~faulted
        n_usable = np.count_nonzero(usable)
    if n_usable == 0:
        return math.inf
    # values is this call's own array: the ratio is formed in place, then skipped rows dropped.
    errors = np.errstate(over="ignore", invalid="ignore", divide="ignore") if rows is None else _HELD_BY_OWNER
    with errors:
        values -= y
        values /= y
        values *= values
        if n_usable < usable.size:
            values = values[usable]
        score = float(np.add.reduce(values) / n_usable)
    return math.inf if math.isnan(score) else score


def select_best(candidates: list[Expression], validation: datagen.Dataset) -> Expression:
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
    test: datagen.Dataset,
    problem_id: str,
    set_name: str = "unknown",
    tau: float = DEFAULT_TAU,
    validation: datagen.Dataset | None = None,
) -> dict:
    """Score a prediction against an explicit truth expression: the report
    row ``eval`` prints. ``r_squared`` and ``selection_score`` are ``None``
    when not finite; ``selection_score`` is also ``None`` without
    ``validation`` rows."""
    pred_canonical = canonicalize(pred)
    truth_canonical = canonicalize(truth)
    dist = distance_result(skeletonize(pred_canonical), skeletonize(truth_canonical))
    values, faulted = evaluate_many(pred_canonical, test.X)
    if faulted.any():
        score = -math.inf  # faults on test rows are not masked
    else:
        score = r_squared(values, test.y)
    selection = math.inf
    if validation is not None:
        selection = relative_error_score(pred_canonical, validation.X, validation.y)
    return {
        "id": problem_id,
        "set": set_name,
        "r_squared": score if math.isfinite(score) else None,
        "accuracy_hit": score > tau,
        "symbolic_solution": is_symbolic_solution(pred, truth_canonical),
        "edit_distance": dist.raw,
        "normalized_edit_distance": dist.normalized,
        "selection_score": selection if math.isfinite(selection) else None,
    }


def summarize(rows: list[dict]) -> dict[str, dict]:
    """The JSON-ready per-set table, counted from the report rows of
    :func:`evaluate_against`: the rates are shares of ``accuracy_hit`` and
    ``symbolic_solution``, so accuracy uses the τ the rows were scored with."""
    if not rows:
        raise ValueError("cannot summarize an empty report list")
    names = [s for s in BUILTIN_SETS if any(r["set"] == s for r in rows)]
    names += sorted({r["set"] for r in rows} - set(BUILTIN_SETS))
    summary = {}
    for name in names:
        group = [r for r in rows if r["set"] == name]
        summary[name] = {
            "count": len(group),
            "accuracy_rate": sum(r["accuracy_hit"] for r in group) / len(group),
            "solution_rate": sum(r["symbolic_solution"] for r in group) / len(group),
            "mean_normalized_edit_distance": (
                sum(r["normalized_edit_distance"] for r in group) / len(group)
            ),
        }
    return summary


def _set_names_from_manifest(root: Path) -> dict[str, str]:
    """Problem id → set name, from the ``problems`` list of a ``generate``
    manifest; a manifest without that key (``synth`` writes ``equations``)
    names no sets."""
    manifest = root / datagen.MANIFEST_FILE
    if not manifest.is_file():
        return {}
    payload = read_json(manifest)
    problems = payload.get("problems", []) if isinstance(payload, dict) else None
    if not isinstance(problems, list) or not all(isinstance(e, dict) for e in problems):
        raise DataError(f"{manifest}: not a JSON object with a 'problems' list of objects")
    return {e["id"]: e["set"] for e in problems
            if isinstance(e.get("id"), str) and isinstance(e.get("set"), str)}


def prediction_file(pred_dir, problem_id: str) -> Path:
    """The file of preorder tokens that a prediction directory holds for a problem."""
    return Path(pred_dir) / f"{problem_id}.txt"


def _load_prediction(pred_dir: Path, problem_id: str) -> Expression | None:
    """The :func:`prediction_file`, else the truth of a problem directory
    ``<id>``, or ``None``."""
    flat = prediction_file(pred_dir, problem_id)
    if flat.is_file():
        try:
            return prefix_to_expression(datagen.read_expression_line(flat).split())
        except DecodeError as err:
            raise DataError(f"{problem_id}: invalid prediction: {err}") from None
    nested = pred_dir / problem_id / datagen.TRUE_EQ_FILE
    if nested.is_file():
        return datagen.read_true_equation(nested)
    return None


def eval_report(pred_dir, data_dir, tau: float = DEFAULT_TAU) -> dict:
    """The report ``srsdkit eval`` prints: a :func:`evaluate_against` row for
    each problem directory of ``data_dir`` with a prediction under
    ``pred_dir``, their :func:`summarize` table, and the ``skipped`` ids. A
    prediction that does not decode or reads a missing column, and every
    other ``DataError`` of scoring, raises ``DataError`` naming its problem;
    a ``tau`` that is not finite, ``ArgumentError``, before a file is read."""
    if not math.isfinite(tau):
        raise ArgumentError("{tau} must be finite, got {value}", value=tau)
    data_root, pred_root = Path(data_dir), Path(pred_dir)
    set_names = _set_names_from_manifest(data_root)
    rows = []
    skipped = []
    for pdir in datagen.problem_dirs(data_root):
        pid = pdir.name
        pred = _load_prediction(pred_root, pid)
        if pred is None:
            skipped.append(pid)
            continue
        truth = datagen.read_true_equation(pdir / datagen.TRUE_EQ_FILE)
        splits = datagen.read_splits(pdir, ["test"], optional=["val"])
        try:
            row = evaluate_against(
                pred,
                truth,
                splits["test"],
                problem_id=pid,
                set_name=set_names.get(pid, "unknown"),
                tau=tau,
                validation=splits.get("val"),
            )
        except VariableIndexError as err:
            raise DataError(f"{pid}: invalid prediction: {err}") from None
        except DataError as err:
            raise DataError(f"{pid}: {err}") from None
        rows.append(row)
    if not rows:
        raise DataError(f"no predictions found under {pred_root}")
    rows.sort(key=lambda row: row["id"])
    return {
        "problems": rows,
        "summary": summarize(rows),
        "skipped": sorted(skipped),
        "tau": tau,
    }
