"""Synthetic equation corpora: bigram generation, range assignment, leakage.

A Laplace-smoothed bigram chain is trained over the catalog's preorder
skeleton token sequences and sampled left-to-right. At every step the
candidate set is masked to tokens that can still complete a valid tree
within the token budget (open-slot bookkeeping), so every sampled sequence
decodes; sequences whose expression canonicalizes to a bare constant are
resampled under a bounded retry budget.

Each generated equation receives sampling ranges by drawing an integer k per
variable independently and sampling that variable log-uniformly from
[10^(k-1), 10^(k+1)].

The leakage checker compares a synthetic corpus against benchmark problems.
Skeletons match when their token tuples are equal (NED = 0), so the tuples
key a hash join; only for matching pairs is the per-variable interval IoU
of the observed sample ranges computed. Benchmark sets can contain
skeleton-duplicate problems with different ranges, so the per-equation figure
is the worst case (max) over matching pairs; the mean over pairs is also
reported.

Since only matched items need ranges, an item may carry ``ranges=None``.
``srsdkit leakcheck`` decodes every ``true_eq.txt`` of both roots first and
reads ``train.txt``/``val.txt``/``test.txt`` only of problems whose skeleton
occurs on both sides; the data files of the other problems are not
opened, so they are not validated either.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .catalog import ProblemSpec, VariableSpec, loguniform
from .datagen import Dataset
from .expr import (
    Expression,
    canonicalize,
    const,
    decode_preorder,
    op_node,
    to_infix,
    token_arity,
    var,
    variable_index,
)

START = "<s>"


class SynthError(ValueError):
    """Generation could not produce a usable equation within the retry budget."""


@dataclass
class BigramModel:
    vocabulary: tuple[str, ...]  # sorted, without the start symbol
    alpha: float
    counts: dict[tuple[str, str], int] = field(default_factory=dict)
    context_totals: dict[str, int] = field(default_factory=dict)

    def probability(self, prev: str, nxt: str) -> float:
        total = self.context_totals.get(prev, 0)
        seen = self.counts.get((prev, nxt), 0)
        denom = total + self.alpha * len(self.vocabulary)
        if denom == 0.0:
            return 0.0
        return (seen + self.alpha) / denom


def train_bigram(corpus: list[Sequence[str]], alpha: float = 1.0) -> BigramModel:
    """Count token bigrams over preorder sequences, with a start context."""
    if not corpus:
        raise SynthError("cannot train a bigram model on an empty corpus")
    vocab = sorted({tok for seq in corpus for tok in seq})
    model = BigramModel(vocabulary=tuple(vocab), alpha=alpha)
    for seq in corpus:
        prev = START
        for tok in seq:
            model.counts[(prev, tok)] = model.counts.get((prev, tok), 0) + 1
            model.context_totals[prev] = model.context_totals.get(prev, 0) + 1
            prev = tok
    return model


def catalog_token_corpus(specs: list[ProblemSpec]) -> list[tuple[str, ...]]:
    return [spec.skeleton for spec in specs]


def _feasible(token: str, open_slots: int, used: int, max_tokens: int) -> bool:
    opened = open_slots - 1 + token_arity(token)
    return opened <= max_tokens - (used + 1)


def _sample_tokens(model: BigramModel, max_tokens: int, rng: np.random.Generator) -> list[str]:
    tokens: list[str] = []
    open_slots = 1
    prev = START
    while open_slots > 0:
        feasible = [t for t in model.vocabulary if _feasible(t, open_slots, len(tokens), max_tokens)]
        if not feasible:
            raise SynthError("no feasible token; max_tokens too small for the vocabulary")
        weights = np.array([model.probability(prev, t) for t in feasible])
        total = weights.sum()
        if total <= 0.0:
            raise SynthError("bigram model assigns zero mass to every feasible token")
        choice = feasible[int(rng.choice(len(feasible), p=weights / total))]
        tokens.append(choice)
        open_slots += token_arity(choice) - 1
        prev = choice
    return tokens


def _tokens_to_expression(tokens: list[str], rng: np.random.Generator) -> Expression:
    """Instantiate a sampled skeleton: dense variable indices by first
    occurrence, constants drawn log-uniformly over ±10^[-3, 3]."""
    remap: dict[str, int] = {}

    def leaf(token: str, position: int) -> Expression:
        if variable_index(token) is not None:
            return var(remap.setdefault(token, len(remap)))
        magnitude = 10.0 ** rng.uniform(-3.0, 3.0)
        sign = 1.0 if rng.integers(0, 2) == 1 else -1.0
        return const(sign * magnitude)

    return decode_preorder(tokens, leaf, op_node)


def sample_equation(model: BigramModel, max_tokens: int, seed, max_retries: int = 50) -> Expression:
    """Draw one non-degenerate equation; always decodes by construction."""
    if max_tokens < 1:
        raise SynthError(f"max_tokens must be >= 1, got {max_tokens}")
    rng = np.random.default_rng(seed)
    for _ in range(max_retries):
        tokens = _sample_tokens(model, max_tokens, rng)
        expr = _tokens_to_expression(tokens, rng)
        if not expr.variables():
            continue
        if canonicalize(expr).is_constant:
            continue
        return expr
    raise SynthError(f"no usable equation within {max_retries} retries")


def assign_ranges(
    expr: Expression,
    seed,
    k_lo: int = -8,
    k_hi: int = 8,
    problem_id: str = "synth",
) -> ProblemSpec:
    """Wrap an equation as a problem spec with random per-variable ranges.

    Each variable independently draws an integer k in [k_lo, k_hi] and
    samples log-uniformly from [10^(k-1), 10^(k+1)], positive float.
    """
    indices = sorted(expr.variables())
    if not indices:
        raise SynthError("equation has no variables to assign ranges to")
    if indices != list(range(len(indices))):
        raise SynthError(f"variable indices must be dense, got {indices}")
    rng = np.random.default_rng(seed)
    names = [f"x{i + 1}" for i in indices]
    variables = []
    for name in names:
        k = int(rng.integers(k_lo, k_hi + 1))
        variables.append(
            VariableSpec(
                name=name,
                dist=loguniform(10.0 ** (k - 1), 10.0 ** (k + 1)),
                value_class="float",
                sign="positive",
            )
        )
    return ProblemSpec(
        id=problem_id,
        set_name="synth",
        formula=to_infix(expr, names),
        variables=variables,
    )


def range_exponent(spec_variable: VariableSpec) -> int:
    """Recover the k that produced a synthetic variable's range."""
    d = spec_variable.dist
    return round((math.log10(d.lo) + math.log10(d.hi)) / 2.0)


# ---------------------------------------------------------------------------
# Leakage checking
# ---------------------------------------------------------------------------

def domain_iou(range_a: tuple[float, float], range_b: tuple[float, float]) -> float:
    """Interval intersection over union, clamped to [0, 1]."""
    (a_lo, a_hi), (b_lo, b_hi) = range_a, range_b
    if a_lo > a_hi or b_lo > b_hi:
        raise ValueError("ranges must satisfy min <= max")
    union = max(a_hi, b_hi) - min(a_lo, b_lo)
    if union == 0.0:
        # Both ranges are the same single point.
        return 1.0 if (a_lo, a_hi) == (b_lo, b_hi) else 0.0
    intersection = min(a_hi, b_hi) - max(a_lo, b_lo)
    return min(1.0, max(0.0, intersection / union))


def observed_ranges(X: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Per-column (min, max) of an input matrix."""
    return tuple((float(col.min()), float(col.max())) for col in X.T)


@dataclass(frozen=True)
class LeakageItem:
    """One side of a leakage comparison: a skeleton plus observed ranges,
    which may be ``None`` for an item no item of the other side matches."""

    id: str
    skeleton: tuple[str, ...]
    ranges: tuple[tuple[float, float], ...] | None

    @classmethod
    def from_dataset(cls, spec: ProblemSpec, ds: Dataset) -> "LeakageItem":
        return cls(id=spec.id, skeleton=spec.skeleton, ranges=observed_ranges(ds.X))


@dataclass(frozen=True)
class LeakagePair:
    """A skeleton-identical (target, synthetic) pair and its range IoUs."""

    target_id: str
    synth_id: str
    iou_per_variable: tuple[float, ...]
    iou: float


@dataclass(frozen=True)
class EquationLeakage:
    target_id: str
    n_matches: int
    max_iou: float
    mean_iou: float


@dataclass(frozen=True)
class LeakageResult:
    pairs: list[LeakagePair]  # skeleton-identical pairs only, in target then corpus order
    per_equation: list[EquationLeakage]
    mean_iou: float           # mean over targets of the worst-case (max) pair IoU
    mean_of_mean_iou: float   # mean over targets of the mean pair IoU


def _ranges(item: LeakageItem) -> tuple[tuple[float, float], ...]:
    if item.ranges is None:
        raise ValueError(f"{item.id}: a skeleton match needs its observed ranges")
    return item.ranges


def leakage_report(
    corpus: list[LeakageItem],
    targets: list[LeakageItem],
) -> LeakageResult:
    """Join ``corpus`` and ``targets`` on their skeletons and compare the
    ranges of each matched pair; an unmatched item's ranges are never read."""
    if not corpus or not targets:
        raise ValueError("leakage check needs a nonempty corpus and target list")
    by_skeleton: dict[tuple[str, ...], list[LeakageItem]] = {}
    for synth in corpus:
        by_skeleton.setdefault(synth.skeleton, []).append(synth)
    pairs: list[LeakagePair] = []
    per_equation: list[EquationLeakage] = []
    for target in targets:
        match_ious: list[float] = []
        for synth in by_skeleton.get(target.skeleton, ()):
            ious = tuple(domain_iou(a, b) for a, b in zip(_ranges(synth), _ranges(target)))
            pair_iou = sum(ious) / len(ious) if ious else 0.0
            match_ious.append(pair_iou)
            pairs.append(LeakagePair(target.id, synth.id, ious, pair_iou))
        per_equation.append(
            EquationLeakage(
                target_id=target.id,
                n_matches=len(match_ious),
                max_iou=max(match_ious) if match_ious else 0.0,
                mean_iou=sum(match_ious) / len(match_ious) if match_ious else 0.0,
            )
        )
    mean_iou = sum(e.max_iou for e in per_equation) / len(per_equation)
    mean_of_means = sum(e.mean_iou for e in per_equation) / len(per_equation)
    return LeakageResult(
        pairs=pairs,
        per_equation=per_equation,
        mean_iou=mean_iou,
        mean_of_mean_iou=mean_of_means,
    )
