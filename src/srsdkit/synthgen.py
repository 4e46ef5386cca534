"""Synthetic equation corpora: bigram generation, range assignment, leakage.

A Laplace-smoothed bigram chain is trained over the catalog's preorder
skeleton token sequences and sampled left-to-right. At every step the
candidate set is masked to tokens that can still complete a valid tree
within the token budget (open-slot bookkeeping), so every sampled sequence
decodes; sequences whose expression canonicalizes to a bare constant are
resampled under a bounded retry budget.

Each generated equation receives sampling ranges by drawing an integer k per
variable independently and sampling that variable log-uniformly from
[10^(k-1), 10^(k+1)]. The resulting ``ProblemSpec`` carries the sampled
tree, with each n-ary ``add``/``mul`` nested to the left; it has no formula.
:func:`synth` writes a whole corpus, as ``srsdkit synth`` does.

The leakage checker compares a synthetic corpus against benchmark problems.
Skeletons match when their token tuples are equal (NED = 0), so the tuples
key a hash join; only for matching pairs is the per-variable interval IoU
of the observed sample ranges computed. Benchmark sets can contain
skeleton-duplicate problems with different ranges, so the per-equation figure
is the worst case (max) over matching pairs; the mean over pairs is also
reported.

Since only matched items need ranges, an item may carry ``ranges=None``.
:func:`leakcheck_report` decodes the true equation of every problem directory
under both roots first and reads the split files only of problems whose
skeleton occurs on both sides; the data files of the other problems are not
opened, so they are not validated either.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from pathlib import Path

import numpy as np

from . import datagen
from .catalog import ProblemSpec, VariableSpec, load_specs, loguniform
from .expr import (
    Expression,
    canonicalize,
    const,
    decode_preorder,
    expression_to_prefix,
    from_program,
    op_node,
    skeletonize,
    to_program,
    token_arity,
    var,
    variable_index,
)

START = "<s>"

# The range exponents k for which 10^(k-1) is positive and 10^(k+1) finite.
K_MIN, K_MAX = -322, 307


class SynthError(datagen.DataError):
    """No usable equation within the retry budget."""


def check_range_exponents(k_lo: int, k_hi: int) -> None:
    """Raise ``ArgumentError`` for a bound outside [K_MIN, K_MAX], or for
    ``k_lo`` above ``k_hi``."""
    for name, k in (("k_lo", k_lo), ("k_hi", k_hi)):
        if not K_MIN <= k <= K_MAX:
            raise datagen.ArgumentError("{%s} must be in [{lo}, {hi}], got {k}" % name,
                                        lo=K_MIN, hi=K_MAX, k=k)
    if k_lo > k_hi:
        raise datagen.ArgumentError("{k_lo} must be <= {k_hi}, got {lo} > {hi}", lo=k_lo, hi=k_hi)


@dataclass
class BigramModel:
    vocabulary: tuple[str, ...]  # sorted, without the start symbol
    alpha: float
    counts: dict[tuple[str, str], int] = field(default_factory=dict)
    context_totals: dict[str, int] = field(default_factory=dict)
    arity: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):  # the sampler reads every token's arity at every step
        self.arity = {token: token_arity(token) for token in self.vocabulary}

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


def _sample_tokens(model: BigramModel, max_tokens: int, rng: np.random.Generator) -> list[str]:
    tokens: list[str] = []
    open_slots = 1
    prev = START
    arity = model.arity
    while open_slots > 0:
        # A token may open as many slots as the budget can still fill after it.
        room = max_tokens - len(tokens) - open_slots
        feasible = [t for t in model.vocabulary if arity[t] <= room]
        if not feasible:
            raise SynthError("no feasible token; max_tokens too small for the vocabulary")
        weights = np.array([model.probability(prev, t) for t in feasible])
        total = weights.sum()
        if total <= 0.0:
            raise SynthError("bigram model assigns zero mass to every feasible token")
        choice = feasible[int(rng.choice(len(feasible), p=weights / total))]
        tokens.append(choice)
        open_slots += arity[choice] - 1
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
    datagen.check_counts(max_tokens=max_tokens)
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


def _nested_left(expr: Expression) -> Expression:
    """``expr`` with each n-ary ``add``/``mul`` nested to the left, as
    ``a + b + c`` parses: ``add(add(a, b), c)``.

    Canonicalization rewrites each node after its operands, so it sums (or
    multiplies) the constants and merges the like terms of a nested chain
    pair by pair from the left before it flattens the chain. The nesting
    thus fixes the canonical constants' last bits, and through them the
    bytes of every dataset and ``true_eq.txt`` that ``synth`` writes.
    """

    def node(name: str, *children: Expression) -> Expression:
        if name in ("add", "mul"):
            return reduce(partial(op_node, name), children)
        return op_node(name, *children)

    return from_program(to_program(expr), node)


def assign_ranges(
    expr: Expression | ProblemSpec,
    seed,
    k_lo: int = -8,
    k_hi: int = 8,
    problem_id: str = "synth",
) -> ProblemSpec:
    """Wrap an equation as a problem spec with random per-variable ranges.

    Each variable independently draws an integer k in [k_lo, k_hi] and
    samples log-uniformly from [10^(k-1), 10^(k+1)], positive float; a
    bound :func:`check_range_exponents` refuses raises ``ArgumentError``.

    ``expr`` may also be a spec an earlier call returned. The new spec then
    shares its nested tree, canonical tree and skeleton, which ranges do not
    change, so the copies of one equation canonicalize it once.
    """
    check_range_exponents(k_lo, k_hi)
    if isinstance(expr, ProblemSpec):
        expr.skeleton  # computed once here, then shared through the copy
        spec = copy.copy(expr)
    else:
        spec = ProblemSpec(id=problem_id, set_name="synth", formula=None,
                           expression=_nested_left(expr))
    indices = sorted(spec.expression.variables())
    if not indices:
        raise SynthError("equation has no variables to assign ranges to")
    if indices != list(range(len(indices))):
        raise SynthError(f"variable indices must be dense, got {indices}")
    rng = np.random.default_rng(seed)
    variables = []
    for i in indices:
        k = int(rng.integers(k_lo, k_hi + 1))
        variables.append(
            VariableSpec(
                name=f"x{i + 1}",
                dist=loguniform(10.0 ** (k - 1), 10.0 ** (k + 1)),
                value_class="float",
                sign="positive",
            )
        )
    spec.id = problem_id
    spec.variables = variables
    return spec


def range_exponent(spec_variable: VariableSpec) -> int:
    """Recover the k that produced a synthetic variable's range."""
    d = spec_variable.dist
    return round((math.log10(d.lo) + math.log10(d.hi)) / 2.0)


def synth(out, n: int, seed: int = 0, catalog_files=(), max_tokens: int = 32, rows: int = 1000,
          copies_max: int = 10, alpha: float = 1.0, k_lo: int = -8, k_hi: int = 8) -> dict:
    """What ``srsdkit synth`` does: ``n`` equations sampled from a bigram
    model of the catalog's skeletons, each written to ``equations/`` under
    ``out`` with 1 to ``copies_max`` problem directories of its own ranges,
    then the ``MANIFEST_FILE`` it returns. Equation ``i`` draws from the
    seed ``[seed, i]``, its copy ``c`` from ``[seed, i, c]``, and the copy
    counts from ``[seed, 0xC0]``; an infeasible copy is written as none.
    The arguments are checked first, each refusal an ``ArgumentError``."""
    datagen.check_counts(n=n, max_tokens=max_tokens, copies_max=copies_max)
    check_range_exponents(k_lo, k_hi)
    if not 0.0 <= alpha < math.inf:
        raise datagen.ArgumentError("{alpha} must be finite and >= 0, got {value}", value=alpha)
    datagen.check_rows(rows)
    model = train_bigram([s.skeleton for s in load_specs(catalog_files)], alpha=alpha)
    out_root = Path(out)
    eq_dir = out_root / "equations"
    eq_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    copy_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
    for i in range(n):
        expr = sample_equation(model, max_tokens, np.random.SeedSequence([seed, i]))
        eq_name = f"eq-{i:05d}.txt"
        (eq_dir / eq_name).write_text(" ".join(expression_to_prefix(expr)) + "\n", encoding="utf-8")
        copies = int(copy_rng.integers(1, copies_max + 1))
        datasets = []
        # Each copy's spec is made from the one before, so the copies share
        # one nested tree and canonicalize it once.
        spec = expr
        for c in range(copies):
            pid = f"synth-{i:05d}-{c:02d}"
            spec = assign_ranges(spec, np.random.SeedSequence([seed, i, c]),
                                 k_lo=k_lo, k_hi=k_hi, problem_id=pid)
            try:
                datagen.write_problem_dir(spec, out_root, rows=rows, seed=seed)
            except datagen.SamplingInfeasibleError:
                datasets.append({"dir": pid, "k": None, "status": "infeasible"})
                continue
            ks = {v.name: range_exponent(v) for v in spec.sampled_variables}
            datasets.append({"dir": pid, "k": ks, "status": "ok"})
        entries.append({"equation_file": f"equations/{eq_name}", "datasets": datasets})
    config = {"n_equations": n, "master_seed": seed, "max_tokens": max_tokens, "rows": rows,
              "copies_max": copies_max, "alpha": alpha, "k_lo": k_lo, "k_hi": k_hi}
    return datagen.write_manifest({"command": "synth", "config": config, "equations": entries},
                                  out_root)


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


@dataclass(frozen=True)
class EquationLeakage:
    target_id: str
    n_matches: int
    max_iou: float
    mean_iou: float


@dataclass(frozen=True)
class LeakageResult:
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
    per_equation: list[EquationLeakage] = []
    for target in targets:
        match_ious: list[float] = []
        for synth in by_skeleton.get(target.skeleton, ()):
            ious = tuple(domain_iou(a, b) for a, b in zip(_ranges(synth), _ranges(target)))
            match_ious.append(sum(ious) / len(ious) if ious else 0.0)
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
        per_equation=per_equation,
        mean_iou=mean_iou,
        mean_of_mean_iou=mean_of_means,
    )


def _leakage_items(root: Path) -> list[LeakageItem]:
    """An item per problem directory under ``root``, with its skeleton and
    no ranges yet; a directory without dataset files is a data error."""
    items = []
    for pdir in datagen.problem_dirs(root):
        skeleton = skeletonize(datagen.read_true_equation(pdir / datagen.TRUE_EQ_FILE))
        if not any((pdir / name).is_file() for name in datagen.SPLIT_FILES.values()):
            raise datagen.DataError(f"{pdir}: no dataset files")
        items.append(LeakageItem(id=pdir.name, skeleton=skeleton, ranges=None))
    return items


def _split_ranges(pdir: Path) -> tuple[tuple[float, float], ...]:
    """The observed input ranges over the split files of a problem directory,
    read by :func:`.datagen.read_splits`."""
    chunks = [part.values for part in datagen.read_splits(pdir, (), datagen.SPLIT_FILES).values()]
    return observed_ranges(np.concatenate(chunks, axis=0)[:, :-1])


def leakcheck_report(corpus_dir, target_dir) -> dict:
    """The report ``srsdkit leakcheck`` prints: :func:`leakage_report` of the
    problem directories under ``corpus_dir`` against those under
    ``target_dir``. Skeletons first: only the problems whose skeleton the
    other side shares have their data files read."""
    corpus_root, target_root = Path(corpus_dir), Path(target_dir)
    corpus, targets = _leakage_items(corpus_root), _leakage_items(target_root)
    shared = {i.skeleton for i in corpus} & {i.skeleton for i in targets}

    def with_ranges(root: Path, items: list[LeakageItem]) -> list[LeakageItem]:
        return [replace(i, ranges=_split_ranges(root / i.id)) if i.skeleton in shared else i
                for i in items]

    result = leakage_report(with_ranges(corpus_root, corpus), with_ranges(target_root, targets))
    return {
        "mean_iou": result.mean_iou,
        "mean_of_mean_iou": result.mean_of_mean_iou,
        "per_equation": [
            {
                "id": e.target_id,
                "n_matches": e.n_matches,
                "max_iou": e.max_iou,
                "mean_iou": e.mean_iou,
            }
            for e in sorted(result.per_equation, key=lambda e: e.target_id)
        ],
    }
