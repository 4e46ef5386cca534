"""Minimal tree-based genetic-programming regressor.

Standard generational GP: ramped half-and-half initialization, tournament
selection, subtree crossover, point and subtree mutation, elitism of one.
Fitness is the same mean squared relative error used for validation-based
model selection; rows an individual faults on are skipped, and an individual
faulting on more than half the training rows scores infinity, so evolution is
total without hiding domain errors behind patched operators. Final reported
metrics evaluate strictly.

Individuals are flat preorder programs (see :func:`.expr.to_program`), as in
gplearn's ``_Program``: a tuple of tokens in which each subtree is a
contiguous slice, found by counting operands. Crossover and subtree mutation
splice slices, depth comes from one pass over the tokens, and fitness calls
``evaluate_many`` on the program itself, over a column-major copy of the
training values made once per run. The trees are raw: ``sub`` builds an
add/negate pair, and ``div`` survives until canonicalization. Only the top-k
that :func:`evolve` returns are built as ``Expression`` trees.

Deterministic for a given config: one sequential RNG drives all structural
choices, and fitness evaluation is pure. Because it is pure, equal programs
are scored once per run: a population is two parallel lists, programs and
fitnesses, and one dict from program to score lives for the whole run (a dict
rebuilt every generation re-scored 9.0% of the seed-1 ``discover_easy``
fitness calls). It costs about 260 B per program and is cleared between
generations once it holds ``SCORE_TABLE_LIMIT`` programs; a default run
scores at most about 5k.

Distinct programs still share subtrees, which crossover copies. So a run also
makes its training rows ready once, as an :class:`.evalkit.FitnessRows`:
the target-side terms of the score, and a :class:`.expr.Memo` of ``sin``,
``cos``, ``exp`` and ``log`` results that lives as long as the run and holds
at most ``expr.evaluate.MEMO_BYTES`` (512 KB, 40 arrays at 1,600 rows). The
memo's arrays are read-only, and a memo hit counts for the fault mask as a
computed result does, so every score is the one a fresh evaluation gives.
``evolve`` holds one ``np.errstate`` per generation for all of its fitness
calls, which then enter none of their own. :func:`discover` is ``srsdkit discover``.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import datagen, evalkit
from .datagen import Dataset
from .errors import ArgumentError, DataError, read_json
from .evalkit import FitnessRows, relative_error_score
from .expr import (OPERATORS, Expression, canonicalize, expression_to_prefix, from_program,
                   operator_token, subtree_end)

DEFAULT_OPERATORS = ("add", "sub", "mul", "div", "sin", "cos", "exp", "log")
SCORE_TABLE_LIMIT = 1 << 16
_INTEGER_FIELDS = ("population_size", "generations", "tournament_size", "max_depth", "top_k", "seed")
_REAL_FIELDS = ("p_crossover", "p_subtree_mutation", "p_point_mutation", "early_stop")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class GPConfig:
    population_size: int = 300
    generations: int = 25
    tournament_size: int = 5
    p_crossover: float = 0.7
    p_subtree_mutation: float = 0.15
    p_point_mutation: float = 0.1
    max_depth: int = 6
    const_range: tuple[float, float] | None = (-10.0, 10.0)
    operators: tuple[str, ...] = DEFAULT_OPERATORS
    early_stop: float = 1e-12
    top_k: int = 10
    seed: int = 0

    def __post_init__(self):
        # Types first: a config read from JSON may hold a value of any type.
        for name in _INTEGER_FIELDS:
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in _REAL_FIELDS:
            if not _is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.const_range is not None and not (
            type(self.const_range) is tuple and len(self.const_range) == 2
            and all(map(_is_real, self.const_range))
        ):
            raise ValueError(f"const_range must be null or two finite numbers, got {self.const_range!r}")
        if type(self.operators) is not tuple or not all(type(op) is str for op in self.operators):
            raise ValueError(f"operators must be a list of operator names, got {self.operators!r}")
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        total = self.p_crossover + self.p_subtree_mutation + self.p_point_mutation
        if min(self.p_crossover, self.p_subtree_mutation, self.p_point_mutation) < 0 or total > 1:
            raise ValueError("variation probabilities must be nonnegative and sum to <= 1")
        if not self.operators:
            raise ValueError("operator set must be nonempty")
        for op in self.operators:
            if op != "sub" and op not in OPERATORS:
                raise ValueError(f"unknown operator {op!r}")


def read_config(path, seed: int = 0) -> GPConfig:
    """The ``GPConfig`` with seed ``seed`` and the settings of the JSON object
    in file ``path``, if one is given. A key that is no field, a ``seed`` key
    or an invalid setting raises ``ArgumentError``; a file that is not a JSON
    object, ``DataError``."""
    fields = {"seed": seed}
    if path:
        payload = read_json(path)
        if not isinstance(payload, dict):
            raise DataError(f"{path}: not a JSON object")
        if "seed" in payload:
            raise ArgumentError("{path}: the GP seed is not a config key; pass {seed}", path=path)
        unknown = set(payload) - set(GPConfig.__dataclass_fields__)
        if unknown:
            raise ArgumentError("unknown GP config keys: {keys}", keys=sorted(unknown))
        for key in ("const_range", "operators"):
            if isinstance(payload.get(key), list):
                payload[key] = tuple(payload[key])
        fields.update(payload)
    try:
        return GPConfig(**fields)
    except ValueError as err:
        raise ArgumentError("invalid GP config: {err}", err=err) from None


def _is_unary(op: str) -> bool:
    """True for one-operand operators; ``sub`` and the rest build two operands."""
    return op != "sub" and OPERATORS[op].arity == 1


_ADD = operator_token("add", 2)
_NEG = operator_token("neg", 1)


class _TreeFactory:
    def __init__(self, config: GPConfig, n_vars: int, rng: random.Random):
        self.config = config
        self.n_vars = n_vars
        self.rng = rng
        self.ops = sorted(config.operators, key=_is_unary)  # binary first, order kept
        self.tokens = {op: operator_token(op, 1 if _is_unary(op) else 2)
                       for op in self.ops if op != "sub"}

    def terminal(self):
        if self.config.const_range is not None and self.rng.random() < 0.3:
            lo, hi = self.config.const_range
            return self.rng.uniform(lo, hi)
        return (self.rng.randrange(self.n_vars),)

    def _tree(self, depth: int, grow: bool, out: list) -> None:
        """Append a random tree's tokens to ``out``, each token as soon as
        its RNG draws are made, so the tokens come in preorder."""
        if depth <= 1 or (grow and self.rng.random() < 0.25):
            out.append(self.terminal())
            return
        op = self.rng.choice(self.ops)
        if op == "sub":  # a - b is built as add(a, neg(b))
            out.append(_ADD)
            self._tree(depth - 1, grow, out)
            out.append(_NEG)
            self._tree(depth - 1, grow, out)
            return
        token = self.tokens[op]
        out.append(token)
        for _ in range(token[1]):
            self._tree(depth - 1, grow, out)

    def grow(self, depth: int) -> tuple:
        out: list = []
        self._tree(depth, True, out)
        return tuple(out)

    def ramped(self) -> tuple:
        depth = self.rng.randint(2, max(2, min(4, self.config.max_depth)))
        out: list = []
        self._tree(depth, self.rng.random() >= 0.5, out)
        return tuple(out) if _depth(out) <= self.config.max_depth else (self.terminal(),)


# The two walks below read a program token's operand count inline, as
# ``subtree_end`` does: a float or a 1-tuple takes none, an operator
# ``token[1]``. They run once per child, and a call per token cost more than
# the rest of the walk.

def _depth(program) -> int:
    """Number of levels, from one pass; a leaf has depth 1."""
    deepest = 0
    open_ops: list[int] = []  # operands still due to each open ancestor
    for token in program:
        if len(open_ops) >= deepest:
            deepest = len(open_ops) + 1
        if type(token) is not float and len(token) != 1:
            open_ops.append(token[1])
            continue
        while open_ops:
            open_ops[-1] -= 1
            if open_ops[-1]:
                break
            open_ops.pop()
    return deepest


def _postorder(program):
    """Indices of ``program``'s tokens in postorder, children left to right."""
    open_ops: list[list[int]] = []  # [index, operands still due]
    for i, token in enumerate(program):
        if type(token) is not float and len(token) != 1:
            open_ops.append([i, token[1]])
            continue
        yield i
        while open_ops:
            top = open_ops[-1]
            top[1] -= 1
            if top[1]:
                break
            open_ops.pop()
            yield top[0]


def _crossover(a: tuple, b: tuple, rng: random.Random, max_depth: int) -> tuple:
    # A random preorder index draws as rng.choice over the list of nodes would.
    i = rng.randrange(len(a))
    j = rng.randrange(len(b))
    child = a[:i] + b[j:subtree_end(b, j)] + a[subtree_end(a, i):]
    return child if _depth(child) <= max_depth else a


def _subtree_mutation(a: tuple, factory: _TreeFactory, rng: random.Random) -> tuple:
    i = rng.randrange(len(a))
    child = a[:i] + factory.grow(3) + a[subtree_end(a, i):]
    return child if _depth(child) <= factory.config.max_depth else a


def _point_mutation(a: tuple, factory: _TreeFactory, rng: random.Random, rate=0.15) -> tuple:
    """Redraw each node with probability ``rate``, visiting nodes in
    postorder; an operator keeps its arity."""
    out = list(a)
    for i in _postorder(a):
        if rng.random() >= rate:
            continue
        token = a[i]
        if type(token) is float:
            if factory.config.const_range:
                out[i] = token + rng.gauss(0.0, 1.0)
        elif len(token) == 1:
            out[i] = (rng.randrange(factory.n_vars),)
        else:
            candidates = [t for t in factory.tokens.values() if t[1] == token[1] and t != token]
            if candidates:
                out[i] = rng.choice(candidates)
    return tuple(out)


def fitness(expr, train: Dataset, rows: FitnessRows | None = None) -> float:
    """Mean squared relative error on the training rows (lower is better) of
    an ``Expression`` or a program. ``rows`` is ``train`` made ready once per
    run by :func:`evolve`; the score is the same with or without it."""
    data = rows or train  # either holds the X and y to score on
    return relative_error_score(expr, data.X, data.y, rows)


def _tournament(fitnesses: list[float], rng: random.Random, k: int) -> int:
    """Index of the fittest of ``k`` individuals drawn with replacement, the
    first drawn on a tie. Each index is drawn as ``rng.randrange(len(fitnesses))``
    draws it on CPython 3.10 to 3.13: ``getrandbits`` of the length's bit
    count, redrawn until it is below the length."""
    n = len(fitnesses)
    bits = n.bit_length()
    getrandbits = rng.getrandbits
    best = -1
    for _ in range(k):
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        if best < 0 or fitnesses[i] < fitnesses[best]:
            best = i
    return best


def evolve(train: Dataset, config: GPConfig) -> list[Expression]:
    """Run the GP loop; returns the final top-k expressions by fitness. A
    ``train`` without rows or without input columns raises ``DataError``."""
    if train.n_rows == 0:
        raise DataError("training dataset is empty")
    n_vars = train.X.shape[1]
    if n_vars == 0:
        raise DataError("training dataset has no input columns")
    # Column-major, so every column and the target are contiguous: the
    # ufuncs read them faster than strided views, with the same bits.
    train = replace(train, values=np.asfortranarray(train.values))
    rng = random.Random(config.seed)
    factory = _TreeFactory(config, n_vars, rng)

    rows = FitnessRows(train.X, train.y)
    programs = [factory.ramped() for _ in range(config.population_size)]
    table: dict[tuple, float] = {}  # program -> fitness, for the whole run
    for generation in range(config.generations + 1):
        if len(table) >= SCORE_TABLE_LIMIT:
            table.clear()
        fitnesses = []
        with np.errstate(all="ignore"):  # for rows, which leave it to their owner
            for program in programs:
                score = table.get(program)
                if score is None:
                    score = table[program] = fitness(program, train, rows)
                fitnesses.append(score)
        elite = fitnesses.index(min(fitnesses))
        if generation == config.generations or fitnesses[elite] <= config.early_stop:
            break
        children = [programs[elite]]  # elitism of one
        while len(children) < config.population_size:
            roll = rng.random()
            parent = programs[_tournament(fitnesses, rng, config.tournament_size)]
            if roll < config.p_crossover:
                mate = programs[_tournament(fitnesses, rng, config.tournament_size)]
                child = _crossover(parent, mate, rng, config.max_depth)
            elif roll < config.p_crossover + config.p_subtree_mutation:
                child = _subtree_mutation(parent, factory, rng)
            elif roll < config.p_crossover + config.p_subtree_mutation + config.p_point_mutation:
                child = _point_mutation(parent, factory, rng)
            else:
                child = parent
            children.append(child)
        programs = children

    ranked = sorted(range(len(programs)), key=lambda i: (fitnesses[i], i))
    return [from_program(programs[i]) for i in ranked[: config.top_k]]


def _discover_one(pdir: Path, base_config: GPConfig, n_seeds: int) -> dict:
    """The manifest entry of one problem directory: the canonical tree of the
    best of ``n_seeds`` runs' top-k on its validation rows, or ``None``. A
    ``DataError`` of the runs or the selection gets the problem id in front."""
    pid = pdir.name
    train, val = datagen.read_splits(pdir, ["train", "val"]).values()
    candidates = []
    try:
        for offset in range(n_seeds):
            config = replace(base_config, seed=base_config.seed + offset)
            candidates.extend(evolve(train, config))
        best = evalkit.select_best(candidates, val)
    except evalkit.NoViableCandidateError:
        return {"id": pid, "expression": None, "selection_score": None}
    except DataError as err:
        raise DataError(f"{pid}: {err}") from None
    best_canonical = canonicalize(best)
    # The manifest reports the canonical tree's score, which can differ in the
    # last bits from select_best's score of the raw tree.
    score = relative_error_score(best_canonical, val.X, val.y)
    return {
        "id": pid,
        "expression": " ".join(expression_to_prefix(best_canonical)),
        "selection_score": score if np.isfinite(score) else None,
    }


def discover(data_dir, out, config: GPConfig, seeds: int = 5, problems=None,
             workers: int = 1) -> dict:
    """What ``srsdkit discover`` does: for each problem directory under
    ``data_dir`` (only those named in ``problems``, when given), runs with
    seeds ``config.seed`` onwards in ``workers`` processes, each selected
    model written to its :func:`.evalkit.prediction_file` under ``out``;
    then the ``MANIFEST_FILE`` it returns. ``seeds`` or ``workers`` below 1
    raise ``ArgumentError`` before a file is read or made."""
    datagen.check_counts(seeds=seeds, workers=workers)
    data_root = Path(data_dir)
    dirs = datagen.problem_dirs(data_root)
    if problems:
        wanted = set(problems)
        dirs = [d for d in dirs if d.name in wanted]
        missing = wanted - {d.name for d in dirs}
        if missing:
            raise DataError(f"problems not found in {data_root}: {sorted(missing)}")
    out_root = Path(out)
    out_root.mkdir(parents=True, exist_ok=True)
    results = datagen.map_workers(partial(_discover_one, base_config=config, n_seeds=seeds),
                                  dirs, workers)
    for entry in results:
        if entry["expression"] is not None:
            evalkit.prediction_file(out_root, entry["id"]).write_text(
                entry["expression"] + "\n", encoding="utf-8"
            )
    return datagen.write_manifest({
        "command": "discover",
        "config": {"seeds": seeds, "base_seed": config.seed, "gp": asdict(config)},
        "problems": sorted(results, key=lambda e: e["id"]),
    }, out_root)
