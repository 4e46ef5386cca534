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
are scored once per generation: each generation keeps a dict from program to
score, seeded with the current population, and an offspring equal to a
program in it reuses that score.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import numpy as np

from .datagen import Dataset
from .evalkit import relative_error_score
from .expr import OPERATORS, Expression, from_program, operator_token

DEFAULT_OPERATORS = ("add", "sub", "mul", "div", "sin", "cos", "exp", "log")


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
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
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


@dataclass
class Individual:
    program: tuple
    fitness: float = field(default=float("inf"))


def _is_unary(op: str) -> bool:
    """True for one-operand operators; ``sub`` and the rest build two operands."""
    return op != "sub" and OPERATORS[op].arity == 1


def allowed_node_operators(config: GPConfig) -> set[str]:
    """Raw-tree operators an evolved expression may contain."""
    out: set[str] = set()
    for op in config.operators:
        out.update(("add", "neg")) if op == "sub" else out.add(op)
    return out


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


# The three walks below read a token's operand count inline, as
# ``expr.operand_count`` does: a float or a 1-tuple takes none, an operator
# ``token[1]``. They run once per child, and a call per token cost more
# than the rest of the walk.

def _subtree_end(program, start: int) -> int:
    """End of the slice holding the subtree that starts at ``start``."""
    end = start
    pending = 1
    while pending:
        token = program[end]
        pending += (0 if type(token) is float or len(token) == 1 else token[1]) - 1
        end += 1
    return end


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
    child = a[:i] + b[j:_subtree_end(b, j)] + a[_subtree_end(a, i):]
    return child if _depth(child) <= max_depth else a


def _subtree_mutation(a: tuple, factory: _TreeFactory, rng: random.Random) -> tuple:
    i = rng.randrange(len(a))
    child = a[:i] + factory.grow(3) + a[_subtree_end(a, i):]
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


def fitness(expr, train: Dataset) -> float:
    """Mean squared relative error on the training rows (lower is better) of
    an ``Expression`` or a program."""
    return relative_error_score(expr, train.X, train.y)


def _memo_fitness(known: dict[tuple, float], program: tuple, train: Dataset) -> float:
    """``fitness`` of ``program``, computed only if ``known`` lacks it."""
    score = known.get(program)
    if score is None:
        score = known[program] = fitness(program, train)
    return score


def _tournament(population: list[Individual], rng: random.Random, k: int) -> Individual:
    """The fittest of ``k`` individuals drawn with replacement, the first
    drawn on a tie. Each index is drawn as ``rng.randrange(len(population))``
    draws it on CPython 3.10 to 3.13: ``getrandbits`` of the length's bit
    count, redrawn until it is below the length."""
    n = len(population)
    bits = n.bit_length()
    getrandbits = rng.getrandbits
    best = None
    for _ in range(k):
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        pick = population[i]
        if best is None or pick.fitness < best.fitness:
            best = pick
    return best


def evolve(train: Dataset, config: GPConfig) -> list[Expression]:
    """Run the GP loop; returns the final top-k expressions by fitness."""
    if train.n_rows == 0:
        raise ValueError("training dataset is empty")
    n_vars = train.X.shape[1]
    if n_vars == 0:
        raise ValueError("training dataset has no input columns")
    # Column-major, so every column and the target are contiguous: the
    # ufuncs read them faster than strided views, with the same bits.
    train = replace(train, values=np.asfortranarray(train.values))
    rng = random.Random(config.seed)
    factory = _TreeFactory(config, n_vars, rng)

    population = [Individual(factory.ramped()) for _ in range(config.population_size)]
    known: dict[tuple, float] = {}
    for ind in population:
        ind.fitness = _memo_fitness(known, ind.program, train)

    for _ in range(config.generations):
        best = min(population, key=lambda ind: ind.fitness)
        if best.fitness <= config.early_stop:
            break
        # The parents' scores plus the offspring's; rebuilt every generation,
        # so it holds no tree that has died out.
        known = {ind.program: ind.fitness for ind in population}
        next_pop = [Individual(best.program, best.fitness)]  # elitism of one
        while len(next_pop) < config.population_size:
            roll = rng.random()
            parent = _tournament(population, rng, config.tournament_size)
            if roll < config.p_crossover:
                mate = _tournament(population, rng, config.tournament_size)
                child = _crossover(parent.program, mate.program, rng, config.max_depth)
            elif roll < config.p_crossover + config.p_subtree_mutation:
                child = _subtree_mutation(parent.program, factory, rng)
            elif roll < config.p_crossover + config.p_subtree_mutation + config.p_point_mutation:
                child = _point_mutation(parent.program, factory, rng)
            else:
                child = parent.program
            next_pop.append(Individual(child, _memo_fitness(known, child, train)))
        population = next_pop

    ranked = sorted(enumerate(population), key=lambda pair: (pair[1].fitness, pair[0]))
    return [from_program(ind.program) for _, ind in ranked[: config.top_k]]
