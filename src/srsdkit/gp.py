"""Minimal tree-based genetic-programming regressor.

Standard generational GP: ramped half-and-half initialization, tournament
selection, subtree crossover, point and subtree mutation, elitism of one.
Individuals are raw expression trees (``sub`` builds an add/negate pair, and
``div`` survives until canonicalization). Fitness is the same mean squared
relative error used for validation-based model selection; rows an individual
faults on are skipped, and an individual faulting on more than half the
training rows scores infinity, so evolution is total without hiding domain
errors behind patched operators. Final reported metrics evaluate strictly.

Deterministic for a given config: one sequential RNG drives all structural
choices, and fitness evaluation is pure. Because it is pure, equal trees are
scored once per generation: each generation keeps a dict from tree to score,
seeded with the current population, and an offspring equal to a tree in it
reuses that score.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .datagen import Dataset
from .evalkit import relative_error_score
from .expr import OPERATORS, Expression, const, op_node, var

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
    expr: Expression
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


class _TreeFactory:
    def __init__(self, config: GPConfig, n_vars: int, rng: random.Random):
        self.config = config
        self.n_vars = n_vars
        self.rng = rng
        self.binary = [op for op in config.operators if not _is_unary(op)]
        self.unary = [op for op in config.operators if _is_unary(op)]

    def terminal(self) -> Expression:
        if self.config.const_range is not None and self.rng.random() < 0.3:
            lo, hi = self.config.const_range
            return const(self.rng.uniform(lo, hi))
        return var(self.rng.randrange(self.n_vars))

    def _operator_node(self, op: str, build) -> Expression:
        if op == "sub":
            return op_node("add", build(), op_node("neg", build()))
        if not _is_unary(op):
            return op_node(op, build(), build())
        return op_node(op, build())

    def grow(self, depth: int) -> Expression:
        if depth <= 1 or self.rng.random() < 0.25:
            return self.terminal()
        op = self.rng.choice(self.binary + self.unary)
        return self._operator_node(op, lambda: self.grow(depth - 1))

    def full(self, depth: int) -> Expression:
        if depth <= 1:
            return self.terminal()
        op = self.rng.choice(self.binary + self.unary)
        return self._operator_node(op, lambda: self.full(depth - 1))

    def ramped(self) -> Expression:
        depth = self.rng.randint(2, max(2, min(4, self.config.max_depth)))
        tree = self.full(depth) if self.rng.random() < 0.5 else self.grow(depth)
        return tree if tree.depth() <= self.config.max_depth else self.terminal()


def _paths(expr: Expression, prefix=()) -> list[tuple[int, ...]]:
    out = [prefix]
    for i, child in enumerate(expr.children):
        out.extend(_paths(child, prefix + (i,)))
    return out


def _replace(expr: Expression, path: tuple[int, ...], sub: Expression) -> Expression:
    if not path:
        return sub
    i = path[0]
    children = list(expr.children)
    children[i] = _replace(children[i], path[1:], sub)
    return Expression(op=expr.op, children=tuple(children))


def _crossover(a: Expression, b: Expression, rng: random.Random, max_depth: int) -> Expression:
    path = rng.choice(_paths(a))
    donor = rng.choice(_paths(b))
    child = _replace(a, path, b.subtree(donor))
    return child if child.depth() <= max_depth else a


def _subtree_mutation(a: Expression, factory: _TreeFactory, rng: random.Random) -> Expression:
    path = rng.choice(_paths(a))
    child = _replace(a, path, factory.grow(3))
    return child if child.depth() <= factory.config.max_depth else a


def _point_mutation(a: Expression, factory: _TreeFactory, rng: random.Random, rate=0.15) -> Expression:
    def visit(node: Expression) -> Expression:
        children = tuple(visit(c) for c in node.children)
        if rng.random() >= rate:
            return Expression(op=node.op, value=node.value, index=node.index, children=children)
        if node.is_constant:
            return const(node.value + rng.gauss(0.0, 1.0)) if factory.config.const_range else node
        if node.is_variable:
            return var(rng.randrange(factory.n_vars))
        candidates = [
            op for op in factory.binary + factory.unary
            if op != "sub" and _is_unary(op) == _is_unary(node.op) and op != node.op
        ]
        if not candidates:
            return Expression(op=node.op, children=children)
        return Expression(op=rng.choice(candidates), children=children)

    return visit(a)


def fitness(expr: Expression, train: Dataset) -> float:
    """Mean squared relative error on the training rows (lower is better)."""
    return relative_error_score(expr, train.X, train.y)


def _memo_fitness(known: dict[Expression, float], expr: Expression, train: Dataset) -> float:
    """``fitness`` of ``expr``, computed only if ``known`` lacks it."""
    score = known.get(expr)
    if score is None:
        score = known[expr] = fitness(expr, train)
    return score


def _tournament(population: list[Individual], rng: random.Random, k: int) -> Individual:
    picks = [population[rng.randrange(len(population))] for _ in range(k)]
    return min(picks, key=lambda ind: ind.fitness)


def evolve(train: Dataset, config: GPConfig) -> list[Expression]:
    """Run the GP loop; returns the final top-k expressions by fitness."""
    if train.n_rows == 0:
        raise ValueError("training dataset is empty")
    n_vars = train.X.shape[1]
    if n_vars == 0:
        raise ValueError("training dataset has no input columns")
    rng = random.Random(config.seed)
    factory = _TreeFactory(config, n_vars, rng)

    population = [Individual(factory.ramped()) for _ in range(config.population_size)]
    known: dict[Expression, float] = {}
    for ind in population:
        ind.fitness = _memo_fitness(known, ind.expr, train)

    for _ in range(config.generations):
        best = min(population, key=lambda ind: ind.fitness)
        if best.fitness <= config.early_stop:
            break
        # The parents' scores plus the offspring's; rebuilt every generation,
        # so it holds no tree that has died out.
        known = {ind.expr: ind.fitness for ind in population}
        next_pop = [Individual(best.expr, best.fitness)]  # elitism of one
        while len(next_pop) < config.population_size:
            roll = rng.random()
            parent = _tournament(population, rng, config.tournament_size)
            if roll < config.p_crossover:
                mate = _tournament(population, rng, config.tournament_size)
                child = _crossover(parent.expr, mate.expr, rng, config.max_depth)
            elif roll < config.p_crossover + config.p_subtree_mutation:
                child = _subtree_mutation(parent.expr, factory, rng)
            elif roll < config.p_crossover + config.p_subtree_mutation + config.p_point_mutation:
                child = _point_mutation(parent.expr, factory, rng)
            else:
                child = parent.expr
            next_pop.append(Individual(child, _memo_fitness(known, child, train)))
        population = next_pop

    ranked = sorted(enumerate(population), key=lambda pair: (pair[1].fitness, pair[0]))
    return [ind.expr for _, ind in ranked[: config.top_k]]
