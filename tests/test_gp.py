import math
import random

import numpy as np
import pytest

from srsdkit.catalog import load_builtin
from srsdkit.datagen import Dataset, derive_seed, sample, split
from srsdkit.evalkit import select_best
from srsdkit import gp
from srsdkit.expr import (
    canonicalize,
    expression_to_prefix,
    from_program,
    skeletonize,
    to_program,
)
from srsdkit.expr.nodes import preorder
from srsdkit.gp import GPConfig, evolve, fitness


def _constant_dataset(value=2.0, rows=60, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 3.0, (rows, 2))
    values = np.column_stack([X, np.full(rows, value)])
    return Dataset(values)


def _levels(expr) -> int:
    """Depth of a tree; a leaf has depth 1."""
    return 1 + max((_levels(c) for c in expr.children), default=0)


def _raw_operators(cfg) -> set[str]:
    """Operators an evolved raw tree may hold: ``sub`` builds ``add`` and ``neg``."""
    return {name for op in cfg.operators for name in (("add", "neg") if op == "sub" else (op,))}


def test_config_validation():
    with pytest.raises(ValueError):
        GPConfig(population_size=1)
    with pytest.raises(ValueError):
        GPConfig(p_crossover=0.9, p_subtree_mutation=0.2)
    with pytest.raises(ValueError):
        GPConfig(max_depth=0)
    with pytest.raises(ValueError):
        GPConfig(tournament_size=0)
    with pytest.raises(ValueError):
        GPConfig(top_k=0)
    with pytest.raises(ValueError):
        GPConfig(operators=("frobnicate",))
    # Values of the wrong type, as a JSON config may hold; a bool is not an int.
    for bad in ({"population_size": True}, {"generations": 1.5}, {"operators": ["add"]},
                {"const_range": (1.0,)}, {"const_range": (0.0, math.inf)}, {"early_stop": "0"}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            GPConfig(**bad)


def test_zero_generations_returns_initial_individuals():
    ds = _constant_dataset()
    out = evolve(ds, GPConfig(population_size=2, generations=0, top_k=2, seed=1))
    assert len(out) == 2


def test_constant_target_is_learned_as_a_constant():
    ds = _constant_dataset(value=2.0)
    cfg = GPConfig(population_size=200, generations=10, seed=3)
    best = evolve(ds, cfg)[0]
    assert canonicalize(best).is_constant
    assert fitness(best, ds) < 0.05


def test_fitness_examples():
    ds = Dataset(np.array([[2.0, 1.0], [4.0, 4.0]]))
    from srsdkit.expr import parse, var
    assert fitness(var(0), ds) == pytest.approx(0.5)  # preds [2,4] vs [1,4]
    spec = load_builtin("I.12.1")
    train = sample(spec, 100, 0)
    assert fitness(spec.canonical_expression, train) == 0.0
    assert math.isinf(fitness(parse("log(0 - x1)", ["x1"]), train))


def test_determinism_same_seed_same_population():
    ds = _constant_dataset()
    cfg = GPConfig(population_size=60, generations=5, seed=11)
    assert evolve(ds, cfg) == evolve(ds, cfg)


def test_different_seeds_differ():
    ds = _constant_dataset()
    a = evolve(ds, GPConfig(population_size=60, generations=5, seed=1))
    b = evolve(ds, GPConfig(population_size=60, generations=5, seed=2))
    assert a != b


def test_depth_bound_and_operator_set_respected():
    spec = load_builtin("I.12.1")
    train = sample(spec, 300, derive_seed(5, spec.id))
    cfg = GPConfig(population_size=80, generations=8, max_depth=5, seed=7,
                   operators=("add", "mul", "sin"))
    allowed = _raw_operators(cfg)

    def ops_of(expr, acc):
        if expr.is_operator:
            acc.add(expr.op)
            for c in expr.children:
                ops_of(c, acc)
        return acc

    for expr in evolve(train, cfg):
        assert _levels(expr) <= 5
        assert ops_of(expr, set()) <= allowed


def test_elitism_makes_best_fitness_non_increasing():
    spec = load_builtin("I.14.3")
    train = sample(spec, 400, derive_seed(8, spec.id))
    history = []
    for gens in (0, 3, 6, 9):
        cfg = GPConfig(population_size=120, generations=gens, seed=13)
        best = evolve(train, cfg)[0]
        history.append(fitness(best, train))
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))


def test_discovers_two_variable_product_within_five_seeds():
    spec = load_builtin("I.12.1")
    train, val, _ = split(sample(spec, 2000, derive_seed(11, spec.id)))
    found = False
    for seed in range(5):
        top = evolve(train, GPConfig(population_size=300, generations=20, seed=seed))
        best = select_best(top, val)
        if skeletonize(canonicalize(best)) in (("mul2", "X1", "X2"), ("mul3", "C", "X1", "X2")):
            found = True
            break
    assert found


def test_sub_operator_expands_to_add_neg():
    spec = load_builtin("I.12.1")
    train = sample(spec, 100, derive_seed(5, spec.id))
    cfg = GPConfig(population_size=20, generations=2, seed=3, operators=("sub",),
                   const_range=None)
    ops = {n.op for tree in evolve(train, cfg) for n in preorder(tree) if n.is_operator}
    assert ops == {"add", "neg"}


# Top-3 of a small run per (problem, seed), recorded before fitness was
# memoized per generation; any change to the RNG call sequence or to a score
# moves them.
PINNED_TOP_K = {
    ("I.12.4", 0): [
        "div mul2 add2 X1 mul2 neg -7.311589483323426 div 8.710486758846166 X2 "
        "div 8.710486758846166 X2 sin sin X1",
    ] * 3,
    ("I.12.4", 1): [
        "mul2 div add2 8.871405075954428 7.323367147331442 X1 exp 7.323367147331442",
        "mul2 div 8.871405075954428 X1 exp 7.847583972821764",
        "mul2 div 8.871405075954428 X1 exp 7.847583972821764",
    ],
    ("I.34.27", 0): [
        "div div log X1 X1 mul2 div add2 X1 X1 log X1 add2 X1 neg 2.7614725645620535",
        "div div log mul2 X1 X1 X1 mul2 X1 add2 sin 3.869430138344974 X1",
        "div div log mul2 X1 X1 X1 mul2 X1 add2 sin 3.869430138344974 X1",
    ],
    ("I.34.27", 1): [
        "div div -4.327169736835987 X1 mul2 X1 mul2 X1 neg X1",
        "exp mul2 -6.133252840900536 add2 X1 X1",
        "mul2 div add2 X1 neg X1 neg X1 mul2 X1 add2 X1 neg X1",
    ],
}


@pytest.mark.parametrize("problem_id, seed", sorted(PINNED_TOP_K))
def test_top_k_is_pinned(problem_id, seed):
    spec = load_builtin(problem_id)
    train = sample(spec, 200, derive_seed(2, spec.id))
    top = evolve(train, GPConfig(population_size=80, generations=8, top_k=3, seed=seed))
    assert [" ".join(expression_to_prefix(e)) for e in top] == PINNED_TOP_K[(problem_id, seed)]


# The same runs under two more configurations, recorded before individuals
# became flat programs: a constant-free operator set with ``sub`` and a
# shallow depth bound, and a run that is mostly point mutation.
VARIANT_CONFIGS = {
    "no_constants": dict(operators=("sub", "mul", "div", "sin", "log"), const_range=None,
                         max_depth=4),
    "point_mutation": dict(p_crossover=0.25, p_subtree_mutation=0.15, p_point_mutation=0.6,
                           max_depth=3),
}

PINNED_VARIANT_TOP_K = {
    ("I.12.4", "no_constants", 0): [
        "div div div X2 X2 X1 mul2 sin X2 X2",
        "div div div X2 X2 X1 mul2 sin X2 X2",
        "div div div X2 X2 X1 mul2 X2 X2",
    ],
    ("I.12.4", "no_constants", 1): [
        "div div div X1 X1 X1 X2",
        "div div div X2 X2 X1 X2",
        "div div X1 X1 mul2 X2 X1",
    ],
    ("I.12.4", "point_mutation", 0): [
        "div mul2 7.232725232916907 5.116084083144479 mul2 X1 X2",
    ] * 3,
    ("I.12.4", "point_mutation", 1): [
        "div div 8.88291555752457 X2 mul2 X2 X1",
    ] * 3,
    ("II.8.31", "no_constants", 0): [
        "add2 log X1 neg log X1",
        "mul2 X1 add2 X1 neg X1",
        "mul2 X1 add2 X1 neg X1",
    ],
    ("II.8.31", "no_constants", 1): [
        "add2 X1 neg X1",
        "mul2 div X1 X1 add2 X1 neg X1",
        "mul2 sin X1 add2 X1 neg X1",
    ],
    ("II.8.31", "point_mutation", 0): ["add2 X1 neg X1"] * 3,
    ("II.8.31", "point_mutation", 1): ["add2 X1 neg X1"] * 3,
}


@pytest.mark.parametrize("problem_id, variant, seed", sorted(PINNED_VARIANT_TOP_K))
def test_variant_top_k_is_pinned(problem_id, variant, seed):
    spec = load_builtin(problem_id)
    train = sample(spec, 200, derive_seed(2, spec.id))
    cfg = GPConfig(population_size=80, generations=8, top_k=3, seed=seed,
                   **VARIANT_CONFIGS[variant])
    top = evolve(train, cfg)
    assert [" ".join(expression_to_prefix(e)) for e in top] == \
        PINNED_VARIANT_TOP_K[(problem_id, variant, seed)]


@pytest.mark.parametrize("max_depth", [2, 4, 6])
def test_every_offspring_decodes_within_the_depth_bound(max_depth):
    cfg = GPConfig(max_depth=max_depth, operators=("sub", "add", "mul", "div", "sin", "exp"))
    rng = random.Random(max_depth)
    factory = gp._TreeFactory(cfg, 3, rng)
    population = [factory.ramped() for _ in range(60)]
    arities = lambda program: [0 if type(t) is float or len(t) == 1 else t[1] for t in program]
    for _ in range(600):
        a, b = rng.choice(population), rng.choice(population)
        children = [
            gp._crossover(a, b, rng, max_depth),
            gp._subtree_mutation(a, factory, rng),
            gp._point_mutation(a, factory, rng, rate=0.5),
        ]
        # Point mutation redraws tokens in place and keeps every arity.
        assert arities(children[2]) == arities(a)
        for child in children:
            tree = from_program(child)
            assert to_program(tree) == child
            assert gp._depth(child) == _levels(tree) <= max_depth
            assert {n.op for n in preorder(tree) if n.is_operator} <= _raw_operators(cfg)
        population[rng.randrange(len(population))] = rng.choice(children)


def test_no_tree_is_scored_twice_in_one_run(monkeypatch):
    spec = load_builtin("I.34.27")
    train = sample(spec, 200, derive_seed(2, spec.id))
    scored = []

    def spy(expr, data, rows=None):
        scored.append(expr)
        return fitness(expr, data, rows)

    monkeypatch.setattr(gp, "fitness", spy)
    evolve(train, GPConfig(population_size=80, generations=5, seed=1))
    assert len(scored) > 80  # offspring were scored, not only generation 0
    assert len(set(scored)) == len(scored)


def test_a_cleared_score_table_changes_no_output(monkeypatch):
    spec = load_builtin("I.12.4")
    train = sample(spec, 200, derive_seed(2, spec.id))
    cfg = GPConfig(population_size=80, generations=8, top_k=3, seed=1)
    scored = []

    def spy(expr, data, rows=None):
        scored.append(expr)
        return fitness(expr, data, rows)

    monkeypatch.setattr(gp, "fitness", spy)
    evolve(train, cfg)
    unbounded = len(scored)
    scored.clear()
    monkeypatch.setattr(gp, "SCORE_TABLE_LIMIT", 16)
    top = evolve(train, cfg)
    assert [" ".join(expression_to_prefix(e)) for e in top] == PINNED_TOP_K[("I.12.4", 1)]
    assert len(scored) > unbounded


def test_tournament_draws_as_randrange_does():
    # _tournament draws its indices with getrandbits, as CPython's
    # randrange(n) does; the same stream keeps every run's RNG calls.
    for seed in (0, 1, 12345):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in range(1, 1101):
            fitnesses = [float(i % 7) for i in range(n)]
            for k in (1, 5):
                pick = gp._tournament(fitnesses, ours, k)
                picks = [theirs.randrange(n) for _ in range(k)]
                # The first of the fittest drawn, as min() picks it.
                assert pick == min(picks, key=fitnesses.__getitem__)
        assert ours.getstate() == theirs.getstate()
