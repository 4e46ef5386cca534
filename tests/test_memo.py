"""The evaluation memo that GP fitness passes to ``evaluate_many``: every
program evaluated through one memo gives the fault mask and the values of a
fresh evaluation, and the memo's own arrays are never written."""

import random

import numpy as np
import pytest

from srsdkit import gp
from srsdkit.evalkit import FitnessRows, relative_error_score
from srsdkit.expr import Memo, evaluate_many, operator_token, subtree_end
from srsdkit.expr.evaluate import MEMO_BYTES

ADD = operator_token("add", 2)
MUL = operator_token("mul", 2)
DIV = operator_token("div", 2)
SIN = operator_token("sin", 1)
EXP = operator_token("exp", 1)
LOG = operator_token("log", 1)
X1, X2 = (0,), (1,)


def _rows(n=1600, seed=0):
    """Columns on which log, exp and div all fault on some rows. X1 is zero
    on every tenth row: exp(log(0.0)) == exp(-inf) == 0.0 is finite."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        np.where(np.arange(n) % 10 == 0, 0.0, rng.uniform(-3.0, 3.0, n)),
        rng.uniform(-800.0, 800.0, n),
        rng.integers(-2, 3, n).astype(np.float64),
    ])
    return np.asfortranarray(X), rng.uniform(0.5, 4.0, n)


def _memo_keys(program):
    return [program[i:subtree_end(program, i)] for i, token in enumerate(program)
            if type(token) is tuple and len(token) == 3 and token[0] in ("sin", "cos", "exp", "log")]


def _same(memoized, fresh):
    """Equal fault masks, and equal value bits on the rows that do not fault."""
    (values, faults), (fresh_values, fresh_faults) = memoized, fresh
    assert np.array_equal(faults, fresh_faults)
    assert values[~faults].tobytes() == fresh_values[~faults].tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_programs_through_one_memo_evaluate_as_fresh_calls(seed):
    X, y = _rows(seed=seed)
    rows = FitnessRows(X, y)
    cfg = gp.GPConfig(operators=("add", "sub", "mul", "div", "sin", "cos", "exp", "log",
                                 "pow", "tanh", "sqrt"))
    rng = random.Random(seed)
    factory = gp._TreeFactory(cfg, X.shape[1], rng)
    population = [factory.ramped() for _ in range(40)]
    hits = 0
    for _ in range(600):
        # Offspring share subtrees with their parents, as in a GP run.
        a, b = rng.choice(population), rng.choice(population)
        child = (gp._crossover(a, b, rng, cfg.max_depth) if rng.random() < 0.7
                 else gp._subtree_mutation(a, factory, rng))
        population[rng.randrange(len(population))] = child
        hits += sum(key in rows.memo.results for key in _memo_keys(child))
        with np.errstate(all="ignore"):
            memoized = evaluate_many(child, X, rows.memo)
            score = relative_error_score(child, X, y, rows)
        _same(memoized, evaluate_many(child, X))
        assert score == relative_error_score(child, X, y)
    assert hits > 200


def test_exp_of_a_memo_hit_still_faults_where_log_does():
    X, _ = _rows()
    memo = Memo(X)
    with np.errstate(all="ignore"):
        evaluate_many((LOG, X1), X, memo)
        assert (LOG, X1) in memo.results
        values, faults = evaluate_many((EXP, LOG, X1), X, memo)
    # exp(log(x)) of a non-positive x is exp(-inf) == 0.0 or exp(nan): finite
    # or not, the row faults at log.
    assert np.count_nonzero(values[X[:, 0] == 0.0]) == 0
    assert np.array_equal(faults, X[:, 0] <= 0.0)
    _same((values, faults), evaluate_many((EXP, LOG, X1), X))
    # Now exp log X1 is a hit too, and still faults where its operand does.
    with np.errstate(all="ignore"):
        _same(evaluate_many((EXP, LOG, X1), X, memo), (values, faults))


def test_an_operator_over_a_memo_hit_does_not_write_into_it():
    X, _ = _rows()
    memo = Memo(X)
    with np.errstate(all="ignore"):
        evaluate_many((SIN, X1), X, memo)
        held = memo.results[(SIN, X1)]
        before = held.tobytes()
        result = evaluate_many((ADD, SIN, X1, X2), X, memo)
    assert memo.results[(SIN, X1)] is held and held.tobytes() == before
    assert not np.shares_memory(result[0], held)
    _same(result, evaluate_many((ADD, SIN, X1, X2), X))


def test_a_root_memo_hit_is_copied_before_it_is_scored():
    X, y = _rows()
    rows = FitnessRows(X, y)
    with np.errstate(all="ignore"):
        first = relative_error_score((SIN, X1), X, y, rows)
        held = rows.memo.results[(SIN, X1)]
        before = held.tobytes()
        second = relative_error_score((SIN, X1), X, y, rows)
    assert held.tobytes() == before
    assert first == second == relative_error_score((SIN, X1), X, y)


@pytest.mark.parametrize("n, capacity", [(1600, 40), (8000, 8)])
def test_the_memo_never_holds_more_than_its_budget(n, capacity):
    X = np.random.default_rng(n).uniform(0.5, 2.0, (n, 2))
    memo = Memo(X)
    assert memo.capacity == capacity
    with np.errstate(all="ignore"):
        for c in range(3 * capacity):
            evaluate_many((ADD, SIN, ADD, X1, float(c), LOG, X2), X, memo)
            assert sum(a.nbytes for a in memo.results.values()) <= MEMO_BYTES
    assert len(memo.results) == capacity
    # The oldest entries went first.
    assert (SIN, ADD, X1, float(3 * capacity - 1)) in memo.results
    assert (SIN, ADD, X1, 0.0) not in memo.results


def test_a_memo_belongs_to_one_X():
    X, y = _rows()
    rows = FitnessRows(X, y)
    with pytest.raises(ValueError, match="other rows"):
        evaluate_many((SIN, X1), X.copy(), rows.memo)
    with pytest.raises(ValueError, match="other rows"):
        relative_error_score((SIN, X1), X[:100], y, rows)
    with pytest.raises(ValueError, match="another target"):
        relative_error_score((SIN, X1), X, y.copy(), rows)


def test_a_zero_keys_the_memo_whatever_its_sign():
    # Programs compare 0.0 == -0.0, so sin -0.0 is served sin 0.0: only the
    # sign of a zero or of an infinity can differ, never a fault or a score.
    X, y = _rows()
    X = np.asfortranarray(np.abs(X) + 1.0)
    rows = FitnessRows(X, y)
    with np.errstate(all="ignore"):
        evaluate_many((SIN, 0.0), X, rows.memo)
        reciprocal = evaluate_many((DIV, 1.0, SIN, -0.0), X, rows.memo)
        product = evaluate_many((MUL, X1, SIN, -0.0), X, rows.memo)
        score = relative_error_score((MUL, X1, SIN, -0.0), X, y, rows)
    fresh_reciprocal = evaluate_many((DIV, 1.0, SIN, -0.0), X)
    fresh_product = evaluate_many((MUL, X1, SIN, -0.0), X)
    assert reciprocal[1].all() and fresh_reciprocal[1].all()
    assert not product[1].any() and not fresh_product[1].any()
    assert (product[0] == 0.0).all()
    assert not np.signbit(product[0]).any() and np.signbit(fresh_product[0]).all()
    assert score == relative_error_score((MUL, X1, SIN, -0.0), X, y)
