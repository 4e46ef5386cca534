"""IEEE-754 double evaluation of expression trees.

:func:`evaluate_many` is the one evaluator: it runs a tree over a batch of
rows with each operator's numpy ufunc from the table in :mod:`.nodes`, and
reports faulting rows in a boolean mask instead of raising. A row faults if
any operator in the tree produces a non-finite value for it, or if the root
is a variable whose cell is non-finite. The only other place an operator is
applied is constant folding in :mod:`.canon`, which calls the operator's
scalar ``math`` function.

``evaluate_many`` is one loop over a program, the flat preorder token tuple
of :func:`.nodes.to_program`: it takes a program as the GP evolves it, or an
``Expression``, which it flattens first. Run backwards, the program is a
postorder with children right to left, so the loop keeps an operand stack and
tree depth is bounded by memory, not by Python's recursion limit. Variable
leaves push column views of ``X``; a constant stays a float until an
operator takes it as a filled array. Each operator applies its numpy ufunc,
writing into an operand array the loop allocated itself when there is one;
n-ary ``add`` and ``mul`` fold left to right.

The fault mask is formed from ``isfinite`` of the root and of each operator
result that an operator marked ``hides_nonfinite`` (``exp``, ``div``,
``tanh``, ``pow``) takes as an operand, checked before that operator runs.
Every other operator's ufunc returns a non-finite result for any non-finite
operand, so a non-finite operator result either propagates to the root or
reaches a hiding operator's checked operand: the mask equals checking every
operator result, at a fraction of the ``isfinite`` calls. Leaves below the
root are not checked, nor is a constant root.

Faults cover log of a non-positive, 0 raised to a negative power, a negative
base with a fractional exponent, division by zero, and overflow to infinity:
evaluation never returns NaN or infinity silently.

A caller that evaluates thousands of programs over the same rows, as GP
fitness does, may pass a :class:`Memo` of ``sin``, ``cos``, ``exp`` and
``log`` results: crossover copies subtrees, so the same subprograms recur
across a run (subtree caching, Keijzer, EuroGP 2004). Ownership is explicit:
an array this call may overwrite is an operator result that is writeable,
and the memo's arrays are read-only. They still count as operator results
for the fault mask, so a hiding operator checks a memo hit as it checks a
result it computed, and a root that is a memo hit is copied.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..errors import DataError
from .nodes import OPERATORS, Expression, subtree_end, to_program

MEMO_BYTES = 1 << 19  # the most a Memo holds: 512 KB of result arrays
_MEMOIZED = frozenset(("sin", "cos", "exp", "log"))
_HELD_BY_OWNER = contextlib.nullcontext()  # a memo's owner holds np.errstate
_HIDES_NONFINITE = frozenset(name for name, op in OPERATORS.items() if op.hides_nonfinite)


class VariableIndexError(DataError):
    """The tree reads a variable that the data matrix has no column for."""


class Memo:
    """Result arrays of ``sin``, ``cos``, ``exp`` and ``log`` subprograms over
    the rows of one ``X``, for :func:`evaluate_many` to reuse.

    An entry maps the program slice of such a node, ``program[i:end]``, to
    the node's result. The memo holds at most ``MEMO_BYTES`` of arrays,
    counted as ``capacity`` arrays of ``n`` rows (none past 65,536 rows), and
    when full drops its oldest entry. Its arrays are read-only.

    Slices key as programs compare, so ``0.0 == -0.0`` and ``sin -0.0`` may
    be served the result of ``sin 0.0``. That changes only the sign of a zero
    or of an infinity. On a row where every operator result is finite, each
    operator of the table maps operands that differ only in the sign of a
    zero to results that differ at most in the sign of a zero (``x * -0.0``,
    ``sin -0.0``); ``1 / -0.0``, ``log`` of a zero and a zero to a negative
    power are infinite, whatever the sign, and make the row fault. So no
    fault mask changes, no finite value other than a zero, and no relative
    error, since ``0.0 - y == -0.0 - y``.

    A memo belongs to the ``X`` it was made with: :func:`evaluate_many`
    raises ``ValueError`` for any other array, even an equal one. Its owner
    holds ``np.errstate(all="ignore")`` while it evaluates with it, so that
    ``evaluate_many`` need not enter one per call.
    """

    __slots__ = ("X", "capacity", "results")

    def __init__(self, X: np.ndarray):
        self.X = X
        self.capacity = MEMO_BYTES // (8 * max(1, len(X)))
        self.results: dict[tuple, np.ndarray] = {}

    def keep(self, key: tuple, values: np.ndarray) -> None:
        """Hold ``values``, the result of subprogram ``key``; from now on no
        one writes into it."""
        if not self.capacity:
            return
        if len(self.results) >= self.capacity:
            del self.results[next(iter(self.results))]
        values.flags.writeable = False
        self.results[key] = values


def evaluate_many(expr, X: np.ndarray, memo: Memo | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``expr``, an ``Expression`` or its program (see
    :func:`.nodes.to_program`), over all rows of ``X`` (shape (n, k)).

    Returns ``(values, fault_mask)``. ``values`` is meaningful only where
    ``fault_mask`` is False, and is this call's own array: it never shares
    memory with ``X`` or with ``memo``. A program that is not one tree, with
    an operator short of operands or operands left over, raises
    ``ValueError``.

    With a ``memo`` made for ``X``, a ``sin``, ``cos``, ``exp`` or ``log``
    node whose subprogram the memo holds takes the held array instead of
    applying its ufunc, and one that it does not hold gives the memo its
    result. Both give the same values and fault mask, up to the sign of a
    zero (see :class:`Memo`).
    """
    program = to_program(expr) if isinstance(expr, Expression) else expr
    if memo is not None and memo.X is not X:  # before conversion, which may make a new view
        raise ValueError("the memo was made for other rows")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    n, width = X.shape
    if n == 1:  # evaluated as two copies of the row; see _filled
        values, faulted = evaluate_many(program, np.repeat(X, 2, axis=0))
        return values[:1], faulted[:1]
    # An operand is a constant still held as a float, a column view of X
    # (it has a base), or an operator result (no base). Only a writeable
    # operator result is this call's own and may be overwritten; the memo's
    # arrays are read-only. Every operator result counts for the fault mask.
    operands: list = []
    checked: list[np.ndarray] = []  # isfinite of results a hiding operator took
    with np.errstate(all="ignore") if memo is None else _HELD_BY_OWNER:
        try:
            # Reversed, a preorder program leaves an operator's first operand on
            # top of the stack, its second under it, and so on.
            for i in range(len(program) - 1, -1, -1):
                token = program[i]
                if type(token) is float:
                    operands.append(token)
                    continue
                if len(token) == 1:
                    if token[0] >= width:
                        raise _missing_column(program, width)
                    operands.append(X[:, token[0]])
                    continue
                name, k, ufunc = token
                if name in _HIDES_NONFINITE:
                    # Checked before the ufunc may overwrite them, or a memo hit
                    # replaces them: a non-finite result here could come out
                    # finite (1/exp(1000) == 0.0).
                    for operand in operands[-k:]:
                        if type(operand) is not float and operand.base is None:
                            checked.append(np.isfinite(operand))
                key = None
                if memo is not None and name in _MEMOIZED:  # all unary
                    key = program[i:subtree_end(program, i)]
                    held = memo.results.get(key)
                    if held is not None:
                        operands[-1] = held
                        continue
                first = operands.pop()
                if type(first) is float:
                    first = _filled(n, first)
                # The result goes into the first or second operand when this call
                # owns it: later operands of add and mul are read only after both
                # of those have been consumed.
                if k == 1:
                    out = first if first.base is None and first.flags.writeable else np.empty(n)
                    ufunc(first, out=out)
                    if key is not None:
                        memo.keep(key, out)
                else:
                    second = operands.pop()
                    if type(second) is float:
                        second = _filled(n, second)
                    if first.base is None and first.flags.writeable:
                        out = first
                    elif second.base is None and second.flags.writeable:
                        out = second
                    else:
                        out = np.empty(n)
                    ufunc(first, second, out=out)
                    # add and mul fold left to right; they round a float operand
                    # exactly as an array of it.
                    for _ in range(k - 2):
                        ufunc(out, operands.pop(), out=out)
                operands.append(out)
        except IndexError:  # an operator popped from an empty stack
            raise ValueError(f"malformed program: {name!r} at position {i} lacks an operand") from None
    if len(operands) != 1:
        raise ValueError(f"malformed program: it leaves {len(operands)} operands, not one")
    values = operands.pop()
    if type(values) is float:  # a constant root: nothing to check
        return _filled(n, values), np.zeros(n, dtype=bool)
    if values.base is not None or not values.flags.writeable:
        values = values.copy()
    # An operator not marked hides_nonfinite keeps a non-finite operand
    # non-finite, so a non-finite result anywhere below reaches the root or a
    # checked operand: these checks flag exactly the rows on which some
    # operator result is non-finite.
    finite = np.isfinite(values)
    for ok in checked:
        finite &= ok
    return values, np.logical_not(finite, out=finite)


def _filled(n: int, value: float) -> np.ndarray:
    """A length-``n`` array of ``value``. A full array, not a scalar:
    np.power takes shortcuts for scalar exponents such as 2.0 and 0.5 that
    round differently. So does np.power writing into one of its own
    one-element operands (numpy 2.4: ``x^2``, ``x^0.5``, ``x^-1``), so a
    one-row table is evaluated as two copies of its row."""
    out = np.empty(n)
    out.fill(value)
    return out


def _missing_column(program, width: int) -> VariableIndexError:
    """The error for the leftmost variable of ``program`` past column ``width``."""
    index = next(t[0] for t in program if type(t) is tuple and len(t) == 1 and t[0] >= width)
    return VariableIndexError(
        f"variable X{index + 1} (index {index}) is past the last of {width} input columns"
    )
