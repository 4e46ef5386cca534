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
"""

from __future__ import annotations

import numpy as np

from .nodes import OPERATORS, Expression, to_program

_HIDES_NONFINITE = frozenset(name for name, op in OPERATORS.items() if op.hides_nonfinite)


class VariableIndexError(ValueError):
    """The tree reads a variable that the data matrix has no column for."""


def evaluate_many(expr, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``expr``, an ``Expression`` or its program (see
    :func:`.nodes.to_program`), over all rows of ``X`` (shape (n, k)).

    Returns ``(values, fault_mask)``. ``values`` is meaningful only where
    ``fault_mask`` is False, and never shares memory with ``X``.
    """
    program = to_program(expr) if isinstance(expr, Expression) else expr
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    n, width = X.shape
    # An operand is a constant still held as a float, a column view of X
    # (it has a base), or an operator result this call allocated (no base),
    # which may be overwritten.
    operands: list = []
    checked: list[np.ndarray] = []  # isfinite of results a hiding operator took
    with np.errstate(all="ignore"):
        # Reversed, a preorder program leaves an operator's first operand on
        # top of the stack, its second under it, and so on.
        for token in reversed(program):
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
                # Checked before the ufunc may overwrite them: a non-finite
                # result here could come out finite (1/exp(1000) == 0.0).
                for operand in operands[-k:]:
                    if type(operand) is not float and operand.base is None:
                        checked.append(np.isfinite(operand))
            first = operands.pop()
            if type(first) is float:
                first = _filled(n, first)
            # The result goes into the first or second operand when this call
            # owns it: later operands of add and mul are read only after both
            # of those have been consumed.
            if k == 1:
                out = first if first.base is None else np.empty(n)
                ufunc(first, out=out)
            else:
                second = operands.pop()
                if type(second) is float:
                    second = _filled(n, second)
                if first.base is None:
                    out = first
                elif second.base is None:
                    out = second
                else:
                    out = np.empty(n)
                ufunc(first, second, out=out)
                # add and mul fold left to right; they round a float operand
                # exactly as an array of it.
                for _ in range(k - 2):
                    ufunc(out, operands.pop(), out=out)
            operands.append(out)
    values = operands.pop()
    if type(values) is float:  # a constant root: nothing to check
        return _filled(n, values), np.zeros(n, dtype=bool)
    if values.base is not None:
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
    round differently."""
    out = np.empty(n)
    out.fill(value)
    return out


def _missing_column(program, width: int) -> VariableIndexError:
    """The error for the leftmost variable of ``program`` past column ``width``."""
    index = next(t[0] for t in program if type(t) is tuple and len(t) == 1 and t[0] >= width)
    return VariableIndexError(
        f"variable X{index + 1} (index {index}) is past the last of {width} input columns"
    )
