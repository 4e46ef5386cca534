"""IEEE-754 double evaluation of expression trees.

Two evaluators with the same fault semantics, both reading the operator
table in :mod:`.nodes`:

* :func:`evaluate` - scalar, applies each operator's ``math`` function after
  its domain check, and raises :class:`DomainFault` carrying the path of the
  offending subexpression.
* :func:`evaluate_many` - numpy row-batch evaluation with each operator's
  ufunc; faulting rows are reported in a boolean mask instead of raising. A
  row faults if any node in the tree produces a non-finite value for it.

``evaluate_many`` is one iterative postorder walk: an explicit stack lists the
nodes, and a loop over them keeps an operand stack, so tree depth is bounded
by memory, not by Python's recursion limit. Variable leaves push column views
of ``X`` and constant leaves a filled array. Each operator applies its numpy
ufunc, writing into an operand array the walk allocated itself when there is
one; n-ary ``add`` and ``mul`` fold left to right. After every operator,
``isfinite`` of its result is folded into one row mask.

Faults cover log of a non-positive, 0 raised to a negative power, a negative
base with a fractional exponent, division by zero, and overflow to infinity:
evaluation never returns NaN or infinity silently.
"""

from __future__ import annotations

import math

import numpy as np

from .nodes import OPERATORS, Expression


class VariableIndexError(ValueError):
    """The tree reads a variable that the data matrix has no column for."""


class DomainFault(ArithmeticError):
    """Evaluation left the operator's domain at ``path`` (child-index route)."""

    def __init__(self, message: str, path: tuple[int, ...]):
        super().__init__(f"{message} at path {path}")
        self.path = path


def evaluate(expr: Expression, row) -> float:
    """Evaluate at one point; ``row[i]`` supplies variable ``i``."""
    return _eval(expr, row, ())


def _eval(expr: Expression, row, path) -> float:
    if expr.is_constant:
        return expr.value
    if expr.is_variable:
        if expr.index >= len(row):
            raise DomainFault(f"row too short for variable index {expr.index}", path)
        return float(row[expr.index])

    args = [_eval(c, row, path + (i,)) for i, c in enumerate(expr.children)]
    spec = OPERATORS[expr.op]
    if spec.fault is not None and spec.fault(*args):
        raise DomainFault(spec.fault_message, path)
    try:
        out = spec.scalar(*args)
    except OverflowError:
        raise DomainFault("overflow", path) from None
    except ValueError:
        raise DomainFault("argument outside operator domain", path) from None

    if not math.isfinite(out):
        raise DomainFault("non-finite result", path)
    return out


def evaluate_many(expr: Expression, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate over all rows of ``X`` (shape (n, k)).

    Returns ``(values, fault_mask)``. ``values`` is meaningful only where
    ``fault_mask`` is False, and never shares memory with ``X``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    n, width = X.shape
    # Root first, each node before its subtrees, children right to left:
    # reversed, this is a postorder with children left to right.
    order = []
    todo = [expr]
    while todo:
        node = todo.pop()
        order.append(node)
        todo.extend(node.children)
    ok = np.ones(n, dtype=bool)
    finite = np.empty(n, dtype=bool)
    # Views of X have a base; arrays with none were allocated by this call
    # and may be overwritten.
    operands: list[np.ndarray] = []
    with np.errstate(all="ignore"):
        for node in reversed(order):
            if node.op is None:
                if node.index is None:
                    # A full array, not a scalar: np.power takes shortcuts for
                    # scalar exponents such as 2.0 and 0.5 that round differently.
                    operands.append(np.full(n, node.value))
                elif node.index < width:
                    operands.append(X[:, node.index])
                else:
                    raise VariableIndexError(
                        f"variable X{node.index + 1} (index {node.index}) is past the "
                        f"last of {width} input columns"
                    )
                continue
            k = len(node.children)
            args = operands[-k:]
            del operands[-k:]
            # The result goes into the first or second operand when this call
            # owns it: later operands of add and mul are read only after both
            # of those have been consumed.
            if args[0].base is None:
                out = args[0]
            elif k > 1 and args[1].base is None:
                out = args[1]
            else:
                out = np.empty(n)
            ufunc = OPERATORS[node.op].ufunc
            if k == 1:
                ufunc(args[0], out=out)
            else:
                ufunc(args[0], args[1], out=out)
                for arg in args[2:]:  # add and mul fold left to right
                    ufunc(out, arg, out=out)
            # Flag intermediate blow-ups too, so a later operation cannot
            # launder an overflow back into a finite value (1/exp(1000)).
            ok &= np.isfinite(out, out=finite)
            operands.append(out)
    values = operands.pop()
    if values.base is not None:
        values = values.copy()
        ok &= np.isfinite(values, out=finite)
    return values, ~ok
