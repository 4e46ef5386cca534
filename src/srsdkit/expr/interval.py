"""Interval bounds of a program over a box of inputs: a proof that a tree
faults on every row before any row is drawn.

:func:`sure_fault` walks a program as :func:`.evaluate.evaluate_many` does,
backwards with an operand stack, but each operand is an interval
``(lo, hi)`` instead of an array. A variable takes its column's range from
the box, a constant is its own point. Each operator maps its operands'
intervals to its result's interval by a rule in :data:`RULES`, keyed by
operator name; an operator without a rule gives an unbounded interval. A
rule may instead find that the operator's result is non-finite at every
point of its operands' intervals; the walk then stops and names it.

Soundness. The claim is: on every row whose inputs lie in the box and on
which every operator result is finite, each result lies in its interval.
It holds at the leaves because the box holds every drawn value and the walk
widens it, and each rule carries it from an operator's operands to its
result. A sure-fault verdict says an operator's result is non-finite
wherever its operands lie in their intervals, so no row has every operator
result finite; ``evaluate_many`` flags a row as faulting when any operator
result on it is non-finite, so no row can be accepted. Each rule is sound
on its own:

- ``add`` and ``mul`` fold their operands' endpoints left to right, as
  ``evaluate_many`` folds the values, in float64 with the same rounding.
  Round-to-nearest is monotone in each operand, so the fold of the lower
  ends bounds every fold of the values from below (and for ``mul``, the
  least and greatest of the four corner products bound each pairwise
  product). An interval whose least magnitude is beyond the largest double
  holds only infinities, so that sum or product overflows on every row.
- ``exp`` of at least 710 exceeds ``e**709.79``, the largest double, by a
  factor above 1.2, far beyond numpy's few-ulp error: it is infinite.
- ``log`` of a value below 0 is NaN.
- ``pow`` of a negative base to a finite exponent that is not an integer is
  NaN; ``pow`` of a positive base ``x`` to ``y`` is ``exp(y ln x)``, so a
  lower bound of ``y ln x`` of at least 710 makes it overflow, as ``exp``.
- ``sin``, ``cos`` and ``tanh`` stay in ``[-1, 1]``, ``abs`` maps exactly,
  and ``tan`` is unbounded.

The other bounds come from ``math`` functions, which may differ from numpy's
ufuncs by a few ulps, and from real-valued arguments about monotone pieces.
Every result therefore widens outward by a relative ``MARGIN`` of 1e-9,
far above those differences, and by the smallest normal double, which
covers subnormal results and keeps a zero end from hiding a sign. A NaN
end becomes infinite and an end that overflowed becomes the largest double
before widening, so doubt gives a wider interval and never a verdict.
"""

from __future__ import annotations

import functools
import math
import sys

MARGIN = 1e-9
_TINY = sys.float_info.min  # the smallest normal double
_MAX = sys.float_info.max
_UNBOUNDED = (-math.inf, math.inf)
_EXP_OVERFLOW = 710.0  # exp(x) is infinite for every x >= this


def sure_fault(program, box) -> tuple[str, int] | None:
    """The name and preorder position of an operator of ``program`` whose
    result is non-finite at every point of ``box``, or ``None`` when the
    walk finds none.

    ``box[j]`` is the ``(lo, hi)`` range of column ``j``'s values; the walk
    widens it outward, so it may be the range as declared. A column past
    the box is unbounded. ``None`` proves nothing: the program may still
    fault on every row."""
    box = [_widen(lo, hi) for lo, hi in box]
    stack: list[tuple[float, float]] = []
    for i in range(len(program) - 1, -1, -1):
        token = program[i]
        if type(token) is float:
            stack.append((token, token))
        elif len(token) == 1:
            stack.append(box[token[0]] if token[0] < len(box) else _UNBOUNDED)
        else:
            name, k = token[0], token[1]
            operands = stack[:-k - 1:-1]  # first operand on top
            del stack[-k:]
            rule = RULES.get(name)
            result = rule(*operands) if rule is not None else _UNBOUNDED
            if result is None:
                return name, i
            stack.append(_widen(*result))
    return None


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """``[lo, hi]`` grown outward by ``MARGIN`` and one smallest normal; a
    NaN end becomes infinite, an overflowed end the largest double."""
    lo = -math.inf if lo != lo else min(lo, _MAX)
    hi = math.inf if hi != hi else max(hi, -_MAX)
    return lo - abs(lo) * MARGIN - _TINY, hi + abs(hi) * MARGIN + _TINY


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _power(x: float, y: float) -> float:
    """``x ** y`` for an integer ``y``; overflow gives an infinity of the
    result's sign."""
    try:
        return math.pow(x, y)
    except OverflowError:
        return -math.inf if x < 0.0 and y % 2.0 == 1.0 else math.inf


def _overflows(lo: float, hi: float) -> bool:
    return lo > _MAX or hi < -_MAX


def _add(*operands):
    lo, hi = operands[0]
    for a, b in operands[1:]:
        lo, hi = lo + a, hi + b
    return None if _overflows(lo, hi) else (lo, hi)


def _times(a, b):
    corners = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    if any(c != c for c in corners):  # zero times infinity
        return _UNBOUNDED
    return min(corners), max(corners)


def _mul(*operands):
    lo, hi = functools.reduce(_times, operands)
    return None if _overflows(lo, hi) else (lo, hi)


def _pow(base, exponent):
    (blo, bhi), (elo, ehi) = base, exponent
    if bhi < 0.0 and math.isfinite(elo) and math.ceil(elo) > ehi:
        return None  # a negative base to a power that is never an integer
    if blo > 0.0:
        tlo, thi = _widen(*_times(exponent, _widen(_log(blo), _log(bhi))))
        return None if tlo >= _EXP_OVERFLOW else (_exp(tlo), _exp(thi))
    if elo == ehi and elo.is_integer():
        # x ** n is monotone on each side of 0.
        if blo <= 0.0 <= bhi and elo < 0.0:
            return _UNBOUNDED
        corners = (_power(blo, elo), _power(bhi, elo))
        if blo <= 0.0 <= bhi and elo % 2.0 == 0.0:
            return 0.0, max(corners)
        return min(corners), max(corners)
    return _UNBOUNDED


def _abs(x):
    lo, hi = x
    if lo >= 0.0:
        return lo, hi
    if hi <= 0.0:
        return -hi, -lo
    return 0.0, max(-lo, hi)


def _exp_rule(x):
    return None if x[0] >= _EXP_OVERFLOW else (_exp(x[0]), _exp(x[1]))


def _log_rule(x):
    return None if x[1] < 0.0 else (_log(x[0]), _log(x[1]))


def _unit(x):
    return -1.0, 1.0


# One rule per canonical operator, each from its operands' intervals, first
# operand first, to its result's interval, or None for a sure fault.
RULES = {
    "add": _add,
    "mul": _mul,
    "pow": _pow,
    "sin": _unit,
    "cos": _unit,
    "tan": lambda x: _UNBOUNDED,
    "tanh": _unit,
    "exp": _exp_rule,
    "log": _log_rule,
    "abs": _abs,
}
