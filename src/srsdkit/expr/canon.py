"""Deterministic canonical form for expression trees.

This is a fixed, documented rewrite-rule set, not a full computer-algebra
simplifier: equality of equivalent-but-differently-written expressions is
guaranteed only up to these rules. Both predictions and ground truth pass
through the same pipeline, which is all the downstream tree metrics require.

Rules, applied to each node after its operands in one fold over the tree's
program (``from_program``), with passes repeated until a fixed point:

  * ``div(a, b)  -> mul(a, pow(b, -1))``
  * ``neg(a)     -> mul(-1, a)``
  * ``sqrt(a)    -> pow(a, 0.5)``
  * constant folding of any operator whose operands are all constants, with
    the operator's scalar ``math`` function (skipped when that raises or
    gives a non-finite value, which is where ``evaluate_many`` faults)
  * flattening of nested ``add``/``mul``
  * ``pow(x, 1) -> x``; ``pow(x, 0) -> 1``
  * ``pow(mul(a, b, ...), k) -> mul(pow(a, k), pow(b, k), ...)`` and
    ``pow(pow(x, e), k) -> pow(x, e*k)`` for integer constant ``k`` only
    (over the reals these preserve the value exactly when both sides are
    defined only for integer outer exponents); a cascade of these down a
    nest of products and powers is walked with a stack, not by recursion
  * ``mul``: constants collected into one leading coefficient, zero
    annihilation (``x*0 -> 0``), unit coefficient dropped, and factors with
    structurally identical bases merged as ``x^a * x^b -> x^(a+b)``
  * ``add``: constants summed, zero terms dropped, and terms with structurally
    identical cores merged as ``k*t + m*t -> (k+m)*t``
  * commutative operand lists sorted by the total order in ``nodes.compare``

Stored constants compare equal within a relative 1e-12 during grouping.
"""

from __future__ import annotations

import functools
import math

from ..errors import DataError
from .nodes import (
    OPERATORS,
    Expression,
    compare,
    const,
    from_program,
    op_node,
    pow_,
    same_constant,
    structurally_equal,
    to_program,
)

_MAX_PASSES = 50


class CanonicalizationError(DataError):
    """The rewrite passes did not reach a fixed point within ``_MAX_PASSES``."""


def canonicalize(expr: Expression) -> Expression:
    """Return the canonical form; a fixed point of this function."""
    current = expr
    for _ in range(_MAX_PASSES):
        after = from_program(to_program(current), _rewrite)
        if after == current:
            return after
        current = after
    raise CanonicalizationError(f"canonicalization did not reach a fixed point in {_MAX_PASSES} passes")


def _rewrite(op: str, *children: Expression) -> Expression:
    """The node ``op(*children)`` rewritten, its operands already rewritten."""
    if op == "div":
        return _rewrite("mul", children[0], _rewrite("pow", children[1], const(-1.0)))
    if op == "neg":
        return _rewrite("mul", const(-1.0), children[0])
    if op == "sqrt":
        return _rewrite("pow", children[0], const(0.5))

    node = op_node(op, *children)
    folded = _try_fold(node)
    if folded is not None:
        return folded

    if op == "pow":
        return _rewrite_pow(children[0], children[1])
    if op == "add":
        return _rewrite_add(_flatten("add", children))
    if op == "mul":
        return _rewrite_mul(_flatten("mul", children))
    return node


def _try_fold(node: Expression) -> Expression | None:
    """The constant value of ``node`` when all its operands are constants and
    the operator's scalar function gives a finite value for them."""
    if not all(c.is_constant for c in node.children):
        return None
    try:
        value = OPERATORS[node.op].scalar(*(c.value for c in node.children))
    except (ArithmeticError, ValueError):
        return None
    return const(value) if math.isfinite(value) else None


def _safe_fsum(values) -> float:
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _flatten(op: str, children: tuple[Expression, ...]) -> list[Expression]:
    out: list[Expression] = []
    for c in children:
        if c.is_operator and c.op == op:
            out.extend(c.children)
        else:
            out.append(c)
    return out


def _rewrite_pow(base: Expression, exponent: Expression) -> Expression:
    # Each pending product holds the factors still to raise, their exponent
    # and the factors raised so far. A power below the top is folded first,
    # as ``_rewrite`` does.
    pending: list[tuple[list[Expression], Expression, list[Expression]]] = []
    while True:
        if exponent.is_constant and same_constant(exponent.value, 1.0):
            result = base
        elif exponent.is_constant and exponent.value == 0.0:
            result = const(1.0)
        elif not (exponent.is_constant and float(exponent.value).is_integer()) \
                or base.op not in ("mul", "pow"):
            result = pow_(base, exponent)
        else:
            if base.op == "mul":
                pending.append((list(base.children[:0:-1]), exponent, []))
                base = base.children[0]
            else:
                base, exponent = base.children[0], _rewrite("mul", base.children[1], exponent)
            result = _try_fold(pow_(base, exponent))
        while result is not None:
            if not pending:
                return result
            todo, power, raised = pending[-1]
            raised.append(result)
            if todo:
                base, exponent = todo.pop(), power
                result = _try_fold(pow_(base, exponent))
            else:
                pending.pop()
                result = _rewrite("mul", *raised)


def _rebuild(op: str, children: list[Expression], empty: float) -> Expression:
    if not children:
        return const(empty)
    if len(children) == 1:
        return children[0]
    children = sorted(children, key=functools.cmp_to_key(compare))
    return op_node(op, *children)


def _split_term(t: Expression) -> tuple[float, Expression | None]:
    """Split an additive term into (coefficient, core); core None for numbers.

    Canonical mul nodes hold at most one constant factor, but its position
    depends on the sort order, so scan rather than peek at the front.
    """
    if t.is_constant:
        return t.value, None
    if t.is_operator and t.op == "mul":
        consts = [c for c in t.children if c.is_constant]
        if len(consts) == 1:
            rest = [c for c in t.children if not c.is_constant]
            core = rest[0] if len(rest) == 1 else op_node("mul", *rest)
            return consts[0].value, core
    return 1.0, t


def _rewrite_add(terms: list[Expression]) -> Expression:
    # Sort first so grouping is independent of the incoming operand order.
    terms = sorted(terms, key=functools.cmp_to_key(compare))
    constant_sum = 0.0
    leftovers: list[Expression] = []  # constants whose sum would overflow
    groups: list[tuple[Expression, list[float]]] = []
    for t in terms:
        coef, core = _split_term(t)
        if core is None:
            if math.isfinite(constant_sum + coef):
                constant_sum += coef
            else:
                leftovers.append(const(coef))
            continue
        for seen, coefs in groups:
            if structurally_equal(core, seen):
                coefs.append(coef)
                break
        else:
            groups.append((core, [coef]))

    out: list[Expression] = []
    for core, coefs in groups:
        total = _safe_fsum(coefs)
        if not math.isfinite(total):
            out.extend(_attach_coefficient(c, core) for c in coefs)
            continue
        if total == 0.0:
            continue
        out.append(_attach_coefficient(total, core))
    out.extend(leftovers)
    if constant_sum != 0.0 or not out:
        out.append(const(constant_sum))
    return _rebuild("add", out, 0.0)


def _attach_coefficient(coef: float, core: Expression) -> Expression:
    if same_constant(coef, 1.0):
        return core
    factors = list(core.children) if core.is_operator and core.op == "mul" else [core]
    return _rewrite_mul([const(coef)] + factors)


def _rewrite_mul(factors: list[Expression]) -> Expression:
    while True:
        factors = sorted(factors, key=functools.cmp_to_key(compare))
        coefficient = 1.0
        leftovers: list[Expression] = []  # constants whose product would overflow
        groups: list[tuple[Expression, list[Expression]]] = []  # (base, exponents)
        for f in factors:
            if f.is_constant:
                if math.isfinite(coefficient * f.value):
                    coefficient *= f.value
                else:
                    leftovers.append(f)
                continue
            if f.is_operator and f.op == "pow":
                base, exponent = f.children
            else:
                base, exponent = f, const(1.0)
            for seen, exps in groups:
                if structurally_equal(base, seen):
                    exps.append(exponent)
                    break
            else:
                groups.append((base, [exponent]))

        if coefficient == 0.0:
            return const(0.0)

        out: list[Expression] = []
        rerun = False
        for base, exps in groups:
            if len(exps) == 1:
                exponent = exps[0]
            elif all(e.is_constant for e in exps):
                total = _safe_fsum(e.value for e in exps)
                # An overflowing sum cannot be stored; leave the unfolded node.
                exponent = const(total) if math.isfinite(total) else _rewrite("add", *exps)
            else:
                exponent = _rewrite("add", *exps)
            rebuilt = _rewrite_pow(base, exponent)
            if rebuilt.is_operator:
                folded = _try_fold(rebuilt)
                rebuilt = folded if folded is not None else rebuilt
            if rebuilt.is_constant:
                if math.isfinite(coefficient * rebuilt.value):
                    coefficient *= rebuilt.value
                else:
                    leftovers.append(rebuilt)
            elif rebuilt.is_operator and rebuilt.op == "mul":
                # Distributing an integer power over a product base resurfaced
                # factors that may interact with other groups.
                out.extend(rebuilt.children)
                rerun = True
            else:
                out.append(rebuilt)

        if coefficient == 0.0:
            return const(0.0)
        out.extend(leftovers)
        if not same_constant(coefficient, 1.0) or not out:
            out.append(const(coefficient))
        if not rerun:
            return _rebuild("mul", out, 1.0)
        factors = out
