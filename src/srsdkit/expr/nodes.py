"""Expression trees: n-ary operator nodes over numeric constants and indexed variables.

Trees are immutable. ``add`` and ``mul`` are n-ary, ``pow`` is binary, the
function operators are unary. ``div``, ``neg`` and ``sqrt`` may appear in raw
(parsed or evolved) trees but are rewritten away by canonicalization.

Every fact about an operator lives in one table, :data:`OPERATORS`: its
arity, whether canonical trees may hold it, its scalar ``math`` function with
the domain check that guards it, and its numpy ufunc. The node constructor,
``compare``, both evaluators, the parser, the preorder decoder and the GP
read it. The table's order is the canonical rank: commutative operands are
sorted by it, so reordering the entries changes canonical forms, skeletons
and every edit distance computed from them.

A tree also has a flat form, its program: the tuple of its tokens in
preorder (:func:`to_program`, :func:`from_program`). The GP evolves programs,
and ``evaluate_many`` runs on them.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Operator:
    """One operator. ``arity`` is None for n-ary operators (at least two
    operands). ``canonical`` operators may appear in canonical trees and in
    preorder token files. ``fault`` is true of arguments outside the domain
    of ``scalar``, which then raises ``DomainFault(fault_message)``.
    ``hides_nonfinite`` marks the operators whose ufunc can turn a non-finite
    operand into a finite result (``exp(-inf) == 0``, ``1 / inf == 0``,
    ``tanh(inf) == 1``, ``pow(nan, 0) == 1``); every other ufunc returns a
    non-finite result for any non-finite operand."""

    name: str
    arity: int | None
    canonical: bool
    scalar: Callable[..., float]
    ufunc: np.ufunc
    fault: Callable[..., bool] | None = None
    fault_message: str = ""
    hides_nonfinite: bool = False


# In canonical rank order; see the module docstring.
OPERATORS: dict[str, Operator] = {op.name: op for op in (
    # n-ary folds start from 0.0 and 1.0, not from the first operand, so that
    # 0.0 + (-0.0) stays 0.0: the sign of a folded zero shows in its repr.
    Operator("add", None, True, lambda *args: functools.reduce(operator.add, args, 0.0), np.add),
    Operator("mul", None, True, lambda *args: functools.reduce(operator.mul, args, 1.0), np.multiply),
    Operator("pow", 2, True, math.pow, np.power,
             lambda base, exponent: base == 0.0 and exponent < 0.0,
             "zero raised to a negative power", hides_nonfinite=True),
    Operator("sin", 1, True, math.sin, np.sin),
    Operator("cos", 1, True, math.cos, np.cos),
    Operator("tan", 1, True, math.tan, np.tan),
    Operator("tanh", 1, True, math.tanh, np.tanh, hides_nonfinite=True),
    Operator("exp", 1, True, math.exp, np.exp, hides_nonfinite=True),
    Operator("log", 1, True, math.log, np.log, lambda a: a <= 0.0, "log of a non-positive value"),
    Operator("abs", 1, True, abs, np.abs),
    Operator("div", 2, False, operator.truediv, np.divide, lambda a, b: b == 0.0, "division by zero",
             hides_nonfinite=True),
    Operator("neg", 1, False, operator.neg, np.negative),
    Operator("sqrt", 1, False, math.sqrt, np.sqrt, lambda a: a < 0.0, "sqrt of a negative value"),
)}

_OP_RANK = {name: i for i, name in enumerate(OPERATORS)}

# Relative tolerance for treating two stored constants as the same value
# (absorbs decimal-literal round-trip noise).
CONST_REL_TOL = 1e-12


class ExpressionError(ValueError):
    """Malformed expression tree."""


@dataclass(frozen=True)
class Expression:
    """One node of an expression tree.

    Exactly one of the three kinds:
      * operator: ``op`` set, ``children`` nonempty
      * constant: ``value`` set (finite)
      * variable: ``index`` set (zero-based column index)
    """

    op: str | None = None
    value: float | None = None
    index: int | None = None
    children: tuple["Expression", ...] = field(default=())

    def __post_init__(self):
        kinds = sum(x is not None for x in (self.op, self.value, self.index))
        if kinds != 1:
            raise ExpressionError("node must be exactly one of operator/constant/variable")
        if self.op is not None:
            spec = OPERATORS.get(self.op)
            if spec is None:
                raise ExpressionError(f"unknown operator {self.op!r}")
            n = len(self.children)
            if spec.arity is None:
                if n < 2:
                    raise ExpressionError(f"{self.op} needs at least 2 operands, got {n}")
            elif n != spec.arity:
                plural = "" if spec.arity == 1 else "s"
                raise ExpressionError(f"{self.op} takes {spec.arity} argument{plural}, got {n}")
        elif self.value is not None:
            if not math.isfinite(self.value):
                raise ExpressionError(f"non-finite constant {self.value!r}")
            if self.children:
                raise ExpressionError("constant cannot have children")
        else:
            if self.index < 0:
                raise ExpressionError(f"negative variable index {self.index}")
            if self.children:
                raise ExpressionError("variable cannot have children")

    @property
    def is_operator(self) -> bool:
        return self.op is not None

    @property
    def is_constant(self) -> bool:
        return self.value is not None

    @property
    def is_variable(self) -> bool:
        return self.index is not None

    def node_count(self) -> int:
        return sum(1 for _ in preorder(self))

    def variables(self) -> set[int]:
        """Set of variable indices occurring in the tree."""
        return {node.index for node in preorder(self) if node.is_variable}

    def __repr__(self):
        if self.is_constant:
            return f"const({self.value!r})"
        if self.is_variable:
            return f"var({self.index})"
        return f"{self.op}({', '.join(repr(c) for c in self.children)})"


def preorder(tree: Expression):
    """Yield the nodes of the expression ``tree``: the root first, then each
    child's subtree from left to right.

    The walk keeps pending subtrees on an explicit stack, so nesting depth is
    bounded by memory rather than by Python's recursion limit.
    """
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(reversed(node.children))


# A program is a tree as a flat tuple of tokens in preorder, so a subtree is
# a contiguous slice. A constant is a float, a variable is the 1-tuple
# ``(index,)`` and an operator is ``(name, arity, ufunc)``. A variable never
# compares equal to a constant, as the int 1 would to 1.0; programs compare
# and hash as their trees do, with 0.0 == -0.0.

def operator_token(name: str, arity: int) -> tuple:
    return (name, arity, OPERATORS[name].ufunc)


def operand_count(token) -> int:
    """Operands a program token takes (0 for leaves)."""
    return 0 if type(token) is float or len(token) == 1 else token[1]


def to_program(expr: Expression) -> tuple:
    """The program of ``expr``: one token per node, in preorder."""
    return tuple(
        operator_token(node.op, len(node.children)) if node.op is not None
        else (node.index,) if node.index is not None
        else float(node.value)
        for node in preorder(expr)
    )


def from_program(program) -> Expression:
    """The tree of ``program``, built by one fold over its reversed tokens:
    each operator takes its operands from the top of the stack, first child
    on top."""
    stack: list[Expression] = []
    for token in reversed(program):
        if type(token) is float:
            stack.append(Expression(value=token))
        elif len(token) == 1:
            stack.append(Expression(index=token[0]))
        else:
            k = token[1]
            children = tuple(stack[:-k - 1:-1])
            del stack[-k:]
            stack.append(Expression(op=token[0], children=children))
    (tree,) = stack
    return tree


def const(value: float) -> Expression:
    return Expression(value=float(value))


def var(index: int) -> Expression:
    return Expression(index=index)


def op_node(name: str, *children: Expression) -> Expression:
    return Expression(op=name, children=tuple(children))


def add(*children: Expression) -> Expression:
    return op_node("add", *children)


def mul(*children: Expression) -> Expression:
    return op_node("mul", *children)


def pow_(base: Expression, exponent: Expression) -> Expression:
    return op_node("pow", base, exponent)


def div(num: Expression, den: Expression) -> Expression:
    return op_node("div", num, den)


def neg(x: Expression) -> Expression:
    return op_node("neg", x)


def same_constant(a: float, b: float, rel_tol: float = CONST_REL_TOL) -> bool:
    """Constant equality used during folding and grouping."""
    return a == b or math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0)


def structurally_equal(a: Expression, b: Expression) -> bool:
    """Structural equality with constants compared by ``same_constant``."""
    if a.is_constant:
        return b.is_constant and same_constant(a.value, b.value)
    if a.is_variable:
        return b.is_variable and a.index == b.index
    if not b.is_operator or a.op != b.op or len(a.children) != len(b.children):
        return False
    return all(structurally_equal(x, y) for x, y in zip(a.children, b.children))


def compare(a: Expression, b: Expression) -> int:
    """Total order on trees: operators < constants < variables, then by
    operator rank / value / index, then recursively on children.

    Constants order by exact value so that sorting never depends on the
    input order; the folding tolerance applies only to equality grouping.
    """
    ka = 0 if a.is_operator else (1 if a.is_constant else 2)
    kb = 0 if b.is_operator else (1 if b.is_constant else 2)
    if ka != kb:
        return -1 if ka < kb else 1
    if ka == 1:
        if a.value == b.value:
            return 0
        return -1 if a.value < b.value else 1
    if ka == 2:
        return (a.index > b.index) - (a.index < b.index)
    ra, rb = _OP_RANK[a.op], _OP_RANK[b.op]
    if ra != rb:
        return -1 if ra < rb else 1
    if len(a.children) != len(b.children):
        return -1 if len(a.children) < len(b.children) else 1
    for x, y in zip(a.children, b.children):
        c = compare(x, y)
        if c != 0:
            return c
    return 0
