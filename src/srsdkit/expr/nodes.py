"""Expression trees: n-ary operator nodes over numeric constants and indexed variables.

Trees are immutable. ``add`` and ``mul`` are n-ary, ``pow`` is binary, the
function operators are unary. ``div``, ``neg`` and ``sqrt`` may appear in raw
(parsed or evolved) trees but are rewritten away by canonicalization.

Every fact about an operator lives in one table, :data:`OPERATORS`: its
arity, whether canonical trees may hold it, its numpy ufunc, which
``evaluate_many`` applies, and the scalar ``math`` function that
canonicalization folds constant operands with. The node constructor,
``compare``, the evaluator, the canonicalizer, the parser, the preorder
decoder and the GP read it. The table's order is the canonical rank:
commutative operands are sorted by it, so reordering the entries changes
canonical forms, skeletons and every edit distance computed from them.

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
    preorder token files. ``scalar`` is the ``math`` function that folds
    constant operands. Where ``ufunc`` gives a non-finite result it raises
    ``ArithmeticError`` or ``ValueError`` or returns a non-finite value
    (``test_canon`` checks edge-case and random arguments); a finite result
    may differ from the ufunc's in the last bit. The operators that
    canonicalization rewrites away before it folds have no ``scalar``.
    ``hides_nonfinite`` marks the operators whose ufunc can turn a non-finite
    operand into a finite result (``exp(-inf) == 0``, ``1 / inf == 0``,
    ``tanh(inf) == 1``, ``pow(nan, 0) == 1``); every other ufunc returns a
    non-finite result for any non-finite operand."""

    name: str
    arity: int | None
    canonical: bool
    ufunc: np.ufunc
    scalar: Callable[..., float] | None = None
    hides_nonfinite: bool = False


# In canonical rank order; see the module docstring.
OPERATORS: dict[str, Operator] = {op.name: op for op in (
    # n-ary folds start from 0.0 and 1.0, not from the first operand, so that
    # 0.0 + (-0.0) stays 0.0: the sign of a folded zero shows in its repr.
    Operator("add", None, True, np.add, lambda *args: functools.reduce(operator.add, args, 0.0)),
    Operator("mul", None, True, np.multiply, lambda *args: functools.reduce(operator.mul, args, 1.0)),
    Operator("pow", 2, True, np.power, math.pow, hides_nonfinite=True),
    Operator("sin", 1, True, np.sin, math.sin),
    Operator("cos", 1, True, np.cos, math.cos),
    Operator("tan", 1, True, np.tan, math.tan),
    Operator("tanh", 1, True, np.tanh, math.tanh, hides_nonfinite=True),
    Operator("exp", 1, True, np.exp, math.exp, hides_nonfinite=True),
    Operator("log", 1, True, np.log, math.log),
    Operator("abs", 1, True, np.abs, abs),
    Operator("div", 2, False, np.divide, hides_nonfinite=True),
    Operator("neg", 1, False, np.negative),
    Operator("sqrt", 1, False, np.sqrt),
)}

_OP_RANK = {name: i for i, name in enumerate(OPERATORS)}

# Relative tolerance for treating two stored constants as the same value
# (absorbs decimal-literal round-trip noise).
CONST_REL_TOL = 1e-12


class ExpressionError(ValueError):
    """Malformed expression tree."""


@dataclass(frozen=True, eq=False)
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
        kinds = (self.op is not None) + (self.value is not None) + (self.index is not None)
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

    def variables(self) -> set[int]:
        """Set of variable indices occurring in the tree."""
        return {node.index for node in preorder(self) if node.is_variable}

    def __eq__(self, other):
        return type(other) is Expression and compare(self, other) == 0

    def __hash__(self):
        return hash(tuple(_keys(self)))

    def __reduce__(self):
        # Pickle as the flat program: the default would recurse once per level.
        return from_program, (to_program(self),)

    def __repr__(self):
        # One fold over the reversed preorder, as in from_program: each
        # operator takes its operands' text from the top of the stack.
        stack: list[str] = []
        for node in reversed(list(preorder(self))):
            if node.is_constant:
                stack.append(f"const({node.value!r})")
            elif node.is_variable:
                stack.append(f"var({node.index})")
            else:
                k = len(node.children)
                operands = ", ".join(stack[:-k - 1:-1])
                del stack[-k:]
                stack.append(f"{node.op}({operands})")
        (text,) = stack
        return text


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


def subtree_end(program, start: int) -> int:
    """End of the slice of ``program`` holding the subtree that starts at
    ``start``. A token's operand count is read inline: a float or a 1-tuple
    takes none, an operator ``token[1]``; a call per token cost more than the
    rest of the walk."""
    end = start
    pending = 1
    while pending:
        token = program[end]
        pending += (0 if type(token) is float or len(token) == 1 else token[1]) - 1
        end += 1
    return end


def to_program(expr: Expression) -> tuple:
    """The program of ``expr``: one token per node, in preorder."""
    return tuple(
        operator_token(node.op, len(node.children)) if node.op is not None
        else (node.index,) if node.index is not None
        else float(node.value)
        for node in preorder(expr)
    )


def from_program(program, node=None) -> Expression:
    """The tree of ``program``, built by one fold over its reversed tokens:
    each operator takes its operands from the top of the stack, first child
    on top, and is built by ``node(name, *operands)`` (default ``op_node``)."""
    node = node or op_node
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
            stack.append(node(token[0], *children))
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


def _key(node: Expression) -> tuple:
    if node.op is not None:
        return (0, _OP_RANK[node.op], len(node.children))
    if node.value is not None:
        return (1, node.value)
    return (2, node.index)


def _keys(tree: Expression):
    """Each node's key in preorder. Operand counts make the stream
    prefix-free, so the first pair of keys that differ decides between trees."""
    return map(_key, preorder(tree))


def structurally_equal(a: Expression, b: Expression) -> bool:
    """Structural equality with constants compared by ``same_constant``."""
    for x, y in zip(_keys(a), _keys(b)):
        if x != y and not (x[0] == y[0] == 1 and same_constant(x[1], y[1])):
            return False
    return True


def compare(a: Expression, b: Expression) -> int:
    """Total order on trees: operators < constants < variables, then by
    operator rank / value / index, then by operand count, node by node in
    preorder.

    Constants order by exact value so that sorting never depends on the
    input order; the folding tolerance applies only to equality grouping.
    """
    for x, y in zip(_keys(a), _keys(b)):
        if x != y:
            return -1 if x < y else 1
    return 0
