"""Skeletons and preorder token serialization.

A skeleton is an expression's preorder token tuple with every numeric
constant written as ``C`` and variable ``i`` as ``X{i+1}``. Two skeletons
are the same tree (NED = 0) exactly when their tuples are equal, so the
tuple is compared, hashed and counted (one token per node) directly.

Preorder token text format (whitespace separated, one expression per line):
n-ary operators (``add``/``mul``) carry an explicit arity suffix (``add3``,
``mul2``) so that sequences decode unambiguously by arity counting; all other
canonical operators have the fixed arity the operator table gives them.
Constants serialize as ``C`` in skeletons, or as a decimal literal when a
valued expression is written.

Every token sequence is decoded by one loop, :func:`decode_preorder`, which
keeps the open operators on an explicit stack, so nesting depth is bounded
by memory rather than by Python's recursion limit. Its callers differ only
in how they build leaves and operator nodes. Expressions are read by one
walk, :func:`~srsdkit.expr.nodes.preorder`, which is iterative too.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence

from ..errors import DataError
from .nodes import OPERATORS, Expression, const, op_node, preorder, var


class DecodeError(DataError):
    """Token sequence does not decode to exactly one tree."""


def skeletonize(expr: Expression) -> tuple[str, ...]:
    """The skeleton of ``expr``: its preorder tokens, constants as ``C``.

    The input must be canonical: ``decode_preorder`` rejects the ``div``,
    ``neg`` and ``sqrt`` tokens a non-canonical tree would write, so a
    distance to such a skeleton raises ``DecodeError``.
    """
    return tuple(_expression_tokens(expr, lambda value: "C"))


def count_ops(expr: Expression) -> int:
    """Number of operator (internal) nodes."""
    return sum(1 for node in preorder(expr) if node.is_operator)


def constant_values(expr: Expression) -> list[float]:
    """Constants of ``expr`` in preorder, one per ``C`` of its skeleton."""
    return [node.value for node in preorder(expr) if node.is_constant]


# ---------------------------------------------------------------------------
# Preorder tokens
# ---------------------------------------------------------------------------

_VAR_TOKEN = re.compile(r"^X([1-9][0-9]*)$")
_NARY_TOKEN = re.compile(
    "^({})([0-9]+)$".format("|".join(name for name, op in OPERATORS.items() if op.arity is None))
)
_NUMBER_TOKEN = re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _operator_token(op: str, n_children: int) -> str:
    """An n-ary operator's token carries its operand count (``add3``)."""
    return f"{op}{n_children}" if OPERATORS[op].arity is None else op


def _token_arity(token: str, position: int) -> tuple[str, int]:
    """Resolve a token to (label, arity); raises DecodeError on bad tokens.

    Only canonical operators decode: ``div``, ``neg`` and ``sqrt`` are
    unknown tokens.
    """
    m = _NARY_TOKEN.match(token)
    if m:
        arity = int(m.group(2))
        if arity < 2:
            raise DecodeError(f"{token!r} at token {position}: arity must be >= 2")
        return m.group(1), arity
    spec = OPERATORS.get(token)
    if spec is not None and spec.canonical and spec.arity is not None:
        return token, spec.arity
    if token == "C" or _VAR_TOKEN.match(token) or _NUMBER_TOKEN.match(token):
        return token, 0
    raise DecodeError(f"unknown token {token!r} at token {position}")


def token_arity(token: str) -> int:
    """Arity a token consumes during preorder decoding (0 for leaves)."""
    return _token_arity(token, 0)[1]


def variable_index(token: str) -> int | None:
    """Zero-based column index of a variable token ``X<k>``; None otherwise."""
    m = _VAR_TOKEN.match(token)
    return int(m.group(1)) - 1 if m else None


def decode_preorder(tokens: Sequence[str], leaf, node):
    """Decode a preorder token sequence into exactly one tree.

    ``leaf(token, position)`` builds each leaf (``C``, ``X<k>`` or a numeric
    literal), called in token order; ``node(label, *children)`` builds each
    operator node once its last operand is built, so leaves and nodes are
    built in postorder. ``label`` has no arity suffix (``add``, not ``add3``).
    """
    if not tokens:
        raise DecodeError("empty token sequence")
    open_ops: list[tuple[str, int, list]] = []  # label, arity, operands so far
    for position, token in enumerate(tokens):
        label, arity = _token_arity(token, position)
        if arity:
            open_ops.append((label, arity, []))
            continue
        done = leaf(token, position)
        while open_ops:
            label, arity, operands = open_ops[-1]
            operands.append(done)
            if len(operands) < arity:
                break
            open_ops.pop()
            done = node(label, *operands)
        else:  # no operator is open: the tree is complete
            trailing = len(tokens) - position - 1
            if trailing:
                raise DecodeError(f"{trailing} trailing token(s) after a complete tree")
            return done
    raise DecodeError(f"truncated sequence: expected a token at {len(tokens)}")


# ---------------------------------------------------------------------------
# Valued expressions in the same token format
# ---------------------------------------------------------------------------

def _expression_tokens(expr: Expression, constant) -> list[str]:
    """Preorder tokens of ``expr``; ``constant(value)`` writes each constant."""
    return [
        constant(node.value) if node.is_constant
        else f"X{node.index + 1}" if node.is_variable
        else _operator_token(node.op, len(node.children))
        for node in preorder(expr)
    ]


def expression_to_prefix(expr: Expression) -> list[str]:
    """Serialize a valued expression; constants become decimal literals."""
    return _expression_tokens(expr, lambda value: repr(float(value)))


def constant_leaf(token: str, where: str) -> Expression:
    """A constant leaf for a decimal literal; ``DecodeError`` naming the
    token and ``where`` it stands unless it is one and finite."""
    if not (_NUMBER_TOKEN.match(token) and math.isfinite(float(token))):
        raise DecodeError(f"constant {token!r} at {where} is not a finite decimal literal")
    return const(float(token))


def prefix_to_expression(tokens: list[str]) -> Expression:
    """Decode a valued prefix sequence; bare ``C`` tokens are rejected."""

    def leaf(token: str, position: int) -> Expression:
        index = variable_index(token)
        if index is not None:
            return var(index)
        if token == "C":
            raise DecodeError(f"valueless constant token at {position}; a numeric literal is required")
        return constant_leaf(token, f"token {position}")

    return decode_preorder(tokens, leaf, op_node)
