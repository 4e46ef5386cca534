"""Infix formula parser.

Grammar: decimal/scientific literals, named variables, ``+ - * / ^``, unary
minus, parentheses, calls of every unary operator in the operator table
except ``neg`` (which is written as unary minus), and ``pi`` as a literal
constant. Named physical constants can be bound via the ``constants``
mapping; they are folded into constant nodes at parse time.

``^`` binds tightest and is right-associative; unary minus binds looser than
``^`` (so ``-x^2`` is ``-(x^2)``) but tighter than ``*``.

One precedence loop reads the tokens onto an operand stack and a stack of
pending operators and open groups, so nesting depth is bounded by memory
rather than by Python's recursion limit.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Sequence

from ..errors import DataError
from .nodes import OPERATORS, Expression, const, var, op_node

_TOKEN_RE = re.compile(
    r"""
    (?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[-+*/^(),])
  | (?P<space>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class ParseError(DataError):
    """Syntax or resolution error, with the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    return tokens


# Each operator a parse holds pending, with its binding power, and the node
# it builds; "^" groups to the right. "(" and the function names, which open
# groups, wait on the same stack and bind at 0.
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_NODE = {"+": "add", "-": "add", "*": "mul", "/": "div", "^": "pow"}
_FUNCTIONS = {name for name, spec in OPERATORS.items() if spec.arity == 1 and name != "neg"}


def parse(
    text: str,
    variable_names: Sequence[str],
    constants: Mapping[str, float] | None = None,
) -> Expression:
    """Parse an infix formula into a raw (non-canonical) expression tree.

    Variable names map to column indices by their position in
    ``variable_names``; names in ``constants`` fold to constant nodes.
    """
    var_index = {name: i for i, name in enumerate(variable_names)}
    constants = dict(constants or {})
    tokens = _tokenize(text) + [("end", None, len(text))]
    operands: list[Expression] = []
    pending: list[str] = []

    def reduce(binding: int) -> None:
        """Apply the pending operators that bind at least ``binding``."""
        while pending and _BINDING.get(pending[-1], 0) >= binding:
            op = pending.pop()
            rhs = operands.pop()
            if op in ("neg", "-"):
                rhs = op_node("neg", rhs)
            operands.append(rhs if op == "neg" else op_node(_NODE[op], operands.pop(), rhs))

    pos = 0
    while True:
        # An operand: minus signs and opened groups, then a number or a name.
        kind, word, start = tokens[pos]
        pos += 1
        while word in ("-", "(") or word in _FUNCTIONS:
            if word in _FUNCTIONS:
                _expect("(", tokens[pos])
                pos += 1
            pending.append("neg" if word == "-" else word)
            kind, word, start = tokens[pos]
            pos += 1
        if kind == "number":
            operands.append(const(float(word)))
        elif kind == "name" and word == "pi":
            operands.append(const(math.pi))
        elif kind == "name" and word in var_index:
            operands.append(var(var_index[word]))
        elif kind == "name" and word in constants:
            operands.append(const(float(constants[word])))
        elif kind == "name":
            raise ParseError(f"unknown identifier {word!r}", start)
        elif kind == "end":
            raise ParseError("unexpected end of input", start)
        else:
            raise ParseError(f"unexpected token {word!r}", start)

        # Closing groups, then the binary operator before the next operand.
        kind, word, start = tokens[pos]
        while kind != "punct" or word not in _NODE:
            reduce(1)
            if not pending:
                if kind != "end":
                    raise ParseError(f"unexpected trailing input {word!r}", start)
                (tree,) = operands
                return tree
            group = pending.pop()
            if word == "," and group != "(":
                raise ParseError(f"{group} takes exactly one argument", start)
            _expect(")", tokens[pos])
            if group != "(":
                operands.append(op_node(group, operands.pop()))
            pos += 1
            kind, word, start = tokens[pos]
        reduce(_BINDING[word] + (word == "^"))  # a pending "^" waits for this one
        pending.append(word)
        pos += 1


def _expect(punct: str, token: tuple) -> None:
    kind, word, start = token
    if kind == "end":
        raise ParseError("unexpected end of input", start)
    if word != punct:
        raise ParseError(f"expected {punct!r}, found {word!r}", start)
