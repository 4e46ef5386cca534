"""Infix formula parser.

Grammar: decimal/scientific literals, named variables, ``+ - * / ^``, unary
minus, parentheses, calls of every unary operator in the operator table
except ``neg`` (which is written as unary minus), and ``pi`` as a literal
constant. Named physical constants can be bound via the ``constants``
mapping; they are folded into constant nodes at parse time.

``^`` binds tightest and is right-associative; unary minus binds looser than
``^`` (so ``-x^2`` is ``-(x^2)``) but tighter than ``*``.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Sequence

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


class ParseError(ValueError):
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


class _Parser:
    def __init__(self, tokens, text_len, variable_names, constants):
        self.tokens = tokens
        self.pos = 0
        self.text_len = text_len
        self.var_index = {name: i for i, name in enumerate(variable_names)}
        self.constants = dict(constants or {})

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text_len)
        self.pos += 1
        return tok

    def expect(self, punct):
        tok = self.next()
        if tok[0] != "punct" or tok[1] != punct:
            raise ParseError(f"expected {punct!r}, found {tok[1]!r}", tok[2])
        return tok

    # additive <- multiplicative ((+|-) multiplicative)*
    def additive(self) -> Expression:
        node = self.multiplicative()
        while (tok := self.peek()) is not None and tok[1] in ("+", "-"):
            self.pos += 1
            rhs = self.multiplicative()
            if tok[1] == "+":
                node = op_node("add", node, rhs)
            else:
                node = op_node("add", node, op_node("neg", rhs))
        return node

    # multiplicative <- unary ((*|/) unary)*
    def multiplicative(self) -> Expression:
        node = self.unary()
        while (tok := self.peek()) is not None and tok[1] in ("*", "/"):
            self.pos += 1
            rhs = self.unary()
            node = op_node("mul" if tok[1] == "*" else "div", node, rhs)
        return node

    # unary <- '-' unary | power
    def unary(self) -> Expression:
        tok = self.peek()
        if tok is not None and tok[1] == "-":
            self.pos += 1
            return op_node("neg", self.unary())
        return self.power()

    # power <- atom ('^' unary)?   (right-associative; -x allowed in exponent)
    def power(self) -> Expression:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok[1] == "^":
            self.pos += 1
            return op_node("pow", base, self.unary())
        return base

    def atom(self) -> Expression:
        kind, text, start = self.next()
        if kind == "number":
            return const(float(text))
        if kind == "name":
            spec = OPERATORS.get(text)
            if spec is not None and spec.arity == 1 and text != "neg":
                self.expect("(")
                arg = self.additive()
                tok = self.peek()
                if tok is not None and tok[1] == ",":
                    raise ParseError(f"{text} takes exactly one argument", tok[2])
                self.expect(")")
                return op_node(text, arg)
            if text == "pi":
                return const(math.pi)
            if text in self.var_index:
                return var(self.var_index[text])
            if text in self.constants:
                return const(float(self.constants[text]))
            raise ParseError(f"unknown identifier {text!r}", start)
        if text == "(":
            node = self.additive()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {text!r}", start)


def parse(
    text: str,
    variable_names: Sequence[str],
    constants: Mapping[str, float] | None = None,
) -> Expression:
    """Parse an infix formula into a raw (non-canonical) expression tree.

    Variable names map to column indices by their position in
    ``variable_names``; names in ``constants`` fold to constant nodes.
    """
    parser = _Parser(_tokenize(text), len(text), variable_names, constants)
    node = parser.additive()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return node
