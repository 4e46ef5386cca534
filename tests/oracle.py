"""Independent oracles for the tree edit distance and batch evaluation.

* :func:`brute_force_distance` enumerates every order-consistent one-to-one
  node mapping (Tai mapping) between two small trees and takes the cheapest:
  mapped pairs pay the rename cost, unmapped nodes pay delete/insert.
  Exponential; usable up to ~7 nodes.
* :func:`recursive_forest_distance` is the textbook memoized recursion over
  ordered forests (split on the rightmost roots). Polynomial-ish with
  memoization; usable to a few dozen nodes.

Both take preorder token sequences and read them into their own nested
``(label, children)`` tuples, so they share nothing with the keyroot/forest
dynamic program they check, not even its token decoder.

* :func:`recursive_evaluate_many` is the straightforward recursive batch
  evaluator: a fresh array per node, a column copy per variable leaf. The
  iterative ``evaluate_many`` must match its values and fault masks bit for
  bit.
* :func:`masked_relative_error_score` is the relative-error fitness as it
  was written before its lean tail: ``mean``, boolean indexing and
  ``abs(.)**2``. ``relative_error_score`` must give the same bits.
* :func:`recursive_skeletonize` writes a skeleton's tokens by recursion;
  ``skeletonize``, which walks the tree with an explicit stack, must give
  the same token tuple.
* :func:`recursive_compare` and :func:`recursive_structurally_equal` are
  the tree order and the tolerant equality as first written, one recursive
  call per tree level. ``compare`` and ``structurally_equal``, which zip the
  two trees' preorder key streams, must give the same answers.
* :func:`line_write_text` and :func:`line_read_values` are the dataset
  writer and reader as they were written before ``np.loadtxt``: one
  ``repr`` per cell, and one ``float`` per cell of ``str.splitlines``.
  ``datagen.write`` must give the same bytes, and ``datagen.read`` the same
  bits or the same ``DataError`` text, on every file without underscores,
  non-ASCII text or line separators other than ``\\n``, ``\\r\\n`` and ``\\r``.
* :func:`to_infix` writes a tree as an infix formula that ``parse`` reads
  back, n-ary ``add``/``mul`` as left-nested chains. The parser round-trip
  tests compare against it, and so does the check that a synthetic spec
  carries the tree ``synth`` once got by writing and parsing that formula.
* :func:`recursive_parse` is the recursive-descent infix parser, one method
  per precedence level. ``parse``, which holds pending operators on a stack,
  must give the same tree, or the same ``ParseError`` text and position.
* :func:`recursive_rewrite_pow` is canonicalization's power rule with its
  integer-exponent cascade written as recursion. Canonicalizing with it in
  place of ``canon._rewrite_pow``, which walks the cascade with a stack,
  must give the same canonical form.
"""

from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from srsdkit.datagen import DataError
from srsdkit.evalkit import TINY_TARGET
from srsdkit.expr import OPERATORS, Expression, ParseError, const, evaluate_many, op_node, pow_, var
from srsdkit.expr import canon
from srsdkit.expr.parse import _tokenize

# Skeleton token arities, written out here rather than read from the code
# under test; ``add<k>`` and ``mul<k>`` take k operands.
FIXED_ARITY = {"pow": 2, "sin": 1, "cos": 1, "tan": 1, "tanh": 1, "exp": 1, "log": 1, "abs": 1}


def tree(tokens) -> tuple:
    """The ``(label, children)`` tree of a preorder token sequence. Every
    constant token (``C`` or a number) is labelled ``C``, and an n-ary
    operator loses its operand count: ``add3`` is labelled ``add``."""
    tokens = iter(tokens)

    def node():
        token = next(tokens)
        if token[:3] in ("add", "mul"):
            label, arity = token[:3], int(token[3:])
        elif token in FIXED_ARITY:
            label, arity = token, FIXED_ARITY[token]
        else:
            label, arity = (token if token.startswith("X") else "C"), 0
        return label, tuple(node() for _ in range(arity))

    root = node()
    assert next(tokens, None) is None, "trailing tokens"
    return root


def _number(root: tuple):
    """(label, preorder, postorder) triples, in preorder."""
    out = []
    clock = [0, 0]

    def walk(node):
        pre = clock[0]
        clock[0] += 1
        my = len(out)
        out.append([node[0], pre, None])
        for c in node[1]:
            walk(c)
        out[my][2] = clock[1]
        clock[1] += 1

    walk(root)
    return out


def _relation(n1, n2) -> str:
    if n1[1] < n2[1]:
        return "anc" if n1[2] > n2[2] else "left"
    return "desc" if n1[2] < n2[2] else "right"


# Unit costs, written out here rather than imported from the code under test.
INSERT_COST = 1.0
DELETE_COST = 1.0


def rename_cost(a: str, b: str) -> float:
    return 0.0 if a == b else 1.0


def brute_force_distance(a, b) -> float:
    na, nb = _number(tree(a)), _number(tree(b))
    base = len(na) * DELETE_COST + len(nb) * INSERT_COST
    best = [base]
    # Mapping node i of `a` to node j of `b` changes the cost by
    # rename(i, j) - delete - insert; precompute the best possible gain.
    max_gain = DELETE_COST + INSERT_COST

    def search(ai: int, pairs: list[tuple[int, int]], used_b: set[int], cost: float):
        remaining = len(na) - ai
        if cost - remaining * max_gain >= best[0]:
            return
        if ai == len(na):
            best[0] = min(best[0], cost)
            return
        for bj in range(len(nb)):
            if bj in used_b:
                continue
            if any(_relation(na[pi], na[ai]) != _relation(nb[pj], nb[bj]) for pi, pj in pairs):
                continue
            delta = rename_cost(na[ai][0], nb[bj][0]) - max_gain
            pairs.append((ai, bj))
            used_b.add(bj)
            search(ai + 1, pairs, used_b, cost + delta)
            pairs.pop()
            used_b.remove(bj)
        search(ai + 1, pairs, used_b, cost)

    search(0, [], set(), base)
    return best[0]


def recursive_forest_distance(a, b) -> float:
    @lru_cache(maxsize=None)
    def node_count(forest):
        return sum(1 + node_count(children) for _, children in forest)

    @lru_cache(maxsize=None)
    def fdist(f1, f2):
        if not f1 and not f2:
            return 0.0
        if not f2:
            return node_count(f1) * DELETE_COST
        if not f1:
            return node_count(f2) * INSERT_COST
        v, w = f1[-1], f2[-1]
        delete_root = fdist(f1[:-1] + v[1], f2) + DELETE_COST
        insert_root = fdist(f1, f2[:-1] + w[1]) + INSERT_COST
        match_roots = (
            fdist(v[1], w[1])
            + fdist(f1[:-1], f2[:-1])
            + rename_cost(v[0], w[0])
        )
        return min(delete_root, insert_root, match_roots)

    return fdist((tree(a),), (tree(b),))


def recursive_evaluate_many(expr: Expression, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    bad = np.zeros(X.shape[0], dtype=bool)
    with np.errstate(all="ignore"):
        values = _eval_many(expr, X, bad)
    bad |= ~np.isfinite(values)
    return values, bad


def _eval_many(expr: Expression, X: np.ndarray, bad: np.ndarray) -> np.ndarray:
    if expr.is_constant:
        return np.full(X.shape[0], expr.value)
    if expr.is_variable:
        return X[:, expr.index].copy()

    args = [_eval_many(c, X, bad) for c in expr.children]
    op = expr.op
    if op == "add":
        out = args[0]
        for a in args[1:]:
            out = out + a
    elif op == "mul":
        out = args[0]
        for a in args[1:]:
            out = out * a
    elif op == "pow":
        out = np.power(args[0], args[1])
    elif op == "div":
        out = args[0] / args[1]
    elif op == "neg":
        out = -args[0]
    elif op == "log":
        out = np.log(args[0])
    elif op == "sqrt":
        out = np.sqrt(args[0])
    elif op == "exp":
        out = np.exp(args[0])
    elif op == "sin":
        out = np.sin(args[0])
    elif op == "cos":
        out = np.cos(args[0])
    elif op == "tan":
        out = np.tan(args[0])
    elif op == "tanh":
        out = np.tanh(args[0])
    elif op == "abs":
        out = np.abs(args[0])
    else:
        raise AssertionError(op)
    bad |= ~np.isfinite(out)
    return out


def masked_relative_error_score(expr, X: np.ndarray, y: np.ndarray) -> float:
    values, faulted = evaluate_many(expr, X)
    if faulted.mean() > 0.5:
        return math.inf
    usable = (~faulted) & (np.abs(y) >= TINY_TARGET)
    if not usable.any():
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = (values[usable] - y[usable]) / y[usable]
        score = float(np.mean(np.abs(ratio) ** 2))
    return math.inf if math.isnan(score) else score


def recursive_skeletonize(expr: Expression) -> tuple[str, ...]:
    if expr.is_constant:
        return ("C",)
    if expr.is_variable:
        return (f"X{expr.index + 1}",)
    n = len(expr.children)
    token = f"{expr.op}{n}" if expr.op in ("add", "mul") else expr.op
    return (token,) + sum((recursive_skeletonize(c) for c in expr.children), ())


def recursive_repr(expr: Expression) -> str:
    """``repr`` of a tree as the dataclass-era recursive method wrote it."""
    if expr.is_constant:
        return f"const({expr.value!r})"
    if expr.is_variable:
        return f"var({expr.index})"
    return f"{expr.op}({', '.join(recursive_repr(c) for c in expr.children)})"


# The canonical operator rank and the constant tolerance, written out here
# rather than read from the code under test.
OPERATOR_RANK = {name: i for i, name in enumerate(
    ["add", "mul", "pow", "sin", "cos", "tan", "tanh", "exp", "log", "abs", "div", "neg", "sqrt"])}
CONSTANT_REL_TOL = 1e-12


def recursive_compare(a: Expression, b: Expression) -> int:
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
    ra, rb = OPERATOR_RANK[a.op], OPERATOR_RANK[b.op]
    if ra != rb:
        return -1 if ra < rb else 1
    if len(a.children) != len(b.children):
        return -1 if len(a.children) < len(b.children) else 1
    for x, y in zip(a.children, b.children):
        c = recursive_compare(x, y)
        if c != 0:
            return c
    return 0


def recursive_structurally_equal(a: Expression, b: Expression) -> bool:
    if a.is_constant:
        return b.is_constant and (
            a.value == b.value
            or math.isclose(a.value, b.value, rel_tol=CONSTANT_REL_TOL, abs_tol=0.0))
    if a.is_variable:
        return b.is_variable and a.index == b.index
    if not b.is_operator or a.op != b.op or len(a.children) != len(b.children):
        return False
    return all(recursive_structurally_equal(x, y) for x, y in zip(a.children, b.children))


def line_write_text(values: np.ndarray) -> str:
    lines = []
    for row in values:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def line_read_values(path) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8")
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise DataError(f"{path}: non-numeric value on line {lineno}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(
                f"{path}: expected {width} columns, found {len(row)} on line {lineno}"
            )
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    values = np.array(rows, dtype=np.float64)
    bad_rows = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad_rows.size:
        raise DataError(f"{path}: non-finite value in data row {bad_rows[0] + 1}")
    return values


_ADD, _MUL, _POW, _ATOM = 1, 2, 3, 4


def to_infix(expr: Expression, variable_names: Sequence[str] | None = None) -> str:
    """Render as an infix formula that reparses to the same tree.

    Variables print as ``variable_names[i]`` when given, else ``x{i+1}``.
    """

    def name(i: int) -> str:
        if variable_names is not None:
            return variable_names[i]
        return f"x{i + 1}"

    def render(node: Expression, context: int) -> str:
        if node.is_constant:
            text = repr(float(node.value))
            return f"({text})" if node.value < 0 and context >= _POW else text
        if node.is_variable:
            return name(node.index)
        op = node.op
        if op == "add":
            text = " + ".join(render(c, _ADD + 1) for c in node.children)
            level = _ADD
        elif op == "mul":
            text = " * ".join(render(c, _MUL + 1) for c in node.children)
            level = _MUL
        elif op == "div":
            text = f"{render(node.children[0], _MUL + 1)} / {render(node.children[1], _POW)}"
            level = _MUL
        elif op == "pow":
            text = f"{render(node.children[0], _ATOM)}^{render(node.children[1], _POW)}"
            level = _POW
        elif op == "neg":
            text = f"-{render(node.children[0], _POW)}"
            level = _MUL
        else:
            return f"{op}({render(node.children[0], _ADD)})"
        return f"({text})" if level < context else text

    return render(expr, _ADD)


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


def recursive_parse(text: str, variable_names: Sequence[str],
                    constants: Mapping[str, float] | None = None) -> Expression:
    parser = _Parser(_tokenize(text), len(text), variable_names, constants)
    node = parser.additive()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return node


def recursive_rewrite_pow(base: Expression, exponent: Expression) -> Expression:
    if exponent.is_constant:
        if canon.same_constant(exponent.value, 1.0):
            return base
        if exponent.value == 0.0:
            return const(1.0)
    if exponent.is_constant and float(exponent.value).is_integer():
        if base.is_operator and base.op == "mul":
            return canon._rewrite("mul", *(canon._rewrite("pow", f, exponent) for f in base.children))
        if base.is_operator and base.op == "pow":
            inner_base, inner_exp = base.children
            return canon._rewrite("pow", inner_base, canon._rewrite("mul", inner_exp, exponent))
    return pow_(base, exponent)
