import random
import sys

import pytest
from hypothesis import given, settings

from srsdkit.catalog import builtin_problems
from srsdkit.datagen import read_true_equation
from srsdkit.expr import (
    DecodeError,
    canonicalize,
    const,
    constant_values,
    count_ops,
    decode_preorder,
    expression_to_prefix,
    mul,
    op_node,
    parse,
    prefix_to_expression,
    skeletonize,
    var,
)
from srsdkit.expr.nodes import preorder
from srsdkit.treedist import edit_distance

from gen_util import expressions, random_expression
from oracle import recursive_skeletonize


def skel(text, names, consts=None):
    return skeletonize(canonicalize(parse(text, names, consts)))


def test_fig_style_constant_and_variable_replacement():
    # omega = 4*pi*mu*B/h with the Planck constant substituted: one folded
    # coefficient and two variables under a single product node.
    s = skel("4*pi*mu*B/h", ["mu", "B"], {"h": 6.626e-34})
    assert s[0] == "mul3"
    assert sorted(s[1:]) == ["C", "X1", "X2"]


def test_simple_product_skeleton():
    assert skel("3 * x", ["x"]) == ("mul2", "C", "X1")


def test_count_ops():
    assert count_ops(canonicalize(parse("3 * x", ["x"]))) == 1
    assert count_ops(canonicalize(parse("3", []))) == 0
    assert count_ops(canonicalize(parse("2 * x1 / x2^2", ["x1", "x2"]))) == 2


def test_node_count_recurrence():
    e = canonicalize(parse("a*b + sin(a)", ["a", "b"]))
    assert e.node_count() == 1 + sum(c.node_count() for c in e.children)
    assert len(skeletonize(e)) == e.node_count() == 6


def test_preorder_tokens_carry_arity_suffix():
    s = skel("c * x1 * x2", ["x1", "x2"], {"c": 2.5})
    assert s == ("mul3", "C", "X1", "X2")


def test_round_trip_examples():
    tokens = ["mul3", "2.5", "X1", "X2"]
    assert expression_to_prefix(prefix_to_expression(tokens)) == tokens
    assert skeletonize(prefix_to_expression(tokens)) == ("mul3", "C", "X1", "X2")


def _labels(tokens):
    """Decode ``tokens`` into nested (label, operands) tuples."""
    return decode_preorder(tokens, lambda token, position: token,
                           lambda label, *operands: (label, operands))


def test_decode_errors():
    for tokens, message in (([], "empty"), (["add2", "X1"], "truncated"),
                            (["X1", "X2"], "trailing"), (["add1", "X1"], "arity"),
                            (["frob"], "unknown")):
        with pytest.raises(DecodeError, match=message):
            _labels(tokens)
        with pytest.raises(DecodeError, match=message):
            edit_distance(tokens, ["X1"])
    # Only canonical operators decode, and variables count from X1.
    for tokens in (["div", "X1", "X2"], ["neg", "X1"], ["sqrt", "X1"], ["X0"], ["add2", "X1"]):
        with pytest.raises(DecodeError):
            _labels(tokens)
        with pytest.raises(DecodeError):
            edit_distance(["X1"], tokens)
        with pytest.raises(DecodeError):
            prefix_to_expression(tokens)


def test_numeric_tokens_decode_as_constants():
    assert _labels(["mul2", "9.807", "X1"]) == ("mul", ("9.807", "X1"))
    assert edit_distance(["mul2", "9.807", "X1"], skel("3 * x", ["x"])) == 0


@settings(max_examples=250, deadline=None)
@given(expressions())
def test_serialization_round_trip(e):
    e = canonicalize(e)
    s = skeletonize(e)
    assert skeletonize(prefix_to_expression(expression_to_prefix(e))) == s
    assert edit_distance(s, s) == 0


def test_valued_prefix_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        e = canonicalize(random_expression(rng))
        tokens = expression_to_prefix(e)
        assert prefix_to_expression(tokens) == e


def test_valued_prefix_rejects_bare_c():
    with pytest.raises(DecodeError):
        prefix_to_expression(["mul2", "C", "X1"])


def test_constant_table_rebuilds_expression(tmp_path):
    e = canonicalize(parse("2.5 * x1 / x2^1.5", ["x1", "x2"]))
    tokens = skeletonize(e)
    values = constant_values(e)
    path = tmp_path / "true_eq.txt"

    def rebuild(table):
        path.write_text(" ".join(tokens) + "\n" + " ".join(map(repr, table)) + "\n")
        return read_true_equation(path)

    assert rebuild(values) == e
    with pytest.raises(DecodeError, match="longer"):
        rebuild(values + [1.0])
    with pytest.raises(DecodeError, match="shorter"):
        rebuild(values[:-1])


def test_deep_chain_decodes_without_recursion():
    tokens = ["sin"] * 3000 + ["X1"]
    assert skeletonize(prefix_to_expression(tokens)) == tuple(tokens)
    assert expression_to_prefix(prefix_to_expression(tokens)) == tokens
    assert edit_distance(tokens, ["X1"]) == 3000


def test_skeletonize_matches_recursive_reference():
    trees = [spec.canonical_expression for spec in builtin_problems()]
    rng = random.Random(11)
    trees += [canonicalize(random_expression(rng, max_depth=6)) for _ in range(1000)]
    for e in trees:
        assert skeletonize(e) == recursive_skeletonize(e), e


def test_tree_walks_handle_a_deep_chain(tmp_path):
    depth = 3000
    e = mul(const(2.5), var(1))
    for _ in range(depth):
        e = op_node("sin", e)
    tokens = ["sin"] * depth + ["mul2", "C", "X2"]
    path = tmp_path / "true_eq.txt"
    path.write_text(" ".join(tokens) + "\n2.5\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert sum(1 for _ in preorder(e)) == depth + 3
        assert e.node_count() == depth + 3
        assert e.variables() == {1}
        assert count_ops(e) == depth + 1
        assert constant_values(e) == [2.5]
        s = skeletonize(e)
        assert s == tuple(tokens)
        assert expression_to_prefix(e) == tokens[:-2] + ["2.5", "X2"]
        assert expression_to_prefix(read_true_equation(path)) == expression_to_prefix(e)
        assert edit_distance(s, ["X2"]) == depth + 2
    finally:
        sys.setrecursionlimit(limit)
