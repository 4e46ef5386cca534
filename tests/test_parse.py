import math

import pytest

from oracle import to_infix
from srsdkit.expr import ParseError, const, mul, op_node, parse, var


def test_product_of_two_variables():
    assert parse("mu * Nn", ["mu", "Nn"]) == mul(var(0), var(1))


def test_single_variable_identity():
    assert parse("x", ["x"]) == var(0)


def test_named_constant_and_pi_fold_at_parse_time():
    e = parse("q1/(4*pi*epsilon*r^2)", ["q1", "r"], {"epsilon": 8.854e-12})
    assert e.op == "div"  # raw tree keeps the division

    def consts(node, out):
        if node.is_constant:
            out.append(node.value)
        for c in node.children:
            consts(c, out)
        return out

    values = consts(e, [])
    assert math.pi in values
    assert 8.854e-12 in values


def test_pi_value():
    assert parse("pi", []) == const(math.pi)


def test_precedence_and_associativity():
    e = parse("1 + 2 * 3", [])
    assert e.op == "add"
    e = parse("2 ^ 3 ^ 2", [])  # right-assoc
    assert e.children[1].op == "pow"
    e = parse("8 / 4 / 2", [])  # left-assoc
    assert e.children[0].op == "div"
    e = parse("-x^2", ["x"])
    assert e.op == "neg" and e.children[0].op == "pow"


def test_scientific_literals():
    assert parse("8.854e-12", []) == const(8.854e-12)
    assert parse(".5", []) == const(0.5)
    assert parse("2e3", []) == const(2000.0)


def test_functions_parse_to_unary_nodes():
    for name in ("sin", "cos", "tan", "tanh", "exp", "log", "sqrt", "abs"):
        e = parse(f"{name}(x)", ["x"])
        assert e == op_node(name, var(0))


def test_unknown_identifier_reports_position():
    with pytest.raises(ParseError) as err:
        parse("a + boo", ["a"])
    assert err.value.position == 4


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse("1 + * 2", [])
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("sin(x", ["x"])
    with pytest.raises(ParseError):
        parse("", [])


def test_function_arity_mismatch():
    with pytest.raises(ParseError):
        parse("sin(x, y)", ["x", "y"])


def test_bad_character():
    with pytest.raises(ParseError):
        parse("x ? y", ["x", "y"])


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("x 2", ["x"])


def test_infix_round_trip():
    texts = [
        "mu * Nn",
        "q1/(4*pi*r^2)",
        "-m * g * cos(theta)",
        "1/(exp(x) - 1)",
        "(a + b)^2 / sqrt(a^2 + b^2)",
        "x^-2 + tanh(y)",
    ]
    for text in texts:
        names = ["mu", "Nn", "q1", "r", "m", "g", "theta", "x", "y", "a", "b"]
        e = parse(text, names)
        again = parse(to_infix(e, names), names)
        assert again == e


def test_infix_round_trip_preserves_canonical_form():
    # Rendering flattens n-ary nodes into left-associated chains, so the raw
    # reparse can differ in nesting; the canonical forms must coincide.
    import random

    from srsdkit.expr import canonicalize
    from gen_util import random_expression

    rng = random.Random(77)
    for _ in range(300):
        e = random_expression(rng)
        text = to_infix(e)
        back = parse(text, [f"x{i + 1}" for i in range(3)])
        assert canonicalize(back) == canonicalize(e), text


def test_infix_renders_negative_power_bases_safely():
    from srsdkit.expr import canonicalize, pow_

    e = pow_(op_node("neg", var(0)), const(2.0))
    text = to_infix(e, ["x"])
    assert parse(text, ["x"]) == e
    # A negative literal reparses as neg(positive literal); canonical forms
    # agree, and crucially the base stays parenthesized (no neg-of-pow flip).
    e2 = pow_(const(-2.0), const(3.0))
    assert canonicalize(parse(to_infix(e2), [])) == canonicalize(e2)
    assert to_infix(e2).startswith("(")
