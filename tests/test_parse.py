import math
import random
import sys

import pytest

from gen_util import random_raw_expression
from oracle import recursive_parse, to_infix
from srsdkit.catalog import builtin_problems
from srsdkit.expr import ExpressionError, ParseError, const, mul, op_node, parse, to_program, var


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


def _outcome(read, text, names, constants):
    """The tree ``read`` gives, or the error it raises."""
    try:
        return repr(read(text, names, constants))
    except ParseError as err:
        return ("ParseError", str(err), err.position)
    except ExpressionError as err:  # a literal that overflows to inf
        return ("ExpressionError", str(err))


# Every kind of token, including names that are not variables, operators the
# parser does not read as functions, and a character it rejects.
WORDS = ["x", "y", "k", "g", "big", "pi", "sin", "sqrt", "exp", "abs", "neg", "div", "zz",
         "2", "0.5", "1e3", ".5", "1e999", "3.", "+", "-", "-", "*", "/", "^", "(", "(", ")",
         ")", ",", "?"]


def _formula(rng, depth):
    """A random formula that mixes every precedence level."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(["x", "y", "k", "g", "pi", "2", "0.5", "3e-2"])
    pick = rng.random()
    if pick < 0.45:
        op = rng.choice(["+", "-", "*", "/", "^", " ^ ", " - "])
        return _formula(rng, depth - 1) + op + _formula(rng, depth - 1)
    if pick < 0.6:
        return "-" + _formula(rng, depth - 1)
    if pick < 0.8:
        return "(" + _formula(rng, depth - 1) + ")"
    return rng.choice(["sin", "sqrt", "exp", "abs"]) + "(" + _formula(rng, depth - 1) + ")"


def test_parse_matches_the_recursive_reference():
    names, constants = ["x", "y", "k"], {"g": 9.81, "big": 1e999}
    rng = random.Random(1804)
    texts = ["".join(rng.choice(WORDS) + rng.choice(["", "", " "])
                     for _ in range(rng.randint(1, 12))) for _ in range(10_000)]
    for _ in range(10_000):
        text = _formula(rng, rng.randint(1, 7))
        if rng.random() < 0.3:  # one character inserted or replaced
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice("()-,^*x ") + text[i + rng.randint(0, 1):]
        texts.append(text)
    outcomes = set()
    for text in texts:
        got = _outcome(parse, text, names, constants)
        assert got == _outcome(recursive_parse, text, names, constants), text
        outcomes.add(got[0] if type(got) is tuple else "tree")
    assert outcomes == {"tree", "ParseError", "ExpressionError"}
    for spec in builtin_problems():
        args = spec.formula, spec.variable_names, spec.constants
        assert repr(parse(*args)) == repr(recursive_parse(*args)) == repr(spec.expression)
    for _ in range(2000):
        e = random_raw_expression(rng, max_depth=6)
        assert repr(parse(to_infix(e), ["x1", "x2", "x3"])) \
            == repr(recursive_parse(to_infix(e), ["x1", "x2", "x3"]))


def test_deep_nesting_parses_at_the_default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert parse("(" * 100_000 + "x" + ")" * 100_000, ["x"]) == var(0)
        chain = parse("-" * 50_000 + "x^2", ["x"])
        assert to_program(chain)[:50_000] == to_program(op_node("neg", var(0)))[:1] * 50_000
        deep = parse("sin(" * 10_000 + "x" + ")" * 10_000, ["x"])
        assert len(to_program(deep)) == 10_001
        with pytest.raises(ParseError, match="unexpected end of input"):
            parse("(" * 100_000 + "x", ["x"])
    finally:
        sys.setrecursionlimit(limit)
