import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokolmo.expressions import (_MAX_DEPTH, BinOp, Call,
                                  ExpressionDomainError,
                                  ExpressionSyntaxError, Neg, Num, Var,
                                  compile_expression, expression_variables,
                                  format_expression, parse_expression,
                                  substitute_zero_and_remap)


def ev(text, x, n=None):
    return compile_expression(parse_expression(text, n or len(x)))(x)


def test_arithmetic_and_precedence():
    assert ev("2 + 3 * 4", [0.0]) == 14.0
    assert ev("(2 + 3) * 4", [0.0]) == 20.0
    assert ev("2 - 3 - 4", [0.0]) == -5.0          # left assoc
    assert ev("12 / 4 / 3", [0.0]) == 1.0
    assert ev("2 ^ 3 ^ 2", [0.0]) == 512.0         # right assoc
    assert ev("2 ** 3", [0.0]) == 8.0
    assert ev("-x1 ^ 2", [3.0]) == -9.0            # unary minus binds looser than ^


def test_variables_and_functions():
    assert ev("x1 + 2 * x2", [1.0, 4.0]) == 9.0
    assert ev("exp(0)", [0.0]) == 1.0
    assert math.isclose(ev("ln(exp(2.5))", [0.0]), 2.5)
    assert ev("sqrt(x1)", [16.0]) == 4.0


def test_broadcasts_over_arrays():
    x = [np.array([1.0, 4.0, 9.0])]
    out = ev("sqrt(x1) + 1", x)
    assert np.array_equal(out, np.array([2.0, 3.0, 4.0]))


@pytest.mark.parametrize("bad", [
    "", "2 +", "(1", "1 )", "x0", "x3", "foo(1)", "1 @ 2", "2..5", "x1 x2",
])
def test_syntax_errors_carry_offset(bad):
    with pytest.raises(ExpressionSyntaxError) as ei:
        parse_expression(bad, 2)
    assert ei.value.offset >= 0


@pytest.mark.parametrize("expr,x", [
    ("1 / x1", [0.0]),
    ("ln(x1 - 2)", [1.0]),
    ("sqrt(-x1)", [1.0]),
    ("exp(x1)", [1e6]),            # overflow -> non-finite intermediate
])
def test_domain_errors_name_the_subexpression(expr, x):
    e = parse_expression(expr, 1)
    with pytest.raises(ExpressionDomainError) as ei:
        compile_expression(e)(x)
    assert ei.value.subexpression


def test_domain_error_is_elementwise_aware():
    # one bad lane in an array input must still raise
    e = parse_expression("ln(x1)", 1)
    with pytest.raises(ExpressionDomainError):
        compile_expression(e)([np.array([1.0, -1.0])])


def test_compile_matches_hand_written_lambdas():
    cases = [
        ("x1 * exp(-x2) + x2 ^ 2 / (1 + x1)",
         lambda a, b: a * math.exp(-b) + b ** 2 / (1 + a)),
        ("-x1 ^ 2 - x2 / 2 / x1", lambda a, b: -(a ** 2) - b / 2 / a),
        ("sqrt(x1) * ln(1 + x2) - 3", lambda a, b: math.sqrt(a) * math.log(1 + b) - 3),
        ("2 ^ -x2 + (x1 - x2) * x1", lambda a, b: 2 ** -b + (a - b) * a),
    ]
    for text, by_hand in cases:
        fn = compile_expression(parse_expression(text, 2))
        for x in ([0.5, 0.25], [2.0, 3.0], [10.0, 0.0]):
            assert math.isclose(fn(x), by_hand(*x), rel_tol=1e-15), (text, x)


def test_substitute_zero_and_remap():
    # kill x2, keep (x1, x3) -> (x1, x2)
    e = parse_expression("x1 + 2 * x2 + x3 ^ 2", 3)
    r = substitute_zero_and_remap(e, keep=[0, 2])
    assert compile_expression(r)([5.0, 3.0]) == 5.0 + 9.0
    assert expression_variables(r) == {0, 1}


def test_expression_variables():
    e = parse_expression("x3 * (1 + x1)", 4)
    assert expression_variables(e) == {0, 2}


# -- round-trip property ----------------------------------------------------

def exprs(n_vars=3, depth=4):
    leaf = st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Num),
        st.integers(min_value=0, max_value=n_vars - 1).map(Var),
    )

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(["exp", "ln", "sqrt"]), children).map(
                lambda t: Call(t[0], t[1])),
        )

    return st.recursive(leaf, extend, max_leaves=depth * 2)


@settings(max_examples=200, deadline=None)
@given(exprs())
def test_format_parse_round_trip(e):
    text = format_expression(e)
    assert parse_expression(text, 3) == e


@settings(max_examples=100, deadline=None)
@given(exprs(), st.lists(st.floats(min_value=0.01, max_value=10.0),
                         min_size=3, max_size=3))
def test_round_trip_preserves_value(e, x):
    text = format_expression(e)
    try:
        a = compile_expression(e)(x)
    except ExpressionDomainError:
        with pytest.raises(ExpressionDomainError):
            compile_expression(parse_expression(text, 3))(x)
        return
    b = compile_expression(parse_expression(text, 3))(x)
    assert a == b


# -- nesting depth ------------------------------------------------------------
# Each input is as deep as asked, in levels: a level is a node, a pair of
# parentheses or a unary plus.  Values are at x1 = 2.

def _nested(levels):
    return {
        "parentheses": ("(" * (levels - 1) + "x1" + ")" * (levels - 1), 2.0),
        "unary minus": ("-" * (levels - 1) + "x1", (-1) ** (levels - 1) * 2.0),
        "flat sum": (" + ".join(["x1"] * levels), 2.0 * levels),
        "power tower": (" ^ ".join(["2"] + ["1"] * (levels - 1)), 2.0),
    }


def _bare(text):
    return text.replace(" ", "").replace("(", "").replace(")", "")


@pytest.mark.parametrize("shape", list(_nested(3)))
def test_depth_at_the_limit_parses_compiles_and_formats(shape):
    text, value = _nested(_MAX_DEPTH)[shape]
    e = parse_expression(text, 1)
    assert compile_expression(e)([2.0]) == value
    assert _bare(format_expression(e)) == _bare(text)


@pytest.mark.parametrize("text", [
    "-" * 199 + "x1",          # 200 levels
    "2" + " ^ -1" * 99,        # 199 levels
], ids=["unary minus", "signed power tower"])
def test_echo_of_a_deep_tree_parses_back(text):
    e = parse_expression(text, 1)
    assert parse_expression(format_expression(e), 1) == e


@pytest.mark.parametrize("shape", list(_nested(3)))
def test_depth_over_the_limit_is_a_syntax_error(shape):
    text, _ = _nested(_MAX_DEPTH + 1)[shape]
    with pytest.raises(ExpressionSyntaxError) as ei:
        parse_expression(text, 1)
    assert "nested deeper than" in str(ei.value)
    assert 0 < ei.value.offset < len(text)
