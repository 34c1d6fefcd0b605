import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokolmo.expressions import (_MAX_DEPTH, BinOp, Call,
                                  ExpressionDomainError,
                                  ExpressionSyntaxError, Neg, Num, Var,
                                  bind_tapes, compile_expression, expression_variables,
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
    "1e999",
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


# -- the tape against a node-by-node evaluation --------------------------------

def reference_eval(e, x):
    """Evaluate ``e`` node by node, recursively, at variable i bound to x[i]:
    the reference every tape must match bit for bit.  Constants stay Python
    floats, each node makes its own temporary, and each check sits where
    the node meets it: a denominator and its zero check before the
    numerator, an argument's check before ``ln``/``sqrt``, a result's after
    ``exp``/``^``."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return x[e.index]
    if isinstance(e, Neg):
        return -reference_eval(e.arg, x)
    label = format_expression(e)
    if isinstance(e, Call):
        v = reference_eval(e.arg, x)
        if e.fn == "exp":
            with np.errstate(over="ignore"):
                out = np.exp(v)
            if np.any(~np.isfinite(out)):
                raise ExpressionDomainError("exp overflow", label)
            return out
        if e.fn == "ln":
            if np.any(np.asarray(v) <= 0.0):
                raise ExpressionDomainError("ln of non-positive argument", label)
            return np.log(v)
        if np.any(np.asarray(v) < 0.0):
            raise ExpressionDomainError("sqrt of negative argument", label)
        return np.sqrt(v)
    if e.op == "/":
        den = reference_eval(e.right, x)
        if np.any(np.asarray(den) == 0.0):
            raise ExpressionDomainError("division by zero", label)
        return reference_eval(e.left, x) / den
    a, b = reference_eval(e.left, x), reference_eval(e.right, x)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.power(a, b)
    if np.any(~np.isfinite(out)):
        raise ExpressionDomainError("power outside real domain or overflow", label)
    return out


def outcome(fn, e, x):
    """The float64 bits of ``fn(e, x)`` broadcast over the inputs, or the
    message of the domain error it raised."""
    try:
        with np.errstate(all="ignore"):
            v = fn(e, x)
    except ExpressionDomainError as exc:
        return str(exc)
    shape = np.broadcast_shapes(*(np.shape(v) for v in x))
    return np.broadcast_to(np.asarray(v, dtype=float), shape).tobytes()


def tape_eval(e, x):
    return compile_expression(e)(x)


SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.25, 1e300, -1e300, 5e-324,
           -2.5e-310, 1e-308, math.inf, -math.inf, math.nan]


def special_trees(n_vars=3):
    """Trees over the constants the tape folds or drops (0, -0, 1) and
    others, so every identity and every constant fold turns up."""
    num = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 3.0, 1e308]).map(Num)
    leaf = st.one_of(num, st.integers(min_value=0, max_value=n_vars - 1).map(Var))

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(["exp", "ln", "sqrt"]), children).map(
                lambda t: Call(t[0], t[1])),
        )

    return st.recursive(leaf, extend, max_leaves=10)


@settings(max_examples=400, deadline=None)
@given(special_trees(),
       st.lists(st.lists(st.sampled_from(SPECIAL), min_size=6, max_size=6),
                min_size=3, max_size=3))
def test_tape_matches_node_by_node_evaluation_on_arrays(e, cols):
    # bits, signs of zero and nan positions included, or the same error
    x = [np.array(c) for c in cols]
    assert outcome(tape_eval, e, x) == outcome(reference_eval, e, x)


@settings(max_examples=300, deadline=None)
@given(special_trees(), st.lists(st.sampled_from(SPECIAL), min_size=3, max_size=3))
def test_tape_matches_node_by_node_evaluation_on_floats(e, x):
    assert outcome(tape_eval, e, x) == outcome(reference_eval, e, x)


def ufunc_steps(tape):
    return sum(isinstance(step.fn, np.ufunc) for step in tape.steps)


@pytest.mark.parametrize("text,ops", [
    ("x1 * 1", 0), ("1 * x1", 0), ("x1 - 0", 0), ("x1 + -0", 0), ("-0 + x1", 0),
    ("x1 - 0.5*0", 0),            # what restricting to a face leaves: x - (+0.0)
    ("x1 + -0.5*0", 0),           # and x + (-0.0)
    ("x1 * (3 - 2)", 0),
    ("2 * 3 * x1 - -(1 - 4)", 2),
    # kept: x + 0.0 turns -0.0 into 0.0, and 0 * x is nan at inf and nan
    ("x1 + 0", 1), ("x1 + (0.5*0 - 0.5*0)", 1), ("0 * x1", 1), ("x1 * 0", 1),
    ("-x1 - 0", 1), ("x1 / 1", 1), ("x1 ^ 1", 1),
])
def test_only_bit_exact_folds_are_made(text, ops):
    e = parse_expression(text, 1)
    tape = compile_expression(e)
    assert ufunc_steps(tape) == ops
    for x in ([np.array(SPECIAL)], [-0.0], [math.nan], [math.inf]):
        assert outcome(tape_eval, e, x) == outcome(reference_eval, e, x)


def test_constant_domain_errors_are_raised_by_evaluation():
    for text, message in (("x1 * ln(0)", "ln of non-positive argument"),
                          ("x1 / (1 - 1)", "division by zero"),
                          ("sqrt(-1) + x1", "sqrt of negative argument"),
                          ("x1 + exp(1000)", "exp overflow"),
                          ("x1 + 0 ^ -1", "power outside real domain")):
        tape = compile_expression(parse_expression(text, 1))
        with pytest.raises(ExpressionDomainError, match=message):
            tape([np.array([1.0, 2.0])])


def test_a_denominator_is_checked_before_its_numerator():
    e = parse_expression("ln(x1)/(x2 - x2)", 2)
    for x in ([-1.0, 3.0], [np.array([1.0, -1.0]), np.array([2.0, 0.5])]):
        with pytest.raises(ExpressionDomainError) as ei:
            compile_expression(e)(x)
        assert str(ei.value) == "division by zero in 'ln(x1) / (x2 - x2)'"
        assert outcome(tape_eval, e, x) == outcome(reference_eval, e, x)


def test_bound_tapes_follow_their_rows_in_place():
    # calls bound once see the variables' arrays change between runs
    e = parse_expression("x1 / (1 + x2) - exp(-x1)", 2)
    rows = np.array([[0.5, 1.0, -0.0], [2.0, 0.0, 1e-310]])
    out = np.empty((1, 3))
    calls = bind_tapes([compile_expression(e)], list(rows), out)
    for scale in (1.0, -3.0, 0.25):
        rows *= scale
        for call in calls:
            call()
        assert out[0].tobytes() == np.asarray(reference_eval(e, list(rows))).tobytes()
