"""Expression engine: parsing, evaluation, calculus, quadrature."""

import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocmc import holo
from isocmc.holo import (
    Add,
    Constant,
    Cos,
    Cosh,
    Div,
    Exp,
    IntPow,
    Mul,
    Neg,
    NonFiniteError,
    ParseError,
    QuadratureError,
    Sin,
    SingularityError,
    Sinh,
    Sub,
    Variable,
    antiderivative,
    contour_integral,
    derivative,
    evaluate,
    parse,
    to_text,
)

from util_expr import random_expr, random_integrable, reference_antiderivative

Z = Variable("z")


# ---------------------------------------------------------------------------
# parsing


def test_parse_power_minus_one():
    assert parse("z^2 - 1") == Sub(IntPow(Z, 2), Constant(1))


def test_parse_folds_constant_subtrees():
    assert parse("exp(z)*(2+3*i)") == Mul(Exp(Z), Constant(2 + 3j))
    assert parse("(1+2*i)*z") == Mul(Constant(1 + 2j), Z)


def test_parse_precedence():
    assert parse("1+2*z") == holo.add(Constant(1), Mul(Constant(2), Z))
    # exponent binds tighter than unary minus
    assert parse("-z^2") == Neg(IntPow(Z, 2))
    assert parse("z^-2") == IntPow(Z, -2)


def test_parse_real_mode():
    e = parse("x^2 + y^2")
    assert holo.variables(e) == {"x", "y"}


@pytest.mark.parametrize(
    "src,offset",
    [
        ("2*^3", 2),
        ("(z", 2),
        ("z^1.5", 2),
        ("z + x", 0),
        ("foo(z)", 0),
        ("z +", 3),
        ("z^(2", 4),
        ("", 0),
    ],
)
def test_parse_errors_carry_offsets(src, offset):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "src, message, offset",
    [
        ("z # 1", "unexpected character '#'", 2),
        ("z\u00a0+ $", "unexpected character '$'", 4),
        ("2z", "unexpected trailing input 'z'", 1),
        ("(z))", "unexpected trailing input ')'", 3),
        ("foo(z)", "unknown identifier 'foo'", 0),
        ("2 * zz", "unknown identifier 'zz'", 4),
        ("(z", "expected ')', found 'end of input'", 2),
        ("exp(z z)", "expected ')', found 'z'", 6),
        ("exp z", "expected '(', found 'z'", 4),
        ("z^(2", "expected ')', found 'end of input'", 4),
        ("z^z", "expected an integer exponent", 2),
        ("z^-(2)", "expected an integer exponent", 3),
        ("z^1.5", "non-integer exponent 1.5", 2),
        ("z^(-2.5e-1)", "non-integer exponent 2.5e-1", 4),
        ("z^(-1e400)", "non-finite exponent 1e400", 4),
        ("1e400", "constant leaves the float range", 0),
        ("z + -1e400", "constant leaves the float range", 5),
        ("1e200*1e200", "constant leaves the float range", 5),
        ("z - (1e308 + 1e308)", "constant leaves the float range", 11),
        ("1e308 / 1e-10 * z", "constant leaves the float range", 6),
        ("", "expected a value, found 'end of input'", 0),
        ("z+", "expected a value, found 'end of input'", 2),
        ("*z", "expected a value, found '*'", 0),
        ("z + x", "an expression may use either z or x/y, not both", 0),
    ],
)
def test_parse_error_messages(src, message, offset):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == f"{message} (offset {offset})"
    assert err.value.offset == offset


def test_parse_takes_unicode_spaces_and_digits():
    assert parse("z + 1") == Add(Z, Constant(1))
    assert parse("\u00a0z\t+\n1 ") == Add(Z, Constant(1))
    assert parse("\u0663*z") == Mul(Constant(3), Z)  # ARABIC-INDIC DIGIT THREE


# Pieces of the grammar's alphabet, a few of them outside it.
PIECES = list("0123456789.eE+-*/^()zxyi ") + [
    "exp(", "sin(", "cosh(", "1e3", "\u00a0", "\t", "\u0663", "#", "_", "q",
]


@given(st.lists(st.sampled_from(PIECES), max_size=24).map("".join))
@settings(max_examples=400, deadline=None)
def test_parse_round_trips_or_names_an_offset(src):
    try:
        tree = parse(src)
    except ParseError as err:
        assert 0 <= err.offset <= len(src)
        return
    assert parse(to_text(tree)) == tree


def test_parse_non_integer_exponent_message():
    with pytest.raises(ParseError, match="non-integer exponent"):
        parse("z^(1.5)")


def test_parse_rejects_mixed_modes():
    with pytest.raises(ParseError, match="either z or x/y"):
        parse("z * x")


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_identity():
    assert evaluate(parse("z"), {"z": 3 + 4j}) == 3 + 4j


def test_evaluate_euler_identity():
    val = evaluate(parse("exp(z)"), {"z": 1j * math.pi})
    assert abs(val - (-1.0)) < 1e-15


def test_evaluate_square():
    assert evaluate(parse("z^2"), {"z": 1 + 1j}) == 2j


def test_evaluate_array_matches_scalar():
    rng = np.random.default_rng(7)
    pts = (rng.normal(size=20) + 1j * rng.normal(size=20)).astype(np.complex128)
    for seed in range(10):
        e = random_expr(np.random.default_rng(seed), 4, "z")
        try:
            arr = evaluate(e, {"z": pts})
        except holo.ExpressionError:
            continue
        assert arr.shape == pts.shape and arr.dtype == np.complex128
        for k in (0, 7, 19):
            assert abs(arr[k] - evaluate(e, {"z": complex(pts[k])})) <= 1e-9 * (
                1 + abs(arr[k])
            )


def test_evaluate_real_mode_arrays():
    e = parse("x^2 + y^2")
    x = np.array([[0.0, 1.0], [2.0, 3.0]])
    y = np.array([[1.0, 0.0], [1.0, 2.0]])
    out = evaluate(e, {"x": x, "y": y})
    np.testing.assert_allclose(out.real, x * x + y * y)


def test_evaluate_constant_broadcasts_to_array_shape():
    out = evaluate(parse("2"), {"z": np.zeros((3, 4))})
    assert out.shape == (3, 4)
    assert np.all(out == 2.0 + 0j)


def test_evaluate_missing_variable():
    with pytest.raises(ValueError, match="no value supplied"):
        evaluate(parse("z"), {})


def test_evaluate_shape_mismatch():
    with pytest.raises(ValueError, match="one shape"):
        evaluate(parse("x+y"), {"x": np.zeros(3), "y": np.zeros(4)})


def test_division_by_zero_is_an_error():
    with pytest.raises(SingularityError):
        evaluate(parse("1/z"), {"z": 0.0})
    with pytest.raises(SingularityError):
        evaluate(parse("1/z"), {"z": np.array([1.0, 0.0, 2.0])})
    with pytest.raises(SingularityError):
        evaluate(parse("z^-1"), {"z": 0.0})


def test_overflow_is_an_error_not_inf():
    with pytest.raises(NonFiniteError):
        evaluate(parse("exp(z)"), {"z": 1000.0})


# ---------------------------------------------------------------------------
# derivative


def test_derivative_power_rule():
    assert derivative(parse("z^3")) == parse("3*z^2")


def test_derivative_linearity():
    assert derivative(parse("z^2 - 1")) == parse("2*z")


def test_derivative_chain_rule_exp():
    d = derivative(parse("exp(2*z)"))
    assert d == Mul(Exp(parse("2*z")), Constant(2))
    # same function as 2*exp(2*z)
    for z in (0.3 + 0.1j, -1.2j, 0.5):
        assert abs(evaluate(d, {"z": z}) - 2 * np.exp(2 * z)) < 1e-12


@pytest.mark.parametrize(
    "src",
    [
        "exp(z)",
        "sin(z)",
        "cos(2*z)",
        "sinh(z)",
        "cosh(z)^2",
        "z^3 - 2*z + 1",
        "exp(z)*sin(z)",
        "1/(z+3)",
        "z^-2",
    ],
)
def test_derivative_matches_finite_difference(src):
    e = parse(src)
    d = derivative(e)
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(5):
        z = complex(rng.normal(), rng.normal()) * 0.7
        fd = (evaluate(e, {"z": z + h}) - evaluate(e, {"z": z - h})) / (2 * h)
        exact = evaluate(d, {"z": z})
        assert abs(fd - exact) < 1e-6 * (1 + abs(exact))


def test_derivative_rejects_real_mode():
    with pytest.raises(ValueError, match="z only"):
        derivative(parse("x^2"))


# ---------------------------------------------------------------------------
# antiderivative


def test_antiderivative_power_rule():
    primitive = antiderivative(parse("z^2"))
    assert primitive is not None
    assert evaluate(primitive, {"z": 0.0}) == 0
    assert abs(evaluate(primitive, {"z": 2.0}) - 8.0 / 3.0) < 1e-14


def test_antiderivative_exp_normalized_at_zero():
    primitive = antiderivative(parse("exp(z)"))
    assert primitive is not None
    assert evaluate(primitive, {"z": 0.0}) == 0
    assert abs(evaluate(primitive, {"z": 1.0}) - (math.e - 1)) < 1e-14


def test_antiderivative_handles_linear_arguments():
    primitive = antiderivative(parse("cos(3*z - 1)"))
    assert primitive is not None
    assert abs(evaluate(primitive, {"z": 0.0})) == 0
    d = derivative(primitive)
    for z in (0.0, 0.4 - 0.2j, 1.1j):
        assert abs(evaluate(d, {"z": z}) - np.cos(3 * z - 1)) < 1e-12


def test_antiderivative_handles_general_polynomial_trees():
    # z*z and (z+1)^3 are polynomials even though no node is a monomial;
    # the 13th power takes both the squaring and the multiplying step
    for src, check in [
        ("z*z", lambda z: z**3 / 3),
        ("(z+1)^3", None),
        ("(0.5*z-1)^13", lambda z: ((0.5 * z - 1) ** 14 - 1) / 7),
    ]:
        primitive = antiderivative(parse(src))
        assert primitive is not None
        if check is not None:
            assert abs(evaluate(primitive, {"z": 1.5}) - check(1.5)) < 1e-13


@pytest.mark.parametrize("src", ["exp(z^2)", "1/z", "sin(z)*z", "exp(exp(z))", "z^-1"])
def test_antiderivative_outside_class_returns_none(src):
    assert antiderivative(parse(src)) is None


def test_antiderivative_roundtrip_on_random_class_members():
    rng = np.random.default_rng(20260819)
    pts = (rng.normal(size=100) + 1j * rng.normal(size=100)) * 0.8
    for seed in range(20):
        e = random_integrable(np.random.default_rng(seed))
        primitive = antiderivative(e)
        assert primitive is not None
        assert evaluate(primitive, {"z": 0.0}) == 0
        back = evaluate(derivative(primitive), {"z": pts})
        want = evaluate(e, {"z": pts})
        np.testing.assert_allclose(back, want, rtol=1e-9, atol=1e-9)


HALF, TWO = Constant(0.5), Constant(2)


@pytest.mark.parametrize(
    "name, d_dz, primitive",
    [
        ("exp", lambda u: Mul(Exp(u), TWO), lambda u: Mul(Mul(HALF, Exp(u)), TWO)),
        ("sin", lambda u: Mul(Cos(u), TWO), lambda u: Mul(Mul(HALF, Sin(u)), TWO)),
        ("cos", lambda u: Neg(Mul(Sin(u), TWO)), lambda u: Neg(Mul(Neg(Mul(HALF, Cos(u))), TWO))),
        ("sinh", lambda u: Mul(Cosh(u), TWO), lambda u: Mul(Mul(HALF, Sinh(u)), TWO)),
        ("cosh", lambda u: Mul(Sinh(u), TWO), lambda u: Mul(Mul(HALF, Cosh(u)), TWO)),
    ],
    ids=["exp", "sin", "cos", "sinh", "cosh"],
)
def test_entire_function_calculus_trees(name, d_dz, primitive):
    u = parse("2*z+1")
    f = parse(f"{name}({to_text(u)})")
    d = derivative(f)
    assert d == d_dz(u)
    # the primitive of the derivative, shifted so that it vanishes at 0
    body = primitive(u)
    assert antiderivative(d) == Sub(body, Constant(evaluate(body, {"z": 0j})))
    # a constant argument integrates to f(c) * z
    c = parse(f"{name}(2)")
    assert antiderivative(c) == Mul(Constant(getattr(np, name)(2 + 0j)), Z)
    # equal arguments do not make different functions equal
    node = type(f)
    assert all(node(Z) != other(Z) for other in (Exp, Sin, Cos, Sinh, Cosh) if other is not node)
    assert node(Z) == node(Z) and hash(node(Z)) == hash(node(Z))
    assert repr(node(Z)) == f"{node.__name__}(arg=Variable(tag='z'))"
    assert to_text(node(Z)) == f"{name}(z)"


@pytest.mark.parametrize("node, symbol, op", [
    (Add, "+", lambda a, b: a + b),
    (Sub, "-", lambda a, b: a - b),
    (Mul, "*", lambda a, b: a * b),
    (Div, "/", lambda a, b: a / b),
])
def test_binary_nodes_compare_by_class_and_operands(node, symbol, op):
    two = Constant(2)
    # equal operands do not make different operations equal
    assert all(node(Z, two) != other(Z, two) for other in (Add, Sub, Mul, Div) if other is not node)
    assert node(Z, two) == node(Z, two) and hash(node(Z, two)) == hash(node(Z, two))
    assert node(Z, two) != node(two, Z)
    assert repr(node(Z, two)) == (
        f"{node.__name__}(left=Variable(tag='z'), right=Constant(value=(2+0j)))"
    )
    assert to_text(node(Z, two)) == f"(z{symbol}2.0)"
    assert evaluate(node(Z, two), {"z": 3 + 1j}) == op(3 + 1j, 2)
    with pytest.raises(AttributeError):
        node(Z, two).left = two


def test_antiderivative_of_a_huge_monomial():
    # z^n maps to its coefficient list directly, not through n convolutions
    primitive = antiderivative(parse("z^20000"))
    assert primitive == Mul(Constant(1 / 20001), IntPow(Z, 20001))  # expanded, not Div
    for z in (0.5, 1.0, -1.0):
        assert evaluate(primitive, {"z": z}) == pytest.approx(z**20001 / 20001, rel=1e-12)


def test_polynomials_past_the_term_cap():
    z = Variable("z")
    # up to MAX_POLY_TERMS nonzero terms the primitive is the expanded sum
    assert isinstance(antiderivative(parse("(z^2+1)^127")), holo.Add)
    # but a power of a*z + b, b != 0, takes (a*z+b)^(n+1) / (a*(n+1)) directly,
    # since its expanded sum cancels away every digit
    below = antiderivative(parse(f"(z+1)^{holo.MAX_POLY_TERMS - 1}"))
    assert below == Sub(holo.Div(IntPow(parse("z+1"), 256), Constant(256)), Constant(1 / 256))
    assert evaluate(below, {"z": -1.0}) == -1 / 256
    # and so does one past the cap
    base = parse("z/2+0.5")
    past = antiderivative(IntPow(base, 300))
    assert past == Sub(
        holo.Div(IntPow(base, 301), Constant(150.5)), Constant(0.5**301 / 150.5)
    )
    for p in (0.5, 1.0 + 1j, -2.0):
        want = ((p / 2 + 0.5) ** 301 - 0.5**301) / 150.5
        assert evaluate(past, {"z": p}) == pytest.approx(want, rel=1e-12)
    # other bases past the cap are left to quadrature
    assert antiderivative(parse("(z^2+1)^300")) is None
    assert antiderivative(IntPow(z, 20000)) is not None  # one term


def coefficients(src):
    """The coefficient list holo.antiderivative works out for the tree of src."""
    return holo._coeffs(parse(src), {})


def test_powers_past_the_degree_cap_are_not_expanded():
    n = holo.MAX_POLY_DEGREE
    assert len(coefficients(f"z^{n}")) == n + 1
    assert len(coefficients(f"(i*z)^{n // 2}*z^{n // 2}")) == n + 1
    for src in (f"z^{n + 1}", f"(z^2+1)^{n // 2 + 1}", f"z^{n}*z", "z^100000000", "(i*z)^1e30"):
        assert coefficients(src) is None
    # a huge power of a*z takes its direct primitive z^(n+1) / (a*(n+1))
    assert antiderivative(parse("z^100000000")) == holo.Div(IntPow(Z, 100000001), Constant(100000001))
    n = int(1e30)
    assert antiderivative(parse("(2*z)^1e30")) == holo.Div(
        IntPow(parse("2*z"), n + 1), Constant(2 * (n + 1))
    )
    # and the sum of one with a polynomial integrates term by term
    m = holo.MAX_POLY_DEGREE + 1
    assert antiderivative(parse(f"z^{m}+z")) == Add(
        holo.Div(IntPow(Z, m + 1), Constant(m + 1)), Mul(Constant(0.5), IntPow(Z, 2))
    )


def nodes(e):
    """Every node of the tree e, each once, on a stack of its own."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in vars(node).values() if isinstance(c, holo.Expr))


# Expression text over the cases the calculus branches on: shifted and plain powers,
# negative powers, constants near both ends of the float range and the entire functions.
EXPRESSION_TEXT = st.recursive(
    st.sampled_from(
        ["z", "(z+1)", "(0.5*z-2*i)", "1", "2", "0.5", "i", "1e200", "1e-200", "1e300", "1e160"]
    ),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({''.join(t)})"),
        st.tuples(inner, st.sampled_from(["0", "1", "2", "3", "-1", "-2", "13", "300"])).map(
            lambda t: f"({t[0]})^{t[1]}"
        ),
        st.tuples(st.sampled_from(["exp", "sin", "cos", "sinh", "cosh", "-"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
    ),
    max_leaves=12,
)


@given(EXPRESSION_TEXT)
@settings(max_examples=400, deadline=None)
def test_antiderivative_builds_the_reference_trees(src):
    # the one-pass calculus against the four helpers it replaced; the one difference is
    # that a negative constant power past the float range is no polynomial now, where
    # the reference raised (or leaked a nan into its tree, which evaluation named; or,
    # for a power of a base that underflows, let Python's ZeroDivisionError out), so
    # the new code returns None, or names the overflow of a later constant function
    try:
        e = parse(src)
    except ParseError:  # a constant folded past the float range
        return

    def outcome(integrate):
        try:
            tree = integrate(e)
        except (holo.ExpressionError, ZeroDivisionError) as err:
            return type(err), str(err)
        return tree, None if tree is None else to_text(tree)  # the text tells -0.0 from 0.0

    new, reference = outcome(antiderivative), outcome(reference_antiderivative)
    if new != reference:
        assert new == (None, None) or new[0] is NonFiniteError
        assert reference[0] in (NonFiniteError, ZeroDivisionError)
        assert any(isinstance(node, IntPow) and node.n < 0 for node in nodes(e))


def test_an_overflowing_negative_constant_power_is_no_polynomial():
    # (1e200)^-2 does not fold, since Python's complex power gives nan for it, and the
    # reference leaked that nan into the primitive as (nan*z); for 0.5^-1100 it raised,
    # and (1e-10)^-50, whose power raised ZeroDivisionError, did not even parse
    e = parse("((1e200)^-2)^-2")
    assert antiderivative(e) is None
    with pytest.raises(NonFiniteError):
        reference_antiderivative(e)
    for src in ("((1e200)^-2)^-2", "0.5^-1100", "(1e-10)^-50"):
        assert antiderivative(parse(src)) is None
        with pytest.raises(NonFiniteError, match="overflowed"):
            evaluate(parse(src), {"z": 0j})


def spy_on_coeffs(monkeypatch) -> Counter:
    """How often holo._coeffs works out each node's list (by id), memo hits not counted."""
    worked_out, coeffs = Counter(), holo._coeffs

    def spy(node, memo):
        worked_out[id(node)] += id(node) not in memo
        return coeffs(node, memo)

    monkeypatch.setattr(holo, "_coeffs", spy)
    return worked_out


def test_antiderivative_works_out_each_nodes_facts_once(monkeypatch):
    e = parse("+".join(["z*exp(z)"] * 400))
    worked_out = spy_on_coeffs(monkeypatch)
    assert antiderivative(e) is None  # z*exp(z) has no closed form here
    # every node's list once, but for the arguments of exp: no rule reads those
    arguments = {id(node.arg) for node in nodes(e) if isinstance(node, holo.Exp)}
    assert set(worked_out) == {id(node) for node in nodes(e)} - arguments
    assert set(worked_out.values()) == {1}


@pytest.mark.parametrize("terms", [1, 5])
def test_antiderivative_expands_no_list_that_no_rule_reads(monkeypatch, terms):
    # a quotient by a non-constant denominator is no polynomial, whatever its
    # numerator, so the 201 terms of (z^100+1)^200 are never expanded
    e = parse("+".join(["(z^100+1)^200/z"] * terms))
    worked_out = spy_on_coeffs(monkeypatch)
    assert antiderivative(e) is None
    powers = [node for node in nodes(e) if isinstance(node, IntPow) and node.n == 200]
    assert len(powers) == terms
    assert not {id(p) for p in powers} & set(worked_out)
    if terms > 1:  # a sum asks whether a term holds a power of a*z+b: that reads z^100+1
        assert {id(p.base) for p in powers} <= set(worked_out)
    else:
        assert set(worked_out) == {id(e)}


def test_antiderivative_bounds_the_expansion_work_of_one_call(monkeypatch):
    # exp((z^100+k)^200) asks whether its argument is a*z+b, and that expands the power
    # to degree 20000; past holo.MAX_POLY_WORK multiply-adds a call expands no further,
    # so a sum of 20 such terms costs about what one term does
    def best_time(terms):
        e = parse("+".join(f"exp((z^100+{k})^200)" for k in range(1, terms + 1)))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert antiderivative(e) is None
            times.append(time.perf_counter() - start)
        return min(times)

    assert best_time(20) <= 2 * best_time(1)
    # one power at the degree cap is still expanded within the budget
    assert isinstance(antiderivative(parse("(z^100+1)^200")), holo.Add)
    work, convolve = [], np.convolve
    monkeypatch.setattr(np, "convolve", lambda a, b: work.append(len(a) * len(b)) or convolve(a, b))
    antiderivative(parse("+".join(f"exp((z^100+{k})^200)" for k in range(1, 21))))
    assert holo.MAX_POLY_WORK / 2 < sum(work) <= holo.MAX_POLY_WORK


# ---------------------------------------------------------------------------
# contours and quadrature


def test_contour_validation():
    with pytest.raises(ValueError, match="distinct"):
        contour_integral([parse("z")], 1.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        contour_integral([parse("z")], 0.0, complex("inf"))


def test_contour_integral_exp_to_ipi():
    val = contour_integral([parse("exp(z)")], 0.0, 1j * math.pi)
    assert val.shape == (1,) and val.dtype == np.complex128
    assert abs(val[0] - (-2.0)) < 1e-10


def test_contour_integral_linear():
    val = contour_integral([parse("z")], 0.0, 1 + 1j)[0]
    assert abs(val - 1j) < 1e-12


def test_contour_integral_square():
    val = contour_integral([parse("z^2")], 0.0, 2.0)[0]
    assert abs(val - 8.0 / 3.0) < 1e-12


def along_polyline(exprs, waypoints, tol=holo.DEFAULT_QUAD_TOL):
    """Integrals of each expression along the polyline: the sum over its segments."""
    ends = np.array(waypoints, dtype=complex)
    return contour_integral(exprs, ends[:-1], ends[1:], tol).sum(axis=1)


def test_contour_integral_closed_loop():
    # winding integral of 1/z around the unit square
    val = along_polyline([parse("1/z")], (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j))[0]
    assert abs(val - 2j * math.pi) < 1e-10


def test_contour_integral_against_simpson_oracle():
    # no symbolic antiderivative exists for exp(z^2); check quadrature
    # against a dense composite Simpson rule on [0, 1]
    val = contour_integral([parse("exp(z^2)")], 0.0, 1.0)[0]
    assert abs(val - 1.4626517459071815) < 1e-10
    n = 1_000_000
    t = np.linspace(0.0, 1.0, n + 1)
    f = np.exp(t * t)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    simpson = (1.0 / n) / 3.0 * float(np.dot(w, f))
    assert abs(val - simpson) < 1e-9


def test_contour_integral_path_independence():
    e = [parse("exp(z^2)")]
    tol = 1e-10
    direct = contour_integral(e, 0.0, 1 + 1j, tol)[0]
    dogleg = along_polyline(e, (0.0, 1.0, 1 + 1j), tol)[0]
    assert abs(direct - dogleg) <= 2 * tol


def test_contour_integral_panel_budget(monkeypatch):
    monkeypatch.setattr(holo, "MAX_PANELS", 2)
    with pytest.raises(QuadratureError, match="not reached within 2 panels"):
        contour_integral([parse("sin(20*z)")], 0.0, 10.0)


def test_contour_integral_converges_on_huge_integrands():
    # (z^2+1)^300 reaches 5^150 ~ 1e105 on the path: no panel meets the absolute
    # 1e-10, so panels are accepted on holo.QUAD_REL_TOL of their own value
    e = parse("(z^2+1)^300")
    assert antiderivative(e) is None  # 301 terms, past MAX_POLY_TERMS
    # exact primitive sum_k C(300, k) z^(2k+1) / (2k+1) at z = 1 + i, where z^2 = 2i
    terms = [Fraction(math.comb(300, k) * 2**k, 2 * k + 1) for k in range(301)]
    re = sum(terms[0::4]) - sum(terms[2::4])  # i^k = 1, -1
    im = sum(terms[1::4]) - sum(terms[3::4])  # i^k = i, -i
    exact = complex(float(re - im), float(re + im))  # times 1 + i
    for path in ((0.0, 1 + 1j), (0.0, 1.0, 1 + 1j)):
        assert abs(along_polyline([e], path)[0] - exact) < 1e-12 * abs(exact)


def test_gauss_kronrod_rule_extends_the_gauss_rule():
    # the 21-point rule lists the 10 Gauss nodes first; the Gauss weights integrate
    # x^d exactly through degree 2 * 10 - 1 = 19, the Kronrod weights through 3 * 10 + 1
    (gauss_weights, weights), nodes = holo._gauss_kronrod()
    assert np.unique(nodes).size == 21 and np.array_equal(np.sort(nodes), -np.sort(nodes)[::-1])
    for d in range(32):
        exact = (d % 2 == 0) * 2 / (d + 1)
        assert abs(np.dot(nodes**d, weights) - exact) < 1e-15
        if d < 20:
            assert abs(np.dot(nodes[:10] ** d, gauss_weights) - exact) < 1e-15


def test_contour_integral_rejects_bad_tolerance():
    # a NaN tolerance would pass every comparison as false and bisect to MAX_PANELS
    for tol in (0.0, -1e-10, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            contour_integral([parse("sin(20*z)")], 0.0, 1.0, tol)


def test_contour_integral_diverges_at_singular_endpoint(monkeypatch):
    # 1/z is not integrable up to 0: bisection walks into the pole until a
    # quadrature node lands inside the division guard, which must fail loudly
    monkeypatch.setattr(holo, "MAX_PANELS", 200)
    with pytest.raises(SingularityError):
        contour_integral([parse("1/z")], 1.0, 0.0)


def test_contour_rejects_a_bad_element_in_an_array():
    za, e = np.array([0.0, 1.0, 2.0]), [parse("z")]
    with pytest.raises(ValueError, match="distinct"):
        contour_integral(e, za, np.array([1.0, 1.0, 3.0]))
    with pytest.raises(ValueError, match="finite"):
        contour_integral(e, za, np.array([1.0, complex("nan"), 3.0]))
    with pytest.raises(ValueError, match="finite"):
        contour_integral(e, np.array([1.0, 2.0, complex("inf")]), za)


def test_contour_integral_array_ends_match_scalar_calls():
    rng = np.random.default_rng(7)
    za = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    zb = za + rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    mid = 0.5 * (za + zb) + 0.3j
    exprs, tol = [parse("exp(z^2)/(z+5)"), parse("z*exp(z^2)/(z+5)")], 1e-10
    got = contour_integral(exprs, za, zb, tol)
    assert got.shape == (2, 3, 4) and got.dtype == np.complex128

    def polyline(mid, zb):  # from one base: the scalar end 0 broadcasts against mid
        return contour_integral(exprs, 0.0, mid, tol) + contour_integral(exprs, mid, zb, tol)

    polylines = polyline(mid, zb)
    for idx in np.ndindex(za.shape):
        want = contour_integral(exprs, za[idx], zb[idx], tol)
        assert want.shape == (2,)
        assert np.all(np.abs(got[(slice(None), *idx)] - want) <= tol)
        assert np.all(np.abs(polylines[(slice(None), *idx)] - polyline(mid[idx], zb[idx])) <= tol)


def _reference_segment_integral(expr, za, zb, tol):
    """The scalar depth-first loop the batched engine reproduces: (value, panels)."""
    (gauss_weights, kronrod_weights), nodes = holo._gauss_kronrod()
    acc, panels, stack = 0j, 0, [(0.0, 1.0, tol)]
    while stack:
        panels += 1
        t0, t1, share = stack.pop()
        half, tm = 0.5 * (t1 - t0), 0.5 * (t0 + t1)
        f = [evaluate(expr, {"z": za + (tm + half * x) * (zb - za)}) for x in nodes]
        kronrod = (zb - za) * half * sum(w * v for w, v in zip(kronrod_weights, f))
        gauss = (zb - za) * half * sum(w * v for w, v in zip(gauss_weights, f))
        if abs(kronrod - gauss) <= max(share, holo.QUAD_REL_TOL * abs(kronrod)):
            acc += kronrod
        else:
            stack += [(t0, tm, 0.5 * share), (tm, t1, 0.5 * share)]
    return acc, panels


def assert_refines_like_the_scalar_loop(e, za, zb, tol):
    """contour_integral on the batch za -> zb against the scalar reference, segment by
    segment: the same values, and the same panel counts, since the reference's count is
    enough for the segment alone and one fewer is not."""
    got = contour_integral([e], za, zb, tol)[0]
    with pytest.MonkeyPatch.context() as patch:
        for k in range(za.size):
            want, panels = _reference_segment_integral(e, complex(za[k]), complex(zb[k]), tol)
            assert abs(got[k] - want) <= 1e-14 * (1 + abs(want))
            patch.setattr(holo, "MAX_PANELS", panels)
            contour_integral([e], za[k], zb[k], tol)
            patch.setattr(holo, "MAX_PANELS", panels - 1)
            with pytest.raises(QuadratureError):
                contour_integral([e], za[k], zb[k], tol)


def test_contour_integral_refines_like_the_scalar_loop():
    za = np.array([0.0, 0.1j, -2.0 + 0.05j])
    zb = np.array([10.0, 3.0 + 0.1j, -2.5 + 0.02j])
    assert_refines_like_the_scalar_loop(parse("sin(20*z)/(z+3)"), za, zb, 1e-10)


# integrands that bisect (sin(20*z), cos(9*z) on long segments) and ones that do not
INTEGRANDS = ["sin(20*z)/(z+3)", "exp(z^2)/(z+5)", "cos(9*z)*exp(z)", "1/(z+2.5)", "z^3-2*z"]
SEGMENT_END = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-0.5, 0.5))
SEGMENT = st.tuples(SEGMENT_END, SEGMENT_END).filter(lambda ends: ends[0] != ends[1])


@given(
    st.sampled_from(INTEGRANDS),
    st.lists(SEGMENT, min_size=1, max_size=6),
    st.sampled_from([1e-6, 1e-10, 1e-13]),
)
@settings(max_examples=60, deadline=None)
def test_contour_integral_matches_the_scalar_loop_on_random_batches(src, segments, tol):
    za, zb = np.array(segments).T
    assert_refines_like_the_scalar_loop(parse(src), za, zb, tol)


def test_contour_integral_batches_past_one_evaluate_call():
    za = np.linspace(-1.0, 1.0, 2001)[:-1] * (1 + 1j)
    zb = za + 0.001
    got = contour_integral([parse("exp(z)")], za, zb)[0]
    assert za.size * 20 > holo.MAX_EVAL_NODES
    assert np.max(np.abs(got - (np.exp(zb) - np.exp(za)))) < 1e-14


def test_contour_integral_panel_budget_is_per_element(monkeypatch):
    e, za = [parse("sin(20*z)")], np.zeros(3)
    monkeypatch.setattr(holo, "MAX_PANELS", 1)
    assert contour_integral(e, za, np.array([0.01, 0.02, 0.03])).shape == (1, 3)
    monkeypatch.setattr(holo, "MAX_PANELS", 2)
    with pytest.raises(QuadratureError):
        contour_integral(e, za, np.array([0.01, 10.0, 0.03]))


def test_gauss_rule_literals_are_numpy_leggauss(tmp_path):
    # the rule's Gauss nodes and weights have the bits of numpy's leggauss(10), and
    # neither `import isocmc.cli` nor a lift on quadrature loads numpy.polynomial
    (gauss_weights, _), nodes = holo._gauss_kronrod()
    want_nodes, want_weights = np.polynomial.legendre.leggauss(10)
    assert nodes[:10].tobytes() == want_nodes.tobytes()
    assert gauss_weights.tobytes() == want_weights.tobytes()
    code = (
        "import sys, isocmc.cli; print('numpy.polynomial' in sys.modules, file=sys.stderr); "
        "isocmc.cli.main(['lift', '--h2', 'z', '--omega', '1/(z+4)', '--grid', '5x5', "
        "'--out-dir', sys.argv[1]]); print('numpy.polynomial' in sys.modules, file=sys.stderr)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(holo.__file__).parents[1])}
    argv = [sys.executable, "-c", code, str(tmp_path)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "False\nFalse\n"), done.stderr


def test_contour_integral_rejects_real_mode():
    with pytest.raises(ValueError, match="z only"):
        contour_integral([parse("x")], 0.0, 1.0)


# ---------------------------------------------------------------------------
# printing


def test_to_text_floats_roundtrip_exactly():
    assert to_text(parse("0.1")) == "0.1"
    assert parse(to_text(Constant(1 / 3))) == Constant(1 / 3)
    assert to_text(Constant(2 + 3j)) == "(2.0+3.0*i)"
    assert to_text(Constant(-4j)) == "(-4.0*i)"


@pytest.mark.parametrize("mode", ["z", "xy"])
def test_parse_print_roundtrip(mode):
    rng = np.random.default_rng(20260819 if mode == "z" else 90816202)
    for _ in range(300):
        e = random_expr(rng, 5, mode)
        assert parse(to_text(e)) == e
