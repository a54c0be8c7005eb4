"""Expression engine: parsing, evaluation, calculus, quadrature."""

import math
from fractions import Fraction

import numpy as np
import pytest

from isocmc import holo
from isocmc.holo import (
    Constant,
    Contour,
    Cos,
    Cosh,
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

from util_expr import random_expr, random_integrable

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


def test_antiderivative_of_a_huge_monomial():
    # z^n maps to its coefficient list directly, not through n convolutions
    primitive = antiderivative(parse("z^20000"))
    for z in (0.5, 1.0, -1.0):
        assert evaluate(primitive, {"z": z}) == pytest.approx(z**20001 / 20001, rel=1e-12)


def test_polynomials_past_the_term_cap():
    z = Variable("z")
    # up to MAX_POLY_TERMS nonzero terms the primitive is the expanded sum
    below = antiderivative(parse(f"(z+1)^{holo.MAX_POLY_TERMS - 1}"))
    assert isinstance(below, holo.Add)
    # a power of a*z + b past the cap takes (a*z+b)^(n+1) / (a*(n+1)) directly
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


# ---------------------------------------------------------------------------
# contours and quadrature


def test_contour_validation():
    with pytest.raises(ValueError):
        Contour((0.0,))
    with pytest.raises(ValueError, match="distinct"):
        Contour((0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        Contour((0.0, complex("inf")))
    assert Contour((1j, 0.0)).base_point == 1j


def test_contour_integral_exp_to_ipi():
    val = contour_integral(parse("exp(z)"), Contour((0.0, 1j * math.pi)))
    assert abs(val - (-2.0)) < 1e-10


def test_contour_integral_linear():
    val = contour_integral(parse("z"), Contour((0.0, 1 + 1j)))
    assert abs(val - 1j) < 1e-12


def test_contour_integral_square():
    val = contour_integral(parse("z^2"), Contour((0.0, 2.0)))
    assert abs(val - 8.0 / 3.0) < 1e-12


def test_contour_integral_closed_loop():
    # winding integral of 1/z around the unit square
    loop = Contour((1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j))
    val = contour_integral(parse("1/z"), loop)
    assert abs(val - 2j * math.pi) < 1e-10


def test_contour_integral_against_simpson_oracle():
    # no symbolic antiderivative exists for exp(z^2); check quadrature
    # against a dense composite Simpson rule on [0, 1]
    val = contour_integral(parse("exp(z^2)"), Contour((0.0, 1.0)))
    assert abs(val - 1.4626517459071815) < 1e-10
    n = 1_000_000
    t = np.linspace(0.0, 1.0, n + 1)
    f = np.exp(t * t)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    simpson = (1.0 / n) / 3.0 * float(np.dot(w, f))
    assert abs(val - simpson) < 1e-9


def test_contour_integral_path_independence():
    e = parse("exp(z^2)")
    tol = 1e-10
    direct = contour_integral(e, Contour((0.0, 1 + 1j)), tol=tol)
    dogleg = contour_integral(e, Contour((0.0, 1.0, 1 + 1j)), tol=tol)
    assert abs(direct - dogleg) <= 2 * tol


def test_contour_integral_panel_budget():
    with pytest.raises(QuadratureError):
        contour_integral(parse("sin(20*z)"), Contour((0.0, 10.0)), max_panels=2)


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
        assert abs(contour_integral(e, Contour(path)) - exact) < 1e-12 * abs(exact)


def test_contour_integral_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        contour_integral(parse("z"), Contour((0.0, 1.0)), tol=0.0)


def test_contour_integral_diverges_at_singular_endpoint():
    # 1/z is not integrable up to 0: bisection walks into the pole until a
    # quadrature node lands inside the division guard, which must fail loudly
    with pytest.raises(SingularityError):
        contour_integral(parse("1/z"), Contour((1.0, 0.0)), max_panels=200)


def test_contour_rejects_a_bad_element_in_an_array():
    za = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="distinct"):
        Contour((za, np.array([1.0, 1.0, 3.0])))
    with pytest.raises(ValueError, match="finite"):
        Contour((za, np.array([1.0, complex("nan"), 3.0])))
    with pytest.raises(ValueError, match="finite"):
        Contour((za, np.array([1.0, 2.0, complex("inf")])))


def test_contour_integral_array_waypoints_match_scalar_calls():
    rng = np.random.default_rng(7)
    za = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    zb = za + rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    mid = 0.5 * (za + zb) + 0.3j
    e, tol = parse("exp(z^2)/(z+5)"), 1e-10
    for points in ((za, zb), (0.0, mid, zb)):  # segments; polylines from one base
        got = contour_integral(e, Contour(points), tol=tol)
        assert got.shape == (3, 4) and got.dtype == np.complex128
        for idx in np.ndindex(got.shape):
            scalar = [p if np.isscalar(p) else p[idx] for p in points]
            want = contour_integral(e, Contour(tuple(scalar)), tol=tol)
            assert isinstance(want, complex)
            assert abs(got[idx] - want) <= tol


def _reference_segment_integral(expr, za, zb, tol):
    """The scalar depth-first loop the batched engine reproduces: (value, panels)."""
    nodes, weights = np.polynomial.legendre.leggauss(10)

    def panel(t0, t1):
        half = 0.5 * (t1 - t0)
        zs = za + (0.5 * (t0 + t1) + half * nodes) * (zb - za)
        return (zb - za) * half * np.dot(weights, evaluate(expr, {"z": zs}))

    acc, panels, stack = 0j, 0, [(0.0, 1.0, panel(0.0, 1.0), tol)]
    while stack:
        panels += 1
        t0, t1, coarse, budget = stack.pop()
        tm = 0.5 * (t0 + t1)
        left, right = panel(t0, tm), panel(tm, t1)
        if abs(left + right - coarse) <= budget:
            acc += left + right
        else:
            stack += [(t0, tm, left, 0.5 * budget), (tm, t1, right, 0.5 * budget)]
    return acc, panels


def test_contour_integral_refines_like_the_scalar_loop():
    e, tol = parse("sin(20*z)/(z+3)"), 1e-10
    za = np.array([0.0, 0.1j, -2.0 + 0.05j])
    zb = np.array([10.0, 3.0 + 0.1j, -2.5 + 0.02j])
    got = contour_integral(e, Contour((za, zb)), tol=tol)
    for k in range(za.size):
        want, panels = _reference_segment_integral(e, complex(za[k]), complex(zb[k]), tol)
        assert abs(got[k] - want) <= 1e-14 * (1 + abs(want))
        # the same panels: the reference's count is enough, one fewer is not
        one = Contour((za[k : k + 1], zb[k : k + 1]))
        contour_integral(e, one, tol=tol, max_panels=panels)
        with pytest.raises(QuadratureError):
            contour_integral(e, one, tol=tol, max_panels=panels - 1)


def test_contour_integral_batches_past_one_evaluate_call():
    za = np.linspace(-1.0, 1.0, 2001)[:-1] * (1 + 1j)
    zb = za + 0.001
    got = contour_integral(parse("exp(z)"), Contour((za, zb)))
    assert za.size * 20 > holo.MAX_EVAL_NODES
    assert np.max(np.abs(got - (np.exp(zb) - np.exp(za)))) < 1e-14


def test_contour_integral_panel_budget_is_per_element():
    short = Contour((np.zeros(3), np.array([0.01, 0.02, 0.03])))
    assert contour_integral(parse("sin(20*z)"), short, max_panels=1).shape == (3,)
    mixed = Contour((np.zeros(3), np.array([0.01, 10.0, 0.03])))
    with pytest.raises(QuadratureError):
        contour_integral(parse("sin(20*z)"), mixed, max_panels=2)


def test_contour_integral_rejects_real_mode():
    with pytest.raises(ValueError, match="z only"):
        contour_integral(parse("x"), Contour((0.0, 1.0)))


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
