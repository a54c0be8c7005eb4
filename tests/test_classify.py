"""Quadric classification: the (H, K) label table and sample fitting."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocmc import holo, weierstrass
from isocmc.classify import SurfaceClass, classify_sample, label_from_constants
from isocmc.graphgeo import DEFAULT_QUAD_FIT_TOL, Rect
from isocmc.weierstrass import SurfaceSample

from util_expr import enneper_data, lift_one, quadric_field

SQUARE = Rect(-1.0, 1.0, -1.0, 1.0)

TABLE = [
    (0.0, 0.0, SurfaceClass.PLANE),
    (1.0, 0.0, SurfaceClass.CYLINDER),
    (1.0, -1.0, SurfaceClass.HYPERBOLIC_PARABOLOID),
    (0.0, -1.0, SurfaceClass.RECTANGULAR_HYPERBOLIC_PARABOLOID),
    (1.0, 0.5, SurfaceClass.ELLIPTIC_PARABOLOID),
    (2.0, 4.0, SurfaceClass.CIRCULAR_PARABOLOID),
]


def field_from(rect: Rect, n: int, fn) -> SurfaceSample:
    x, y = np.meshgrid(rect.x_nodes(n), rect.y_nodes(n))
    return SurfaceSample(rect, None, x, y, fn(x, y))


def rotated_quadric(alpha, beta, t, b, c, c0, n=41) -> SurfaceSample:
    """alpha*x~^2 + beta*y~^2 + b*x + c*y + c0 with (x, y) = R(t) (x~, y~), on SQUARE."""

    def fn(x, y):
        xr = math.cos(t) * x + math.sin(t) * y
        yr = -math.sin(t) * x + math.cos(t) * y
        return alpha * xr * xr + beta * yr * yr + b * x + c * y + c0

    return field_from(SQUARE, n, fn)


# ---------------------------------------------------------------------------
# label table


@pytest.mark.parametrize("H,K,label", TABLE)
def test_label_table(H, K, label):
    result = label_from_constants(H, K)
    assert result.label is label
    assert result.H == pytest.approx(H) and result.K == pytest.approx(K)


def test_label_extra_cases():
    assert label_from_constants(1.0, -4.0).label is SurfaceClass.HYPERBOLIC_PARABOLOID
    assert label_from_constants(1.0, 1.0).label is SurfaceClass.CIRCULAR_PARABOLOID
    # zero tests are exact: a small H or K is not a zero one
    assert label_from_constants(1e-12, -1.0).label is SurfaceClass.HYPERBOLIC_PARABOLOID
    assert label_from_constants(1e-12, 0.0).label is SurfaceClass.CYLINDER
    assert label_from_constants(0.0, -1e-300).label is (
        SurfaceClass.RECTANGULAR_HYPERBOLIC_PARABOLOID
    )
    # a float counts as its decimal, though 0.1**2 != 0.01 in binary
    bowl = label_from_constants(0.1, 0.01)
    assert bowl.label is SurfaceClass.CIRCULAR_PARABOLOID
    assert bowl.alpha == bowl.beta == 0.05
    # a Fraction counts as it is
    third = label_from_constants(Fraction(1, 3), Fraction(1, 9))
    assert third.label is SurfaceClass.CIRCULAR_PARABOLOID
    assert third.alpha == third.beta == 1 / 6


def test_label_rejects_impossible_pairs():
    with pytest.raises(ValueError, match="exceeds"):
        label_from_constants(0.0, 1.0)
    with pytest.raises(ValueError):
        label_from_constants(1.0, 1.0 + 1e-6)
    # however small the excess, the message keeps it
    message = "K = 1.000000000001 exceeds H^2 = 1.0; no spacelike graph carries that pair"
    with pytest.raises(ValueError, match=re.escape(message)):
        label_from_constants(1.0, 1.0 + 1e-12)
    # a float counts as its decimal, so a K squared in binary can exceed H's square
    with pytest.raises(ValueError, match="no spacelike graph carries that pair"):
        label_from_constants(0.1, 0.1 * 0.1)


@pytest.mark.parametrize(
    "H, K", [(math.nan, 0.0), (math.inf, 1.0), (0.0, math.nan), (1.0, -math.inf)]
)
def test_label_rejects_non_finite_constants(H, K):
    with pytest.raises(ValueError, match="H and K must be finite"):
        label_from_constants(H, K)


def test_sign_flip_preserves_the_label():
    for H, K, label in TABLE:
        assert label_from_constants(-H, K).label is label


# ---------------------------------------------------------------------------
# canonical forms


def test_canonical_form_splits_curvatures():
    form = label_from_constants(3.0, 5.0)
    assert form.alpha + form.beta == pytest.approx(3.0)
    assert 4.0 * form.alpha * form.beta == pytest.approx(5.0)
    assert form.alpha >= form.beta


def test_canonical_form_examples():
    rect = Rect(-2.0, 2.0, -2.0, 2.0)  # nodes at -2, -1, ..., 2
    nodes = {v: i for i, v in enumerate(rect.x_nodes(5))}
    at = lambda f, x, y: f.ell[nodes[y], nodes[x]]
    assert at(quadric_field(0.0, -1.0, rect, 5, 5), 1.0, 0.0) == pytest.approx(0.5)
    assert at(quadric_field(1.0, 1.0, rect, 5, 5), 1.0, 1.0) == pytest.approx(1.0)
    cylinder = quadric_field(1.0, 0.0, rect, 5, 5)  # alpha = 1, beta = 0
    np.testing.assert_allclose([at(cylinder, 1.0, 0.0), at(cylinder, 2.0, 0.0)], [1.0, 4.0])


# ---------------------------------------------------------------------------
# sample classification


def test_classify_negative_cross_term():
    result = classify_sample(field_from(SQUARE, 21, lambda x, y: -x * y))
    assert result.label is SurfaceClass.RECTANGULAR_HYPERBOLIC_PARABOLOID
    assert result.K == pytest.approx(-1.0, abs=1e-9)
    assert result.H == pytest.approx(0.0, abs=1e-9)
    assert abs(result.rotation_angle) == pytest.approx(math.pi / 4, abs=1e-9)


def test_classify_reports_a_working_rotation():
    # the angle must actually diagonalize the sample, whatever its sign
    f = field_from(SQUARE, 21, lambda x, y: -x * y)
    result = classify_sample(f)
    t = result.rotation_angle
    x, y = f.x, f.y
    xr = math.cos(t) * x + math.sin(t) * y
    yr = -math.sin(t) * x + math.cos(t) * y
    rebuilt = result.alpha * xr * xr + result.beta * yr * yr
    assert np.max(np.abs(rebuilt - f.ell)) < 1e-9


def test_classify_recovers_a_known_rotation():
    t, alpha, beta = math.pi / 6, 2.0, 0.5
    result = classify_sample(rotated_quadric(alpha, beta, t, 0.0, 0.0, 0.0, n=25))
    assert result.label is SurfaceClass.ELLIPTIC_PARABOLOID
    assert result.alpha == pytest.approx(alpha, abs=1e-9)
    assert result.beta == pytest.approx(beta, abs=1e-9)
    assert result.rotation_angle == pytest.approx(t, abs=1e-9)


def test_classify_bowl():
    result = classify_sample(field_from(SQUARE, 21, lambda x, y: x * x + y * y))
    assert result.label is SurfaceClass.CIRCULAR_PARABOLOID
    assert result.H == pytest.approx(2.0, abs=1e-9)
    assert result.K == pytest.approx(4.0, abs=1e-9)
    assert result.rotation_angle == 0.0


def test_classify_ignores_ambient_translations():
    base = field_from(SQUARE, 21, lambda x, y: 1.5 * x * x - 0.5 * y * y)
    moved = field_from(
        SQUARE, 21, lambda x, y: 1.5 * x * x - 0.5 * y * y + 0.7 * x - 1.3 * y + 2.2
    )
    a, b = classify_sample(base), classify_sample(moved)
    assert a.label is b.label
    assert a.H == pytest.approx(b.H, abs=1e-9)
    assert a.K == pytest.approx(b.K, abs=1e-9)
    # neither a large height offset nor an off-centre chart widens the snap: a bowl
    # 1e-4 off revolution stays elliptic, and one of revolution stays circular
    for rect, c0 in ((SQUARE, 1e6), (Rect(100.0, 102.0, 100.0, 102.0), 0.0)):
        for beta, label in ((1.0001, SurfaceClass.ELLIPTIC_PARABOLOID),
                            (1.0, SurfaceClass.CIRCULAR_PARABOLOID)):
            result = classify_sample(field_from(rect, 21, lambda x, y: x * x + beta * y * y + c0))
            assert result.label is label, (rect, c0, beta)


def test_classify_accepts_surface_samples():
    sample = lift_one(enneper_data(2), 1.0, SQUARE, 31, 31)
    assert classify_sample(sample).label is SurfaceClass.CYLINDER


def test_classify_fits_over_a_curved_chart():
    # omega = exp(z) maps the square onto an annular sector; the height over it
    # is (x^2 + y^2)/2 + x, a bowl with H = 1 and K = 1
    data = weierstrass.WeierstrassData(holo.parse("1"), holo.parse("exp(z)"))
    sample = lift_one(data, 1.0, SQUARE, 31, 31)
    result = classify_sample(sample)
    assert result.label is SurfaceClass.CIRCULAR_PARABOLOID
    assert result.H == pytest.approx(1.0, abs=1e-9)
    assert result.K == pytest.approx(1.0, abs=1e-9)


def test_classify_cubic_lift_is_not_a_quadric():
    sample = lift_one(enneper_data(3), 1.0, SQUARE, 31, 31)
    result = classify_sample(sample)
    assert result.label is SurfaceClass.NON_QUADRIC
    assert result.alpha is None and result.K is None and result.H is None


@pytest.mark.parametrize("H,K,label", TABLE)
def test_classify_roundtrip_through_normal_forms(H, K, label):
    field = quadric_field(H, K, SQUARE, 41, 41)
    result = classify_sample(field)
    assert result.label is label
    assert result.H == pytest.approx(H, abs=1e-8)
    assert result.K == pytest.approx(K, abs=1e-8)


def assert_on_its_stratum(result):
    """The reported numbers satisfy the label exactly, not to a tolerance."""
    alpha, beta, H, K = result.alpha, result.beta, result.H, result.K
    assert alpha >= beta
    if result.label is SurfaceClass.PLANE:
        assert alpha == beta == H == K == 0.0
    elif result.label is SurfaceClass.CYLINDER:
        assert K == 0.0 and 0.0 in (alpha, beta) and H != 0.0
    elif result.label is SurfaceClass.RECTANGULAR_HYPERBOLIC_PARABOLOID:
        assert alpha == -beta and H == 0.0 and K < 0.0
    elif result.label is SurfaceClass.CIRCULAR_PARABOLOID:
        assert alpha == beta != 0.0
    else:
        assert 0.0 not in (alpha, beta, H, K) and abs(alpha) != abs(beta)


# a random three-decimal H other than 0, as an integer count of thousandths
THOUSANDTHS = st.integers(1, 5000).flatmap(lambda n: st.sampled_from((n, -n)))


@given(n=THOUSANDTHS)
@settings(max_examples=60, deadline=None)
def test_exact_constants_get_their_exact_stratum(n):
    H, square = n / 1000, n * n / 10**6  # the decimals n/1000 and its square, correctly rounded
    bowl = label_from_constants(H, square)
    assert bowl.label is SurfaceClass.CIRCULAR_PARABOLOID
    assert bowl.alpha == bowl.beta == n / 2000
    saddle = label_from_constants(0.0, -square)
    assert saddle.label is SurfaceClass.RECTANGULAR_HYPERBOLIC_PARABOLOID
    assert label_from_constants(0.0, 0.0).label is SurfaceClass.PLANE
    cylinder = label_from_constants(H, 0.0)
    assert cylinder.label is SurfaceClass.CYLINDER
    assert sorted((cylinder.alpha, cylinder.beta)) == sorted((H, 0.0))
    for result in (bowl, saddle, cylinder):
        assert_on_its_stratum(result)
    with pytest.raises(ValueError, match="no spacelike graph carries that pair"):
        label_from_constants(H, (n * n * 10**6 + 1) / 10**12)  # K = H^2 + 1e-12


# (alpha, beta) on each stratum, from a magnitude a in [0.1, 2] and a sign s
STRATA = {
    SurfaceClass.PLANE: lambda a, s: (0.0, 0.0),
    SurfaceClass.CYLINDER: lambda a, s: (s * a, 0.0),
    SurfaceClass.RECTANGULAR_HYPERBOLIC_PARABOLOID: lambda a, s: (a, -a),
    SurfaceClass.CIRCULAR_PARABOLOID: lambda a, s: (s * a, s * a),
    SurfaceClass.ELLIPTIC_PARABOLOID: lambda a, s: (s * a, s * 0.5 * a),
    SurfaceClass.HYPERBOLIC_PARABOLOID: lambda a, s: (s * a, -s * 0.5 * a),
}
# the generic label, by whether alpha*beta > 0
GENERIC_BY_SIGN = {
    True: SurfaceClass.ELLIPTIC_PARABOLOID,
    False: SurfaceClass.HYPERBOLIC_PARABOLOID,
}


@given(
    label=st.sampled_from(list(STRATA)),
    a=st.floats(0.1, 2.0),
    s=st.sampled_from((-1.0, 1.0)),
    t=st.floats(-math.pi, math.pi),
    affine=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
)
@settings(max_examples=60, deadline=None)
def test_fitted_quadrics_get_their_stratum_exactly(label, a, s, t, affine):
    alpha, beta = STRATA[label](a, s)
    result = classify_sample(rotated_quadric(alpha, beta, t, *affine))
    assert result.label is label
    assert_on_its_stratum(result)
    assert sorted((result.alpha, result.beta)) == pytest.approx(sorted((alpha, beta)), abs=1e-9)
    if label in GENERIC_BY_SIGN.values():
        return
    # off the stratum by far more than the fit's tolerance: the generic label
    step = 1e-6 * (1.0 + abs(alpha) + abs(beta))
    alpha, beta = alpha + step, beta - 0.5 * step
    moved = classify_sample(rotated_quadric(alpha, beta, t, *affine))
    assert moved.label is GENERIC_BY_SIGN[alpha * beta > 0]
    assert_on_its_stratum(moved)


@pytest.mark.parametrize(
    "alpha, beta, label",
    [
        (4e-9, -3e-9, SurfaceClass.PLANE),
        (1.0, 9e-9, SurfaceClass.CYLINDER),
        (1.0, -1.0 + 1.5e-8, SurfaceClass.RECTANGULAR_HYPERBOLIC_PARABOLOID),
        (0.7, 0.7 - 1.5e-8, SurfaceClass.CIRCULAR_PARABOLOID),
    ],
)
def test_a_snap_moves_no_height_past_its_bound(alpha, beta, label):
    # the snapped normal form, with the affine terms fitted afresh, still fits the heights
    # within fit_tol (1 + max(|alpha|, |beta|) rho^2), where rho^2 = 2 on SQUARE
    field = rotated_quadric(alpha, beta, 0.3, 0.2, -0.4, 0.1)
    result = classify_sample(field)
    assert result.label is label and (result.alpha, result.beta) != (alpha, beta)
    t, x, y = result.rotation_angle, field.x.ravel(), field.y.ravel()
    xr, yr = math.cos(t) * x + math.sin(t) * y, -math.sin(t) * x + math.cos(t) * y
    rest = field.ell.ravel() - (result.alpha * xr * xr + result.beta * yr * yr)
    design = np.column_stack((np.ones_like(x), x, y))
    affine = np.linalg.lstsq(design, rest, rcond=None)[0]
    bound = DEFAULT_QUAD_FIT_TOL * (1.0 + 2.0 * max(abs(alpha), abs(beta)))
    assert np.max(np.abs(design @ affine - rest)) <= bound
