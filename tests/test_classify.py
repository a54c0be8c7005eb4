"""Quadric classification: the (H, K) label table and sample fitting."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isocmc import holo, weierstrass
from isocmc.classify import SurfaceClass, classify_sample, label_from_constants
from isocmc.graphgeo import Rect, ScalarField

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


def field_from(rect: Rect, n: int, fn) -> ScalarField:
    x, y = np.meshgrid(rect.x_nodes(n), rect.y_nodes(n))
    return ScalarField(rect, fn(x, y))


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
    # zero tests are tolerance zero tests, not exact comparisons
    assert label_from_constants(1e-12, -1.0).label is (
        SurfaceClass.RECTANGULAR_HYPERBOLIC_PARABOLOID
    )
    assert label_from_constants(1e-12, 1e-12).label is SurfaceClass.PLANE


def test_label_rejects_impossible_pairs():
    with pytest.raises(ValueError, match="exceeds"):
        label_from_constants(0.0, 1.0)
    with pytest.raises(ValueError):
        label_from_constants(1.0, 1.0 + 1e-6)
    # inside tolerance the pair snaps to the boundary instead
    assert label_from_constants(1.0, 1.0 + 1e-12).label is (
        SurfaceClass.CIRCULAR_PARABOLOID
    )


@pytest.mark.parametrize(
    "H, K", [(math.nan, 0.0), (math.inf, 1.0), (0.0, math.nan), (1.0, -math.inf)]
)
def test_label_rejects_non_finite_constants(H, K):
    with pytest.raises(ValueError, match="H and K must be finite"):
        label_from_constants(H, K)


def test_label_tolerance_validation():
    with pytest.raises(ValueError):
        label_from_constants(0.0, 0.0, tol=0.0)


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
    at = lambda f, x, y: f.values[nodes[y], nodes[x]]
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
    x, y = f.meshgrid()
    xr = math.cos(t) * x + math.sin(t) * y
    yr = -math.sin(t) * x + math.cos(t) * y
    rebuilt = result.alpha * xr * xr + result.beta * yr * yr
    assert np.max(np.abs(rebuilt - f.values)) < 1e-9


def test_classify_recovers_a_known_rotation():
    t, alpha, beta = math.pi / 6, 2.0, 0.5

    def fn(x, y):
        xr = math.cos(t) * x + math.sin(t) * y
        yr = -math.sin(t) * x + math.cos(t) * y
        return alpha * xr * xr + beta * yr * yr

    result = classify_sample(field_from(SQUARE, 25, fn))
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


@given(H=st.floats(-2, 2), gap=st.floats(0, 4))
@settings(max_examples=60, deadline=None)
def test_classify_roundtrip_on_random_pairs(H, gap):
    K = H * H - gap
    # keep the zero tests decisively on one side of the label boundaries
    assume(all(abs(v) < 1e-9 or abs(v) > 1e-7 for v in (H, K, gap)))
    field = quadric_field(H, K, SQUARE, 31, 31)
    result = classify_sample(field)
    assert result.label is label_from_constants(H, K).label
    assert result.H == pytest.approx(H, abs=1e-7)
    assert result.K == pytest.approx(K, abs=1e-7)
