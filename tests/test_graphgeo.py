"""Finite-difference curvature on graphs and on curved charts, PDE views, quadratic fit."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocmc import graphgeo, holo, weierstrass
from isocmc.graphgeo import (
    DegenerateFitError,
    GridTooSmallError,
    Rect,
    FoldedChartError,
    StencilOverflowError,
    lattice_shift,
    pde_analyze,
    quadratic_test,
)
from isocmc.weierstrass import SurfaceSample

from util_expr import enneper_data, exp_data, lift_one, quadric_field
from util_grid import interior_det_j

SQUARE = Rect(-1.0, 1.0, -1.0, 1.0)


def field_from(rect: Rect, n_x: int, n_y: int, fn) -> SurfaceSample:
    """The plain field fn over the lattice: a sample with H None, charted by its own mesh."""
    x, y = np.meshgrid(rect.x_nodes(n_x), rect.y_nodes(n_y))
    return SurfaceSample(rect, None, x, y, fn(x, y))


# ---------------------------------------------------------------------------
# containers


def test_rect_validation():
    with pytest.raises(ValueError):
        Rect(1.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, 1.0, 2.0, 2.0)
    r = Rect(0.0, 1.0, 0.0, 2.0)
    np.testing.assert_allclose(r.x_nodes(3), [0.0, 0.5, 1.0])


def test_scalar_field_validation():
    # a plain field's heights are checked where the stencils and the fit first read them
    small = field_from(SQUARE, 5, 4, lambda x, y: 0.0 * x)
    nan = field_from(SQUARE, 5, 5, lambda x, y: np.full_like(x, np.nan))
    flat = replace(small, ell=np.zeros(20))
    for check in (pde_analyze, quadratic_test):
        with pytest.raises(GridTooSmallError, match="need at least 5 nodes per axis, got 5 x 4"):
            check(small)
        with pytest.raises(ValueError, match="field values must be finite"):
            check(nan)
        with pytest.raises(ValueError, match="field values must be a 2-d array"):
            check(flat)
    f = field_from(SQUARE, 5, 9, lambda x, y: x)
    assert f.ell.shape == (9, 5)
    assert graphgeo._spacing(f) == pytest.approx((0.5, 0.25))


# ---------------------------------------------------------------------------
# curvature stencils


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, -0.5), (0.0, 1.0), (1.5, 1.5)])
def test_fd_curvatures_exact_on_diagonal_quadratics(alpha, beta):
    f = field_from(SQUARE, 31, 31, lambda x, y: alpha * x * x + beta * y * y)
    lap, hess = pde_analyze(f)
    assert np.max(np.abs(0.5 * lap - (alpha + beta))) < 1e-10
    assert np.max(np.abs(hess - 4 * alpha * beta)) < 1e-10


def test_fd_mean_curvature_bowl():
    f = field_from(SQUARE, 21, 21, lambda x, y: x * x + y * y)
    assert np.max(np.abs(0.5 * pde_analyze(f)[0] - 2.0)) < 1e-12


def test_fd_gauss_curvature_saddle():
    f = field_from(SQUARE, 21, 21, lambda x, y: 0.5 * (x * x - y * y))
    assert np.max(np.abs(pde_analyze(f)[1] + 1.0)) < 1e-12


@given(
    d=st.floats(-3, 3),
    e=st.floats(-3, 3),
    g=st.floats(-3, 3),
    b=st.floats(-3, 3),
    c=st.floats(-3, 3),
)
@settings(max_examples=60, deadline=None)
def test_fd_curvatures_on_random_quadratics(d, e, g, b, c):
    rect = Rect(-1.2, 0.8, -0.5, 1.5)
    f = field_from(
        rect, 21, 17, lambda x, y: d * x * x + e * x * y + g * y * y + b * x + c * y
    )
    lap, k = pde_analyze(f)
    h = 0.5 * lap
    assert np.max(np.abs(h - (d + g))) < 1e-8
    assert np.max(np.abs(k - (4 * d * g - e * e))) < 1e-8


def test_fd_mean_curvature_recovers_lift_H():
    # cross-module oracle: a synthesized cubic graph carries its input H
    data = enneper_data(3)
    sample = lift_one(data, 1.5, SQUARE, 101, 101)
    h = 0.5 * pde_analyze(sample)[0]
    assert np.max(np.abs(h - 1.5)) < 1e-10


def test_fd_gauss_curvature_on_exponential_graph():
    data = exp_data()
    sample = lift_one(data, 0.5, SQUARE, 201, 201)
    k_fd = pde_analyze(sample)[1]
    k_true = 0.25 - np.exp(2.0 * sample.x[1:-1, 1:-1])
    assert np.max(np.abs(k_fd - k_true)) < 1e-4


def test_fd_convergence_is_second_order():
    def exact_errors(n):
        f = field_from(SQUARE, n, n, lambda x, y: np.sin(2 * x) * np.cos(3 * y))
        x, y = f.x, f.y
        xi, yi = x[1:-1, 1:-1], y[1:-1, 1:-1]
        fxx = -4 * np.sin(2 * xi) * np.cos(3 * yi)
        fyy = -9 * np.sin(2 * xi) * np.cos(3 * yi)
        fxy = -6 * np.cos(2 * xi) * np.sin(3 * yi)
        lap, hess = pde_analyze(f)
        err_h = np.max(np.abs(0.5 * lap - 0.5 * (fxx + fyy)))
        err_k = np.max(np.abs(hess - (fxx * fyy - fxy**2)))
        return err_h, err_k

    coarse = exact_errors(51)
    fine = exact_errors(101)  # halves h
    assert coarse[0] / fine[0] >= 3.5
    assert coarse[1] / fine[1] >= 3.5


# ---------------------------------------------------------------------------
# PDE views


def test_pde_analyze_bowl():
    f = field_from(SQUARE, 21, 21, lambda x, y: x * x + y * y)
    lap, hess = pde_analyze(f)
    assert np.ptp(lap) < 1e-6  # constant, at the pde command's default
    assert np.max(np.abs(lap - 4.0)) < 1e-12
    assert np.max(np.abs(hess - 4.0)) < 1e-12
    lo, hi = hess.min(), hess.max()
    assert lo == pytest.approx(4.0) and hi == pytest.approx(4.0)


def test_pde_analyze_runs_the_lattice_stencils_on_a_translated_chart():
    f = field_from(SQUARE, 25, 25, lambda x, y: np.sin(x) * y + x * x)
    assert lattice_shift(f) == (0.0, 0.0)
    moved = replace(f, x=f.x + 0.3, y=f.y - 2.0)
    assert lattice_shift(moved) == pytest.approx((0.3, -2.0))
    assert lattice_shift(replace(f, x=f.x + 1e-6 * f.y)) is None
    (lap, hess), translated = pde_analyze(f), pde_analyze(moved)
    assert np.array_equal(lap, translated[0])
    assert np.array_equal(hess, translated[1])
    assert np.max(np.abs(interior_det_j(moved) - 1.0)) < 1e-13
    v, h = f.ell, (SQUARE.x_max - SQUARE.x_min) / 24  # the step on both axes
    f_xx = (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / h**2
    f_yy = (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / h**2
    assert np.array_equal(lap, f_xx + f_yy)


def test_pde_analyze_cubic_lift():
    # H(x^2+y^2)/2 + Re(z^3)/3 has constant laplacian but varying hessian
    H = 1.5

    def lift(x, y):
        return 0.5 * H * (x * x + y * y) + (x**3 - 3 * x * y * y) / 3.0

    f = field_from(SQUARE, 41, 41, lift)
    (lap, hess), x, y = pde_analyze(f), f.x, f.y
    assert np.ptp(lap) < 1e-6
    assert np.max(np.abs(lap - 2 * H)) < 1e-10
    xi, yi = x[1:-1, 1:-1], y[1:-1, 1:-1]
    want = H * H - 4.0 * (xi * xi + yi * yi)
    assert np.max(np.abs(hess - want)) < 1e-8
    assert np.ptp(hess) > 1.0  # genuinely non-constant


def test_pde_analyze_flags_non_constant_laplacian():
    f = field_from(SQUARE, 21, 21, lambda x, y: x**3)
    assert np.ptp(pde_analyze(f)[0]) >= 1e-6


def test_pde_analyze_overflow_is_a_named_error():
    huge = field_from(SQUARE, 9, 9, lambda x, y: 1e200 * (x * x + y * y))
    with pytest.raises(StencilOverflowError, match="float range"):
        pde_analyze(huge)  # Hessian determinant ~ 1e400
    zigzag = field_from(SQUARE, 9, 9, lambda x, y: 1e307 * np.cos(4 * np.pi * x))
    with pytest.raises(StencilOverflowError):
        pde_analyze(zigzag)  # f_xx = -4e307 / h^2 with h = 1/4


def test_fd_curvatures_overflow_is_a_named_error(recwarn):
    # Re exp(z) near Re z = 400 is about 5e173, so f_xx * f_yy is past the float range
    sample = lift_one(exp_data(), 1.0, Rect(390.0, 400.0, -1.0, 1.0), 11, 11)
    for field in (sample, sample.as_height_field()):
        with pytest.raises(StencilOverflowError, match="float range"):
            pde_analyze(field)
    assert not recwarn.list


# ---------------------------------------------------------------------------
# quadratic fit


def test_quadratic_test_recovers_coefficients():
    f = field_from(
        SQUARE,
        15,
        15,
        lambda x, y: 1 + 2 * x - y + x * x - x * y + 3 * y * y,
    )
    ok, coeffs = quadratic_test(f)
    assert ok
    np.testing.assert_allclose(coeffs, [1, 2, -1, 1, -1, 3], atol=1e-10)


def test_quadratic_test_rejects_cubic():
    f = field_from(SQUARE, 15, 15, lambda x, y: x**3 / 3.0)
    ok, _ = quadratic_test(f)
    assert not ok


def test_quadratic_test_on_normal_form():
    field = quadric_field(1.0, -3.0, SQUARE, 15, 15)  # alpha = 3/2, beta = -1/2
    ok, coeffs = quadratic_test(field)
    assert ok
    assert coeffs[3] == pytest.approx(1.5, abs=1e-10)
    assert coeffs[5] == pytest.approx(-0.5, abs=1e-10)


def column_stack_fit(s):
    """The coefficients that lstsq gives on the whole column_stack design."""
    xs, ys = np.ravel(s.x), np.ravel(s.y)
    design = np.column_stack([np.ones_like(xs), xs, ys, xs * xs, xs * ys, ys * ys])
    return np.linalg.lstsq(design, s.ell.ravel(), rcond=None)[0]


def fit_cases():
    rng = np.random.default_rng(7)
    rect = Rect(-1.0, 1.3, -0.7, 2.0)
    for n in (7, 9, 31, 101, 201):
        xx, yy = rect.mesh(n, n)
        c = rng.normal(size=8)
        quad = c[0] + c[1] * xx + c[2] * yy + c[3] * xx * xx + c[4] * xx * yy + c[5] * yy * yy
        yield pytest.param(SurfaceSample(rect, None, xx, yy, quad), id=f"quadric-{n}")
        cubic = quad + c[6] * xx**3 + c[7] * xx * yy * yy
        yield pytest.param(SurfaceSample(rect, None, xx, yy, cubic), id=f"cubic-{n}")
    z = holo.Variable("z")
    chart = lift_one(weierstrass.WeierstrassData(z, holo.Exp(z)), 0.5, SQUARE, 41, 37)
    yield pytest.param(chart, id="chart-41x37")


@pytest.mark.parametrize("s", fit_cases())
def test_quadratic_fit_matches_the_column_stack_design_bitwise(s):
    # within a few ulps of the coefficients' scale: both solves are backward stable on
    # designs of condition number 5-6, and up to 11 ulps were seen; the name keeps the
    # test's ids stable
    _, coeffs = quadratic_test(s)
    want = column_stack_fit(s)
    assert np.max(np.abs(coeffs - want)) <= 16 * np.spacing(np.max(np.abs(want)))


def traced_peak(n: int) -> int:
    """The peak of memory traced while quadratic_test fits an n x n quadric."""
    xx, yy = SQUARE.mesh(n, n)
    s = SurfaceSample(SQUARE, None, xx, yy, 1.0 + xx * yy - 2.0 * yy * yy)
    tracemalloc.start()
    try:
        assert quadratic_test(s)[0]
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_fit_holds_one_block_of_design_rows_whatever_the_grid():
    # numpy reports its arrays to tracemalloc; 601^2 nodes are four times 301^2
    assert traced_peak(601) <= 1.5 * traced_peak(301)


def test_a_rank_deficient_design_is_a_named_error():
    # nodes on the line x = y, and on the line y = 1/2: two columns of the design agree
    for chart in (lambda u, v: (u + v, u + v), lambda u, v: (u, 0.5 + 0.0 * v)):
        with pytest.raises(DegenerateFitError, match="rank deficient"):
            quadratic_test(chart_from(SQUARE, 9, chart, lambda x, y: x + y))


def test_quadratic_test_needs_seven_nodes():
    f = field_from(SQUARE, 5, 9, lambda x, y: x * y)
    with pytest.raises(GridTooSmallError):
        quadratic_test(f)


# ---------------------------------------------------------------------------
# curved charts: the chain rule over the parameter lattice


def chart_from(rect: Rect, n: int, chart, height):
    """ell = height(x, y) sampled at the chart points (x, y) = chart(u, v)."""
    u, v = np.meshgrid(rect.x_nodes(n), rect.y_nodes(n))
    x, y = chart(u, v)
    return SurfaceSample(rect, None, x, y, height(x, y))


def test_fd_metric_identity_chart():
    f = chart_from(SQUARE, 21, lambda u, v: (u, v), lambda x, y: x * x + y * y)
    (lap, hess), jac = pde_analyze(f), interior_det_j(f)
    assert np.max(np.abs(jac - 1.0)) < 1e-13
    assert np.max(np.abs(lap - 4.0)) < 1e-11
    assert np.max(np.abs(hess - 4.0)) < 1e-11


def test_fd_metric_rotated_chart_is_isometric():
    t = 0.7
    rotation = lambda u, v: (np.cos(t) * u - np.sin(t) * v, np.sin(t) * u + np.cos(t) * v)
    f = chart_from(SQUARE, 21, rotation, lambda x, y: x * y)
    (lap, hess), jac = pde_analyze(f), interior_det_j(f)
    assert np.max(np.abs(jac - 1.0)) < 1e-12
    assert np.max(np.abs(lap)) < 1e-10
    assert np.max(np.abs(hess + 1.0)) < 1e-10


def test_fd_metric_conformal_exponential_chart():
    rect = Rect(-0.5, 0.5, -0.5, 0.5)
    exp_chart = lambda u, v: (np.exp(u) * np.cos(v), np.exp(u) * np.sin(v))
    f = chart_from(rect, 51, exp_chart, lambda x, y: x * x)
    jac = interior_det_j(f)
    u = rect.x_nodes(51)[1:-1]
    uu = np.broadcast_to(u, jac.shape)
    assert np.max(np.abs(jac - np.exp(2 * uu)) / np.exp(2 * uu)) < 1e-3


def test_fd_chart_curvature_is_exact_on_a_sheared_chart():
    # an affine chart makes ell quadratic in (u, v), where central differences are exact
    f = chart_from(
        SQUARE, 21, lambda u, v: (u + 0.5 * v, v), lambda x, y: 1.5 * x * x - x * y + 0.25 * y * y
    )
    (lap, hess), jac = pde_analyze(f), interior_det_j(f)
    assert np.max(np.abs(jac - 1.0)) < 1e-13
    assert np.max(np.abs(lap - 3.5)) < 1e-10
    assert np.max(np.abs(hess - (3.0 * 0.5 - 1.0))) < 1e-10


def test_fd_chart_curvature_converges_at_second_order():
    rect = Rect(-0.5, 0.5, -0.5, 0.5)
    exp_chart = lambda u, v: (np.exp(u) * np.cos(v), np.exp(u) * np.sin(v))
    height = lambda x, y: np.sin(2 * x) * np.cos(3 * y)

    def errors(n):
        f = chart_from(rect, n, exp_chart, height)
        lap, hess = pde_analyze(f)
        xi, yi = f.x[1:-1, 1:-1], f.y[1:-1, 1:-1]
        fxx = -4 * np.sin(2 * xi) * np.cos(3 * yi)
        fyy = -9 * np.sin(2 * xi) * np.cos(3 * yi)
        fxy = -6 * np.cos(2 * xi) * np.sin(3 * yi)
        return np.max(np.abs(lap - (fxx + fyy))), np.max(np.abs(hess - (fxx * fyy - fxy**2)))

    coarse, fine = errors(51), errors(101)
    for c, g in zip(coarse, fine):
        assert 3.5 <= c / g <= 4.5


def test_fd_chart_curvature_named_errors(recwarn):
    # x = u^2 folds the chart along u = 0, where det J vanishes
    f = chart_from(SQUARE, 9, lambda u, v: (u * u, v), lambda x, y: x + y)
    with pytest.raises(FoldedChartError, match="chart .* folds"):
        pde_analyze(f)
    # a reflection reverses the orientation everywhere and folds nowhere
    f = chart_from(SQUARE, 9, lambda u, v: (-u, v), lambda x, y: x * x + y)
    assert np.max(np.abs(interior_det_j(f) + 1.0)) < 1e-13
    assert np.max(np.abs(pde_analyze(f)[0] - 2.0)) < 1e-11
    f = chart_from(SQUARE, 9, lambda u, v: (u, v), lambda x, y: 1e200 * (x * x + y * y))
    with pytest.raises(StencilOverflowError, match="float range"):
        pde_analyze(f)
    assert not recwarn.list
    with pytest.raises(ValueError, match="grid shape"):
        pde_analyze(replace(f, x=f.x[:, :-1]))
