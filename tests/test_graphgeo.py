"""Finite-difference curvature on graphs and on curved charts, PDE views, quadratic fit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocmc import holo, weierstrass
from isocmc.graphgeo import (
    GridTooSmallError,
    Rect,
    ScalarField,
    FoldedChartError,
    StencilOverflowError,
    lattice_shift,
    pde_analyze,
    quadratic_test,
)

from util_expr import enneper_data, exp_data, lift_one, quadric_field

SQUARE = Rect(-1.0, 1.0, -1.0, 1.0)


def field_from(rect: Rect, n_x: int, n_y: int, fn) -> ScalarField:
    x, y = np.meshgrid(rect.x_nodes(n_x), rect.y_nodes(n_y))
    return ScalarField(rect, fn(x, y))


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
    with pytest.raises(GridTooSmallError):
        ScalarField(SQUARE, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        ScalarField(SQUARE, np.full((5, 5), np.nan))
    f = field_from(SQUARE, 5, 9, lambda x, y: x)
    assert f.n_x == 5 and f.n_y == 9
    assert f.h_x == pytest.approx(0.5)
    assert f.h_y == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# curvature stencils


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, -0.5), (0.0, 1.0), (1.5, 1.5)])
def test_fd_curvatures_exact_on_diagonal_quadratics(alpha, beta):
    f = field_from(SQUARE, 31, 31, lambda x, y: alpha * x * x + beta * y * y)
    report = pde_analyze(*f.height_chart())
    assert np.max(np.abs(0.5 * report.laplacian - (alpha + beta))) < 1e-10
    assert np.max(np.abs(report.hessian_det - 4 * alpha * beta)) < 1e-10


def test_fd_mean_curvature_bowl():
    f = field_from(SQUARE, 21, 21, lambda x, y: x * x + y * y)
    assert np.max(np.abs(0.5 * pde_analyze(*f.height_chart()).laplacian - 2.0)) < 1e-12


def test_fd_gauss_curvature_saddle():
    f = field_from(SQUARE, 21, 21, lambda x, y: 0.5 * (x * x - y * y))
    assert np.max(np.abs(pde_analyze(*f.height_chart()).hessian_det + 1.0)) < 1e-12


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
    report = pde_analyze(*f.height_chart())
    h, k = 0.5 * report.laplacian, report.hessian_det
    assert np.max(np.abs(h - (d + g))) < 1e-8
    assert np.max(np.abs(k - (4 * d * g - e * e))) < 1e-8


def test_fd_mean_curvature_recovers_lift_H():
    # cross-module oracle: a synthesized cubic graph carries its input H
    data = enneper_data(3)
    sample = lift_one(data, 1.5, SQUARE, 101, 101)
    h = 0.5 * pde_analyze(*sample.height_chart()).laplacian
    assert np.max(np.abs(h - 1.5)) < 1e-10


def test_fd_gauss_curvature_on_exponential_graph():
    data = exp_data()
    sample = lift_one(data, 0.5, SQUARE, 201, 201)
    k_fd = pde_analyze(*sample.height_chart()).hessian_det
    k_true = 0.25 - np.exp(2.0 * sample.x[1:-1, 1:-1])
    assert np.max(np.abs(k_fd - k_true)) < 1e-4


def test_fd_convergence_is_second_order():
    def exact_errors(n):
        f = field_from(SQUARE, n, n, lambda x, y: np.sin(2 * x) * np.cos(3 * y))
        x, y = f.meshgrid()
        xi, yi = x[1:-1, 1:-1], y[1:-1, 1:-1]
        fxx = -4 * np.sin(2 * xi) * np.cos(3 * yi)
        fyy = -9 * np.sin(2 * xi) * np.cos(3 * yi)
        fxy = -6 * np.cos(2 * xi) * np.sin(3 * yi)
        report = pde_analyze(f, x, y)
        err_h = np.max(np.abs(0.5 * report.laplacian - 0.5 * (fxx + fyy)))
        err_k = np.max(np.abs(report.hessian_det - (fxx * fyy - fxy**2)))
        return err_h, err_k

    coarse = exact_errors(51)
    fine = exact_errors(101)  # halves h
    assert coarse[0] / fine[0] >= 3.5
    assert coarse[1] / fine[1] >= 3.5


# ---------------------------------------------------------------------------
# PDE views


def test_pde_analyze_bowl():
    f = field_from(SQUARE, 21, 21, lambda x, y: x * x + y * y)
    report = pde_analyze(*f.height_chart())
    assert np.ptp(report.laplacian) < 1e-6  # constant, at the pde command's default
    assert np.max(np.abs(report.laplacian - 4.0)) < 1e-12
    assert np.max(np.abs(report.hessian_det - 4.0)) < 1e-12
    lo, hi = report.hessian_det.min(), report.hessian_det.max()
    assert lo == pytest.approx(4.0) and hi == pytest.approx(4.0)


def test_pde_analyze_runs_the_lattice_stencils_on_a_translated_chart():
    f, x, y = field_from(SQUARE, 25, 25, lambda x, y: np.sin(x) * y + x * x).height_chart()
    assert lattice_shift(f, x, y) == (0.0, 0.0)
    moved = (x + 0.3, y - 2.0)
    assert lattice_shift(f, *moved) == pytest.approx((0.3, -2.0))
    assert lattice_shift(f, x + 1e-6 * y, y) is None
    report, translated = pde_analyze(f, x, y), pde_analyze(f, *moved)
    assert np.array_equal(report.laplacian, translated.laplacian)
    assert np.array_equal(report.hessian_det, translated.hessian_det)
    assert np.array_equal(translated.jacobian, np.ones_like(report.laplacian))
    f_xx = (f.values[1:-1, 2:] - 2.0 * f.values[1:-1, 1:-1] + f.values[1:-1, :-2]) / f.h_x**2
    f_yy = (f.values[2:, 1:-1] - 2.0 * f.values[1:-1, 1:-1] + f.values[:-2, 1:-1]) / f.h_y**2
    assert np.array_equal(report.laplacian, f_xx + f_yy)


def test_pde_analyze_cubic_lift():
    # H(x^2+y^2)/2 + Re(z^3)/3 has constant laplacian but varying hessian
    H = 1.5

    def lift(x, y):
        return 0.5 * H * (x * x + y * y) + (x**3 - 3 * x * y * y) / 3.0

    f, x, y = field_from(SQUARE, 41, 41, lift).height_chart()
    report = pde_analyze(f, x, y)
    assert np.ptp(report.laplacian) < 1e-6
    assert np.max(np.abs(report.laplacian - 2 * H)) < 1e-10
    xi, yi = x[1:-1, 1:-1], y[1:-1, 1:-1]
    want = H * H - 4.0 * (xi * xi + yi * yi)
    assert np.max(np.abs(report.hessian_det - want)) < 1e-8
    assert np.ptp(report.hessian_det) > 1.0  # genuinely non-constant


def test_pde_analyze_flags_non_constant_laplacian():
    f = field_from(SQUARE, 21, 21, lambda x, y: x**3)
    assert np.ptp(pde_analyze(*f.height_chart()).laplacian) >= 1e-6


def test_pde_analyze_overflow_is_a_named_error():
    huge = field_from(SQUARE, 9, 9, lambda x, y: 1e200 * (x * x + y * y))
    with pytest.raises(StencilOverflowError, match="float range"):
        pde_analyze(*huge.height_chart())  # Hessian determinant ~ 1e400
    zigzag = field_from(SQUARE, 9, 9, lambda x, y: 1e307 * np.cos(4 * np.pi * x))
    with pytest.raises(StencilOverflowError):
        pde_analyze(*zigzag.height_chart())  # f_xx = -4e307 / h^2 with h = 1/4


def test_fd_curvatures_overflow_is_a_named_error(recwarn):
    # Re exp(z) near Re z = 400 is about 5e173, so f_xx * f_yy is past the float range
    sample = lift_one(exp_data(), 1.0, Rect(390.0, 400.0, -1.0, 1.0), 11, 11)
    for field, x, y in (sample.height_chart(), sample.as_height_field().height_chart()):
        with pytest.raises(StencilOverflowError, match="float range"):
            pde_analyze(field, x, y)
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
    ok, coeffs = quadratic_test(*f.height_chart())
    assert ok
    np.testing.assert_allclose(coeffs, [1, 2, -1, 1, -1, 3], atol=1e-10)


def test_quadratic_test_rejects_cubic():
    f = field_from(SQUARE, 15, 15, lambda x, y: x**3 / 3.0)
    ok, _ = quadratic_test(*f.height_chart())
    assert not ok


def test_quadratic_test_on_normal_form():
    field = quadric_field(1.0, -3.0, SQUARE, 15, 15)  # alpha = 3/2, beta = -1/2
    ok, coeffs = quadratic_test(*field.height_chart())
    assert ok
    assert coeffs[3] == pytest.approx(1.5, abs=1e-10)
    assert coeffs[5] == pytest.approx(-0.5, abs=1e-10)


def column_stack_fit(f, x, y):
    """The coefficients of the C-order column_stack design that quadratic_test replaced."""
    xs, ys = np.ravel(x), np.ravel(y)
    design = np.column_stack([np.ones_like(xs), xs, ys, xs * xs, xs * ys, ys * ys])
    return np.linalg.lstsq(design, f.values.ravel(), rcond=None)[0]


def fit_cases():
    rng = np.random.default_rng(7)
    rect = Rect(-1.0, 1.3, -0.7, 2.0)
    for n in (7, 9, 31, 101, 201):
        xx, yy = rect.mesh(n, n)
        c = rng.normal(size=8)
        quad = c[0] + c[1] * xx + c[2] * yy + c[3] * xx * xx + c[4] * xx * yy + c[5] * yy * yy
        yield pytest.param(ScalarField(rect, quad), xx, yy, id=f"quadric-{n}")
        cubic = quad + c[6] * xx**3 + c[7] * xx * yy * yy
        yield pytest.param(ScalarField(rect, cubic), xx, yy, id=f"cubic-{n}")
    z = holo.Variable("z")
    chart = lift_one(weierstrass.WeierstrassData(z, holo.Exp(z)), 0.5, SQUARE, 41, 37)
    yield pytest.param(*chart.height_chart(), id="chart-41x37")


@pytest.mark.parametrize("f, x, y", fit_cases())
def test_quadratic_fit_matches_the_column_stack_design_bitwise(f, x, y):
    _, coeffs = quadratic_test(f, x, y)
    assert coeffs.tobytes() == column_stack_fit(f, x, y).tobytes()


def test_quadratic_test_needs_seven_nodes():
    f = field_from(SQUARE, 5, 9, lambda x, y: x * y)
    with pytest.raises(GridTooSmallError):
        quadratic_test(*f.height_chart())


# ---------------------------------------------------------------------------
# curved charts: the chain rule over the parameter lattice


def chart_from(rect: Rect, n: int, chart, height):
    """ell = height(x, y) sampled at the chart points (x, y) = chart(u, v)."""
    u, v = np.meshgrid(rect.x_nodes(n), rect.y_nodes(n))
    x, y = chart(u, v)
    return ScalarField(rect, height(x, y)), x, y


def test_fd_metric_identity_chart():
    f, x, y = chart_from(SQUARE, 21, lambda u, v: (u, v), lambda x, y: x * x + y * y)
    report = pde_analyze(f, x, y)
    lap, hess, jac = report.laplacian, report.hessian_det, report.jacobian
    assert np.max(np.abs(jac - 1.0)) < 1e-13
    assert np.max(np.abs(lap - 4.0)) < 1e-11
    assert np.max(np.abs(hess - 4.0)) < 1e-11


def test_fd_metric_rotated_chart_is_isometric():
    t = 0.7
    rotation = lambda u, v: (np.cos(t) * u - np.sin(t) * v, np.sin(t) * u + np.cos(t) * v)
    f, x, y = chart_from(SQUARE, 21, rotation, lambda x, y: x * y)
    report = pde_analyze(f, x, y)
    lap, hess, jac = report.laplacian, report.hessian_det, report.jacobian
    assert np.max(np.abs(jac - 1.0)) < 1e-12
    assert np.max(np.abs(lap)) < 1e-10
    assert np.max(np.abs(hess + 1.0)) < 1e-10


def test_fd_metric_conformal_exponential_chart():
    rect = Rect(-0.5, 0.5, -0.5, 0.5)
    exp_chart = lambda u, v: (np.exp(u) * np.cos(v), np.exp(u) * np.sin(v))
    f, x, y = chart_from(rect, 51, exp_chart, lambda x, y: x * x)
    jac = pde_analyze(f, x, y).jacobian
    u = rect.x_nodes(51)[1:-1]
    uu = np.broadcast_to(u, jac.shape)
    assert np.max(np.abs(jac - np.exp(2 * uu)) / np.exp(2 * uu)) < 1e-3


def test_fd_chart_curvature_is_exact_on_a_sheared_chart():
    # an affine chart makes ell quadratic in (u, v), where central differences are exact
    f, x, y = chart_from(
        SQUARE, 21, lambda u, v: (u + 0.5 * v, v), lambda x, y: 1.5 * x * x - x * y + 0.25 * y * y
    )
    report = pde_analyze(f, x, y)
    lap, hess, jac = report.laplacian, report.hessian_det, report.jacobian
    assert np.max(np.abs(jac - 1.0)) < 1e-13
    assert np.max(np.abs(lap - 3.5)) < 1e-10
    assert np.max(np.abs(hess - (3.0 * 0.5 - 1.0))) < 1e-10


def test_fd_chart_curvature_converges_at_second_order():
    rect = Rect(-0.5, 0.5, -0.5, 0.5)
    exp_chart = lambda u, v: (np.exp(u) * np.cos(v), np.exp(u) * np.sin(v))
    height = lambda x, y: np.sin(2 * x) * np.cos(3 * y)

    def errors(n):
        f, x, y = chart_from(rect, n, exp_chart, height)
        report = pde_analyze(f, x, y)
        lap, hess = report.laplacian, report.hessian_det
        xi, yi = x[1:-1, 1:-1], y[1:-1, 1:-1]
        fxx = -4 * np.sin(2 * xi) * np.cos(3 * yi)
        fyy = -9 * np.sin(2 * xi) * np.cos(3 * yi)
        fxy = -6 * np.cos(2 * xi) * np.sin(3 * yi)
        return np.max(np.abs(lap - (fxx + fyy))), np.max(np.abs(hess - (fxx * fyy - fxy**2)))

    coarse, fine = errors(51), errors(101)
    for c, g in zip(coarse, fine):
        assert 3.5 <= c / g <= 4.5


def test_fd_chart_curvature_named_errors(recwarn):
    # x = u^2 folds the chart along u = 0, where det J vanishes
    f, x, y = chart_from(SQUARE, 9, lambda u, v: (u * u, v), lambda x, y: x + y)
    with pytest.raises(FoldedChartError, match="chart .* folds"):
        pde_analyze(f, x, y)
    # a reflection reverses the orientation everywhere and folds nowhere
    f, x, y = chart_from(SQUARE, 9, lambda u, v: (-u, v), lambda x, y: x * x + y)
    report = pde_analyze(f, x, y)
    assert np.max(np.abs(report.jacobian + 1.0)) < 1e-13
    assert np.max(np.abs(report.laplacian - 2.0)) < 1e-11
    f, x, y = chart_from(SQUARE, 9, lambda u, v: (u, v), lambda x, y: 1e200 * (x * x + y * y))
    with pytest.raises(StencilOverflowError, match="float range"):
        pde_analyze(f, x, y)
    assert not recwarn.list
    with pytest.raises(ValueError, match="grid shape"):
        pde_analyze(f, x[:, :-1], y)
