"""Surface synthesis from holomorphic generator pairs."""

import math

import numpy as np
import pytest

from isocmc import holo, weierstrass
from isocmc.graphgeo import Rect, pde_analyze
from isocmc.weierstrass import (
    LiftParams,
    NonGraphSampleError,
    SingularNodeError,
    WeierstrassData,
    enneper_data,
    exp_data,
    gauss_curvature,
    synthesize,
    synthesize_family,
)

Z = holo.Variable("z")
ONE = holo.Constant(1)
SQUARE = Rect(-1.0, 1.0, -1.0, 1.0)


def test_data_validation():
    with pytest.raises(ValueError):
        WeierstrassData(holo.parse("x^2"), ONE)
    with pytest.raises(ValueError):
        WeierstrassData(Z, holo.parse("y"))
    with pytest.raises(ValueError):
        WeierstrassData(Z, ONE, base_point=complex("nan"))


def test_curvature_potential_structure():
    data = enneper_data(3)  # h2 = z^2
    assert data.phi() == holo.Mul(holo.Constant(2), Z)


def test_enneper_data_starts_at_two():
    with pytest.raises(ValueError):
        enneper_data(1)


# ---------------------------------------------------------------------------
# the planar map, heights and K at the nodes of a lattice


def lattice(data, H, rect=SQUARE, n_u=9, n_v=7):
    """The sample of the pair on rect, and its parameter nodes z."""
    uu, vv = rect.mesh(n_u, n_v)
    return synthesize(data, LiftParams(H, rect, n_u, n_v)), uu + 1j * vv


def test_planar_map_identity():
    s, z = lattice(WeierstrassData(Z, ONE), 0.0, Rect(0.0, 3.0, 0.0, 4.0), 4, 5)
    assert np.array_equal(s.x + 1j * s.y, z) and z[-1, -1] == 3 + 4j


def test_planar_map_scaling():
    s, z = lattice(WeierstrassData(Z, holo.Constant(2)), 0.0)
    assert np.array_equal(s.x + 1j * s.y, 2 * z)


def test_planar_map_exponential():
    s, z = lattice(WeierstrassData(ONE, holo.Exp(Z)), 0.0)
    assert np.max(np.abs(s.x + 1j * s.y - (np.exp(z) - 1))) < 1e-12


def test_planar_map_quadrature_fallback():
    # exp(z^2) has no symbolic antiderivative; the straight-segment
    # quadrature must take over, and W vanishes at the base point
    data = WeierstrassData(ONE, holo.parse("exp(z^2)"))
    s, z = lattice(data, 0.0, Rect(0.0, 1.0, 0.0, 0.5), 5, 3)
    assert z[0, 0] == 0 and s.x[0, 0] == 0 and s.y[0, 0] == 0
    assert z[0, -1] == 1 and abs(s.x[0, -1] - 1.4626517459071815) < 1e-9


@pytest.mark.parametrize("z", [0.3 + 0.7j, -1.1 + 0.2j, 0.5j])
def test_height_saddle_closed_form(z):
    rect = Rect(z.real - 0.25, z.real + 0.25, z.imag - 0.25, z.imag + 0.25)
    s, zz = lattice(enneper_data(2), 0.0, rect)
    want = 0.5 * (zz.real**2 - zz.imag**2)
    assert np.max(np.abs(s.ell - want)) < 1e-12


def test_height_cubic_closed_form():
    s, z = lattice(enneper_data(3), 0.0)
    assert np.max(np.abs(s.ell - (z**3).real / 3.0)) < 1e-12


@pytest.mark.parametrize("H", [0.0, 0.5, 2.0])
def test_height_exponential_closed_form(H):
    s, z = lattice(exp_data(), H, Rect(-0.5, 0.5, 0.5, 1.5))
    x, y = z.real, z.imag
    want = 0.5 * H * (x * x + y * y) + np.exp(x) * np.cos(y) - 1.0
    assert np.max(np.abs(s.ell - want)) < 1e-12


def test_height_depends_on_H_only_through_the_bowl_term():
    data = enneper_data(4)
    flat, _ = lattice(data, 0.0)
    for H in (0.5, 3.0):
        s, _ = lattice(data, H)
        bowl = 0.5 * H * (s.x * s.x + s.y * s.y)
        np.testing.assert_allclose(s.ell - flat.ell, bowl, rtol=1e-13, atol=1e-15)


def test_analytic_curvature_polynomial_families():
    rect = Rect(-1.5, 1.5, -1.5, 1.5)  # the 7 x 7 lattice has z = 0 at its center
    for n in (2, 3, 4, 5):
        s, z = lattice(enneper_data(n), 1.0, rect, 7, 7)
        want = 1.0 - np.abs((n - 1) * z ** (n - 2)) ** 2
        np.testing.assert_allclose(s.analytic_gauss(), want, rtol=1e-12, atol=1e-12)
    # the quadratic member never vanishes, the cubic one vanishes at 0
    s2, z = lattice(enneper_data(2), 1.0, rect, 7, 7)
    assert z[3, 3] == 0 and s2.analytic_gauss()[3, 3] == 0.0 and not s2.umbilic_flags().any()
    s3, _ = lattice(enneper_data(3), 1.0, rect, 7, 7)
    assert s3.analytic_gauss()[3, 3] == 1.0
    assert np.argwhere(s3.umbilic_flags()).tolist() == [[3, 3]]


def test_analytic_curvature_exponential():
    phi = holo.evaluate(exp_data().phi(), {"z": np.array([0j, -3.0])})
    assert np.abs(phi[0]) >= weierstrass.UMBILIC_TOL
    assert gauss_curvature(2.0, phi[:1])[0] == pytest.approx(3.0)
    assert gauss_curvature(0.0, phi[1:])[0] == pytest.approx(-math.exp(-6.0))


def test_gauss_curvature_overflow_is_a_named_error():
    from isocmc import vdist

    assert vdist.CurvatureOverflowError is weierstrass.CurvatureOverflowError
    phi = np.array([1e100 + 0j, 3e200 - 1e10j])
    for values in (phi, complex(phi[1])):
        with pytest.raises(weierstrass.CurvatureOverflowError, match="float range"):
            weierstrass.gauss_curvature(1.0, values)
    assert weierstrass.gauss_curvature(2.0, phi[:1])[0] == 4.0 - 1e200
    with pytest.raises(weierstrass.CurvatureOverflowError):
        gauss_curvature(1.0, holo.evaluate(exp_data().phi(), {"z": 400.0}))


def test_induced_metric():
    # the metric |omega_hat|^2 |dz|^2 comes from the chart alone, so H never changes it
    data = WeierstrassData(ONE, holo.Exp(Z))
    flat, bowl = synthesize_family(data, [0.0, 2.0], Rect(-0.5, 0.5, -0.5, 0.5), 21, 21)
    jacs = [pde_analyze(*s.height_chart()).jacobian for s in (flat, bowl)]
    assert np.array_equal(jacs[0], jacs[1])
    sample = synthesize(exp_data(), LiftParams(1.0, SQUARE, 21, 21))
    jac = pde_analyze(*sample.height_chart()).jacobian
    assert np.max(np.abs(jac - 1.0)) < 1e-13


# ---------------------------------------------------------------------------
# grid synthesis


def test_synthesize_saddle_plus_bowl_is_a_cylinder():
    sample = synthesize(enneper_data(2), LiftParams(1.0, SQUARE, 11, 11))
    assert np.max(np.abs(sample.ell - sample.x**2)) < 1e-12


def test_synthesize_unit_form_keeps_the_parameter_lattice():
    params = LiftParams(0.7, SQUARE, 9, 13)
    sample = synthesize(enneper_data(3), params)
    uu, vv = np.meshgrid(SQUARE.x_nodes(9), SQUARE.y_nodes(13))
    assert np.array_equal(sample.x, uu)
    assert np.array_equal(sample.y, vv)


def test_synthesize_family_is_isometric():
    # identical (x, y) bit for bit; heights differ by the H-bowl alone
    params0 = LiftParams(0.0, SQUARE, 33, 33)
    base = synthesize(enneper_data(3), params0)
    for H in (1.5, 10.0):
        lifted = synthesize(enneper_data(3), LiftParams(H, SQUARE, 33, 33))
        assert np.array_equal(base.x, lifted.x)
        assert np.array_equal(base.y, lifted.y)
        bowl = 0.5 * H * (base.x**2 + base.y**2)
        assert np.max(np.abs(lifted.ell - base.ell - bowl)) <= 1e-12


def per_h_synthesis(data, H, rect, n, tol=holo.DEFAULT_QUAD_TOL):
    """(x, y, ell) as synthesize computed them one H at a time."""
    uu, vv = rect.mesh(n, n)
    grid = uu + 1j * vv
    w = weierstrass._integral_field(data.omega_hat, data.base_point, grid, tol)
    t = weierstrass._integral_field(
        holo.mul(data.h2, data.omega_hat), data.base_point, grid, tol
    )
    x, y = w.real, w.imag
    return x, y, 0.5 * H * (x * x + y * y) + t.real


@pytest.mark.parametrize(
    "data",
    [enneper_data(3), exp_data(), WeierstrassData(Z, holo.parse("1/(z+4)"))],
    ids=["cubic", "exp", "quadrature"],
)
def test_synthesize_family_matches_per_h_synthesis(data):
    h_values = [-1.25, 0.0, 0.1, 3.0]
    family = synthesize_family(data, h_values, SQUARE, 17, 17)
    assert [s.H for s in family] == h_values
    for s in family:
        x, y, ell = per_h_synthesis(data, s.H, SQUARE, 17)
        assert s.x.tobytes() == x.tobytes() and s.y.tobytes() == y.tobytes()
        assert s.ell.tobytes() == ell.tobytes()
        single = synthesize(data, LiftParams(s.H, SQUARE, 17, 17))
        assert single.ell.tobytes() == s.ell.tobytes()
        assert single.phi.tobytes() == s.phi.tobytes()
    with pytest.raises(ValueError, match="finite"):
        synthesize_family(data, [0.0, float("inf")], SQUARE, 5, 5)


def test_synthesize_is_deterministic():
    a = synthesize(exp_data(), LiftParams(0.5, SQUARE, 21, 21))
    b = synthesize(exp_data(), LiftParams(0.5, SQUARE, 21, 21))
    assert np.array_equal(a.ell, b.ell) and np.array_equal(a.x, b.x)


def test_synthesize_names_the_singular_node():
    data = WeierstrassData(ONE, Z)  # omega vanishes at the origin
    with pytest.raises(SingularNodeError, match=r"\(u=2, v=2\), z = 0j"):
        synthesize(data, LiftParams(0.0, SQUARE, 5, 5))


def test_synthesize_quadrature_only_pair():
    data = WeierstrassData(ONE, holo.parse("exp(z^2)"))
    rect = Rect(0.0, 1.0, 0.0, 0.5)
    sample = synthesize(data, LiftParams(0.0, rect, 5, 3))
    # the (u=last, v=0) corner is reached along the real axis
    assert sample.x[0, -1] == pytest.approx(1.4626517459071815, abs=1e-9)
    assert sample.y[0, 0] == 0.0


def test_synthesize_quadrature_oracle():
    # neither 1/(z+4) nor z/(z+4) has a closed-form antiderivative here, so
    # both fields take the batched quadrature; a node's path has at most
    # n_u + n_v - 1 segments, each integrated to tol
    data = WeierstrassData(Z, holo.parse("1/(z+4)"))
    assert holo.antiderivative(data.omega_hat) is None
    n, tol = 41, holo.DEFAULT_QUAD_TOL
    sample = synthesize(data, LiftParams(0.0, SQUARE, n, n), tol)
    uu, vv = np.meshgrid(SQUARE.x_nodes(n), SQUARE.y_nodes(n))
    z = uu + 1j * vv
    bound = (n + n) * tol
    assert np.max(np.abs(sample.x + 1j * sample.y - np.log1p(z / 4))) <= bound
    assert np.max(np.abs(sample.ell - (z - 4 * np.log1p(z / 4)).real)) <= bound


def test_umbilic_flags_and_gauss_grid():
    sample = synthesize(enneper_data(3), LiftParams(1.0, SQUARE, 21, 21))
    flags = sample.umbilic_flags()
    assert flags[10, 10] and np.count_nonzero(flags) == 1
    k = sample.analytic_gauss()
    want = 1.0 - 4.0 * (sample.x**2 + sample.y**2)
    assert np.max(np.abs(k - want)) < 1e-12


def test_as_height_field_for_graph_samples():
    sample = synthesize(enneper_data(3), LiftParams(2.0, SQUARE, 11, 11))
    field = sample.as_height_field()
    assert field.domain == SQUARE
    assert np.array_equal(field.values, sample.ell)


def test_as_height_field_rejects_curved_charts():
    data = WeierstrassData(ONE, holo.Exp(Z))
    sample = synthesize(data, LiftParams(0.0, Rect(-0.5, 0.5, -0.5, 0.5), 9, 9))
    with pytest.raises(NonGraphSampleError):
        sample.as_height_field()


def test_coordinate_fields_carry_the_conformal_factor():
    data = WeierstrassData(ONE, holo.Exp(Z))
    rect = Rect(-0.5, 0.5, -0.5, 0.5)
    sample = synthesize(data, LiftParams(0.0, rect, 51, 51))
    jac = pde_analyze(*sample.height_chart()).jacobian
    # a conformal chart has det J = |omega_hat|^2
    uu, vv = rect.mesh(51, 51)
    omega = holo.evaluate(data.omega_hat, {"z": uu + 1j * vv})[1:-1, 1:-1]
    want = np.abs(omega) ** 2
    assert np.max(np.abs(jac - want) / want) < 1e-3


def test_lift_params_validation():
    with pytest.raises(ValueError):
        LiftParams(0.0, SQUARE, 1, 5)
    with pytest.raises(ValueError):
        LiftParams(float("inf"), SQUARE, 5, 5)
