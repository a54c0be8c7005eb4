"""Surface synthesis from holomorphic generator pairs."""

import math

import numpy as np
import pytest

from isocmc import holo, weierstrass
from isocmc.graphgeo import Rect
from isocmc.weierstrass import (
    NonGraphSampleError,
    SingularNodeError,
    WeierstrassData,
    gauss_curvature,
    synthesize_family,
)

from util_expr import enneper_data, exp_data, lift_one
from util_grid import interior_det_j

Z = holo.Variable("z")
ONE = holo.Constant(1)
SQUARE = Rect(-1.0, 1.0, -1.0, 1.0)


def test_data_validation():
    with pytest.raises(ValueError):
        WeierstrassData(holo.parse("x^2"), ONE)
    with pytest.raises(ValueError):
        WeierstrassData(Z, holo.parse("y"))


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
    return lift_one(data, H, rect, n_u, n_v), uu + 1j * vv


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
    jacs = [interior_det_j(s) for s in (flat, bowl)]
    assert np.array_equal(jacs[0], jacs[1])
    sample = lift_one(exp_data(), 1.0, SQUARE, 21, 21)
    jac = interior_det_j(sample)
    assert np.max(np.abs(jac - 1.0)) < 1e-13


# ---------------------------------------------------------------------------
# grid synthesis


def test_synthesize_saddle_plus_bowl_is_a_cylinder():
    sample = lift_one(enneper_data(2), 1.0, SQUARE, 11, 11)
    assert np.max(np.abs(sample.ell - sample.x**2)) < 1e-12


def test_synthesize_unit_form_keeps_the_parameter_lattice():
    sample = lift_one(enneper_data(3), 0.7, SQUARE, 9, 13)
    uu, vv = np.meshgrid(SQUARE.x_nodes(9), SQUARE.y_nodes(13))
    assert np.array_equal(sample.x, uu)
    assert np.array_equal(sample.y, vv)


def test_synthesize_family_is_isometric():
    # identical (x, y) bit for bit; heights differ by the H-bowl alone
    base = lift_one(enneper_data(3), 0.0, SQUARE, 33, 33)
    for H in (1.5, 10.0):
        lifted = lift_one(enneper_data(3), H, SQUARE, 33, 33)
        assert np.array_equal(base.x, lifted.x)
        assert np.array_equal(base.y, lifted.y)
        bowl = 0.5 * H * (base.x**2 + base.y**2)
        assert np.max(np.abs(lifted.ell - base.ell - bowl)) <= 1e-12


def per_h_synthesis(data, H, rect, n, tol=holo.DEFAULT_QUAD_TOL):
    """(x, y, ell) computed for one H alone."""
    uu, vv = rect.mesh(n, n)
    grid = uu + 1j * vv
    (w,) = weierstrass._integral_fields([data.omega_hat], grid, tol)
    (t,) = weierstrass._integral_fields([holo.mul(data.h2, data.omega_hat)], grid, tol)
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
        single = lift_one(data, s.H, SQUARE, 17, 17)
        assert single.ell.tobytes() == s.ell.tobytes()
        assert single.phi.tobytes() == s.phi.tobytes()
    with pytest.raises(ValueError, match="finite"):
        synthesize_family(data, [0.0, float("inf")], SQUARE, 5, 5)


def test_synthesize_is_deterministic():
    a = lift_one(exp_data(), 0.5, SQUARE, 21, 21)
    b = lift_one(exp_data(), 0.5, SQUARE, 21, 21)
    assert np.array_equal(a.ell, b.ell) and np.array_equal(a.x, b.x)


def test_synthesize_names_the_singular_node():
    data = WeierstrassData(ONE, Z)  # omega vanishes at the origin
    with pytest.raises(SingularNodeError, match=r"\(u=2, v=2\), z = 0j"):
        lift_one(data, 0.0, SQUARE, 5, 5)


def test_synthesize_quadrature_only_pair():
    data = WeierstrassData(ONE, holo.parse("exp(z^2)"))
    rect = Rect(0.0, 1.0, 0.0, 0.5)
    sample = lift_one(data, 0.0, rect, 5, 3)
    # the (u=last, v=0) corner is reached along the real axis
    assert sample.x[0, -1] == pytest.approx(1.4626517459071815, abs=1e-9)
    assert sample.y[0, 0] == 0.0


def readme_bound(e, n_u, n_v, tol=holo.DEFAULT_QUAD_TOL):
    """README's bound on a node's quadrature error over SQUARE, (n_u + n_v - 1) * tol
    + 1e-12 * P: no path (start, column, row) is longer than sqrt(2) + 4, and, e
    being holomorphic on the square, |e| on it peaks on its boundary."""
    t = np.linspace(-1.0, 1.0, 4001)
    boundary = np.concatenate([t - 1j, t + 1j, 1j * t - 1, 1j * t + 1])
    peak = np.max(np.abs(holo.evaluate(e, {"z": boundary})))
    return (n_u + n_v - 1) * tol + 1e-12 * (math.sqrt(2) + 4) * peak


def test_synthesize_quadrature_oracle():
    # neither 1/(z+4) nor z/(z+4) has a closed-form antiderivative here, so
    # both fields take the lattice quadrature, on even and odd edge counts
    data = WeierstrassData(Z, holo.parse("1/(z+4)"))
    assert holo.antiderivative(data.omega_hat) is None
    for n_u, n_v in ((41, 41), (40, 41), (3, 2)):
        sample = lift_one(data, 0.0, SQUARE, n_u, n_v)
        uu, vv = np.meshgrid(SQUARE.x_nodes(n_u), SQUARE.y_nodes(n_v))
        z = uu + 1j * vv
        w_bound = readme_bound(data.omega_hat, n_u, n_v)
        t_bound = readme_bound(holo.mul(data.h2, data.omega_hat), n_u, n_v)
        assert np.max(np.abs(sample.x + 1j * sample.y - np.log1p(z / 4))) <= w_bound
        assert np.max(np.abs(sample.ell - (z - 4 * np.log1p(z / 4)).real)) <= t_bound


def along_the_path(segment, grid):
    """Running sums of segment(za, zb) over the edges of the lattice path: from 0
    to the first node, down the first column, then along each row."""
    start = segment(np.zeros(1, dtype=complex), grid[:1, 0])
    column = segment(grid[:-1, 0], grid[1:, 0])
    rows = segment(grid[:, :-1], grid[:, 1:])
    firsts = np.cumsum(np.concatenate((start, column)))
    return np.cumsum(np.concatenate((firsts[:, None], rows), axis=1), axis=1)


def per_segment_integrals(e, grid, tol=holo.DEFAULT_QUAD_TOL):
    """The lattice quadrature with every edge of the path its own contour_integral."""
    return along_the_path(lambda za, zb: holo.contour_integral([e], za, zb, tol)[0], grid)


def kronrod_edges(e, za, zb):
    """Kronrod values of the whole edges za -> zb under the 21-point rule,
    in the arithmetic the lattice quadrature keeps for the edges it accepts whole:
    the nodes za + (1 + x) / 2 * (zb - za), and np.dot over a (k, 1, 21) array."""
    za, zb = np.broadcast_arrays(za, zb)
    (_, kronrod_weights), nodes = holo._gauss_kronrod()
    dz = (zb - za).reshape(-1, 1)
    f = holo.evaluate(e, {"z": za.reshape(-1, 1, 1) + (0.5 + 0.5 * nodes) * dz[..., None]})
    return (dz * 0.5 * np.dot(f, kronrod_weights))[:, 0].reshape(za.shape)


def test_lattice_quadrature_keeps_the_bits_of_whole_edges():
    # 1/(z+4.3) is smooth on the square, so every edge of the 201 x 201 lattice's
    # path, the start segment too, is accepted whole: W and the height integral
    # equal the running sums of the edges' 21-point Kronrod values bit for bit
    data = WeierstrassData(holo.parse("0.7*z^2-0.3*z+1.1"), holo.parse("1/(z+4.3)"))
    exprs = [data.omega_hat, holo.mul(data.h2, data.omega_hat)]
    uu, vv = SQUARE.mesh(201, 201)
    grid = uu + 1j * vv
    fields = weierstrass._cumulative_integrals(exprs, grid, holo.DEFAULT_QUAD_TOL)
    for e, field in zip(exprs, fields):
        want = along_the_path(lambda za, zb: kronrod_edges(e, za, zb), grid)
        assert np.array_equal(field, want)


@pytest.mark.parametrize("omega", ["1/(z-1.02)", "1/(z-1.001)"])
def test_lattice_quadrature_near_a_pole_matches_the_per_segment_reference(omega, monkeypatch):
    # the pole sits 0.02 or 0.001 off the right edge of the square; at 21 x 21 the
    # Gauss and Kronrod rules of the edges next to it disagree, so those are bisected
    pole, omega, n = float(omega[5:-1]), holo.parse(omega), 21
    uu, vv = SQUARE.mesh(n, n)
    grid = uu + 1j * vv
    calls, evaluate = [], holo.evaluate

    def spied(expr, at):
        calls.append(np.ravel(at["z"]).copy())
        return evaluate(expr, at)

    monkeypatch.setattr(holo, "evaluate", spied)
    (got,) = weierstrass._integral_fields([omega], grid, holo.DEFAULT_QUAD_TOL)
    monkeypatch.undo()
    assert calls[0].size == 21 * grid.size  # every edge whole, in one batch
    redone = np.concatenate(calls[1:])
    assert redone.size and np.all(redone.real > 0.5)  # then panels of edges near the pole
    assert redone.size < 0.1 * 21 * grid.size
    assert np.array_equal(got, per_segment_integrals(omega, grid))
    assert np.max(np.abs(got - np.log1p(-grid / pole))) <= readme_bound(omega, n, n)


def test_lattice_quadrature_checks_each_edge_alone():
    # the integrand is odd about z = 0.5, a node of the row y = 0, and its poles
    # 0.5 +- 0.01i sit 0.01 off that row: the 10-point rules over the edges
    # 0 -> 0.5 and 0.5 -> 1 are far off, but their errors cancel in their sum
    e, n = holo.parse("(z-0.5)/((z-0.5)^2+0.0001)"), 5
    uu, vv = SQUARE.mesh(n, n)
    grid = uu + 1j * vv
    (got,) = weierstrass._integral_fields([e], grid, holo.DEFAULT_QUAD_TOL)
    # its primitive is 0.5 * log((z - 0.5)^2 + 1e-4) = 0.5 * (log(z - p) + log(z - p*)),
    # p = 0.5 + 0.01i; seen from a pole, a straight edge turns by less than pi, so
    # the principal logarithm of each ratio is that edge's exact increment
    poles = (0.5 + 0.01j, 0.5 - 0.01j)
    want = along_the_path(lambda za, zb: 0.5 * sum(np.log((zb - p) / (za - p)) for p in poles), grid)
    bound = 2 * (n + n - 1) * holo.DEFAULT_QUAD_TOL
    assert grid[2, 3] == 0.5 and abs(got[2, 3] - want[2, 3]) <= bound
    assert np.max(np.abs(got - want)) <= bound
    # along the real row its primitive is 0.5 * log((x - 0.5)^2 + 1e-4)
    exact = 0.5 * np.log((grid[2, 3:].real - 0.5) ** 2 + 1e-4)
    assert np.max(np.abs(got[2, 3:] - got[2, 3] - (exact - exact[0]))) <= bound


@pytest.mark.parametrize(
    "h2, omega, error",
    [("1/z", "1", holo.SingularityError), ("z", "1/(z-0.3)", holo.QuadratureError)],
    ids=["pole-at-a-node", "pole-inside-an-edge"],
)
def test_lattice_quadrature_errors_are_named(h2, omega, error):
    # 1/z is integrated up to its pole at the node z = 0 until a bisection node
    # lands on it; 1/(z - 0.3) on the edge 0 -> 0.5 never meets the panel budget
    data = WeierstrassData(holo.parse(h2), holo.parse(omega))
    with pytest.raises(error):
        lift_one(data, 0.0, SQUARE, 5, 5)


def test_lattice_quadrature_evaluates_in_bounded_batches(monkeypatch):
    # 61 x 61 lattice: 3660 row edges, 21 nodes each, so several batches
    points, evaluate = [], holo.evaluate

    def counted(expr, at):
        points.append(np.size(at["z"]))
        return evaluate(expr, at)

    uu, vv = SQUARE.mesh(61, 61)
    exprs = [holo.parse("1/(z+4)"), holo.parse("z/(z+4)")]
    monkeypatch.setattr(holo, "evaluate", counted)
    weierstrass._cumulative_integrals(exprs, uu + 1j * vv, holo.DEFAULT_QUAD_TOL)
    assert max(points) <= holo.MAX_EVAL_NODES
    assert sum(points) < 2 * 61 * 61 * 22  # 21 nodes per edge and expression, not 30
    assert len([p for p in points if p > holo.MAX_EVAL_NODES // 2]) >= 2 * 3


def test_umbilic_flags_and_gauss_grid():
    sample = lift_one(enneper_data(3), 1.0, SQUARE, 21, 21)
    flags = sample.umbilic_flags()
    assert flags[10, 10] and np.count_nonzero(flags) == 1
    k = sample.analytic_gauss()
    want = 1.0 - 4.0 * (sample.x**2 + sample.y**2)
    assert np.max(np.abs(k - want)) < 1e-12


def test_as_height_field_for_graph_samples():
    sample = lift_one(enneper_data(3), 2.0, SQUARE, 11, 11)
    field = sample.as_height_field()
    assert field.domain == SQUARE
    assert np.array_equal(field.ell, sample.ell)


def test_as_height_field_rejects_curved_charts():
    data = WeierstrassData(ONE, holo.Exp(Z))
    sample = lift_one(data, 0.0, Rect(-0.5, 0.5, -0.5, 0.5), 9, 9)
    with pytest.raises(NonGraphSampleError):
        sample.as_height_field()


def test_coordinate_fields_carry_the_conformal_factor():
    data = WeierstrassData(ONE, holo.Exp(Z))
    rect = Rect(-0.5, 0.5, -0.5, 0.5)
    sample = lift_one(data, 0.0, rect, 51, 51)
    jac = interior_det_j(sample)
    # a conformal chart has det J = |omega_hat|^2
    uu, vv = rect.mesh(51, 51)
    omega = holo.evaluate(data.omega_hat, {"z": uu + 1j * vv})[1:-1, 1:-1]
    want = np.abs(omega) ** 2
    assert np.max(np.abs(jac - want) / want) < 1e-3


def test_lift_params_validation():
    with pytest.raises(ValueError, match="grid needs at least 2 nodes per axis"):
        synthesize_family(enneper_data(2), [0.0], SQUARE, 1, 5)
    with pytest.raises(ValueError, match="H must be finite"):
        synthesize_family(enneper_data(2), [0.0, float("inf")], SQUARE, 5, 5)
