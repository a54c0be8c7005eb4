"""Curvature value distribution over growing disks, and umbilic location."""

import math

import numpy as np
import pytest

from isocmc import holo, weierstrass
from isocmc.graphgeo import Rect
from isocmc.vdist import Verdict, sample_k_image, umbilic_scan

from util_expr import enneper_data, exp_data

Z = holo.Variable("z")
ONE = holo.Constant(1)


def brute_force_k_min(data, H, radius, n=401):
    """Dense polar grid maximization of |phi| over the closed disk."""
    phi = data.phi()
    r = np.sqrt(np.linspace(0.0, 1.0, n)) * radius
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    zz = np.outer(r, np.exp(1j * t)).ravel()
    vals = holo.evaluate(phi, {"z": zz})
    top = float(np.max(vals.real**2 + vals.imag**2))
    return H * H - top


# ---------------------------------------------------------------------------
# verdicts


def test_constant_curvature_family():
    report = sample_k_image(
        enneper_data(2), 1.0, [1.0, 2.0, 4.0], samples_per_radius=2000
    )
    assert report.verdict is Verdict.CONSTANT_K
    assert report.umbilic_points == []
    assert report.sup_bound == 1.0
    assert report.k_max[-1] == pytest.approx(0.0, abs=1e-12)
    assert report.k_min[-1] == pytest.approx(0.0, abs=1e-12)


def test_closed_at_sup_family():
    H = 1.0
    report = sample_k_image(
        enneper_data(3), H, [1.0, 2.0, 4.0], samples_per_radius=10_000
    )
    assert report.verdict is Verdict.CLOSED_AT_SUP
    assert len(report.umbilic_points) == 1
    assert abs(report.umbilic_points[0]) < 1e-9
    for r, k_min in zip(report.radii, report.k_min):
        want = H * H - 4.0 * r * r
        assert abs(k_min - want) <= 0.01 * abs(want)
        oracle = brute_force_k_min(enneper_data(3), H, r)
        assert abs(k_min - oracle) <= 0.01 * abs(oracle)


def test_open_below_sup_family():
    report = sample_k_image(
        exp_data(), 0.0, [1.0, 10.0], samples_per_radius=4000
    )
    assert report.verdict is Verdict.OPEN_BELOW_SUP
    assert report.umbilic_points == []
    # extremes of -e^{2x} over the disk sit on the boundary circle
    assert report.k_max[-1] == pytest.approx(-math.exp(-20.0), rel=1e-9)
    assert report.k_min[0] == pytest.approx(-math.exp(2.0), rel=1e-9)


def test_small_disk_is_inconclusive():
    report = sample_k_image(
        exp_data(), 0.0, [0.25], samples_per_radius=2000
    )
    assert report.verdict is Verdict.INCONCLUSIVE


def test_extremes_are_cumulative():
    report = sample_k_image(
        enneper_data(4), 0.5, [0.5, 1.0, 2.0, 3.0], samples_per_radius=1000
    )
    assert all(a >= b for a, b in zip(report.k_min, report.k_min[1:]))
    assert all(a <= b for a, b in zip(report.k_max, report.k_max[1:]))


def test_k_never_exceeds_the_sup():
    for data, H in [
        (enneper_data(2), 1.0),
        (enneper_data(3), 0.5),
        (exp_data(), 2.0),
    ]:
        report = sample_k_image(data, H, [1.0, 3.0], samples_per_radius=1000)
        assert report.k_max[-1] <= H * H


@pytest.mark.parametrize(
    "data", [enneper_data(3), exp_data()]
)
def test_unbounded_families_decay_by_decades(data):
    # K_min must fall at least tenfold per decade of radius
    report = sample_k_image(data, 1.0, [1.0, 10.0, 100.0], samples_per_radius=1000)
    assert report.k_min[1] <= 10.0 * report.k_min[0] < 0
    assert report.k_min[2] <= 10.0 * report.k_min[1]


def test_report_echoes_inputs_and_defaults():
    report = sample_k_image(
        enneper_data(2), 2.0, [1.0, 2.0], samples_per_radius=500
    )
    assert report.H == 2.0 and report.radii == [1.0, 2.0]
    assert report.const_tol == pytest.approx(1e-9 * 5.0)
    assert report.margin == pytest.approx(1e-3 * 5.0)


def test_sampling_validation():
    data = enneper_data(2)
    with pytest.raises(ValueError):
        sample_k_image(data, 1.0, [])
    with pytest.raises(ValueError):
        sample_k_image(data, 1.0, [2.0, 1.0])
    for radii in ([-1.0, 2.0], [math.nan], [1.0, math.inf]):
        with pytest.raises(ValueError, match="radii must be positive and finite"):
            sample_k_image(data, 1.0, radii)
    with pytest.raises(ValueError):
        sample_k_image(data, 1.0, [1.0], samples_per_radius=8)
    for H in (math.nan, math.inf):
        with pytest.raises(ValueError, match="H must be finite"):
            sample_k_image(data, H, [1.0])


# ---------------------------------------------------------------------------
# umbilic scan


def test_scan_finds_the_central_zero():
    pts = umbilic_scan(enneper_data(3), Rect(-1, 1, -1, 1), (41, 41))
    assert len(pts) == 1 and abs(pts[0]) < 1e-12


def test_scan_finds_symmetric_zero_pair():
    # phi = z^2 - 1 from h2 = z^3/3 - z
    h2 = holo.sub(holo.div(holo.intpow(Z, 3), holo.Constant(3)), Z)
    data = weierstrass.WeierstrassData(h2, ONE)
    pts = umbilic_scan(data, Rect(-2, 2, -2, 2), (61, 61))
    assert len(pts) == 2
    assert pts[0] == pytest.approx(-1.0, abs=1e-9)
    assert pts[1] == pytest.approx(1.0, abs=1e-9)


def test_scan_is_empty_for_exponential_potential():
    assert umbilic_scan(exp_data(), Rect(-2, 2, -2, 2), (101, 101)) == []


def test_scan_is_empty_for_constant_nonzero_potential():
    assert umbilic_scan(enneper_data(2), Rect(-2, 2, -2, 2), (41, 41)) == []


def test_scan_reports_one_representative_for_identically_zero_potential():
    data = weierstrass.WeierstrassData(holo.Constant(3), ONE)
    pts = umbilic_scan(data, Rect(-1, 1, -1, 1), (11, 11))
    assert len(pts) == 1


def test_scan_needs_three_nodes():
    with pytest.raises(ValueError):
        umbilic_scan(enneper_data(3), Rect(-1, 1, -1, 1), (2, 41))
