"""Acceptance suite: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each prints ``[PASS]`` or ``[FAIL]`` with the measured numbers before the
assertion fires.
"""

import math
import time

import numpy as np

from isocmc import holo
from isocmc.classify import SurfaceClass, classify_sample, label_from_constants
from isocmc.graphgeo import (
    Rect,
    ScalarField,
    pde_analyze,
    quadratic_test,
)
from isocmc.vdist import Verdict, sample_k_image, umbilic_scan

from util_expr import enneper_data, exp_data, lift_one, quadric_field, random_expr

SQUARE = Rect(-1.0, 1.0, -1.0, 1.0)


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_constant_curvature_family():
    start = time.perf_counter()
    worst_analytic = 0.0
    worst_fd = 0.0
    label = None
    for H in (0.0, 1.0, 2.0):
        sample = lift_one(enneper_data(2), H, SQUARE, 201, 201)
        want = H * H - 1.0
        worst_analytic = max(worst_analytic, float(np.max(np.abs(sample.analytic_gauss() - want))))
        k_fd = pde_analyze(*sample.height_chart()).hessian_det
        worst_fd = max(worst_fd, float(np.max(np.abs(k_fd - want))))
        if H == 1.0:
            label = classify_sample(sample).label
    elapsed = time.perf_counter() - start
    ok = (
        worst_analytic == 0.0
        and worst_fd < 1e-4
        and label is SurfaceClass.CYLINDER
        and elapsed < 2.0
    )
    verdict(
        1,
        ok,
        f"quadratic family K = H^2 - 1: analytic dev {worst_analytic:.1e}, "
        f"FD dev {worst_fd:.2e} (< 1e-4), H=1 labels {label.value}, "
        f"{elapsed:.2f} s (< 2 s)",
    )


def test_criterion_2_exponential_family():
    start = time.perf_counter()
    H = 0.5
    sample = lift_one(exp_data(), H, SQUARE, 201, 201)
    want = H * H - np.exp(2.0 * sample.x)
    dev_analytic = float(np.max(np.abs(sample.analytic_gauss() - want)))
    k_fd = pde_analyze(*sample.height_chart()).hessian_det
    dev_fd = float(np.max(np.abs(k_fd - want[1:-1, 1:-1])))
    umbilics = umbilic_scan(exp_data(), Rect(-2, 2, -2, 2), (101, 101))
    elapsed = time.perf_counter() - start
    ok = dev_analytic < 1e-12 and dev_fd < 1e-4 and umbilics == [] and elapsed < 2.0
    verdict(
        2,
        ok,
        f"exponential family K = H^2 - e^(2x): analytic dev {dev_analytic:.1e}, "
        f"FD dev {dev_fd:.2e} (< 1e-4), {len(umbilics)} umbilics on [-2,2]^2, "
        f"{elapsed:.2f} s (< 2 s)",
    )


def test_criterion_3_classification_table():
    table = [
        (0.0, 0.0, SurfaceClass.PLANE),
        (1.0, 0.0, SurfaceClass.CYLINDER),
        (1.0, -1.0, SurfaceClass.HYPERBOLIC_PARABOLOID),
        (0.0, -1.0, SurfaceClass.RECTANGULAR_HYPERBOLIC_PARABOLOID),
        (1.0, 0.5, SurfaceClass.ELLIPTIC_PARABOLOID),
        (2.0, 4.0, SurfaceClass.CIRCULAR_PARABOLOID),
    ]
    labels_ok = all(label_from_constants(H, K).label is want for H, K, want in table)
    worst = 0.0
    roundtrip_ok = True
    for H, K, want in table:
        result = classify_sample(quadric_field(H, K, SQUARE, 41, 41))
        roundtrip_ok &= result.label is want
        worst = max(worst, abs(result.H - H), abs(result.K - K))
    ok = labels_ok and roundtrip_ok and worst < 1e-8
    verdict(
        3,
        ok,
        f"all six labels reproduced; round-trip through sampled normal forms "
        f"recovers (H, K) within {worst:.1e} (< 1e-8)",
    )


def test_criterion_4_isometric_family():
    h_list = (0.0, 1.5, 10.0)
    samples = [
        lift_one(enneper_data(3), H, SQUARE, 201, 201) for H in h_list
    ]
    base = samples[0]
    planar_identical = all(
        np.array_equal(s.x, base.x) and np.array_equal(s.y, base.y) for s in samples
    )
    bowl = 0.5 * (base.x**2 + base.y**2)
    residual = max(
        float(np.max(np.abs(s.ell - base.ell - s.H * bowl))) for s in samples
    )
    ok = planar_identical and residual <= 1e-12
    verdict(
        4,
        ok,
        f"H-sweep {h_list}: planar maps bit-identical = {planar_identical}, "
        f"height-shift residual {residual:.2e} (<= 1e-12)",
    )


def test_criterion_5_value_distribution_trichotomy():
    constant = sample_k_image(enneper_data(2), 1.0, [1.0, 2.0, 4.0])
    closed = sample_k_image(enneper_data(3), 1.0, [1.0, 2.0, 4.0])
    open_ = sample_k_image(exp_data(), 0.0, [1.0, 10.0])

    # brute-force check of the cubic family: max |phi| over the disk
    phi = enneper_data(3).phi()
    k_min_ok = True
    worst_rel = 0.0
    for r, k_min in zip(closed.radii, closed.k_min):
        rr = np.sqrt(np.linspace(0.0, 1.0, 401)) * r
        tt = np.linspace(0.0, 2 * math.pi, 401, endpoint=False)
        zz = np.outer(rr, np.exp(1j * tt)).ravel()
        vals = holo.evaluate(phi, {"z": zz})
        oracle = 1.0 - float(np.max(vals.real**2 + vals.imag**2))
        closed_form = 1.0 - 4.0 * r * r
        rel = max(abs(k_min - oracle), abs(k_min - closed_form)) / abs(closed_form)
        worst_rel = max(worst_rel, rel)
        k_min_ok &= rel <= 0.01
    umbilic_ok = len(closed.umbilic_points) == 1 and abs(closed.umbilic_points[0]) < 1e-9
    ok = (
        constant.verdict is Verdict.CONSTANT_K
        and closed.verdict is Verdict.CLOSED_AT_SUP
        and open_.verdict is Verdict.OPEN_BELOW_SUP
        and k_min_ok
        and umbilic_ok
    )
    verdict(
        5,
        ok,
        f"verdicts {constant.verdict.value} / {closed.verdict.value} / "
        f"{open_.verdict.value}; cubic K_min tracks H^2 - 4R^2 within "
        f"{100 * worst_rel:.1e}% (< 1%); central umbilic found",
    )


def test_criterion_6_pde_views():
    pairs = [(0.0, 0.0), (1.0, 0.0), (1.0, -1.0), (0.0, -1.0), (1.0, 0.5), (2.0, 4.0)]
    worst_lap = 0.0
    worst_hess = 0.0
    quad_ok = True
    const_ok = True
    for H, K in pairs:
        field = quadric_field(H, K, SQUARE, 41, 41)
        report = pde_analyze(*field.height_chart(), const_tol=1e-8)
        lo, hi = report.laplacian.min(), report.laplacian.max()
        const_ok &= report.is_constant_laplacian and (hi - lo) < 1e-8
        worst_lap = max(worst_lap, abs(lo - 2 * H), abs(hi - 2 * H))
        worst_hess = max(
            worst_hess, float(np.max(np.abs(report.hessian_det - K)))
        )
        quad_ok &= quadratic_test(*field.height_chart())[0]
    cubic_like_rejected = True
    for n in (3, 4):
        sample = lift_one(enneper_data(n), 1.0, SQUARE, 41, 41)
        cubic_like_rejected &= not quadratic_test(*sample.height_chart())[0]
    ok = const_ok and worst_lap < 1e-8 and worst_hess < 1e-8 and quad_ok and cubic_like_rejected
    verdict(
        6,
        ok,
        f"laplacian = 2H within {worst_lap:.1e}, hessian det = K within "
        f"{worst_hess:.1e} (< 1e-8) on all normal forms; quadratic fit accepts "
        f"them and rejects the degree-3/4 lifts",
    )


def test_criterion_7_numerics_properties():
    # (a) second-order convergence of the curvature stencils
    def stencil_errors(n):
        x, y = np.meshgrid(SQUARE.x_nodes(n), SQUARE.y_nodes(n))
        f = ScalarField(SQUARE, np.sin(2 * x) * np.cos(3 * y))
        xi, yi = x[1:-1, 1:-1], y[1:-1, 1:-1]
        fxx = -4 * np.sin(2 * xi) * np.cos(3 * yi)
        fyy = -9 * np.sin(2 * xi) * np.cos(3 * yi)
        fxy = -6 * np.cos(2 * xi) * np.sin(3 * yi)
        report = pde_analyze(f, x, y)
        eh = float(np.max(np.abs(0.5 * report.laplacian - 0.5 * (fxx + fyy))))
        ek = float(np.max(np.abs(report.hessian_det - (fxx * fyy - fxy**2))))
        return eh, ek

    coarse, fine = stencil_errors(51), stencil_errors(101)
    factor = min(coarse[0] / fine[0], coarse[1] / fine[1])

    # (b) path independence of the adaptive quadrature
    tol = 1e-10
    e = holo.parse("exp(z^2)")
    direct = holo.contour_integral(e, holo.Contour((0.0, 1 + 1j)), tol=tol)
    dogleg = holo.contour_integral(e, holo.Contour((0.0, 1.0, 1 + 1j)), tol=tol)
    path_gap = abs(direct - dogleg)

    # (c) parse/print round trip on 1000 generated expressions
    rng = np.random.default_rng(20260819)
    trips = 0
    for k in range(1000):
        expr = random_expr(rng, 5, "z" if k % 2 else "xy")
        trips += holo.parse(holo.to_text(expr)) == expr

    # (d) K never exceeds H^2
    analytic_ok = True
    for data, H in [(enneper_data(2), 1.0), (enneper_data(3), 0.5), (exp_data(), 2.0)]:
        sample = lift_one(data, H, SQUARE, 101, 101)
        analytic_ok &= float(np.max(sample.analytic_gauss())) <= H * H
    exp_sample = lift_one(exp_data(), 0.5, SQUARE, 201, 201)
    field, x, y = exp_sample.height_chart()
    fd_bound = 0.25 + 10.0 * field.h_x * field.h_x
    fd_ok = float(np.max(pde_analyze(field, x, y).hessian_det)) <= fd_bound

    ok = factor >= 3.5 and path_gap <= 2 * tol and trips == 1000 and analytic_ok and fd_ok
    verdict(
        7,
        ok,
        f"FD convergence factor {factor:.2f} (>= 3.5); path-independence gap "
        f"{path_gap:.1e} (<= {2 * tol:.0e}); round trips {trips}/1000; "
        f"K <= H^2 analytically and within 10h^2 for FD",
    )
