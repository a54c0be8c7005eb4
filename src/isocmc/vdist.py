"""Sampled evidence for the value distribution of K on growing disks.

For a complete CMC-H surface the image of the Gauss curvature is either a
single point, the open interval (-inf, H^2), or the closed one
(-inf, H^2].  On a computer we can only sample K = H^2 - |phi|^2 over
finite disks, so this module reports which of the three shapes the data is
consistent with, never a proof:

  ConstantK      the sampled range collapses below a tolerance,
  ClosedAtSup    a refined umbilic point realizes the supremum H^2,
  OpenBelowSup   K_max crawls within a margin of H^2 with no umbilic,
  Inconclusive   none of the above on the radii provided.

Sampling is deterministic (equal-area polar rings plus the boundary
circle) and the per-radius extremes are cumulative over the nested disks,
so K_min can only decrease and K_max only increase as the radius grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import holo
from .graphgeo import Rect
from .weierstrass import UMBILIC_TOL, CurvatureOverflowError, WeierstrassData, gauss_curvature

# Newton iterations allowed per umbilic candidate.
_MAX_NEWTON = 80
# Candidate local minima examined per scan, strongest first.
_MAX_CANDIDATES = 512
# Most samples per radius: the disk points and the scan lattice each hold about as many.
MAX_SAMPLES = 1_000_000


class Verdict(Enum):
    CONSTANT_K = "ConstantK"
    OPEN_BELOW_SUP = "OpenBelowSup"
    CLOSED_AT_SUP = "ClosedAtSup"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class VdistReport:
    """Cumulative K extremes per radius plus the verdict they support."""

    H: float
    sup_bound: float
    radii: list[float]
    k_min: list[float]
    k_max: list[float]
    umbilic_points: list[complex]
    verdict: Verdict
    const_tol: float
    margin: float


def _disk_points(radius: float, n: int) -> np.ndarray:
    """Deterministic equal-area covering of the closed disk.

    Rings sit at the equal-area radii sqrt((k+1/2)/rings)*R with a golden
    rotation per ring so angles never line up, and the boundary circle is
    always included (with an even point count, so both ends of the real
    diameter are sampled).
    """
    rings = max(1, int(round(math.sqrt(n))))
    per_ring = max(4, n // rings)
    golden = 0.6180339887498949
    chunks = []
    for k in range(rings):
        r = radius * math.sqrt((k + 0.5) / rings)
        offset = (k * golden) % 1.0
        theta = 2.0 * np.pi * (np.arange(per_ring) + offset) / per_ring
        chunks.append(r * np.exp(1j * theta))
    boundary = per_ring + (per_ring % 2)
    theta = 2.0 * np.pi * np.arange(boundary) / boundary
    chunks.append(radius * np.exp(1j * theta))
    return np.concatenate(chunks)


def sample_k_image(
    data: WeierstrassData,
    H: float,
    radii: list[float],
    samples_per_radius: int = 10_000,
    margin: float | None = None,
    umbilic_tol: float = UMBILIC_TOL,
) -> VdistReport:
    """Sample K over nested disks about 0 and judge the image shape.

    A K range below 1e-9 * (1 + H^2) counts as constant; `margin` (default
    1e-3 * (1 + H^2)) is how close K_max must come to H^2 to call the image
    open-up-to-the-sup when no umbilic exists.  The verdict is sampled
    evidence, not a proof.  A disk where K leaves the float range raises
    CurvatureOverflowError.
    """
    radii = [float(r) for r in radii]
    if not radii or not all(0 < r < math.inf for r in radii):
        raise ValueError("radii must be positive and finite")
    if sorted(radii) != radii:
        raise ValueError("radii must be increasing")
    if samples_per_radius < 16:
        raise ValueError("need at least 16 samples per radius")
    if samples_per_radius > MAX_SAMPLES:
        raise ValueError(f"at most {MAX_SAMPLES} samples per radius, got {samples_per_radius}")
    H = float(H)
    if not math.isfinite(H):
        raise ValueError("H must be finite")
    sup = H * H
    const_tol = 1e-9 * (1.0 + sup)
    if margin is None:
        margin = 1e-3 * (1.0 + sup)

    phi = data.phi()
    k_min: list[float] = []
    k_max: list[float] = []
    lo, hi = math.inf, -math.inf
    for r in radii:
        pts = _disk_points(r, samples_per_radius)
        vals = holo.evaluate(phi, {"z": pts})
        try:
            k = gauss_curvature(H, vals)
        except CurvatureOverflowError as exc:
            raise CurvatureOverflowError(f"{exc} at radius {r:g}") from None
        lo = min(lo, float(k.min()))
        hi = max(hi, float(k.max()))
        k_min.append(lo)
        k_max.append(hi)

    r_top = radii[-1]
    side = max(51, int(round(math.sqrt(samples_per_radius))))
    side += (side + 1) % 2  # odd, so the center is a node
    square = Rect(-r_top, r_top, -r_top, r_top)
    umbilics = [
        z
        for z in umbilic_scan(data, square, (side, side), umbilic_tol)
        if abs(z) <= r_top * (1.0 + 1e-12)
    ]

    if hi - lo < const_tol:
        verdict = Verdict.CONSTANT_K
    elif umbilics:
        verdict = Verdict.CLOSED_AT_SUP
    elif hi >= sup - margin:
        verdict = Verdict.OPEN_BELOW_SUP
    else:
        verdict = Verdict.INCONCLUSIVE
    return VdistReport(
        H=H,
        sup_bound=sup,
        radii=radii,
        k_min=k_min,
        k_max=k_max,
        umbilic_points=umbilics,
        verdict=verdict,
        const_tol=const_tol,
        margin=margin,
    )


def umbilic_scan(
    data: WeierstrassData,
    domain: Rect,
    grid: tuple[int, int],
    umbilic_tol: float = UMBILIC_TOL,
) -> list[complex]:
    """Locate the zeros of the curvature potential inside a rectangle.

    Scans |phi|^2 on the grid, keeps the local minima (the minimum modulus
    principle puts interior minima of a holomorphic modulus only at zeros),
    and polishes each candidate with a damped Newton iteration on phi.  A
    candidate that wanders out of the rectangle or stalls above the grid
    value is dropped; a grid minimum already below tolerance stands even if
    Newton fails.  An empty list is a valid result, not an error.
    """
    n_u, n_v = grid
    if n_u < 3 or n_v < 3:
        raise ValueError("umbilic scan needs at least 3 nodes per axis")
    uu, vv = domain.mesh(n_u, n_v)
    zz = uu + 1j * vv
    phi = data.phi()
    dphi = holo.derivative(phi)
    vals = holo.evaluate(phi, {"z": zz})
    with np.errstate(over="ignore"):
        mod2 = vals.real ** 2 + vals.imag ** 2

    spread = float(mod2.max() - mod2.min())
    if spread < 1e-30 * (1.0 + float(mod2.max())):
        # Constant |phi|: either no zeros at all or identically umbilic.
        if math.sqrt(float(mod2.min())) < umbilic_tol:
            j, i = np.unravel_index(int(np.argmin(mod2)), mod2.shape)
            return [complex(zz[j, i])]
        return []

    padded = np.pad(mod2, 1, constant_values=np.inf)
    center = padded[1:-1, 1:-1]
    is_min = np.ones_like(center, dtype=bool)
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            if dj == 0 and di == 0:
                continue
            is_min &= center <= padded[1 + dj : 1 + dj + center.shape[0],
                                       1 + di : 1 + di + center.shape[1]]
    candidates = np.argwhere(is_min)
    order = np.argsort(mod2[candidates[:, 0], candidates[:, 1]], kind="stable")
    candidates = candidates[order][:_MAX_CANDIDATES]

    cell = max(
        (domain.x_max - domain.x_min) / (n_u - 1),
        (domain.y_max - domain.y_min) / (n_v - 1),
    )
    guard = Rect(
        domain.x_min - cell, domain.x_max + cell,
        domain.y_min - cell, domain.y_max + cell,
    )
    found: list[complex] = []
    for j, i in candidates:
        z0 = complex(zz[j, i])
        refined = _refine_zero(phi, dphi, z0, guard, umbilic_tol)
        if refined is None and math.sqrt(float(mod2[j, i])) < umbilic_tol:
            refined = z0  # fall back to the grid minimum itself
        if refined is not None:
            found.append(refined)

    found.sort(key=lambda z: (z.real, z.imag))
    merge_tol = max(1e-8, 1e-10 * cell * max(n_u, n_v))
    distinct: list[complex] = []
    for z in found:
        if not distinct or abs(z - distinct[-1]) > merge_tol:
            distinct.append(z)
    return distinct


def _refine_zero(
    phi: holo.Expr,
    dphi: holo.Expr,
    z0: complex,
    guard: Rect,
    umbilic_tol: float,
) -> complex | None:
    """Damped Newton for phi(z) = 0 from z0, confined to the guard box."""
    z = z0
    try:
        f = abs(holo.evaluate(phi, {"z": z}))
    except holo.ExpressionError:
        return None
    for _ in range(_MAX_NEWTON):
        if f < 1e-14:
            break
        try:
            d = holo.evaluate(dphi, {"z": z})
        except holo.ExpressionError:
            return None
        if abs(d) < holo.DIV_EPS:
            return None
        step = -holo.evaluate(phi, {"z": z}) / d
        damp, moved = 1.0, False
        while damp >= 2.0 ** -20:
            trial = z + damp * step
            if (
                guard.x_min <= trial.real <= guard.x_max
                and guard.y_min <= trial.imag <= guard.y_max
            ):
                try:
                    f_trial = abs(holo.evaluate(phi, {"z": trial}))
                except holo.ExpressionError:
                    f_trial = math.inf
                if f_trial < f:
                    z, f, moved = trial, f_trial, True
                    break
            damp *= 0.5
        if not moved:
            return None
        if abs(damp * step) < 1e-13 * (1.0 + abs(z)):
            break
    return z if f < umbilic_tol else None
