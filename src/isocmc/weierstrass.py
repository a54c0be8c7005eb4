"""Synthesis of spacelike CMC-H graphs from holomorphic generator pairs.

A pair (h2, omega_hat) of holomorphic expressions in z, with omega_hat
nowhere vanishing on the sampled region, generates a one-parameter family
of surfaces, one for every mean curvature value H:

    W(z)   = integral of omega_hat from the base point to z
    x + iy = W(z)
    ell(z) = (H/2) * |W(z)|^2 + Re integral of h2 * omega_hat

The H-term is the closed form of the real part of the first coordinate
integral, so the whole family shares one planar map W: changing H shifts
heights by (H/2)|W|^2 and touches nothing else.  The family is isometric:
the induced metric |omega_hat|^2 |dz|^2 never sees H.

The Gauss curvature comes from the curvature potential phi = h2'/omega_hat
as K = H^2 - |phi|^2, so K never exceeds H^2 and equality marks umbilics.

Integrals use the symbolic antiderivative when the generator lies in the
closed class and adaptive contour quadrature otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import holo
from .graphgeo import Rect, ScalarField, lattice_shift

# |phi| below this counts as an umbilic point.
UMBILIC_TOL = 1e-9


class SingularNodeError(ValueError):
    """omega_hat vanished at a sampling node."""


class NonGraphSampleError(ValueError):
    """Sample's (x, y) grid is not a translated copy of the parameter grid."""


class CurvatureOverflowError(ValueError):
    """K = H^2 - |phi|^2 left the float range."""


@dataclass(frozen=True)
class WeierstrassData:
    """Generator pair (h2, omega_hat); both holomorphic expressions in z."""

    h2: holo.Expr
    omega_hat: holo.Expr
    base_point: complex = 0j

    def __post_init__(self):
        for name, e in (("h2", self.h2), ("omega_hat", self.omega_hat)):
            tags = holo.variables(e)
            if tags - {"z"}:
                raise ValueError(f"{name} must be an expression in z only")
        bp = complex(self.base_point)
        if not np.isfinite(bp):
            raise ValueError("base point must be finite")
        object.__setattr__(self, "base_point", bp)

    def phi(self) -> holo.Expr:
        """Curvature potential h2' / omega_hat."""
        return holo.div(holo.derivative(self.h2), self.omega_hat)


@dataclass(frozen=True)
class LiftParams:
    """Mean curvature, parameter rectangle, and grid resolution."""

    H: float
    domain: Rect
    n_u: int
    n_v: int

    def __post_init__(self):
        if not np.isfinite(self.H):
            raise ValueError("H must be finite")
        if self.n_u < 2 or self.n_v < 2:
            raise ValueError("grid needs at least 2 nodes per axis")


@dataclass
class SurfaceSample:
    """Synthesized surface on a grid; arrays are shaped (n_v, n_u).

    `phi` carries the curvature potential per node and is None for samples
    reconstructed from disk, where only coordinates survive.
    """

    domain: Rect
    n_u: int
    n_v: int
    H: float
    x: np.ndarray
    y: np.ndarray
    ell: np.ndarray
    phi: np.ndarray | None = None

    def analytic_gauss(self) -> np.ndarray:
        """Per-node K = H^2 - |phi|^2; needs the curvature potential."""
        if self.phi is None:
            raise ValueError("sample carries no curvature potential")
        return gauss_curvature(self.H, self.phi)

    def umbilic_flags(self, tol: float = UMBILIC_TOL) -> np.ndarray:
        if self.phi is None:
            raise ValueError("sample carries no curvature potential")
        return np.abs(self.phi) < tol

    def height_chart(self) -> tuple[ScalarField, np.ndarray, np.ndarray]:
        """ell on the parameter lattice, and the chart (x, y) at its nodes."""
        return ScalarField(self.domain, self.ell), self.x, self.y

    def as_height_field(self) -> ScalarField:
        """A graph-mode sample as a height field over (x, y): valid only when
        graphgeo.lattice_shift finds (x, y) a translated parameter grid, as
        omega_hat = 1 gives; anything else raises NonGraphSampleError."""
        shift = lattice_shift(*self.height_chart())
        if shift is None:
            raise NonGraphSampleError("(x, y) deviates from a translated lattice")
        (cx, cy), d = shift, self.domain
        return ScalarField(Rect(d.x_min + cx, d.x_max + cx, d.y_min + cy, d.y_max + cy), self.ell)


def gauss_curvature(H: float, phi):
    """K = H^2 - |phi|^2, scalar or array; CurvatureOverflowError past the float range."""
    with np.errstate(over="ignore"):
        k = H * H - (np.square(phi.real) + np.square(phi.imag))
    if not np.all(np.isfinite(k)):
        raise CurvatureOverflowError("K = H^2 - |phi|^2 overflows the float range")
    return k


def _segment_integrals(e: holo.Expr, za, zb, tol: float) -> np.ndarray:
    """Integral of e along every straight segment za -> zb; 0 where they meet."""
    za, zb = np.broadcast_arrays(za, zb)
    out = np.zeros(za.shape, dtype=np.complex128)
    moving = za != zb
    if np.any(moving):
        out[moving] = holo.contour_integral(e, holo.Contour((za[moving], zb[moving])), tol)
    return out


def _cumulative_integrals(
    e: holo.Expr, base: complex, grid: np.ndarray, tol: float
) -> np.ndarray:
    """Integral of e from base to every grid node, by cumulative segments.

    Used only when no symbolic antiderivative exists.  The path runs from
    the base point to the first node, down the first column, then along
    each row.  Each of the three legs is one batched quadrature call, and
    running sums join the segments.  Every segment is integrated to `tol`
    on its own, so a node's error is at most (n_u + n_v - 1) * tol.
    """
    start = _segment_integrals(e, base, grid[:1, 0], tol)
    column = _segment_integrals(e, grid[:-1, 0], grid[1:, 0], tol)
    rows = _segment_integrals(e, grid[:, :-1], grid[:, 1:], tol)
    firsts = np.cumsum(np.concatenate((start, column)))
    return np.cumsum(np.concatenate((firsts[:, None], rows), axis=1), axis=1)


def _integral_field(
    e: holo.Expr, base: complex, grid: np.ndarray, tol: float
) -> np.ndarray:
    """Integral of e from base to every grid node, closed form if possible."""
    primitive = holo.antiderivative(e)
    if primitive is not None:
        at_base = holo.evaluate(primitive, {"z": base})
        return holo.evaluate(primitive, {"z": grid}) - at_base
    return _cumulative_integrals(e, base, grid, tol)


def synthesize(
    data: WeierstrassData,
    params: LiftParams,
    tol: float = holo.DEFAULT_QUAD_TOL,
) -> SurfaceSample:
    """Sample the CMC-H surface of the pair over the parameter rectangle.

    Deterministic: the same inputs always give bit-identical arrays, and
    the (x, y) arrays do not depend on H at all.  A node where omega_hat
    vanishes is a hard error naming the node.
    """
    family = synthesize_family(data, [params.H], params.domain, params.n_u, params.n_v, tol)
    return family[0]


def synthesize_family(
    data: WeierstrassData, h_values: list[float], domain: Rect, n_u: int, n_v: int,
    tol: float = holo.DEFAULT_QUAD_TOL,
) -> list[SurfaceSample]:
    """One sample per H, each as synthesize gives it, sharing x, y and phi.

    W, the height integral and phi are computed once; only the bowl term
    (H/2)|W|^2 of ell depends on H.
    """
    family = [LiftParams(h, domain, n_u, n_v) for h in h_values]
    uu, vv = domain.mesh(n_u, n_v)
    grid = uu + 1j * vv

    omega_vals = holo.evaluate(data.omega_hat, {"z": grid})
    bad = np.abs(omega_vals) < holo.DIV_EPS
    if np.any(bad):
        j, i = np.argwhere(bad)[0]
        raise SingularNodeError(
            f"omega_hat vanishes at node (u={i}, v={j}), z = {grid[j, i]}"
        )

    w = _integral_field(data.omega_hat, data.base_point, grid, tol)
    t = _integral_field(
        holo.mul(data.h2, data.omega_hat), data.base_point, grid, tol
    )
    x = np.ascontiguousarray(w.real)
    y = np.ascontiguousarray(w.imag)
    ells = [0.5 * params.H * (x * x + y * y) + t.real for params in family]
    if not (all(np.all(np.isfinite(ell)) for ell in ells) and np.all(np.isfinite(x))):
        raise ValueError("synthesized surface contains non-finite values")
    phi_vals = holo.evaluate(data.phi(), {"z": grid})
    return [
        SurfaceSample(domain, n_u, n_v, params.H, x, y, ell, phi=phi_vals)
        for params, ell in zip(family, ells)
    ]


def enneper_data(n: int) -> WeierstrassData:
    """Generator pair (z^(n-1), 1) of the degree-n polynomial family."""
    if n < 2:
        raise ValueError("the polynomial family starts at n = 2")
    return WeierstrassData(
        holo.intpow(holo.Variable("z"), n - 1), holo.Constant(1)
    )


def exp_data() -> WeierstrassData:
    """Generator pair (exp(z), 1), whose curvature never reaches its sup."""
    return WeierstrassData(holo.Exp(holo.Variable("z")), holo.Constant(1))
