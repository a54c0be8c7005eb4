"""Finite-difference geometry of height fields ell = f(x, y).

For a graph over the plane the mean curvature is half the Laplacian of f
and the Gauss curvature is the determinant of its Hessian, so both are
computable from samples alone with central differences.  Every source of
heights comes in one form, a weierstrass.SurfaceSample: ell on a parameter
lattice and the chart (x, y) at its nodes, with H None for a plain field
f(x, y) over its own lattice.  On a translated lattice the lattice differences are
the (x, y) derivatives; on a curved chart they are carried over by the
chain rule.  This module never looks at the holomorphic side; it is the
independent check against the synthesized surfaces.

All stencils are interior only: outputs drop a one-node margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .weierstrass import SurfaceSample

# Default relative residual bound for the quadratic fit test.
DEFAULT_QUAD_FIT_TOL = 1e-8
# Agreement required of a chart with a translated lattice to count as one.
GRAPH_TOL = 1e-9
_FIT_ROWS = 1 << 16  # design rows the quadratic fit holds at once


class GridTooSmallError(ValueError):
    """Grid has too few nodes for the requested stencil."""


class DegenerateFitError(ValueError):
    """Least squares design matrix is rank deficient."""


class StencilOverflowError(ValueError):
    """A finite-difference curvature left the float range."""


class FoldedChartError(ValueError):
    """det J = d(x, y)/d(u, v) vanishes or changes sign on the chart."""


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle [x_min, x_max] x [y_min, y_max]."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        vals = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("rectangle bounds must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("rectangle must have positive extent on both axes")
        if not all(math.isfinite(float(hi) - float(lo)) for lo, hi in (vals[:2], vals[2:])):
            raise ValueError("rectangle width and height must be finite")

    def x_nodes(self, n: int) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, n)

    def y_nodes(self, n: int) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, n)

    def mesh(self, n_x: int, n_y: int) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) of the n_y x n_x lattice; [j, i] is node (x_i, y_j)."""
        return np.meshgrid(self.x_nodes(n_x), self.y_nodes(n_y))


def _spacing(s: SurfaceSample) -> tuple[float, float]:
    """The lattice steps (h_u, h_v) of s, whose heights must be a finite 2-d array with
    at least 5 nodes per axis."""
    if np.ndim(s.ell) != 2:
        raise ValueError("field values must be a 2-d array")
    (n_v, n_u), d = np.shape(s.ell), s.domain
    if n_u < 5 or n_v < 5:
        raise GridTooSmallError(f"need at least 5 nodes per axis, got {n_u} x {n_v}")
    if not (np.isfinite(np.min(s.ell)) and np.isfinite(np.max(s.ell))):  # NaN propagates
        raise ValueError("field values must be finite")
    return (d.x_max - d.x_min) / (n_u - 1), (d.y_max - d.y_min) / (n_v - 1)


def lattice_shift(s: SurfaceSample) -> tuple[float, float] | None:
    """(c_x, c_y) if the chart (x, y) of s is its parameter lattice moved by it, else None.

    The chart counts as a translated lattice when no node lies farther than
    GRAPH_TOL from the lattice node shifted by the first node's offset.
    """
    (n_v, n_u), x, y = np.shape(s.ell), s.x, s.y
    x_nodes, y_nodes = s.domain.x_nodes(n_u), s.domain.y_nodes(n_v)[:, None]
    cx, cy = float(x[0, 0] - x_nodes[0]), float(y[0, 0] - y_nodes[0, 0])
    gap = max(np.max(np.abs(x - (x_nodes + cx))), np.max(np.abs(y - (y_nodes + cy))))
    return (cx, cy) if gap <= GRAPH_TOL else None


def _first_differences(v: np.ndarray, hu: float, hv: float) -> tuple[np.ndarray, ...]:
    """Interior central first differences (f_u, f_v); u along rows."""
    f_u = (v[1:-1, 2:] - v[1:-1, :-2]) / (2.0 * hu)
    f_v = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2.0 * hv)
    return f_u, f_v


def _second_differences(v: np.ndarray, hu: float, hv: float) -> tuple[np.ndarray, ...]:
    """Interior central second differences (f_uu, f_vv, f_uv)."""
    f_uu = (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / (hu * hu)
    f_vv = (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / (hv * hv)
    f_uv = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4.0 * hu * hv)
    return f_uu, f_vv, f_uv


def _finite(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, unless one holds a value past the float range."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise StencilOverflowError("finite-difference H or K overflows the float range")
    return arrays


def _chain_rule(ell, x, y, hu: float, hv: float) -> tuple[np.ndarray, ...]:
    """Laplacian and Hessian determinant over a curved chart.

    With J = d(x, y)/d(u, v) and p = J^-T grad_uv ell,

        Hess_xy ell = J^-T (Hess_uv ell - p_x Hess_uv x - p_y Hess_uv y) J^-1

    with every derivative a central difference on the (u, v) lattice.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        first = (_first_differences(a, hu, hv) for a in (x, y, ell))
        (x_u, x_v), (y_u, y_v), (f_u, f_v) = first
        (jac,) = _finite(x_u * y_v - x_v * y_u)
        if not (np.all(jac > 0) or np.all(jac < 0)):
            raise FoldedChartError("the chart (x, y) folds: det J vanishes or changes sign")
        p_x, p_y = (f_u * y_v - f_v * y_u) / jac, (x_u * f_v - x_v * f_u) / jac
        second = (_second_differences(a, hu, hv) for a in (ell, x, y))
        m_uu, m_vv, m_uv = (f_2 - p_x * x_2 - p_y * y_2 for f_2, x_2, y_2 in zip(*second))
        # trace and determinant of M (J^T J)^-1, J^T J = [[e, c], [c, g]]
        e, g, c = x_u * x_u + y_u * y_u, x_v * x_v + y_v * y_v, x_u * x_v + y_u * y_v
        lap = (g * m_uu - 2.0 * c * m_uv + e * m_vv) / (jac * jac)
        hess = (m_uu * m_vv - m_uv * m_uv) / (jac * jac)
    return _finite(lap, hess)


def pde_analyze(s: SurfaceSample) -> tuple[np.ndarray, np.ndarray]:
    """Interior Laplacian and Hessian determinant of ell over the chart (x, y).

    s samples ell on the parameter lattice (u along rows, v down columns),
    with the chart (x, y) at the same nodes.  On a translated lattice
    (lattice_shift) the central second differences of ell are the (x, y)
    derivatives; on any other chart the chain rule carries them over.  A value
    past the float range raises StencilOverflowError, and a chart that folds
    FoldedChartError.
    """
    hu, hv = _spacing(s)
    if np.shape(s.x) != np.shape(s.ell) or np.shape(s.y) != np.shape(s.ell):
        raise ValueError("chart coordinates must share the field's grid shape")
    if lattice_shift(s) is None:
        return _chain_rule(s.ell, s.x, s.y, hu, hv)
    with np.errstate(over="ignore", invalid="ignore"):
        f_xx, f_yy, f_xy = _second_differences(s.ell, hu, hv)
        return _finite(f_xx + f_yy, f_xx * f_yy - f_xy * f_xy)


def _design_blocks(s: SurfaceSample):
    """Design rows [1, x, y, x^2, xy, y^2, ell], whole lattice rows up to _FIT_ROWS at a time."""
    step = max(1, _FIT_ROWS // np.shape(s.ell)[1])
    for j in range(0, len(s.ell), step):
        x, y, ell = (np.ravel(a[j : j + step]) for a in (s.x, s.y, s.ell))
        yield np.column_stack((np.ones_like(x), x, y, x * x, x * y, y * y, ell))


def quadratic_test(s: SurfaceSample, tol: float = DEFAULT_QUAD_FIT_TOL) -> tuple[bool, np.ndarray]:
    """Least squares test for ell = a + b*x + c*y + d*x^2 + e*x*y + g*y^2.

    The fit runs over the chart nodes (x, y) of s, where s holds the heights.
    Returns (is_quadratic, coefficients) with coefficients ordered
    (a, b, c, d, e, g).  The fit passes when the maximum absolute residual
    stays below tol * (1 + max |ell|).  Needs at least 7 nodes per axis so a
    cubic cannot masquerade as quadratic on the stencil.
    """
    _spacing(s)
    if min(np.shape(s.ell)) < 7:
        raise GridTooSmallError("quadratic test needs at least 7 nodes per axis")
    r, n = np.empty((0, 7)), np.size(s.ell)
    for block in _design_blocks(s):  # a sequential TSQR: R of the design, heights appended
        r = np.linalg.qr(np.vstack((r, block)), mode="r")
    # R[:6, :6] has the design's singular values, so lstsq's rank rule for it carries over
    coeffs, _, rank, _ = np.linalg.lstsq(r[:6, :6], r[:6, 6], rcond=np.finfo(float).eps * n)
    if rank < 6:
        raise DegenerateFitError("quadratic fit design matrix is rank deficient")
    residual = max(float(np.max(np.abs(b[:, :6] @ coeffs - b[:, 6]))) for b in _design_blocks(s))
    bound = tol * (1.0 + max(float(np.max(s.ell)), -float(np.min(s.ell))))
    return residual < bound, coeffs
