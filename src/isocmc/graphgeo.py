"""Finite-difference geometry of height fields ell = f(x, y).

For a graph over the plane the mean curvature is half the Laplacian of f
and the Gauss curvature is the determinant of its Hessian, so both are
computable from samples alone with central differences.  Heights sampled
on a curved chart (x, y)(u, v) are differentiated on the parameter lattice
and carried over by the chain rule.  This module never looks at the
holomorphic side; it is the independent check against the synthesized
surfaces.

All stencils are interior only: outputs drop a one-node margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Default absolute spread below which a Laplacian counts as constant.
DEFAULT_CONST_TOL = 1e-6
# Default relative residual bound for the quadratic fit test.
DEFAULT_QUAD_FIT_TOL = 1e-8


class GridTooSmallError(ValueError):
    """Grid has too few nodes for the requested stencil."""


class DegenerateFitError(ValueError):
    """Least squares design matrix is rank deficient."""


class StencilOverflowError(ValueError):
    """A finite-difference curvature left the float range."""


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

    def x_nodes(self, n: int) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, n)

    def y_nodes(self, n: int) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, n)

    def mesh(self, n_x: int, n_y: int) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) of the n_y x n_x lattice; [j, i] is node (x_i, y_j)."""
        return np.meshgrid(self.x_nodes(n_x), self.y_nodes(n_y))


@dataclass
class ScalarField:
    """Real samples of f on a uniform grid; values[j, i] = f(x_i, y_j)."""

    domain: Rect
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("field values must be a 2-d array")
        if self.n_x < 5 or self.n_y < 5:
            raise GridTooSmallError(
                f"need at least 5 nodes per axis, got {self.n_x} x {self.n_y}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @property
    def n_x(self) -> int:
        return self.values.shape[1]

    @property
    def n_y(self) -> int:
        return self.values.shape[0]

    @property
    def h_x(self) -> float:
        return (self.domain.x_max - self.domain.x_min) / (self.n_x - 1)

    @property
    def h_y(self) -> float:
        return (self.domain.y_max - self.domain.y_min) / (self.n_y - 1)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return self.domain.mesh(self.n_x, self.n_y)


@dataclass
class InteriorField:
    """Values on the interior nodes left after dropping the outer ring."""

    values: np.ndarray

    @property
    def min(self) -> float:
        return float(self.values.min())

    @property
    def max(self) -> float:
        return float(self.values.max())

    @property
    def mean(self) -> float:
        return float(self.values.mean())


@dataclass
class PdeReport:
    """Pointwise Laplacian / Hessian-determinant view of a height field."""

    laplacian: InteriorField
    hessian_det: InteriorField
    is_constant_laplacian: bool
    const_tol: float

    @property
    def laplacian_range(self) -> tuple[float, float]:
        return (self.laplacian.min, self.laplacian.max)

    @property
    def hessian_interval(self) -> tuple[float, float]:
        return (self.hessian_det.min, self.hessian_det.max)


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


def _curvature_stencils(f: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Interior Laplacian f_xx + f_yy and Hessian determinant f_xx*f_yy - f_xy^2.

    One run of the central second differences.  If either leaves the float
    range, StencilOverflowError is raised and no warning leaks.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        f_xx, f_yy, f_xy = _second_differences(f.values, f.h_x, f.h_y)
        lap, hess = f_xx + f_yy, f_xx * f_yy - f_xy * f_xy
    return _finite(lap, hess)


def fd_chart_curvature(
    f: ScalarField, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior Laplacian and Hessian determinant of ell over (x, y), and det J.

    f samples ell on the parameter lattice (u along rows, v down columns)
    and x, y are the chart coordinates at the same nodes.  With
    J = d(x, y)/d(u, v) and p = J^-T grad_uv ell, the chain rule gives

        Hess_xy ell = J^-T (Hess_uv ell - p_x Hess_uv x - p_y Hess_uv y) J^-1

    with every derivative a central difference, so the error is second
    order in the spacing.  A value past the float range, or a chart that
    folds (det J = 0), raises StencilOverflowError.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != f.values.shape or y.shape != f.values.shape:
        raise ValueError("chart coordinates must share the field's grid shape")
    hu, hv = f.h_x, f.h_y
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        first = (_first_differences(a, hu, hv) for a in (x, y, f.values))
        (x_u, x_v), (y_u, y_v), (f_u, f_v) = first
        jac = x_u * y_v - x_v * y_u
        p_x, p_y = (f_u * y_v - f_v * y_u) / jac, (x_u * f_v - x_v * f_u) / jac
        second = (_second_differences(a, hu, hv) for a in (f.values, x, y))
        m_uu, m_vv, m_uv = (f_2 - p_x * x_2 - p_y * y_2 for f_2, x_2, y_2 in zip(*second))
        # trace and determinant of M (J^T J)^-1, J^T J = [[e, c], [c, g]]
        e, g, c = x_u * x_u + y_u * y_u, x_v * x_v + y_v * y_v, x_u * x_v + y_u * y_v
        lap = (g * m_uu - 2.0 * c * m_uv + e * m_vv) / (jac * jac)
        hess = (m_uu * m_vv - m_uv * m_uv) / (jac * jac)
    return _finite(lap, hess, jac)


def fd_mean_curvature(f: ScalarField) -> InteriorField:
    """Half the finite-difference Laplacian, second order in the spacing."""
    lap, _ = _curvature_stencils(f)
    return InteriorField(0.5 * lap)


def fd_gauss_curvature(f: ScalarField) -> InteriorField:
    """Finite-difference Hessian determinant f_xx*f_yy - f_xy^2."""
    _, hess = _curvature_stencils(f)
    return InteriorField(hess)


def pde_analyze(f: ScalarField, const_tol: float = DEFAULT_CONST_TOL) -> PdeReport:
    """Report the Laplacian and Hessian determinant of a height field.

    The stencils run once.  The Laplacian array is exactly twice
    fd_mean_curvature (halving is exact above the subnormal range) and the
    Hessian determinant exactly fd_gauss_curvature, node for node.  The
    Laplacian is flagged constant when its spread (max - min) stays below
    const_tol.  Values past the float range raise StencilOverflowError.
    """
    if const_tol <= 0:
        raise ValueError("const_tol must be positive")
    lap, hess = (InteriorField(a) for a in _curvature_stencils(f))
    spread = lap.max - lap.min
    return PdeReport(lap, hess, bool(spread < const_tol), const_tol)


def quadratic_test(
    f: ScalarField, tol: float = DEFAULT_QUAD_FIT_TOL
) -> tuple[bool, np.ndarray]:
    """Least squares test for f = a + b*x + c*y + d*x^2 + e*x*y + g*y^2.

    Returns (is_quadratic, coefficients) with coefficients ordered
    (a, b, c, d, e, g).  The fit passes when the maximum absolute residual
    stays below tol * (1 + max |f|).  Needs at least 7 nodes per axis so a
    cubic cannot masquerade as quadratic on the stencil.
    """
    if f.n_x < 7 or f.n_y < 7:
        raise GridTooSmallError("quadratic test needs at least 7 nodes per axis")
    x, y = f.meshgrid()
    xs, ys = x.ravel(), y.ravel()
    design = np.column_stack(
        [np.ones_like(xs), xs, ys, xs * xs, xs * ys, ys * ys]
    )
    rhs = f.values.ravel()
    coeffs, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < 6:
        raise DegenerateFitError("quadratic fit design matrix is rank deficient")
    residual = float(np.max(np.abs(design @ coeffs - rhs)))
    bound = tol * (1.0 + float(np.max(np.abs(rhs))))
    return residual < bound, coeffs
