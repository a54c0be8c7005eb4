"""Finite-difference geometry of height fields ell = f(x, y).

For a graph over the plane the mean curvature is half the Laplacian of f
and the Gauss curvature is the determinant of its Hessian, so both are
computable from samples alone with central second differences.  This module
never looks at the holomorphic side; it is the independent check against
the synthesized surfaces.

All stencils are interior only: outputs drop a one-node margin and say so.
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


class ConformalityError(ValueError):
    """Coordinate fields fail the conformal-parameterization check."""


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
    """Values on the interior nodes left after dropping `margin` rings."""

    values: np.ndarray
    margin: int
    h_x: float
    h_y: float

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


def _second_derivatives(f: ScalarField):
    v = f.values
    hx, hy = f.h_x, f.h_y
    f_xx = (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / (hx * hx)
    f_yy = (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / (hy * hy)
    f_xy = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4.0 * hx * hy)
    return f_xx, f_yy, f_xy


def fd_mean_curvature(f: ScalarField) -> InteriorField:
    """Half the finite-difference Laplacian, second order in the spacing."""
    f_xx, f_yy, _ = _second_derivatives(f)
    return InteriorField(0.5 * (f_xx + f_yy), 1, f.h_x, f.h_y)


def fd_gauss_curvature(f: ScalarField) -> InteriorField:
    """Finite-difference Hessian determinant f_xx*f_yy - f_xy^2."""
    f_xx, f_yy, f_xy = _second_derivatives(f)
    return InteriorField(f_xx * f_yy - f_xy * f_xy, 1, f.h_x, f.h_y)


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
    with np.errstate(over="ignore", invalid="ignore"):
        f_xx, f_yy, f_xy = _second_derivatives(f)
        lap = InteriorField(f_xx + f_yy, 1, f.h_x, f.h_y)
        hess = InteriorField(f_xx * f_yy - f_xy * f_xy, 1, f.h_x, f.h_y)
    if not (np.isfinite(lap.values).all() and np.isfinite(hess.values).all()):
        raise StencilOverflowError("finite-difference H or K overflows the float range")
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


def fd_metric(x_field: ScalarField, y_field: ScalarField) -> InteriorField:
    """Conformal factor |d(x+iy)/du|^2 of a plane chart, by differences.

    The two fields sample the chart coordinates over one parameter grid
    (u along rows, v down columns).  Central first differences give the
    tangent vectors; the chart must be conformal, i.e. both tangents equal
    in length and orthogonal, within 10*h^2 relative to the metric size,
    otherwise ConformalityError is raised.
    """
    if x_field.values.shape != y_field.values.shape:
        raise ValueError("coordinate fields must share one grid shape")
    if x_field.domain != y_field.domain:
        raise ValueError("coordinate fields must share one parameter domain")
    hu, hv = x_field.h_x, x_field.h_y
    xv, yv = x_field.values, y_field.values
    x_u = (xv[1:-1, 2:] - xv[1:-1, :-2]) / (2.0 * hu)
    y_u = (yv[1:-1, 2:] - yv[1:-1, :-2]) / (2.0 * hu)
    x_v = (xv[2:, 1:-1] - xv[:-2, 1:-1]) / (2.0 * hv)
    y_v = (yv[2:, 1:-1] - yv[:-2, 1:-1]) / (2.0 * hv)
    along_u = x_u * x_u + y_u * y_u
    along_v = x_v * x_v + y_v * y_v
    cross = x_u * x_v + y_u * y_v
    h = max(hu, hv)
    scale = 1.0 + max(float(np.max(along_u)), float(np.max(along_v)))
    bound = 10.0 * h * h * scale
    stretch_gap = float(np.max(np.abs(along_u - along_v)))
    skew = float(np.max(np.abs(cross)))
    if stretch_gap > bound or skew > bound:
        raise ConformalityError(
            "chart is not conformal within tolerance: "
            f"length gap {stretch_gap:.3e}, skew {skew:.3e}, bound {bound:.3e}"
        )
    return InteriorField(along_u, 1, hu, hv)
