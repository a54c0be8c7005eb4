"""Classification of the quadric CMC graphs by their curvature pair (H, K).

Every spacelike quadric graph is, up to an isometry of the ambient space,
the canonical surface

    ell = H*(x^2 + y^2)/2 + sqrt(H^2 - K)*(x^2 - y^2)/2
        = alpha*x~^2 + beta*y~^2

with alpha = (H + sqrt(H^2 - K))/2 and beta = (H - sqrt(H^2 - K))/2, so
alpha + beta = H and 4*alpha*beta = K.  The sign pattern of (H, K) sorts
the surface into six classes; the boundary cases get the more special
label (zero mean curvature refines the saddle, K = H^2 refines the bowl).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .graphgeo import DEFAULT_QUAD_FIT_TOL, Rect, ScalarField, quadratic_test
from .weierstrass import SurfaceSample

# Default width of the zero tests on H, K, and H^2 - K.
DEFAULT_CLASSIFY_TOL = 1e-8


class SurfaceClass(Enum):
    PLANE = "Plane"
    CYLINDER = "Cylinder"
    HYPERBOLIC_PARABOLOID = "HyperbolicParaboloid"
    RECTANGULAR_HYPERBOLIC_PARABOLOID = "RectangularHyperbolicParaboloid"
    ELLIPTIC_PARABOLOID = "EllipticParaboloid"
    CIRCULAR_PARABOLOID = "CircularParaboloid"
    NON_QUADRIC = "NonQuadric"


@dataclass(frozen=True)
class ClassificationResult:
    """Label plus the recovered normal form; numeric fields are None only
    for NonQuadric.  rotation_angle is the angle t in (-pi/2, pi/2] such
    that substituting the rotated coordinates (x, y) = R(t) (x~, y~) puts
    the fitted quadratic into alpha*x~^2 + beta*y~^2 with alpha >= beta."""

    label: SurfaceClass
    alpha: float | None
    beta: float | None
    H: float | None
    K: float | None
    rotation_angle: float = 0.0


@dataclass(frozen=True)
class CanonicalSurface:
    """The normal-form quadric of a curvature pair (H, K), K <= H^2."""

    H: float
    K: float

    def __post_init__(self):
        if not (np.isfinite(self.H) and np.isfinite(self.K)):
            raise ValueError("H and K must be finite")
        if self.K > self.H * self.H:
            raise ValueError(
                f"K = {self.K:g} exceeds H^2 = {self.H * self.H:g}; "
                "no spacelike graph carries that pair"
            )

    @property
    def alpha(self) -> float:
        return 0.5 * (self.H + math.sqrt(max(self.H * self.H - self.K, 0.0)))

    @property
    def beta(self) -> float:
        return 0.5 * (self.H - math.sqrt(max(self.H * self.H - self.K, 0.0)))

    def height_at(self, x, y):
        """Height alpha*x^2 + beta*y^2; accepts scalars or arrays."""
        return self.alpha * x * x + self.beta * y * y

    def as_field(self, domain: Rect, n_x: int, n_y: int) -> ScalarField:
        xx, yy = domain.mesh(n_x, n_y)
        return ScalarField(domain, self.height_at(xx, yy))


def canonical_form(H: float, K: float) -> CanonicalSurface:
    """Normal-form quadric for the pair; rejects K > H^2."""
    return CanonicalSurface(float(H), float(K))


def label_from_constants(
    H: float, K: float, tol: float = DEFAULT_CLASSIFY_TOL
) -> ClassificationResult:
    """Classify by the curvature pair alone, with |.| < tol as the zero test.

    Boundary pairs take the more special label: a vanishing H refines the
    saddle to its rectangular case, and K = H^2 refines the bowl to the
    surface of revolution.
    """
    H, K = float(H), float(K)
    if not (math.isfinite(H) and math.isfinite(K)):
        raise ValueError("H and K must be finite")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    disc = H * H - K
    if disc < -tol:
        raise ValueError(
            f"K = {K:g} exceeds H^2 = {H * H:g}; no spacelike graph carries that pair"
        )
    sqrt_disc = math.sqrt(max(disc, 0.0))
    alpha = 0.5 * (H + sqrt_disc)
    beta = 0.5 * (H - sqrt_disc)
    if abs(K) < tol:
        label = SurfaceClass.PLANE if abs(H) < tol else SurfaceClass.CYLINDER
    elif K < 0:
        label = (
            SurfaceClass.RECTANGULAR_HYPERBOLIC_PARABOLOID
            if abs(H) < tol
            else SurfaceClass.HYPERBOLIC_PARABOLOID
        )
    else:
        label = (
            SurfaceClass.CIRCULAR_PARABOLOID
            if abs(disc) < tol
            else SurfaceClass.ELLIPTIC_PARABOLOID
        )
    return ClassificationResult(label, alpha, beta, H, K, 0.0)


def classify_sample(
    sample: SurfaceSample | ScalarField,
    tol: float = DEFAULT_CLASSIFY_TOL,
    fit_tol: float = DEFAULT_QUAD_FIT_TOL,
) -> ClassificationResult:
    """Classify a sampled graph; non-quadrics come back labeled NonQuadric.

    Accepts a graph-mode surface sample or a plain height field.  The height
    is fitted by least squares; linear and constant terms are dropped as the
    translational part of an ambient isometry, and the quadratic part is
    diagonalized by a planar rotation.  `fit_tol` bounds the relative fit
    residual, as in quadratic_test, and `tol` the zero tests on the
    recovered constants.
    """
    field = sample.as_height_field() if isinstance(sample, SurfaceSample) else sample
    is_quad, coeffs = quadratic_test(field, fit_tol)
    if not is_quad:
        return ClassificationResult(SurfaceClass.NON_QUADRIC, None, None, None, None)
    _, _, _, d, e, g = (float(c) for c in coeffs)
    quad_form = np.array([[d, 0.5 * e], [0.5 * e, g]])
    eigvals, eigvecs = np.linalg.eigh(quad_form)
    alpha, beta = float(eigvals[1]), float(eigvals[0])
    if abs(alpha - beta) < tol:
        angle = 0.0
    else:
        vx, vy = float(eigvecs[0, 1]), float(eigvecs[1, 1])
        angle = math.atan2(vy, vx)
        if angle <= -0.5 * math.pi:
            angle += math.pi
        elif angle > 0.5 * math.pi:
            angle -= math.pi
    result = label_from_constants(alpha + beta, 4.0 * alpha * beta, tol)
    return replace(result, rotation_angle=angle)
