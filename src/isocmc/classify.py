"""Classification of the quadric CMC graphs by their curvature pair (H, K).

Every spacelike quadric graph is, up to an isometry of the ambient space,
the canonical surface

    ell = H*(x^2 + y^2)/2 + sqrt(H^2 - K)*(x^2 - y^2)/2
        = alpha*x~^2 + beta*y~^2

with alpha = (H + sqrt(H^2 - K))/2 and beta = (H - sqrt(H^2 - K))/2, so
alpha + beta = H and 4*alpha*beta = K.  The exact signs of H, K and H^2 - K
sort the surface into six classes; the boundary cases get the more special
label (zero mean curvature refines the saddle, K = H^2 refines the bowl).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

import numpy as np

from .graphgeo import DEFAULT_QUAD_FIT_TOL, quadratic_test
from .weierstrass import SurfaceSample


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


def label_from_constants(H, K) -> ClassificationResult:
    """Classify by the curvature pair alone, with exact zero tests.  A Fraction
    counts as it is, a float as the decimal its repr prints (the number a report
    echoes), so (0.1, 0.01) is a bowl; no tolerance forgives rounding, so
    (0.1, 0.1 * 0.1), whose K is past 0.01 in binary, is rejected."""
    if not all(abs(v) <= sys.float_info.max for v in (H, K)):
        raise ValueError("H and K must be finite")
    H, K = (v if isinstance(v, Fraction) else Fraction(repr(float(v))) for v in (H, K))
    disc = H * H - K
    if abs(disc) > sys.float_info.max:
        raise ValueError(f"H^2 - K leaves the float range at H = {float(H):g}, K = {float(K):g}")
    if disc < 0:
        raise ValueError(f"K = {float(K)!r} exceeds H^2 = {float(H * H)!r}; "
                         "no spacelike graph carries that pair")
    root = Fraction(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
    if root * root != disc:  # no square of a rational: the root of its float
        root = Fraction(math.sqrt(disc))
    if K == 0:
        label = SurfaceClass.PLANE if H == 0 else SurfaceClass.CYLINDER
    elif K < 0 and H == 0:
        label = SurfaceClass.RECTANGULAR_HYPERBOLIC_PARABOLOID
    elif K < 0:
        label = SurfaceClass.HYPERBOLIC_PARABOLOID
    elif disc == 0:
        label = SurfaceClass.CIRCULAR_PARABOLOID
    else:
        label = SurfaceClass.ELLIPTIC_PARABOLOID
    alpha, beta = float((H + root) / 2), float((H - root) / 2)
    return ClassificationResult(label, alpha, beta, float(H), float(K), 0.0)


def classify_sample(
    sample: SurfaceSample, fit_tol: float = DEFAULT_QUAD_FIT_TOL
) -> ClassificationResult:
    """Classify a sampled graph; non-quadrics come back labeled NonQuadric.

    Accepts a sample over any chart, a plain height field among them.  The
    height is fitted by least squares over the chart nodes; linear and
    constant terms are dropped as the translational part of an ambient
    isometry, and the quadratic part is diagonalized by a planar rotation.  Its
    eigenvalues alpha >= beta snap to the most special case that moves no height,
    up to affine terms, by more than fit_tol * (1 + max(|alpha|, |beta|) rho^2),
    rho the chart box's half-diagonal: a bound blind to the dropped terms.
    """
    is_quad, coeffs = quadratic_test(sample, fit_tol)
    if not is_quad:
        return ClassificationResult(SurfaceClass.NON_QUADRIC, None, None, None, None)
    _, _, _, d, e, g = (float(c) for c in coeffs)
    (beta, alpha), eigvecs = np.linalg.eigh(np.array([[d, 0.5 * e], [0.5 * e, g]]))
    # B / rho^2: moving an eigenvalue by c moves no height, affine terms aside, past c*rho^2
    rho2 = 0.25 * float(np.ptp(sample.x) ** 2 + np.ptp(sample.y) ** 2)
    bound = fit_tol * (1.0 / rho2 + max(abs(alpha), abs(beta)))
    if max(abs(alpha), abs(beta)) <= bound:
        alpha = beta = 0.0
    elif abs(beta) <= bound:
        beta = 0.0
    elif abs(alpha) <= bound:
        alpha = 0.0
    elif abs(alpha + beta) <= 2.0 * bound:
        alpha, beta = 0.5 * alpha - 0.5 * beta, 0.5 * beta - 0.5 * alpha
    elif abs(alpha - beta) <= 2.0 * bound:
        alpha = beta = 0.5 * alpha + 0.5 * beta
    angle = 0.0
    if alpha != beta:  # else every rotation diagonalizes the form
        angle = math.atan2(float(eigvecs[1, 1]), float(eigvecs[0, 1]))
        if angle <= -0.5 * math.pi:
            angle += math.pi
        elif angle > 0.5 * math.pi:
            angle -= math.pi
    a, b = Fraction(alpha), Fraction(beta)
    return replace(label_from_constants(a + b, 4 * a * b), rotation_angle=angle)
