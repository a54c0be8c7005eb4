"""Seeded random expression trees for round-trip and calculus tests,
sampled normal-form quadrics, and the generator pairs the tests lift.

Trees are built through the folding constructors, so they are already in
the shape the parser produces and ``parse(to_text(e)) == e`` is a fair
structural comparison.
"""

from __future__ import annotations

import numpy as np

from isocmc import holo
from isocmc.classify import label_from_constants
from isocmc.graphgeo import Rect, ScalarField
from isocmc.weierstrass import SurfaceSample, WeierstrassData, synthesize_family

_WRAPPERS = (holo.Exp, holo.Sin, holo.Cos, holo.Sinh, holo.Cosh)


def _constant(rng: np.random.Generator) -> holo.Expr:
    style = int(rng.integers(0, 4))
    if style == 0:
        return holo.Constant(float(rng.integers(1, 10)))
    if style == 1:
        return holo.Constant(round(float(rng.normal()), 3) or 1.0)
    if style == 2:
        re = round(float(rng.normal()), 3)
        im = round(float(rng.normal()), 3) or 1.0
        return holo.Constant(complex(re, im))
    return holo.Constant(complex(0.0, float(rng.integers(1, 5))))


def _leaf(rng: np.random.Generator, mode: str) -> holo.Expr:
    if rng.random() < 0.4:
        return _constant(rng)
    if mode == "z":
        return holo.Variable("z")
    return holo.Variable("x" if rng.random() < 0.5 else "y")


def random_expr(rng: np.random.Generator, depth: int, mode: str = "z") -> holo.Expr:
    """A random folded tree; mode selects the variable alphabet ("z"/"xy")."""
    if depth <= 0 or rng.random() < 0.2:
        return _leaf(rng, mode)
    pick = int(rng.integers(0, 11))
    a = random_expr(rng, depth - 1, mode)
    if pick == 0:
        return holo.add(a, random_expr(rng, depth - 1, mode))
    if pick == 1:
        return holo.sub(a, random_expr(rng, depth - 1, mode))
    if pick in (2, 3):
        return holo.mul(a, random_expr(rng, depth - 1, mode))
    if pick == 4:
        den = random_expr(rng, depth - 1, mode)
        if isinstance(den, holo.Constant) and abs(den.value) < 1e-6:
            den = holo.Constant(2.0)
        return holo.div(a, den)
    if pick == 5:
        return holo.neg(a)
    if pick == 6:
        return holo.intpow(a, int(rng.integers(-3, 6)))
    return _WRAPPERS[pick - 7](a)


def random_integrable(rng: np.random.Generator, terms: int = 3) -> holo.Expr:
    """A random member of the symbolically integrable class.

    A polynomial plus a few c*f(a*z+b) pieces with f among the supported
    transcendental heads.
    """
    z = holo.Variable("z")
    degree = int(rng.integers(0, 5))
    acc: holo.Expr = holo.Constant(0)
    for k in range(degree + 1):
        coeff = round(float(rng.normal()), 3)
        acc = holo.add(acc, holo.mul(holo.Constant(coeff), holo.intpow(z, k)))
    for _ in range(terms):
        head = _WRAPPERS[int(rng.integers(0, len(_WRAPPERS)))]
        a = round(float(rng.normal()), 3) or 0.5
        b = round(float(rng.normal()), 3)
        c = round(float(rng.normal()), 3) or 1.0
        inner = holo.add(holo.mul(holo.Constant(a), z), holo.Constant(b))
        acc = holo.add(acc, holo.mul(holo.Constant(c), head(inner)))
    return acc


def quadric_field(H: float, K: float, domain: Rect, n_x: int, n_y: int) -> ScalarField:
    """The normal form alpha*x^2 + beta*y^2 of the pair (H, K), sampled on the lattice."""
    form = label_from_constants(H, K)
    xx, yy = domain.mesh(n_x, n_y)
    return ScalarField(domain, form.alpha * xx * xx + form.beta * yy * yy)


def enneper_data(n: int) -> WeierstrassData:
    """Generator pair (z^(n-1), 1) of the degree-n polynomial family."""
    if n < 2:
        raise ValueError("the polynomial family starts at n = 2")
    return WeierstrassData(holo.intpow(holo.Variable("z"), n - 1), holo.Constant(1))


def exp_data() -> WeierstrassData:
    """Generator pair (exp(z), 1), whose curvature never reaches its sup."""
    return WeierstrassData(holo.Exp(holo.Variable("z")), holo.Constant(1))


def lift_one(
    data: WeierstrassData, H: float, domain: Rect, n_u: int, n_v: int,
    tol: float = holo.DEFAULT_QUAD_TOL,
) -> SurfaceSample:
    """The one-H member of the pair's family."""
    return synthesize_family(data, [H], domain, n_u, n_v, tol)[0]
