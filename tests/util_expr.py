"""Seeded random expression trees for round-trip and calculus tests,
sampled normal-form quadrics, the generator pairs the tests lift, and a
reference copy of the closed-form calculus that holo.antiderivative replaced.

Trees are built through the folding constructors, so they are already in
the shape the parser produces and ``parse(to_text(e)) == e`` is a fair
structural comparison.
"""

from __future__ import annotations

from itertools import zip_longest

import numpy as np

from isocmc import holo
from isocmc.classify import label_from_constants
from isocmc.graphgeo import Rect
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


def quadric_field(H: float, K: float, domain: Rect, n_x: int, n_y: int) -> SurfaceSample:
    """The normal form alpha*x^2 + beta*y^2 of the pair (H, K), sampled on the lattice
    as a plain field (H None)."""
    form = label_from_constants(H, K)
    xx, yy = domain.mesh(n_x, n_y)
    return SurfaceSample(domain, None, xx, yy, form.alpha * xx * xx + form.beta * yy * yy)


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


# ---------------------------------------------------------------------------
# reference calculus: the four mutually recursive helpers that holo.antiderivative
# used before its one-pass rewrite, kept verbatim as the oracle for its trees


def reference_antiderivative(e: holo.Expr) -> holo.Expr | None:
    """holo.antiderivative as it was, over the reference helpers below."""
    holo._require_complex_mode(e, "antiderivative")
    with np.errstate(over="ignore", invalid="ignore"):
        raw = _ref_anti(e)
    if raw is None:
        return None
    at_zero = holo.evaluate(raw, {"z": 0j})
    if at_zero != 0:
        raw = holo.sub(raw, holo.Constant(at_zero))
    return raw


def _ref_anti(e):
    lin = _ref_linear_coeffs(e.base) if isinstance(e, holo.IntPow) and e.n >= 0 else None
    direct, shifted = lin is not None and lin[0] != 0, lin is not None and 0 not in lin
    by_terms = _ref_has_shifted_power(e)
    linear = _ref_anti_linear(e) if by_terms else None
    coeffs = None if shifted or linear is not None else _ref_poly_coeffs(e)
    if coeffs is not None:
        return _ref_integrate_poly(coeffs)
    if direct:
        return holo.div(holo.intpow(e.base, e.n + 1), holo.Constant(lin[0] * (e.n + 1)))
    if isinstance(e, holo._Function):
        lin = _ref_linear_coeffs(e.arg)
        if lin is None:
            return None
        a, _ = lin
        if a == 0:
            return holo.mul(holo.Constant(holo.evaluate(e, {"z": 0j})), holo.Variable("z"))
        sign, primitive = holo._PRIMITIVES[type(e)]
        term = holo.mul(holo.Constant(1 / a), primitive(e.arg))
        return term if sign > 0 else holo.neg(term)
    return linear if by_terms else _ref_anti_linear(e)


def _ref_anti_linear(e):
    if isinstance(e, (holo.Add, holo.Sub)):
        l, r = _ref_anti(e.left), _ref_anti(e.right)
        join = holo.add if isinstance(e, holo.Add) else holo.sub
        return None if l is None or r is None else join(l, r)
    if isinstance(e, holo.Neg):
        c = _ref_anti(e.child)
        return None if c is None else holo.neg(c)
    if isinstance(e, holo.Mul):
        if isinstance(e.left, holo.Constant):
            r = _ref_anti(e.right)
            return None if r is None else holo.mul(e.left, r)
        if isinstance(e.right, holo.Constant):
            l = _ref_anti(e.left)
            return None if l is None else holo.mul(l, e.right)
        return None
    if isinstance(e, holo.Div):
        if isinstance(e.right, holo.Constant) and abs(e.right.value) >= holo.DIV_EPS:
            l = _ref_anti(e.left)
            return None if l is None else holo.div(l, e.right)
        return None
    return None


def _ref_has_shifted_power(e) -> bool:
    stack = [e]
    while stack:
        node = stack.pop()
        is_pow = isinstance(node, holo.IntPow) and node.n >= 0
        lin = _ref_linear_coeffs(node.base) if is_pow else None
        if lin is not None and 0 not in lin:
            return True
        stack.extend(reversed([c for c in vars(node).values() if isinstance(c, holo.Expr)]))
    return False


def _ref_integrate_poly(coeffs):
    z = holo.Variable("z")
    out = holo.Constant(0)
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        out = holo.add(out, holo.mul(holo.Constant(c / (k + 1)), holo.intpow(z, k + 1)))
    return out


def _ref_capped(coeffs):
    ok = np.count_nonzero(coeffs) <= holo.MAX_POLY_TERMS and np.all(np.isfinite(coeffs))
    return coeffs if ok else None


def _ref_poly_coeffs(e):
    if isinstance(e, holo.Constant):
        return [e.value]
    if isinstance(e, holo.Variable):
        return [0, 1]
    if isinstance(e, (holo.Add, holo.Sub)):
        l, r = _ref_poly_coeffs(e.left), _ref_poly_coeffs(e.right)
        if l is None or r is None:
            return None
        s = 1 if isinstance(e, holo.Add) else -1
        return _ref_capped([a + s * b for a, b in zip_longest(l, r, fillvalue=0)])
    if isinstance(e, holo.Neg):
        c = _ref_poly_coeffs(e.child)
        return None if c is None else [-v for v in c]
    if isinstance(e, holo.Mul):
        l, r = _ref_poly_coeffs(e.left), _ref_poly_coeffs(e.right)
        if l is None or r is None or len(l) + len(r) - 2 > holo.MAX_POLY_DEGREE:
            return None
        return _ref_capped(list(np.convolve(l, r)))
    if isinstance(e, holo.Div):
        if isinstance(e.right, holo.Constant) and abs(e.right.value) >= holo.DIV_EPS:
            l = _ref_poly_coeffs(e.left)
            return None if l is None else _ref_capped([v / e.right.value for v in l])
        return None
    if isinstance(e, holo.IntPow):
        base = _ref_poly_coeffs(e.base)
        if base is None:
            return None
        if e.n < 0:
            if len(base) != 1 or abs(base[0]) < holo.DIV_EPS:
                return None
            try:
                return [base[0] ** e.n]
            except OverflowError:
                raise holo.NonFiniteError("evaluation overflowed to a non-finite value") from None
        if e.n * (len(base) - 1) > holo.MAX_POLY_DEGREE:
            return None
        if isinstance(e.base, holo.Variable):
            return [0] * e.n + [1]
        out = [complex(1)]
        for bit in bin(e.n)[2:]:
            square = np.convolve(out, out)
            out = _ref_capped(list(square if bit == "0" else np.convolve(square, base)))
            if out is None:
                return None
        return out
    return None


def _ref_linear_coeffs(e):
    coeffs = _ref_poly_coeffs(e)
    if coeffs is None or len(coeffs) > 2:
        return None
    coeffs = coeffs + [0] * (2 - len(coeffs))
    return complex(coeffs[1]), complex(coeffs[0])
