"""Holomorphic expression trees and the calculus the surface synthesis needs.

The trees are deliberately tiny: constants, one complex variable z (or the
real pair x, y), the four arithmetic operations, negation, integer powers,
and the entire functions exp, sin, cos, sinh, cosh.  Everything a generator
pair uses is closed under differentiation inside this class, and the
antiderivatives we need either stay inside it (polynomials, c*exp(a*z+b),
trigonometric and hyperbolic lines) or fall back to adaptive quadrature.

Trees are immutable and compare structurally.  Smart constructors fold
subtrees whose operands are all constants and eliminate additive zeros and
multiplicative ones, and nothing else, so a tree built through them has a
unique canonical text form that parses back to the identical tree.
"""

from __future__ import annotations

import math
import operator
import re
from contextlib import suppress
from dataclasses import dataclass
from functools import cache
from itertools import zip_longest
from typing import Mapping, Union

import numpy as np

# |w| below this counts as a vanishing denominator.
DIV_EPS = 1e-300
# Default absolute tolerance for contour integration.
DEFAULT_QUAD_TOL = 1e-10
# Relative panel tolerance, so integrands far above 1 converge in double precision.
QUAD_REL_TOL = 1e-12
# Hard cap on adaptive panels per segment of a contour_integral call, read at each call.
MAX_PANELS = 10_000

NumberLike = Union[int, float, complex]


class ExpressionError(Exception):
    """Base class for every error raised by this module."""


class ParseError(ExpressionError):
    """Source text rejected; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class SingularityError(ExpressionError):
    """Evaluation hit a (near-)vanishing denominator."""


class NonFiniteError(ExpressionError):
    """Evaluation overflowed to inf or produced nan."""


class QuadratureError(ExpressionError):
    """Contour integration could not reach the tolerance within budget."""


# ---------------------------------------------------------------------------
# nodes


class Expr:
    """Base node.  Subclasses are frozen dataclasses; trees are immutable."""

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True)
class Constant(Expr):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))

    def _eval(self, env):
        return self.value

    def _diff(self):
        return Constant(0)

    def _text(self):
        return _format_complex(self.value)


@dataclass(frozen=True)
class Variable(Expr):
    tag: str  # "z" (complex mode) or "x"/"y" (real mode)

    def __post_init__(self):
        if self.tag not in ("z", "x", "y"):
            raise ValueError(f"unknown variable tag {self.tag!r}")

    def _eval(self, env):
        return env[self.tag]

    def _diff(self):
        return Constant(1)

    def _text(self):
        return self.tag


@dataclass(frozen=True)
class _Binary(Expr):
    """`left symbol right`; subclasses set `symbol`, `op` and `_diff` and add no fields,
    so the dataclass equality (same class, same operands), hash and repr hold for each."""

    left: Expr
    right: Expr
    symbol = ""
    op = None

    def _eval(self, env):
        return self.op(self.left._eval(env), self.right._eval(env))

    def _text(self):
        return f"({self.left._text()}{self.symbol}{self.right._text()})"


class Add(_Binary):
    symbol, op = "+", operator.add

    def _diff(self):
        return add(self.left._diff(), self.right._diff())


class Sub(_Binary):
    symbol, op = "-", operator.sub

    def _diff(self):
        return sub(self.left._diff(), self.right._diff())


class Mul(_Binary):
    symbol, op = "*", operator.mul

    def _diff(self):
        return add(mul(self.left._diff(), self.right), mul(self.left, self.right._diff()))


class Div(_Binary):
    symbol = "/"

    def _eval(self, env):  # the denominator first, so a vanishing one is named
        den = self.right._eval(env)
        if _min_abs(den) < DIV_EPS:
            raise SingularityError("division by a vanishing denominator")
        return self.left._eval(env) / den

    def _diff(self):
        return div(
            sub(mul(self.left._diff(), self.right), mul(self.left, self.right._diff())),
            intpow(self.right, 2),
        )


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr

    def _eval(self, env):
        return -self.child._eval(env)

    def _diff(self):
        return neg(self.child._diff())

    def _text(self):
        return f"(-{self.child._text()})"


@dataclass(frozen=True)
class IntPow(Expr):
    base: Expr
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))

    def _eval(self, env):
        b = self.base._eval(env)
        if self.n < 0 and _min_abs(b) < DIV_EPS:
            raise SingularityError("negative power of a vanishing base")
        try:
            return b ** self.n
        except (OverflowError, ZeroDivisionError):  # a scalar raises where an array gives inf
            raise NonFiniteError("evaluation overflowed to a non-finite value") from None

    def _diff(self):
        return mul(
            mul(Constant(self.n), intpow(self.base, self.n - 1)),
            self.base._diff(),
        )

    def _text(self):
        return f"({self.base._text()}^{self.n})"


@dataclass(frozen=True)
class _Function(Expr):
    """An entire function of one argument; subclasses set `name` and `ufunc`.

    Subclasses add no fields, so the dataclass equality (same class, same
    argument), hash and repr apply to each of them unchanged.
    """

    arg: Expr
    name = ""
    ufunc = None

    def _eval(self, env):
        return self.ufunc(self.arg._eval(env))

    def _diff(self):
        sign, derived = _DERIVATIVES[type(self)]
        d = mul(derived(self.arg), self.arg._diff())
        return d if sign > 0 else neg(d)

    def _text(self):
        return f"{self.name}({self.arg._text()})"


class Exp(_Function):
    name, ufunc = "exp", np.exp


class Sin(_Function):
    name, ufunc = "sin", np.sin


class Cos(_Function):
    name, ufunc = "cos", np.cos


class Sinh(_Function):
    name, ufunc = "sinh", np.sinh


class Cosh(_Function):
    name, ufunc = "cosh", np.cosh


# d/dz f(u) = sign * g(u) * u' for the entry f: (sign, g); read backwards,
# the integral of g(a*z + b) is sign * f(a*z + b) / a.
_DERIVATIVES = {Exp: (1, Exp), Sin: (1, Cos), Cos: (-1, Sin), Sinh: (1, Cosh), Cosh: (1, Sinh)}
_PRIMITIVES = {g: (sign, f) for f, (sign, g) in _DERIVATIVES.items()}
_FUNCTIONS = {f.name: f for f in _DERIVATIVES}


# ---------------------------------------------------------------------------
# smart constructors (constant folding, zero/one elimination)


def _is_const(e: Expr, value=None) -> bool:
    return isinstance(e, Constant) and (value is None or e.value == value)


def add(l: Expr, r: Expr) -> Expr:
    if isinstance(l, Constant) and isinstance(r, Constant):
        return Constant(l.value + r.value)
    if _is_const(l, 0):
        return r
    if _is_const(r, 0):
        return l
    return Add(l, r)


def sub(l: Expr, r: Expr) -> Expr:
    if isinstance(l, Constant) and isinstance(r, Constant):
        return Constant(l.value - r.value)
    if _is_const(r, 0):
        return l
    if _is_const(l, 0):
        return neg(r)
    return Sub(l, r)


def mul(l: Expr, r: Expr) -> Expr:
    if isinstance(l, Constant) and isinstance(r, Constant):
        return Constant(l.value * r.value)
    if _is_const(l, 0) or _is_const(r, 0):
        return Constant(0)
    if _is_const(l, 1):
        return r
    if _is_const(r, 1):
        return l
    return Mul(l, r)


def div(l: Expr, r: Expr) -> Expr:
    if isinstance(r, Constant) and abs(r.value) >= DIV_EPS:
        if isinstance(l, Constant):
            return Constant(l.value / r.value)
        if r.value == 1:
            return l
    return Div(l, r)


def neg(e: Expr) -> Expr:
    if isinstance(e, Constant):
        return Constant(-e.value)
    return Neg(e)


def intpow(base: Expr, n: int) -> Expr:
    n = int(n)
    if isinstance(base, Constant):
        if n >= 0 or abs(base.value) >= DIV_EPS:
            try:
                v = base.value ** n
            except (OverflowError, ZeroDivisionError):  # as in IntPow._eval
                v = None
            if v is not None and np.isfinite(v):
                return Constant(v)
    if n == 0:
        return Constant(1)
    if n == 1:
        return base
    return IntPow(base, n)


# ---------------------------------------------------------------------------
# inspection


def variables(e: Expr) -> set[str]:
    """Set of variable tags used by the tree."""
    out: set[str] = set()
    _collect_vars(e, out)
    return out


def _collect_vars(e: Expr, out: set[str]) -> None:
    if isinstance(e, Variable):
        out.add(e.tag)
    for child in vars(e).values():
        if isinstance(child, Expr):
            _collect_vars(child, out)


def _require_complex_mode(e: Expr, what: str) -> None:
    tags = variables(e)
    if tags - {"z"}:
        raise ValueError(f"{what} requires an expression in z only, got {sorted(tags)}")


# ---------------------------------------------------------------------------
# evaluation


def evaluate(expr: Expr, at: Mapping[str, NumberLike | np.ndarray]):
    """Evaluate a tree at a point, or elementwise over same-shaped arrays.

    `at` maps variable tags to complex scalars or to numpy arrays (all arrays
    must share one shape).  Scalar input returns a Python complex, array
    input a complex128 array.  A vanishing denominator raises
    SingularityError and any overflow to a non-finite value raises
    NonFiniteError; neither nan nor inf ever escapes.
    """
    needed = variables(expr)
    missing = needed - set(at)
    if missing:
        raise ValueError(f"no value supplied for variable(s) {sorted(missing)}")
    env: dict[str, complex | np.ndarray] = {}
    shape = None
    for tag, value in at.items():
        if isinstance(value, np.ndarray):
            arr = np.asarray(value, dtype=np.complex128)
            if shape is not None and arr.shape != shape:
                raise ValueError("all variable arrays must share one shape")
            shape = arr.shape
            env[tag] = arr
        else:
            env[tag] = complex(value)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = expr._eval(env)
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("evaluation overflowed to a non-finite value")
    if shape is not None:
        if np.ndim(out) == 0:
            return np.full(shape, complex(out), dtype=np.complex128)
        return np.asarray(out, dtype=np.complex128)
    return complex(out)


def _min_abs(v) -> float:
    return float(np.min(np.abs(v)))


# ---------------------------------------------------------------------------
# symbolic calculus


def derivative(e: Expr) -> Expr:
    """Symbolic d/dz.  The result is folded, never expanded or reordered."""
    _require_complex_mode(e, "derivative")
    return e._diff()


def antiderivative(e: Expr) -> Expr | None:
    """Antiderivative F with F(0) = 0, or None when outside the closed class.

    Supported: polynomials in z, c*exp(a*z+b), c*sin/cos/sinh/cosh(a*z+b),
    and finite sums and constant multiples of these.  None means "use
    quadrature instead"; it is a value, not an error.
    """
    _require_complex_mode(e, "antiderivative")
    with np.errstate(over="ignore", invalid="ignore"):  # _capped drops what overflows
        raw = _anti(e, {})
    if raw is None:
        return None
    at_zero = evaluate(raw, {"z": 0j})
    if at_zero != 0:
        raw = sub(raw, Constant(at_zero))
    return raw


def _anti(e: Expr, memo: dict) -> Expr | None:
    """The primitive of e by the first rule that applies, or None; one frame per level."""
    # A power of a*z + b, b != 0, takes (a*z+b)^(n+1) / (a*(n+1)): its expanded sum
    # would cancel away every digit, and so would the expansion of a sum or constant
    # multiple that holds one, so such a node is first integrated term by term.
    # (a*z)^n takes it only when the expansion fails.
    operands, join = _linear_parts(e)
    if operands and (_holds(e, memo) or _coeffs(e, memo) is None):
        primitives = []
        for operand in operands:  # a loop, not a comprehension, which costs a frame
            primitives.append(_anti(operand, memo))
        if None not in primitives:
            return join(*primitives)
    coeffs = _coeffs(e, memo)
    line = _line(e.base, memo) if isinstance(e, IntPow) and e.n >= 0 else None
    if coeffs is not None and (line is None or 0 in line):
        return _integrate_poly(coeffs)
    if line is not None and line[0] != 0:
        return div(intpow(e.base, e.n + 1), Constant(line[0] * (e.n + 1)))
    line = _line(e.arg, memo) if isinstance(e, _Function) else None
    if line is None:
        return None
    if line[0] == 0:
        return mul(Constant(evaluate(e, {"z": 0j})), Variable("z"))
    sign, primitive = _PRIMITIVES[type(e)]
    term = mul(Constant(1 / line[0]), primitive(e.arg))
    return term if sign > 0 else neg(term)


def _linear_parts(e: Expr) -> tuple[tuple[Expr, ...], object]:
    """(operands, join) when e is a sum, difference, negation or constant multiple, whose
    primitive is join(*primitives of its operands); else ((), None)."""
    if isinstance(e, (Add, Sub)):
        return (e.left, e.right), add if isinstance(e, Add) else sub
    if isinstance(e, Neg):
        return (e.child,), neg
    if isinstance(e, Mul) and isinstance(e.left, Constant):
        return (e.right,), lambda r: mul(e.left, r)
    if isinstance(e, Mul) and isinstance(e.right, Constant):
        return (e.left,), lambda l: mul(l, e.right)
    if isinstance(e, Div) and isinstance(e.right, Constant) and abs(e.right.value) >= DIV_EPS:
        return (e.left,), lambda l: div(l, e.right)
    return (), None


def _holds(e: Expr, memo: dict) -> bool:
    """Whether e holds a power (a*z+b)^n with a, b != 0 and n >= 0, once per node: memo
    maps ("holds", id(node)) to (node, answer) and keeps the node alive, so no id is
    reused while it lives.  Only the bases of powers have their coefficients worked out."""
    key = ("holds", id(e))
    if key not in memo:
        line = _line(e.base, memo) if isinstance(e, IntPow) and e.n >= 0 else None
        holds = line is not None and 0 not in line
        for child in vars(e).values():
            if isinstance(child, Expr):
                holds = _holds(child, memo) or holds
        memo[key] = e, holds
    return memo[key][1]


def _line(e: Expr, memo: dict) -> tuple[complex, complex] | None:
    """(a, b) when e is exactly a*z + b, else None."""
    c = _coeffs(e, memo)
    return None if c is None or len(c) > 2 else (complex((c + [0])[1]), complex(c[0]))


def _integrate_poly(coeffs: list[complex]) -> Expr:
    out: Expr = Constant(0)
    for k, c in enumerate(coeffs):
        if c != 0:
            out = add(out, mul(Constant(c / (k + 1)), intpow(Variable("z"), k + 1)))
    return out


# Most nonzero terms a polynomial may expand to: its primitive is an Add chain
# of one link per term, which must stay far below the recursion limit.
MAX_POLY_TERMS = 256
# Highest degree a polynomial may expand to; a power of a*z past it integrates whole.
MAX_POLY_DEGREE = 20_000
# Most multiply-adds the convolutions of one antiderivative call may take in all:
# about two products at the degree cap.
MAX_POLY_WORK = 2 * 10**8


def _capped(coeffs: list) -> list | None:  # None also where a coefficient overflowed
    ok = np.count_nonzero(coeffs) <= MAX_POLY_TERMS and np.all(np.isfinite(coeffs))
    return coeffs if ok else None


def _product(memo: dict, *factors: list) -> list | None:
    """The capped coefficient list of the product of the factors, convolved in order;
    None once the call's convolutions, counted in memo["work"], pass MAX_POLY_WORK."""
    out = factors[0]
    for f in factors[1:]:
        memo["work"] = memo.get("work", 0) + len(out) * len(f)
        if memo["work"] > MAX_POLY_WORK:
            return None
        out = np.convolve(out, f)
    return _capped(list(out))


def _coeffs(e: Expr, memo: dict) -> list[complex] | None:
    """Coefficient list (index = degree) of e as a polynomial in z; None past the caps
    above, or where a coefficient overflows.  Worked out once per node, from the lists of
    only those children it is built from (none under a function or a non-constant
    denominator): memo maps id(node) to (node, list) and keeps the node alive."""
    if id(e) in memo:
        return memo[id(e)][1]
    c = None
    if isinstance(e, Constant):
        c = _capped([e.value])
    elif isinstance(e, Variable):
        c = [0, 1]
    elif isinstance(e, Div) and not (_is_const(e.right) and abs(e.right.value) >= DIV_EPS):
        pass  # no polynomial, whatever the numerator
    elif isinstance(e, _Binary):
        left = _coeffs(e.left, memo)
        right = None if left is None else _coeffs(e.right, memo)
        if right is None:
            pass
        elif isinstance(e, (Add, Sub)):
            s = 1 if isinstance(e, Add) else -1
            c = _capped([a + s * b for a, b in zip_longest(left, right, fillvalue=0)])
        elif isinstance(e, Mul):
            if len(left) + len(right) - 2 <= MAX_POLY_DEGREE:
                c = _product(memo, left, right)
        else:
            c = _capped([v / e.right.value for v in left])
    elif isinstance(e, Neg):
        child = _coeffs(e.child, memo)
        c = None if child is None else [-v for v in child]
    elif isinstance(e, IntPow):
        base = _coeffs(e.base, memo)
        if base is None or e.n * (len(base) - 1) > MAX_POLY_DEGREE:
            pass
        elif e.n < 0:
            if len(base) == 1 and abs(base[0]) >= DIV_EPS:
                with suppress(OverflowError, ZeroDivisionError):  # as in IntPow._eval
                    c = _capped([base[0] ** e.n])
        elif isinstance(e.base, Variable):
            c = [0] * e.n + [1]
        else:
            c = [complex(1)]
            for bit in bin(e.n)[2:]:  # square and multiply, leading bit first
                if c is not None:
                    c = _product(memo, c, c) if bit == "0" else _product(memo, c, c, base)
    memo[id(e)] = e, c
    return c


# ---------------------------------------------------------------------------
# contour integration


# Kronrod's 21-point extension of the 10-point Gauss rule (QUADPACK's qk21) on [-1, 1]:
# (x, Gauss weight, 21-point weight) at the Gauss nodes x > 0, numpy's leggauss(10)
# bit for bit, then (x, 21-point weight) at the nodes x >= 0 the 21-point rule adds.
_GAUSS_NODES = (
    (0.14887433898163122, 0.2955242247147528, 0.14773910490133849),
    (0.4333953941292472, 0.2692667193099965, 0.13470921731147334),
    (0.6794095682990244, 0.219086362515982, 0.10938715880229764),
    (0.8650633666889845, 0.1494513491505804, 0.07503967481091996),
    (0.9739065285171717, 0.06667134430868814, 0.032558162307964725),
)
_KRONROD_NODES = (
    (0.0, 0.1494455540029169), (0.2943928627014602, 0.14277593857706009),
    (0.5627571346686047, 0.12349197626206584), (0.7808177265864169, 0.0931254545836976),
    (0.9301574913557082, 0.054755896574351995), (0.9956571630258081, 0.011694638867371874),
)


@cache
def _gauss_kronrod() -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """((Gauss weights, Kronrod weights), nodes) on [-1, 1], the 10 Gauss nodes first."""
    (xg, wg, kg), (xk, wk) = np.array(_GAUSS_NODES).T, np.array(_KRONROD_NODES).T
    nodes = np.concatenate((-xg[::-1], xg, -xk[:0:-1], xk))
    return (np.concatenate((wg[::-1], wg)), np.concatenate((kg[::-1], kg, wk[:0:-1], wk))), nodes


# Most quadrature nodes handed to one evaluate call; bounds working memory.
MAX_EVAL_NODES = 16_384


def contour_integral(exprs: list[Expr], za, zb, tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """Integrals of each expression along each straight segment za -> zb, where za
    and zb broadcast to one shape S: a complex128 array of shape (len(exprs), *S).

    Adaptive 21-point Gauss-Kronrod panels: a panel is accepted when the 10-point
    Gauss rule on its nodes agrees with it within the larger of its share of `tol`
    and QUAD_REL_TOL times its Kronrod value, which is then its value; otherwise
    each half takes half the share.  The first round takes every segment whole, on
    nodes all expressions share.  Each segment has its own `tol` and MAX_PANELS;
    past that, QuadratureError.  A singularity on the path raises SingularityError.
    """
    for e in exprs:
        _require_complex_mode(e, "contour integration")
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    za, zb = np.broadcast_arrays(*(np.asarray(w, dtype=np.complex128) for w in (za, zb)))
    if not (np.all(np.isfinite(za)) and np.all(np.isfinite(zb))):
        raise ValueError("segment ends must be finite")
    if np.any(za == zb):
        raise ValueError("segment ends must be distinct")
    starts, ends = za.ravel(), zb.ravel()
    acc = np.zeros((len(exprs), starts.size), dtype=np.complex128)
    batch = MAX_EVAL_NODES // _gauss_kronrod()[1].size
    for part in (slice(lo, lo + batch) for lo in range(0, starts.size, batch)):
        if MAX_PANELS < 1:  # the first round's one panel per segment is already too many
            raise QuadratureError(f"tolerance {tol:g} not reached within {MAX_PANELS} panels")
        a, dz = starts[part], ends[part] - starts[part]
        z, share = _panel_nodes(a, dz, 0.0, 1.0), np.full(dz.size, tol)
        for e, e_acc in zip(exprs, acc[:, part]):
            value, done = _kronrod(evaluate(e, {"z": z}), 0.5 * dz, share)
            np.add(e_acc, value, out=e_acc, where=done)
            if not done.all():
                _adaptive_panels(e, a, dz, done, share, e_acc, tol)
    return acc.reshape((len(exprs), *za.shape))


def _adaptive_panels(expr, za, dz, done, share, acc, tol) -> None:
    """Bisection of the segments za -> za + dz whose whole panel the first round
    did not accept (~done), summed into acc.  A rejected panel pushes its left half,
    then its right half, onto its segment's stack of (t0, t1, share) panels, like a
    one-segment loop, and each round pops the top panel of every unfinished
    segment and evaluates all of them in one call."""
    live, t0, t1, panels = np.arange(za.size), 0.0, 1.0, np.ones(za.size, dtype=np.int64)
    stack, depth = np.zeros((za.size, 0, 3)), np.zeros(za.size, dtype=np.intp)
    while True:
        if not done.all():
            rows, tm = live[~done], 0.5 * (t0 + t1)
            t0, tm, t1, share = np.broadcast_arrays(t0, tm, t1, 0.5 * share)
            if depth[rows].max() + 2 > stack.shape[1]:
                stack = np.concatenate((stack, np.zeros((za.size, stack.shape[1] + 8, 3))), 1)
            stack[rows, depth[rows]] = np.stack((t0, tm, share), 1)[~done]
            stack[rows, depth[rows] + 1] = np.stack((tm, t1, share), 1)[~done]
            depth[rows] += 2
        if not (live := np.flatnonzero(depth)).size:
            return
        depth[live] -= 1
        t0, t1, share = stack[live, depth[live]].T
        panels[live] += 1
        if panels[live].max() > MAX_PANELS:
            raise QuadratureError(f"tolerance {tol:g} not reached within {MAX_PANELS} panels")
        f = evaluate(expr, {"z": _panel_nodes(za[live], dz[live], t0, t1)})
        value, done = _kronrod(f, dz[live] * (0.5 * (t1 - t0)), share)
        acc[live[done]] += value[done]


def _kronrod(f, scale, share) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values of panels from f at their nodes and dz * half-width, and which pass."""
    (gauss_weights, kronrod_weights), _ = _gauss_kronrod()
    gauss = scale * np.dot(f[..., : gauss_weights.size], gauss_weights)[:, 0]
    kronrod = scale * np.dot(f, kronrod_weights)[:, 0]
    return kronrod, np.abs(kronrod - gauss) <= np.maximum(share, QUAD_REL_TOL * np.abs(kronrod))


def _panel_nodes(za, dz, t0, t1) -> np.ndarray:
    """The 21 nodes of each panel [t0, t1] of za -> za + dz, shaped (n, 1, 21): np.dot
    then sums each panel alone, whatever the batch, and off BLAS's threads."""
    mid, half = (np.reshape(t, (-1, 1, 1)) for t in (0.5 * (t0 + t1), 0.5 * (t1 - t0)))
    return za[:, None, None] + (mid + half * _gauss_kronrod()[1]) * dz[:, None, None]


# ---------------------------------------------------------------------------
# parsing and printing


def to_text(e: Expr) -> str:
    """Canonical fully parenthesized text; parse(to_text(e)) == e."""
    return e._text()


def _format_float(x: float) -> str:
    return repr(float(x))


def _format_complex(v: complex) -> str:
    re_, im = v.real, v.imag
    if im == 0:
        return _format_float(re_)
    if re_ == 0:
        return f"({_format_float(im)}*i)"
    if im < 0:
        return f"({_format_float(re_)}-{_format_float(-im)}*i)"
    return f"({_format_float(re_)}+{_format_float(im)}*i)"


# One token per match, after any whitespace: a number, an identifier, an
# operator, the end of the input, or else the one character no token starts with.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])|(?P<end>\Z)|(?P<bad>.))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) tuples; kind is "num", "ident", the operator itself or "end"."""
    tokens = []
    for m in _TOKEN.finditer(src):
        kind, text, pos = m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", pos)
        tokens.append((text if kind == "op" else kind, text, pos))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    Precedence, loosest to tightest: +/- then */ then unary minus then ^.
    The exponent binds tighter than unary minus, so "-z^2" is -(z^2); write
    "(-z)^2" for the square of a negation.  Exponents must be integer
    literals (optionally signed or parenthesized).
    """

    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, kind: str) -> None:
        found, text, pos = self.next()
        if found != kind:
            raise ParseError(f"expected {kind!r}, found {text or 'end of input'!r}", pos)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.next()
            rhs = self.parse_term()
            node = _finite(add(node, rhs) if op == "+" else sub(node, rhs), pos)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.next()
            rhs = self.parse_factor()
            node = _finite(mul(node, rhs) if op == "*" else div(node, rhs), pos)
        return node

    def parse_factor(self) -> Expr:
        if self.peek()[0] == "-":
            self.next()
            return neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            return intpow(base, self.parse_exponent())
        return base

    def parse_exponent(self) -> int:
        paren = self.peek()[0] == "("
        if paren:
            self.next()
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        kind, text, pos = self.next()
        if kind != "num":
            raise ParseError("expected an integer exponent", pos)
        value = float(text)
        if math.isinf(value):
            raise ParseError(f"non-finite exponent {text}", pos)
        if value != int(value):
            raise ParseError(f"non-integer exponent {text}", pos)
        if paren:
            self.expect(")")
        return sign * int(value)

    def parse_atom(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "num":
            return _finite(Constant(float(text)), pos)
        if kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "ident":
            if text == "i":
                return Constant(1j)
            if text in ("z", "x", "y"):
                return Variable(text)
            if text in _FUNCTIONS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return _FUNCTIONS[text](arg)
            raise ParseError(f"unknown identifier {text!r}", pos)
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", pos)


def _finite(node: Expr, pos: int) -> Expr:
    """node, unless it is a constant past the float range, whose text would not parse back:
    then a ParseError at pos, the offset of its literal or of the operator that folded it."""
    if isinstance(node, Constant) and not np.isfinite(node.value):
        raise ParseError("constant leaves the float range", pos)
    return node


def parse(src: str) -> Expr:
    """Parse source text into a tree, folding constant-only subtrees.

    Grammar (loosest to tightest binding):

        expr   = term { ("+" | "-") term }
        term   = factor { ("*" | "/") factor }
        factor = "-" factor | power
        power  = atom [ "^" integer ]
        atom   = number | "i" | "z" | "x" | "y" | ident "(" expr ")" | "(" expr ")"
        ident  = "exp" | "sin" | "cos" | "sinh" | "cosh"

    The complex variable z never mixes with the real pair x, y in one tree.
    Errors carry the byte offset of the offending token.
    """
    parser = _Parser(src)
    node = parser.parse_expr()
    kind, text, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text!r}", pos)
    tags = variables(node)
    if "z" in tags and tags & {"x", "y"}:
        raise ParseError("an expression may use either z or x/y, not both", 0)
    return node
