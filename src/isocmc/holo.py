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
import re
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
# Hard cap on adaptive panels per integration call.
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
class Add(Expr):
    left: Expr
    right: Expr

    def _eval(self, env):
        return self.left._eval(env) + self.right._eval(env)

    def _diff(self):
        return add(self.left._diff(), self.right._diff())

    def _text(self):
        return f"({self.left._text()}+{self.right._text()})"


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr

    def _eval(self, env):
        return self.left._eval(env) - self.right._eval(env)

    def _diff(self):
        return sub(self.left._diff(), self.right._diff())

    def _text(self):
        return f"({self.left._text()}-{self.right._text()})"


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr

    def _eval(self, env):
        return self.left._eval(env) * self.right._eval(env)

    def _diff(self):
        return add(
            mul(self.left._diff(), self.right),
            mul(self.left, self.right._diff()),
        )

    def _text(self):
        return f"({self.left._text()}*{self.right._text()})"


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr

    def _eval(self, env):
        den = self.right._eval(env)
        if _min_abs(den) < DIV_EPS:
            raise SingularityError("division by a vanishing denominator")
        return self.left._eval(env) / den

    def _diff(self):
        return div(
            sub(
                mul(self.left._diff(), self.right),
                mul(self.left, self.right._diff()),
            ),
            intpow(self.right, 2),
        )

    def _text(self):
        return f"({self.left._text()}/{self.right._text()})"


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
        except OverflowError:  # a Python scalar raises where an array overflows to inf
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
    if not isinstance(e, Constant):
        return False
    return value is None or e.value == value


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
            except OverflowError:
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
    raw = _anti(e)
    if raw is None:
        return None
    at_zero = evaluate(raw, {"z": 0j})
    if at_zero != 0:
        raw = sub(raw, Constant(at_zero))
    return raw


def _anti(e: Expr) -> Expr | None:
    # A power of a*z + b, b != 0, takes (a*z+b)^(n+1) / (a*(n+1)): its
    # expanded sum would cancel away every digit, and so would the expansion
    # of a sum or constant multiple that holds one, so such a node is first
    # integrated term by term.  (a*z)^n takes it only when the expansion fails.
    lin = _linear_coeffs(e.base) if isinstance(e, IntPow) and e.n >= 0 else None
    direct, shifted = lin is not None and lin[0] != 0, lin is not None and 0 not in lin
    by_terms = _has_shifted_power(e)
    linear = _anti_linear(e) if by_terms else None
    coeffs = None if shifted or linear is not None else _poly_coeffs(e)
    if coeffs is not None:
        return _integrate_poly(coeffs)
    if direct:
        return div(intpow(e.base, e.n + 1), Constant(lin[0] * (e.n + 1)))
    if isinstance(e, _Function):
        lin = _linear_coeffs(e.arg)
        if lin is None:
            return None
        a, _ = lin
        if a == 0:
            return mul(Constant(evaluate(e, {"z": 0j})), Variable("z"))
        sign, primitive = _PRIMITIVES[type(e)]
        term = mul(Constant(1 / a), primitive(e.arg))
        return term if sign > 0 else neg(term)
    return linear if by_terms else _anti_linear(e)


def _anti_linear(e: Expr) -> Expr | None:
    """The primitive of a sum, difference, negation or constant multiple, term by term."""
    if isinstance(e, (Add, Sub)):
        l, r = _anti(e.left), _anti(e.right)
        join = add if isinstance(e, Add) else sub
        return None if l is None or r is None else join(l, r)
    if isinstance(e, Neg):
        c = _anti(e.child)
        return None if c is None else neg(c)
    if isinstance(e, Mul):
        if isinstance(e.left, Constant):
            r = _anti(e.right)
            return None if r is None else mul(e.left, r)
        if isinstance(e.right, Constant):
            l = _anti(e.left)
            return None if l is None else mul(l, e.right)
        return None
    if isinstance(e, Div):
        if isinstance(e.right, Constant) and abs(e.right.value) >= DIV_EPS:
            l = _anti(e.left)
            return None if l is None else div(l, e.right)
        return None
    return None


def _has_shifted_power(e: Expr) -> bool:
    """Whether e holds a power (a*z+b)^n with a, b != 0 and n >= 0."""
    lin = _linear_coeffs(e.base) if isinstance(e, IntPow) and e.n >= 0 else None
    return (lin is not None and 0 not in lin) or any(
        _has_shifted_power(c) for c in vars(e).values() if isinstance(c, Expr)
    )


def _integrate_poly(coeffs: list[complex]) -> Expr:
    z = Variable("z")
    out: Expr = Constant(0)
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        out = add(out, mul(Constant(c / (k + 1)), intpow(z, k + 1)))
    return out


# Most nonzero terms a polynomial may expand to: its primitive is an Add chain
# of one link per term, which must stay far below the recursion limit.
MAX_POLY_TERMS = 256


def _capped(coeffs: list) -> list | None:
    return coeffs if np.count_nonzero(coeffs) <= MAX_POLY_TERMS else None


def _poly_coeffs(e: Expr) -> list[complex] | None:
    """Coefficient list (index = degree) of a polynomial in z of <= MAX_POLY_TERMS terms."""
    if isinstance(e, Constant):
        return [e.value]
    if isinstance(e, Variable):
        return [0, 1]
    if isinstance(e, Add) or isinstance(e, Sub):
        l, r = _poly_coeffs(e.left), _poly_coeffs(e.right)
        if l is None or r is None:
            return None
        s = 1 if isinstance(e, Add) else -1
        return _capped([a + s * b for a, b in zip_longest(l, r, fillvalue=0)])
    if isinstance(e, Neg):
        c = _poly_coeffs(e.child)
        return None if c is None else [-v for v in c]
    if isinstance(e, Mul):
        l, r = _poly_coeffs(e.left), _poly_coeffs(e.right)
        if l is None or r is None:
            return None
        return _capped(list(np.convolve(l, r)))
    if isinstance(e, Div):
        if isinstance(e.right, Constant) and abs(e.right.value) >= DIV_EPS:
            l = _poly_coeffs(e.left)
            return None if l is None else [v / e.right.value for v in l]
        return None
    if isinstance(e, IntPow):
        if isinstance(e.base, Variable) and e.n >= 0:
            return [0] * e.n + [1]
        base = _poly_coeffs(e.base)
        if base is None:
            return None
        if e.n < 0:
            invertible = len(base) == 1 and abs(base[0]) >= DIV_EPS
            return [base[0] ** e.n] if invertible else None
        out = [complex(1)]
        for bit in bin(e.n)[2:]:  # square and multiply, leading bit first
            square = np.convolve(out, out)
            out = _capped(list(square if bit == "0" else np.convolve(square, base)))
            if out is None:
                return None
        return out
    return None


def _linear_coeffs(e: Expr) -> tuple[complex, complex] | None:
    """(a, b) when e is exactly a*z + b, else None."""
    coeffs = _poly_coeffs(e)
    if coeffs is None or len(coeffs) > 2:
        return None
    coeffs = coeffs + [0] * (2 - len(coeffs))
    return complex(coeffs[1]), complex(coeffs[0])


# ---------------------------------------------------------------------------
# contour integration


@dataclass(frozen=True)
class Contour:
    """Integration polyline; the first waypoint is the base point.

    Waypoints are scalars or arrays, broadcast to one complex128 shape; an
    array contour is a batch of polylines, one per element.
    """

    waypoints: tuple

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("a contour needs at least 2 waypoints")
        pts = np.broadcast_arrays(*(np.array(w, dtype=np.complex128) for w in self.waypoints))
        for a, b in zip(pts, pts[1:]):
            if np.any(a == b):
                raise ValueError("consecutive contour waypoints must be distinct")
        if not all(np.all(np.isfinite(w)) for w in pts):
            raise ValueError("contour waypoints must be finite")
        object.__setattr__(self, "waypoints", tuple(pts))

    @property
    def base_point(self) -> np.ndarray:
        return self.waypoints[0]


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:  # imports numpy.polynomial on first use
    return np.polynomial.legendre.leggauss(10)


# Most quadrature nodes handed to one evaluate call; bounds working memory.
MAX_EVAL_NODES = 16_384


def contour_integral(
    expr: Expr,
    contour: Contour,
    tol: float = DEFAULT_QUAD_TOL,
    max_panels: int = MAX_PANELS,
) -> complex | np.ndarray:
    """Integrate expr along the polyline with adaptive Gauss-Legendre panels.

    Each panel uses a 10-point rule and is bisected until its two halves
    agree with it within the larger of its share of the absolute tolerance
    and QUAD_REL_TOL times its value.  Exceeding `max_panels` raises
    QuadratureError.  Singularities on the path surface as SingularityError
    from evaluation.  An array contour gives a complex128 array of its
    shape: each element is a polyline with its own `tol` and `max_panels`.
    """
    _require_complex_mode(expr, "contour integration")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    pts = np.stack([np.ravel(w) for w in contour.waypoints])
    steps = np.diff(pts, axis=0)
    budgets = tol * np.abs(steps) / np.abs(steps).sum(axis=0)
    acc = np.zeros(pts.shape[1], dtype=np.complex128)
    panels = np.zeros(pts.shape[1], dtype=np.int64)
    batch = MAX_EVAL_NODES // (2 * _gauss_legendre()[0].size)
    for part in (slice(lo, lo + batch) for lo in range(0, acc.size, batch)):
        for za, dz, budget in zip(pts[:-1, part], steps[:, part], budgets[:, part]):
            _adaptive_panels(expr, za, dz, budget, acc[part], panels[part], tol, max_panels)
    out = acc.reshape(contour.base_point.shape)
    return complex(out) if out.ndim == 0 else out


def _adaptive_panels(expr, za, dz, budget, acc, panels, tol, max_panels) -> None:
    """Adaptive panels on the segments za -> za + dz, summed into acc.

    Each segment has a depth-first stack of (t0, t1, coarse, budget) panels
    in one complex array.  A round pops the top panel of every unfinished
    segment and evaluates the halves of all of them in one call.  A rejected
    panel pushes its left half, then its right half, like a one-segment loop.
    """
    n = za.size
    coarse = _gl_panels(expr, za, dz, np.zeros((n, 1)), np.ones((n, 1)))[:, 0]
    stack = np.zeros((n, 8, 4), dtype=np.complex128)
    stack[:, 0] = np.stack((np.zeros(n), np.ones(n), coarse, budget), axis=1)
    depth = np.ones(n, dtype=np.intp)
    while (live := np.flatnonzero(depth)).size:
        panels[live] += 1
        if panels[live].max() > max_panels:
            raise QuadratureError(
                f"tolerance {tol:g} not reached within {max_panels} panels"
            )
        top = depth[live] - 1
        t0, t1, coarse, share = stack[live, top].T
        t0, t1, share = t0.real, t1.real, share.real
        tm = 0.5 * (t0 + t1)
        left, right = _gl_panels(
            expr, za[live], dz[live], np.stack((t0, tm), 1), np.stack((tm, t1), 1)
        ).T
        fine = left + right
        done = np.abs(fine - coarse) <= np.maximum(share, QUAD_REL_TOL * np.abs(fine))
        acc[live[done]] += fine[done]
        depth[live] += np.where(done, -1, 1)
        rows, row_top = live[~done], top[~done]
        if row_top.size and row_top.max() + 2 > stack.shape[1]:
            stack = np.concatenate((stack, np.zeros_like(stack)), axis=1)
        stack[rows, row_top] = np.stack((t0, tm, left, 0.5 * share), 1)[~done]
        stack[rows, row_top + 1] = np.stack((tm, t1, right, 0.5 * share), 1)[~done]


def _gl_panels(expr, za, dz, t0, t1) -> np.ndarray:
    """GL10 integrals over the (k, m) panels [t0, t1] of za -> za + dz.

    np.dot sums each panel of the 3-d array alone, whatever the batch.
    """
    half = 0.5 * (t1 - t0)
    ts = (0.5 * (t0 + t1))[..., None] + half[..., None] * _gauss_legendre()[0]
    vals = evaluate(expr, {"z": za[:, None, None] + ts * dz[:, None, None]})
    return dz[:, None] * half * np.dot(vals, _gauss_legendre()[1])


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


_TOKEN_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_TOKEN_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass
class _Token:
    kind: str  # "num", "ident", an operator character, or "end"
    text: str
    pos: int
    value: float = 0.0


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        m = _TOKEN_NUMBER.match(src, i)
        if m:
            tokens.append(_Token("num", m.group(), i, value=float(m.group())))
            i = m.end()
            continue
        m = _TOKEN_IDENT.match(src, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    Precedence, loosest to tightest: +/- then */ then unary minus then ^.
    The exponent binds tighter than unary minus, so "-z^2" is -(z^2); write
    "(-z)^2" for the square of a negation.  Exponents must be integer
    literals (optionally signed or parenthesized).
    """

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.next()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.parse_term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.parse_factor()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    def parse_factor(self) -> Expr:
        if self.peek().kind == "-":
            self.next()
            return neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.next()
            return intpow(base, self.parse_exponent())
        return base

    def parse_exponent(self) -> int:
        paren = self.peek().kind == "("
        if paren:
            self.next()
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        tok = self.peek()
        if tok.kind != "num":
            raise ParseError("expected an integer exponent", tok.pos)
        self.next()
        if tok.value != int(tok.value):
            raise ParseError(f"non-integer exponent {tok.text}", tok.pos)
        if paren:
            self.expect(")")
        return sign * int(tok.value)

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Constant(tok.value)
        if tok.kind == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.next()
            name = tok.text
            if name == "i":
                return Constant(1j)
            if name in ("z", "x", "y"):
                return Variable(name)
            if name in _FUNCTIONS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return _FUNCTIONS[name](arg)
            raise ParseError(f"unknown identifier {name!r}", tok.pos)
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}", tok.pos)


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
    parser = _Parser(_tokenize(src))
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
    tags = variables(node)
    if "z" in tags and tags & {"x", "y"}:
        raise ParseError("an expression may use either z or x/y, not both", 0)
    return node
