"""Shared substrate: exact rationals, 2x2 matrices, the Moebius action on the
upper half-plane, and outward-rounded interval brackets.

Exact quantities (intersection numbers, permutation combinatorics, crossing
counts) live in :class:`fractions.Fraction`; everything transcendental is a
double.  Conversion from exact to float happens only at analysis boundaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational as RationalLike

# Exact rational scalar used throughout the package.  Fraction already
# guarantees a positive denominator and a reduced gcd after every operation.
Rational = Fraction

_EXACT_TYPES = (int, Fraction)


def is_exact(x) -> bool:
    return isinstance(x, _EXACT_TYPES) or isinstance(x, RationalLike)


class EnumerationBudgetError(RuntimeError):
    """Raised when the slope enumeration cap is hit before certification."""

    def __init__(self, message: str, lower_bound: float):
        super().__init__(message)
        self.lower_bound = lower_bound


class TraceNotClosed(RuntimeError):
    """A trace used up its step budget before closing."""


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix with float or Fraction entries."""

    a: object
    b: object
    c: object
    d: object

    def det(self):
        return self.a * self.d - self.b * self.c

    def is_exact(self) -> bool:
        return all(is_exact(v) for v in (self.a, self.b, self.c, self.d))

    def is_unimodular(self) -> bool:
        return self.is_exact() and abs(self.det()) == 1

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, v):
        """Apply to a column vector (x, y)."""
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def inverse(self) -> "Mat2":
        det = self.det()
        if det == 0:
            raise ValueError("singular matrix")
        if self.is_exact():
            det = Fraction(det)
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)


@dataclass(frozen=True)
class UpperHalfPoint:
    """The point tau = x + iy of the upper half-plane, y > 0."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError(f"point not in upper half-plane: y = {self.y}")

    @property
    def tau(self) -> complex:
        return complex(self.x, self.y)


def mobius_apply(m: Mat2, tau: UpperHalfPoint) -> UpperHalfPoint:
    """Act by (a tau + b) / (c tau + d); requires det(m) > 0."""
    if not m.det() > 0:
        raise ValueError("Moebius action requires positive determinant")
    a, b, c, d = (float(v) for v in (m.a, m.b, m.c, m.d))
    z = tau.tau
    w = (a * z + b) / (c * z + d)
    return UpperHalfPoint(w.real, w.imag)


def hyperbolic_distance(t1: UpperHalfPoint, t2: UpperHalfPoint) -> float:
    """Curvature -1 distance on the upper half-plane: d = log1p(e^d - 1),
    with e^d - 1 = D + sqrt(D (D + 2)), exact to a few ulps for nearby points.

    D = cosh d - 1 = |tau1 - tau2|^2 / (2 y1 y2) is summed as (d/y1)(d/y2)
    over d = dx, dy, so no y1 y2 is formed to underflow, and D is never
    rounded against 1."""
    dx, dy = t1.x - t2.x, t1.y - t2.y
    big_d = 0.5 * ((dx / t1.y) * (dx / t2.y) + (dy / t1.y) * (dy / t2.y))
    em1 = big_d + math.sqrt(big_d) * math.sqrt(big_d + 2.0)
    if em1 < math.inf:
        return math.log1p(em1)
    # e^d beyond the doubles: d = log(2 cosh d) = log(|tau1 - tau2|^2 / (y1 y2)), in logs
    return 2.0 * math.log(math.hypot(dx, dy)) - math.log(t1.y) - math.log(t2.y)


# ---------------------------------------------------------------------------
# Certified brackets

_INF = math.inf


def _down(x: float) -> float:
    return x if x == -_INF else math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return x if x == _INF else math.nextafter(x, _INF)


def as_float_down(v) -> float:
    f = float(v)
    if is_exact(v) and Fraction(f) > Fraction(v):
        f = _down(f)
    return f


def as_float_up(v) -> float:
    f = float(v)
    if is_exact(v) and Fraction(f) < Fraction(v):
        f = _up(f)
    return f


@dataclass(frozen=True)
class Bracket:
    """Certified enclosure [lo, hi] of a real quantity.

    Arithmetic rounds outward by one ulp, so composed brackets contain the
    true value of the composed expression whenever the inputs do.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"empty bracket [{self.lo}, {self.hi}]")

    @staticmethod
    def exact(v) -> "Bracket":
        return Bracket(as_float_down(v), as_float_up(v))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, v) -> bool:
        return self.lo <= v <= self.hi

    def __add__(self, other: "Bracket") -> "Bracket":
        return Bracket(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def mul_nonneg(self, other: "Bracket") -> "Bracket":
        """Product of brackets of nonnegative quantities."""
        if self.lo < 0 or other.lo < 0:
            raise ValueError("mul_nonneg requires nonnegative brackets")
        hi = self.hi * other.hi
        return Bracket(_down(self.lo * other.lo), hi if hi == _INF else _up(hi))

    def scale(self, k: float) -> "Bracket":
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        hi = self.hi * k
        return Bracket(_down(self.lo * k), hi if hi == _INF else _up(hi))

    def log(self) -> "Bracket":
        if self.lo <= 0:
            raise ValueError("log of a bracket touching zero")
        hi = math.log(self.hi) if self.hi < _INF else _INF
        return Bracket(_down(math.log(self.lo)), hi if hi == _INF else _up(hi))
