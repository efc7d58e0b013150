"""Shared substrate: value records, 2x2 matrices, the Moebius action on the
upper half-plane, and outward-rounded interval brackets.

Exact quantities are integers (crossing counts, permutations, trace coordinates
and deformations over one denominator) or Fractions (flat points); everything
transcendental is a double.  Conversion to float is only at analysis boundaries.
"""
from __future__ import annotations

import math
from operator import attrgetter


class EnumerationBudgetError(RuntimeError):
    """A slope walk's cap or a ratio search's budget ran out; the message names the bound."""

    def __init__(self, message: str, lower_bound: float):
        super().__init__(message)
        self.lower_bound = lower_bound


class TraceNotClosed(RuntimeError):
    """A trace used up its step budget before closing."""


class Record:
    """A value record built without generating code: fields named in
    ``_fields``, equality within one class, a repr of the fields not starting
    with ``_``, and an __init__ taking every field by position.  Mutable and
    unhashable; see Frozen."""

    _fields = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields) if cls._fields else None

    def __init__(self, *args):
        if len(args) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        self.__dict__.update(zip(self._fields, args))  # past Frozen's __setattr__, in one call

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self):
        shown = (f"{n}={getattr(self, n)!r}" for n in self._fields if n[0] != "_")
        return f"{type(self).__qualname__}({', '.join(shown)})"


class Frozen(Record):
    """A Record hashed on its fields, closed to assignment; constructors fill __dict__."""

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Mat2(Frozen):
    """2x2 matrix with float or Fraction entries."""

    _fields = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.__dict__.update(a=a, b=b, c=c, d=d)

    def det(self):
        return self.a * self.d - self.b * self.c


class UpperHalfPoint(Frozen):
    """The point tau = x + iy of the upper half-plane, y > 0."""

    _fields = ("x", "y")

    def __init__(self, x: float, y: float):
        if not y > 0:
            raise ValueError(f"point not in upper half-plane: y = {y}")
        self.__dict__.update(x=x, y=y)

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
    rounded against 1.

    Rounding (u = 2^-53): D within 6 u (dx, dy u, each term 5 u), em1 10.5 u,
    so d 11.5 u d as log1p(x) >= x / (1 + x); the far branch (d > 709.7, each
    log at most 745) 5,146 u + u d < 8.3 u d.  A subnormal d/y has a partner
    below 2^540 when both Im are at least 2^-537 (parse_tau), so D moves by
    2^-534 and d, as acosh(1 + x) <= sqrt(2x), by 2^-266: 12 u d + 2^-266.
    Where x1 - x2 overflows, d is that of tau1 / 2 and tau2 / 2: their dx is finite and
    above each Im, so D >= 1/2, d >= 0.96 and the count holds (a subnormal Re loses
    2^-1075, nothing against dx); the far branch's logs, which cancel, serve only d > 709.7."""
    dx, dy = t1.x - t2.x, t1.y - t2.y
    big_d = 0.5 * ((dx / t1.y) * (dx / t2.y) + (dy / t1.y) * (dy / t2.y))
    em1 = big_d + math.sqrt(big_d) * math.sqrt(big_d + 2.0)
    if em1 < math.inf:
        return math.log1p(em1)
    if abs(dx) == math.inf:
        return hyperbolic_distance(UpperHalfPoint(0.5 * t1.x, 0.5 * t1.y),
                                   UpperHalfPoint(0.5 * t2.x, 0.5 * t2.y))
    # e^d beyond the doubles: d = log(2 cosh d) = log(|tau1 - tau2|^2 / (y1 y2)), in logs
    return 2.0 * math.log(math.hypot(dx, dy)) - math.log(t1.y) - math.log(t2.y)


# ---------------------------------------------------------------------------
# Certified brackets

_INF = math.inf


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)  # -inf stays -inf


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def round_ratio(n: int, d: int, toward: float) -> float:
    """n / d (d > 0) as the nearest double, which int true division gives, then one ulp
    toward ``toward`` (-inf or inf) if on the other side; OverflowError past the doubles."""
    f = n / d
    p, q = f.as_integer_ratio()
    gap = n * q - p * d  # the sign of n / d - f
    return math.nextafter(f, toward) if gap and (gap > 0) == (toward > 0) else f


def as_float_down(v) -> float:
    return round_ratio(*v.as_integer_ratio(), -_INF)


def as_float_up(v) -> float:
    return round_ratio(*v.as_integer_ratio(), _INF)


class Bracket(Frozen):
    """Certified enclosure [lo, hi] of a real quantity.

    Arithmetic rounds outward by one ulp, so composed brackets contain the
    true value of the composed expression whenever the inputs do.
    """

    _fields = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if not lo <= hi:
            raise ValueError(f"empty bracket [{lo}, {hi}]")
        self.__dict__.update(lo=lo, hi=hi)

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
        return Bracket(_down(self.lo * other.lo), _up(self.hi * other.hi))

    def scale(self, k: float) -> "Bracket":
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        return Bracket(_down(self.lo * k), _up(self.hi * k))

    def log(self) -> "Bracket":
        if self.lo <= 0:
            raise ValueError("log of a bracket touching zero")
        return Bracket(_down(math.log(self.lo)), _up(math.log(self.hi)))
