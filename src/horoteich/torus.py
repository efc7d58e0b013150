"""Genus-one model: the upper half-plane with exact extremal lengths.

A marked flat torus is a point tau of the upper half-plane; the primitive
class (p, q) has extremal length |p + q*tau|^2 / Im(tau).  In the curve's
chart (``TorusCurve.chart``), an SL(2, Z) map sending -p/q to infinity, its
horospheres are horizontal lines and its rays and geodesics vertical ones,
so tangency, horosphere points, rays and horosphere distances are exact up
to one rounding; distance suprema are certified below a closed form at one
class aimed at its slope, else at its convergents; horosphere distances and
Busemann values are one half_log each, a ball membership one exact threshold e^{4t} > T.
"""
from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from functools import cached_property, partial
from typing import Sequence

from .kernel import (
    Bracket,
    EnumerationBudgetError,
    Frozen,
    Mat2,
    Record,
    UpperHalfPoint,
    hyperbolic_distance,
)

INFINITY = math.inf
OUT_OF_RANGE = "level is beyond the double range"
_POINT_OUT_OF_RANGE = "a point coordinate is beyond the double range"
_TINY, _HUGE = sys.float_info.min, sys.float_info.max
_LOG2 = math.log(2.0)
HALF_LOG_ROUNDING = 2.0**-50  # half_log's value v is within this times 1 + |v|


class MonotonicityError(RuntimeError):
    """busemann_limit's estimate is not certified: a D(t) bracket increased
    or fell below the Busemann value's lower end, or did not settle."""


# ---------------------------------------------------------------------------
# Curves and foliations


class TorusCurve(Frozen):
    """Primitive class (p, q); canonical sign p > 0, or p = 0 and q = 1."""

    _fields = ("p", "q")

    def __init__(self, p: int, q: int):
        if p == 0 and q == 0:
            raise ValueError("(0, 0) is not a curve")
        if math.gcd(p, q) != 1:
            raise ValueError(f"({p}, {q}) is not primitive")
        self.__dict__.update(_primitive(p, q).__dict__)

    def boundary_point(self):
        """Point of the circle at infinity where this curve degenerates."""
        if self.q == 0:
            return INFINITY
        return Fraction(-self.p, self.q)

    # The chart M = [[a, b], [q, p]], a p - b q = 1 (M = I for q = 0), is in
    # SL(2, Z), sends -p/q to infinity and has Im M(tau) = Im tau / |q tau +
    # p|^2, so Ext_f = w^2 / Im M(tau) exactly.  _act applies it in integers to
    # a rational point (x + iy) / d: an image coordinate is one int / int.
    @cached_property
    def chart(self) -> Mat2:
        p, q = self.p, self.q
        a = pow(p, -1, abs(q)) if q else 1
        return Mat2(a, (a * p - 1) // q if q else 0, q, p)


def _primitive(p: int, q: int) -> TorusCurve:
    """TorusCurve(p, q) for a (p, q) known to be primitive: its sign alone."""
    c = object.__new__(TorusCurve)
    c.__dict__["p"], c.__dict__["q"] = (p, q) if p > 0 or (p == 0 and q > 0) else (-p, -q)
    return c


class WeightedTorusFoliation(Frozen):
    _fields = ("weight", "curve")

    def __init__(self, weight, curve: TorusCurve):
        if not weight > 0:
            raise ValueError("weight must be positive")
        if weight == INFINITY:
            raise ValueError("weight must be finite")
        self.__dict__.update(weight=weight, curve=curve)


def intersection(c1: TorusCurve, c2: TorusCurve) -> int:
    return abs(c1.p * c2.q - c1.q * c2.p)


def extremal_length(tau: UpperHalfPoint, f: WeightedTorusFoliation):
    """weight^2 * |p + q*tau|^2 / Im(tau), ext_ratio's n / d: the exact Fraction
    where Im tau is a Fraction, else n / d rounded once, and ValueError where
    that is beyond the doubles (an underflow to 0.0 is the rounded value)."""
    n, d = ext_ratio(tau, f)
    if type(tau.y) is Fraction:
        return Fraction(n, d)
    try:
        return n / d
    except OverflowError:
        raise ValueError("the extremal length is beyond the double range") from None


def ext_ratio(pt: UpperHalfPoint, f: WeightedTorusFoliation):
    """(n, d), integers with Ext_f(pt) = n / d exactly, for a point with double,
    int or Fraction coordinates: w^2 den / im at the chart point (re + i im) / den."""
    _, im, den = _act(f.curve.chart, *_ints(pt))
    wn, wd = f.weight.as_integer_ratio()
    return wn * wn * den, wd * wd * im


def _ints(pt: UpperHalfPoint):
    """(x, y, d) with pt = (x + iy) / d in integers, d the lcm of the coordinates'
    denominators: the larger one for doubles, whose denominators are powers of two."""
    (xn, xd), (yn, yd) = pt.x.as_integer_ratio(), pt.y.as_integer_ratio()
    if xd % yd and yd % xd:  # neither divides the other, as for a Fraction like 1/3
        d = math.lcm(xd, yd)
        return xn * (d // xd), yn * (d // yd), d
    return (xn * (yd // xd), yn, yd) if yd >= xd else (xn, yn * (xd // yd), xd)


def _act(m: Mat2, x: int, y: int, d: int):
    """Integers (re, im, den) with m(z) = (re + i im) / den, m in SL(2, Z),
    z = (x + iy) / d in the upper half-plane."""
    c1, c2 = m.c * x + m.d * d, m.c * y
    return (m.a * x + m.b * d) * c1 + m.a * y * c2, d * y, c1 * c1 + c2 * c2


def _rounded(m: Mat2, x: int, y: int, d: int) -> UpperHalfPoint:
    """m(z), z = (x + iy) / d, each coordinate rounded once; ValueError
    (OUT_OF_RANGE) unless Re is a double and Im a normal one."""
    re, im, den = _act(m, x, y, d)
    try:
        px, py = re / den, im / den
    except OverflowError:
        py = 0.0
    if not py >= _TINY:
        raise ValueError(OUT_OF_RANGE)
    return UpperHalfPoint(px, py)


def half_log_radius(v: float) -> float:  # half_log's error bound at its value v
    return HALF_LOG_ROUNDING * (1.0 + abs(v))


def half_log(n: int, d: int):
    """(v, r): v = (1/2) log(n / d) for positive integers, also where n / d is
    not a double, within r = half_log_radius(v).  With u = 2^-53, L = 2v
    rounds n / d scaled into (1/2, 2) (u), its log (u), e log 2 (1.7 u |e|
    with |e| <= 1.45 |L| + 1) and the sum (u |L|): 4 u (1 + |L|) in all, so
    v is within 4 u (1 + |v|), which HALF_LOG_ROUNDING doubles for margin."""
    e = n.bit_length() - d.bit_length()
    v = 0.5 * (math.log(n / (d << e) if e >= 0 else (n << -e) / d) + e * _LOG2)
    return v, half_log_radius(v)


def half_acosh(n: int, m: int, kn: int, kd: int) -> Bracket:
    """Bracket on (1/2) log((A + sqrt(A^2 - 1)) kd / kn), A = n / m >= 1, for
    positive integers: with n scaled to 74 bits the isqrt is within 2^-72,
    below half_log's margin, and half_log rounds the rest."""
    c = n.bit_length() - 74
    c, d = (c, 0) if c >= 0 else (0, -c)
    # 2^d (n + sqrt(n^2 - m^2)), to 2^(c + 1), over 2^d m
    num = (n << d) + (math.isqrt((n - m) * (n + m) << 2 * d >> 2 * c) << c)
    v, r = half_log(num * kd, m * kn << d)
    return Bracket(v - r, v + r)


# ---------------------------------------------------------------------------
# Certified suprema over slopes
#
# Both suprema are Rayleigh quotients of two binary quadratic forms in (p, q):
# their sup over real slopes t = p/q has a closed form, attained at one slope
# t*.  The closed form, inflated, is the upper bound; the lower bound is the
# value at a primitive class near t* that certifies.  Below the sup the
# deficit is rank one: c (p - t q)^2 / |p + q tau|^2, t the exact peak, and
# |p + q tau| >= |q| M - e for e = |p - t* q| and M = |t* + tau|.  So with k =
# c / (2 delta), delta the largest deficit the stop test accepts, a class
# with e < 1 and |q| M >= 2 (sqrt(k) - 1), tried first, has deficit below
# c / (|q| M - 1)^2 <= delta once k >= 27; the 2s absorb rounding and the gap
# between t* and t.  Floats only choose the classes: a certificate comes only
# from an evaluated one.
#
# Rounding: with u = 2^-53, an operation on doubles whose result is normal
# has relative error at most u.  ext_sup's closed form and each per-class
# ratio take at most 11 roundings (counted where they occur), 13 where Im tau
# is not a double and float(Im tau) adds one to each Ext, so scaling one by
# 1 +- 16 u, one more rounding, puts an upper bound above and a lower bound
# below the exact value; Kerckhoff's closed form has kernel's count.  A value
# out of the normal range feeds no certificate.

_SLACK = 2.0**-49  # 16 u
_SHRINK = 1.0 - _SLACK


class SupResult(Record):
    _fields = ("lower", "upper", "witness", "nodes", "certified", "reason")

    def __init__(self, lower, upper, witness, nodes, certified, reason=None):
        # reason: "precision" or "range" when not certified
        self.lower, self.upper, self.witness = lower, upper, witness
        self.nodes, self.certified, self.reason = nodes, certified, reason


def _ext(p: int, q: int, num: int, den: int, y: float):
    """Ext of (p, q) at x + iy with x = num/den exactly, or None out of range:
    p + q*x is formed exactly and rounded once, as is q; a*(a/y) + q*(q*y)
    then takes 5 roundings and never forms y^2 or 1/y-sized coefficients."""
    exact = p * den + q * num
    try:
        a, qy = exact / den, q * y
    except OverflowError:
        return None
    ay = a / y
    head = a * ay
    ext = head + q * qy
    # |q| >= 1, so q*(q*y) is normal once q*y is
    if ext > _HUGE or (q and -_TINY < qy < _TINY):
        return None
    if exact and (head < _TINY or -_TINY < a < _TINY or -_TINY < ay < _TINY):
        return None
    return ext


def partial_quotients(n: int, d: int):
    """n/d's partial quotients (Euclid): floor(n/d), then positive ones; none for d = 0."""
    while d:
        yield n // d
        n, d = d, n % d


def certified_sup(ratio, t_star: float, upper: float, stop, cap: int = 10**6, aim=None):
    """Certified supremum over primitive classes, from below: a class certifies where its
    lower bound ``ratio(p, q)`` (None out of range) meets ``stop(lower, upper)``, ``upper``
    bounding the sup over real slopes (inf out of range) that ``t_star`` attains.  Tried
    first, and the witness at ``nodes`` 1 where it certifies, is the class that ``aim`` =
    (k, M) names, as above: q = 2^j, the least power of two >= 2 (sqrt(k) - 1) / M, and
    p = floor(t_star q) | 1, odd and so prime to q.  Else, and where t_star, M or 2^j is
    not finite, the witness is the first class that certifies of 0/1, 1/0 (the
    recurrence's start values) and then t_star's convergents but a repeated 0/1, primitive
    as p0 q - p q0 = +-1 between consecutive ones; ``nodes`` and ``cap`` count these.
    Returns (lower, witness, nodes, reason), reason None where certified, else "range" if
    a walked class left the normal range and "precision" if not."""
    n, d = t_star.as_integer_ratio() if math.isfinite(t_star) else (1, 0)
    if aim and d and cap > 0:
        k, m = aim
        z = 2.0 * (math.sqrt(k) - 1.0) / m if k > 1.0 else 0.0
        if z < INFINITY and m < INFINITY:  # z is nan where k and M are inf
            q = 1 << (math.ceil(z) - 1).bit_length() if z > 1.0 else 1
            p = n * q // d | 1
            r = ratio(p, q)
            if r is not None and stop(r, upper):
                return r, _primitive(p, q), 1, None
    best, witness, nodes, out_of_range, p0, q0, p, q = 0.0, (1, 0), 0, math.isinf(upper), 0, 1, 1, 0
    for a in (0, 0, *partial_quotients(n, d)):  # 0, 0 step to 0/1 and 1/0, then t_star's follow
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
        if p or not nodes:  # past the start, 0/1 is a repeat
            if nodes == cap:
                raise EnumerationBudgetError(
                    f"slope enumeration cap {cap} exhausted; best lower bound {best}", best)
            nodes += 1
            r = ratio(p, q)
            if r is None:
                out_of_range = True
            elif r > best:
                best, witness = r, (p, q)
                if stop(best, upper):
                    return best, _primitive(p, q), nodes, None
    return best, _primitive(*witness), nodes, "range" if out_of_range else "precision"


# ---------------------------------------------------------------------------
# Distances


def teich_distance(t1: UpperHalfPoint, t2: UpperHalfPoint) -> float:
    """Closed-form Teichmueller distance: half the hyperbolic distance.
    ValueError(_POINT_OUT_OF_RANGE) where float() refuses or zeroes a coordinate."""
    try:
        return 0.5 * hyperbolic_distance(t1, t2)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(_POINT_OUT_OF_RANGE) from None


def closed_form_radius(closed: float) -> float:
    """Radius about teich_distance's value that holds the distance: 32 u covers
    hyperbolic_distance's 12 u d + 2^-266 on d = 2 closed, this sum and one more."""
    return 2.0**-48 * closed + 2.0**-260


class KerckhoffResult(Record):
    _fields = ("value", "closed_form", "witness", "nodes", "certified", "reason")

    def __init__(self, value, closed_form, witness, nodes, certified, reason=None):
        self.value, self.closed_form, self.witness = value, closed_form, witness
        self.nodes, self.certified, self.reason = nodes, certified, reason


def _kerckhoff_slope(s: float, y1: float, y2: float) -> float:
    """Slope of the maximal ratio Ext_tau1 / Ext_tau2, tau1 = s + i y1, tau2 = i y2 (moved to Re 0:
    the root next to it is small, so resolved to a few ulps of its size, and it counts near the
    cusp).  The ratio's derivative has the sign of qa t^2 + qb t + qc: the maximum is its larger
    root where qa < 0, the smaller where qa > 0, and for qa = 0 (roots 0, inf) 0 iff qb < 0."""
    qa, qb, qc = -s, y2 * y2 - y1 * y1 - s * s, s * y2 * y2
    if qa == 0.0:
        return -qc / qb if qb < 0.0 else INFINITY
    k = -0.5 * (qb + math.copysign(math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0)), qb))
    t = k / qa
    u = qc / k if k else t  # k = 0: qb and the discriminant underflowed (s = 1e-300, y1 = y2)
    return max(t, u) if qa < 0.0 else min(t, u)


def _doubles(t: UpperHalfPoint):
    """(n, d, x, y), Re t = n / d, x = float(Re t) and y = float(Im t), for the certified sups
    and closed forms: ValueError where float() refuses one or rounds Im to 0 or inf."""
    try:
        x, y = float(t.x), float(t.y)
        if x < INFINITY and 0.0 < y < INFINITY:
            return (*t.x.as_integer_ratio(), x, y)
    except OverflowError:
        pass
    raise ValueError(_POINT_OUT_OF_RANGE)


def kerckhoff_distance(t1: UpperHalfPoint, t2: UpperHalfPoint, tol: float,
                       cap: int = 10**6) -> KerckhoffResult:
    """(1/2) log sup over primitive classes of the extremal-length ratio
    (Kerckhoff's formula), certified to within ``tol``.  The sup over real
    slopes is e^{2d} for the closed form d = teich_distance, which is
    returned too: e^{2(d + closed_form_radius(d))}, rounded up, is the upper
    bound.  value is at least 0, as the distance is."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    (n1, d1, x1, y1), (n2, d2, x2, y2) = _doubles(t1), _doubles(t2)
    try:
        factor = math.exp(2.0 * tol)
    except OverflowError:  # the tolerance's factor e^{2 tol} is past the doubles
        raise ValueError("a value is beyond the double range") from None
    closed = teich_distance(t1, t2)
    top = 2.0 * (closed + closed_form_radius(closed))  # exp within an ulp (2 u), then 16 u more
    upper = math.exp(top) * (1.0 + _SLACK) if top < 709.78 else INFINITY

    def ratio(p, q):  # e1 / e2 scaled down to a lower bound, or None
        e1, e2 = _ext(p, q, n1, d1, y1), _ext(p, q, n2, d2, y2)
        if e1 is None or e2 is None:
            return None
        r = e1 / e2
        return r * _SHRINK if _TINY <= r <= _HUGE else None

    # deficit 1 - R / e^{2d}: c = 1 - y2 / (e^{2d} y1), delta = 1 - 1 / factor, each 16 u safer
    t_star = _kerckhoff_slope(x1 - x2, y1, y2) - x2
    lam = math.exp(min(2.0 * (closed - closed_form_radius(closed)), 709.0))  # <= e^{2d}
    aim = ((1.0 - y2 / (lam * y1) - _SLACK) / (2.0 * (1.0 - 1.0 / factor + _SLACK)),
           math.hypot(t_star + x2, y2))
    try:
        lower, witness, nodes, reason = certified_sup(
            ratio, t_star, upper, lambda lower, upper: upper / lower <= factor, cap, aim)
    except EnumerationBudgetError as e:  # its best bounds the sup e^{2d}, not d
        raise type(e)(f"{e} on the sup of the extremal-length ratio", e.lower_bound) from None
    value = 0.5 * math.log(lower) if lower > 1.0 else 0.0
    return KerckhoffResult(value, closed, witness, nodes, reason is None, reason)


def ext_sup_enumeration(tau: UpperHalfPoint, f: WeightedTorusFoliation, tol: float,
                        cap: int = 10**6) -> SupResult:
    """sup_gamma i(f, gamma)^2 / Ext_tau(gamma), certified from below to
    within ``tol`` (absolute); over real slopes it is w^2 Ext_tau(f)."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    fp, fq = f.curve.p, f.curve.q
    n, d, x, y = _doubles(tau)
    w2 = float(f.weight) * float(f.weight)  # 3 roundings; i^2, w2 * i^2 and / add 3
    top = _ext(fp, fq, n, d, y)
    upper = INFINITY if top is None else w2 * top * (1.0 + _SLACK)
    if not (_TINY <= w2 and _TINY <= upper <= _HUGE):
        upper = INFINITY

    def ratio(p, q):  # i^2 w2 / Ext scaled down to a lower bound, or None
        i = fp * q - fq * p
        if i == 0:
            return 0.0
        e = _ext(p, q, n, d, y)
        if e is None:
            return None
        try:
            r = w2 * float(i * i) / e
        except OverflowError:
            return None
        return r * _SHRINK if _TINY <= r <= _HUGE else None

    try:  # t* = -(p_f x + q_f |tau|^2) / (p_f + q_f x), written around -x
        den = fp + fq * tau.x
        t_star = -tau.x - fq * y * y / den if den else INFINITY
        s = fp + fq * x  # deficit w^2 Ext_f - w^2 i^2 / Ext: c = w^2 s^2 / y, delta = tol
        aim = (w2 * s * s / (2.0 * y * tol), math.hypot(t_star + x, y))
    except (OverflowError, ZeroDivisionError):  # p_f + q_f x leaves the doubles: upper is inf
        t_star, aim = INFINITY, None
    lower, witness, nodes, reason = certified_sup(
        ratio, t_star, upper, lambda lower, upper: upper - lower <= tol, cap, aim)
    return SupResult(lower, upper, witness, nodes, reason is None, reason)


# ---------------------------------------------------------------------------
# Geodesics


class TorusGeodesic(Record):
    """Hyperbolic geodesic between two boundary slopes, Teichmueller-unit
    parametrized (hyperbolic speed 2); point_at(t) -> endpoint_a as t -> inf."""

    _fields = ("endpoint_a", "endpoint_b", "point_at")


def _on_geodesic(f: TorusCurve, g: TorusCurve, hn: int, hd: int) -> UpperHalfPoint:
    """M^-1(M(beta_g) + i hn / hd) for f's chart M, where the unit Ext(f) is
    hd / hn: the (f, g) geodesic is the vertical line over M(beta_g) = n / d."""
    m = f.chart
    n, d = m.b * g.q - m.a * g.p, f.p * g.q - f.q * g.p  # d = +-i(f, g)
    return _rounded(Mat2(m.d, -m.b, -m.c, m.a), n * hd, hn * d, d * hd)


def geodesic_between(f: TorusCurve, g: TorusCurve) -> TorusGeodesic:
    """The Teichmueller geodesic with vertical class f and horizontal g, where
    Ext(f) = e^{-2t} at point_at(t).  Along it Ext(f) * Ext(g) = i(f, g)^2."""
    if f == g:
        raise ValueError("curves coincide; no transverse pair")
    return TorusGeodesic(f.boundary_point(), g.boundary_point(),
                         lambda t: _on_geodesic(f, g, *math.exp(2.0 * t).as_integer_ratio()))


def tangent_point(f: WeightedTorusFoliation, s, g: WeightedTorusFoliation) -> UpperHalfPoint:
    """Unique point on the (f, g) geodesic with Ext(f) = s, exact and then
    each coordinate rounded once, so within half an ulp; ValueError
    (OUT_OF_RANGE) if Im is not a normal double or Re not a double."""
    h = _normalize_level(f.weight, s)
    if f.curve == g.curve:
        raise ValueError("curves coincide; no transverse pair")
    return _on_geodesic(f.curve, g.curve, h.denominator, h.numerator)


# ---------------------------------------------------------------------------
# Horospheres


def _normalize_level(weight, level):
    """level / weight^2, exact: the one check that a level is positive and finite."""
    if not level > 0:
        raise ValueError("level must be positive")
    if level == INFINITY:
        raise ValueError("level must be finite")
    return Fraction(level) / Fraction(weight) ** 2


class HoroSpec(Frozen):
    """Horosphere {Ext(.)(foliation) = level}, stored weight-normalized.

    (k * weight, k^2 * level) and (weight, level) normalize to identical
    records, realizing the scaling identity of horospheres.
    """

    _fields = ("foliation", "level")

    @staticmethod
    def create(f: WeightedTorusFoliation, level) -> "HoroSpec":
        norm = _normalize_level(f.weight, level)
        return HoroSpec(WeightedTorusFoliation(Fraction(1), f.curve), norm)

    @property
    def curve(self) -> TorusCurve:
        return self.foliation.curve


def horocycle(f: WeightedTorusFoliation, level):
    """sigma -> M^-1(sigma + i w^2 / level) for f's chart M, the point of
    HS(f, level) over the double sigma in M's chart, exact and then each
    coordinate rounded once; ValueError(OUT_OF_RANGE) where _rounded refuses
    it.  The level is normalized and M inverted once, here."""
    m, norm = f.curve.chart, _normalize_level(f.weight, level)
    inv, hn, hd = Mat2(m.d, -m.b, -m.c, m.a), norm.denominator, norm.numerator

    def at(sigma: float) -> UpperHalfPoint:
        sn, sd = sigma.as_integer_ratio()
        return _rounded(inv, sn * hd, hn * sd, sd * hd)

    return at


def horocycle_samples_ext(f: WeightedTorusFoliation, s, g: WeightedTorusFoliation, sigmas):
    """Ext(g) at the points sigma + i h, h = w_f^2 / s, of HS(f, s) in f's chart
    M, in floats: g there is the class (-n, d) with M(beta_g) = n / d (see
    _on_geodesic), so Ext(g) = w_g^2 ((d sigma - n)^2 + (d h)^2) / h.  sigmas is
    a float or an array, and the result has the same type; no certificate."""
    m, cg = f.curve.chart, g.curve
    n, d = m.b * cg.q - m.a * cg.p, f.curve.p * cg.q - f.curve.q * cg.p
    h = float(1 / _normalize_level(f.weight, s))
    return float(g.weight) ** 2 * ((d * sigmas - n) ** 2 + (d * h) ** 2) / h


def horocycle_witness(f: WeightedTorusFoliation, level, g: WeightedTorusFoliation, bound):
    """The point of HS(f, level), exact in Fractions, with Ext(g) >= bound (1 + 2^-40)
    unless g is f's class.  In f's chart it is sigma + i h, h = w_f^2 / level, where
    Ext(g) = w_g^2 ((d sigma - n)^2 + (d h)^2) / h (see horocycle_samples_ext):
    sigma = (n + s) / d for s = isqrt(floor(R)) + 1, so s^2 > R = bound (1 + 2^-40) h /
    w_g^2 - (d h)^2, all in integers; sigma = 0 where d = 0, as Ext(g) is constant then."""
    m, c = f.curve.chart, g.curve
    n, d = m.b * c.q - m.a * c.p, f.curve.p * c.q - f.curve.q * c.p
    hd, hn = _normalize_level(f.weight, level).as_integer_ratio()  # h = hn / hd
    x, y, den = 0, hn, hd
    if d:
        bn, bd = _normalize_level(g.weight, bound).as_integer_ratio()  # bound / w_g^2
        r = hn * (bn * hd * (2**40 + 1) - (bd * d * d * hn << 40)) // (bd * hd * hd << 40)
        x, y, den = (n + math.isqrt(max(r, 0)) + 1) * hd, hn * d, d * hd
    re, im, den = _act(Mat2(m.d, -m.b, -m.c, m.a), x, y, den)
    return UpperHalfPoint(Fraction(re, den), Fraction(im, den))


def tangency_check(h1: HoroSpec, h2: HoroSpec) -> bool:
    """True iff level1 * level2 = i(f1, f2)^2, exactly on rational levels."""
    if h1.curve == h2.curve:
        raise ValueError("parallel foliations are not transverse")
    i = intersection(h1.curve, h2.curve)
    return h1.level * h2.level == Fraction(i) ** 2


def tangency_point(h1: HoroSpec, h2: HoroSpec) -> UpperHalfPoint:
    if not tangency_check(h1, h2):
        raise ValueError("horospheres are not tangent")
    return tangent_point(h1.foliation, h1.level, h2.foliation)


def triple_tangency_levels(i_ab, i_ag, i_bg):
    """Unique (r, s, t) with r*s = i_ab^2, r*t = i_ag^2, s*t = i_bg^2."""
    vals = [i_ab, i_ag, i_bg]
    if any(not v > 0 for v in vals):
        raise ValueError("all three intersection numbers must be positive")
    i_ab, i_ag, i_bg = (Fraction(v) for v in vals)
    return i_ab * i_ag / i_bg, i_ab * i_bg / i_ag, i_ag * i_bg / i_ab


def ratio_curve_search(alpha: TorusCurve, beta: TorusCurve, target, eps,
                       budget: int = 10**6) -> TorusCurve:
    """Primitive gamma = u alpha + w beta, reduced, with i(alpha, gamma) / i(beta, gamma) = w/u
    within eps of target: the first such mediant of the Stern-Brocot descent, else past
    ``budget`` mediants EnumerationBudgetError naming the best.  Run k of the descent, (w_{k-2}
    + j w_{k-1}) / (u_{k-2} + j u_{k-1}) for j = 1..a_k (target's convergents and partial
    quotients), nears target monotonically: one integer division, a step per quotient."""
    if alpha == beta:
        raise ValueError("alpha and beta must be distinct")
    if not eps > 0:
        raise ValueError("eps must be strictly positive")
    if not 0 < target < INFINITY:
        raise ValueError("target must be positive and finite")
    if not budget > 0:
        raise ValueError("budget must be positive")
    n, d = Fraction(target).as_integer_ratio()
    en, ed = Fraction(min(eps, Fraction(n + d, d))).as_integer_ratio()  # 1/1 answers a larger eps

    def reduced(u, w):  # the primitive class along u alpha + w beta
        p, q = u * alpha.p + w * beta.p, u * alpha.q + w * beta.q
        return p // math.gcd(p, q), q // math.gcd(p, q)

    # 0/1 and 1/0 start the convergents w/u; the mediant j is (e0 - j e1) / (d u) off target
    (u0, w0, e0), (u1, w1, e1), best = (1, 0, n), (0, 1, d), (INFINITY, None)
    for a in partial_quotients(n, d):  # a run of a mediants; a0 = 0 (target < 1) makes none
        first = max(1, (ed * e0 - en * d * u0) // (ed * e1 + en * d * u1) + 1)  # within eps
        j = min(first, a, budget)
        u, w = u0 + j * u1, w0 + j * w1
        if j == first:
            return TorusCurve(*reduced(u, w))
        if j and (err := Fraction(e0 - j * e1, d * u)) < best[0]:  # the run's best is its last
            best = err, (u, w)
        if not (budget := budget - j):
            u, w = best[1]
            raise EnumerationBudgetError(f"ratio search budget exhausted; best ratio "
                                         f"{Fraction(w, u)} at curve {reduced(u, w)}", w / u)
        (u0, w0, e0), (u1, w1, e1) = (u1, w1, e1), (u0 + a * u1, w0 + a * w1, e0 - a * e1)


# ---------------------------------------------------------------------------
# Equidistance


class EquidistanceReport(Record):
    # distances: the brackets' midpoints; max_error: the most |distance - expected| allowed
    _fields = ("expected", "distances", "brackets", "max_error", "unique_feet", "ok")


def _half_log_distance(chart_point, norm: Fraction) -> Bracket:
    """Bracket on x's distance to HS(f, level) from Mx's _act integers (M is f's chart) and norm
    = level / w^2.  In the chart HS(f, level) is the line Im = w^2 / level; its perpendicular
    geodesics are vertical, so x's foot is unique and the distance (1/2)|log(Im Mx level / w^2)|."""
    _, im, den = chart_point
    v, r = half_log(im * norm.numerator, den * norm.denominator)
    return Bracket(max(abs(v) - r, 0.0), abs(v) + r)


def equidistance_check(f: WeightedTorusFoliation, s, t, samples: int, tol: float = 1e-6,
                       seed: int = 0) -> EquidistanceReport:
    """Distance from points of HS(f, s) to HS(f, t) equals (1/2) log(t/s); the
    points are horocycle(f, s) at sigma uniform on [-4, 4] from
    random.Random(seed).  Each bracket holds its point's distance to HS(f, t),
    widened by the hi end of its measured distance to HS(f, s) (triangle
    inequality), so it holds (1/2) log(t/s) too.  ok: every bracket holds
    (1/2) log(t/s) and is at most tol wide.  The feet are unique (see
    _half_log_distance).  ValueError(OUT_OF_RANGE) for a point of HS(f, s)
    that is not a double."""
    if not (0 < s <= t):
        raise ValueError("need 0 < s <= t")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    on_s, m = horocycle(f, s), f.curve.chart
    norm_s, norm_t = _normalize_level(f.weight, s), _normalize_level(f.weight, t)
    rng, brackets = random.Random(seed), []
    for _ in range(samples):
        mx = _act(m, *_ints(on_s(rng.uniform(-4.0, 4.0))))  # one chart point for both levels
        off = _half_log_distance(mx, norm_s).hi
        brackets.append(_half_log_distance(mx, norm_t) + Bracket(-off, off))
    expected = half_log(*(Fraction(t) / Fraction(s)).as_integer_ratio())[0]
    max_err = max(max(b.hi - expected, expected - b.lo) for b in brackets)
    ok = all(b.contains(expected) and b.width <= tol for b in brackets)
    return EquidistanceReport(expected, [0.5 * (b.lo + b.hi) for b in brackets], brackets,
                              max_err, True, ok)


# ---------------------------------------------------------------------------
# Busemann machinery


def torus_ray(x0: UpperHalfPoint, f: WeightedTorusFoliation):
    """Teichmueller ray from x0 toward f; ray(0) = x0, Ext(f) decays e^{-2t}.

    In f's chart M it is the line r0 + i u0 e^{2t} over M x0 = r0 + i u0, and
    ray(t) is M^-1 of its point at the double e^{2t}, as _rounded rounds it.
    Returns (ray, chart, u0) with chart = M^-1 after w -> w + r0, its entries
    rounded once, so that ray(t) = chart(i u0 e^{2t})."""
    m = f.curve.chart
    re0, im0, den0 = _act(m, *_ints(x0))
    inv = Mat2(m.d, -m.b, -m.c, m.a)

    def ray(t: float) -> UpperHalfPoint:
        kn, kd = math.exp(2.0 * t).as_integer_ratio()
        return _rounded(inv, re0 * kd, im0 * kn, den0 * kd)

    chart = Mat2(inv.a, (inv.a * re0 + inv.b * den0) / den0,
                 inv.c, (inv.c * re0 + inv.d * den0) / den0)
    return ray, chart, im0 / den0


def _ray_points(x0: UpperHalfPoint, f: WeightedTorusFoliation):
    """y -> (x, h, w), y's integers: in f's chart M, with My = z and M x0 = r0
    + i u0, Re z - r0, Im z and u0 times den den0 (_act's).  B = busemann's value
    is half_log(w, h)'s, and _ray_step's r2 = x^2 + h^2, w2 = w^2 and hw = h w."""
    m = f.curve.chart
    re0, im0, den0 = _act(m, *_ints(x0))

    def point(y: UpperHalfPoint):
        re, im, den = _act(m, *_ints(y))
        return re * den0 - re0 * den, im * den0, im0 * den

    return point


def busemann(x0: UpperHalfPoint, f: WeightedTorusFoliation, x: UpperHalfPoint) -> float:
    """(1/2) log(Ext_f(x) / Ext_f(x0)) = (1/2) log(Im M x0 / Im M x) in f's
    chart M, the closed form for indecomposable (single-curve) foliations:
    half_log's value, within half_log_radius(value)."""
    _, h, w = _ray_points(x0, f)(x)
    return half_log(w, h)[0]


def busemann_limit(x0: UpperHalfPoint, f: WeightedTorusFoliation, x: UpperHalfPoint,
                   tol: float) -> float:
    """Definition-based Busemann value: limit of d(x, ray(t)) - t.

    Runs ``horolab.busemann_estimate`` on the torus backend and raises
    MonotonicityError unless that estimate is certified."""
    from . import horolab

    est = horolab.busemann_estimate(x0, f, x, horolab.TorusBackend(), tol=tol)
    if not est.certified:
        raise MonotonicityError(f"Busemann sequence not certified: {est.trace}")
    return est.value


def ray_excess(x0: UpperHalfPoint, f: WeightedTorusFoliation, y: UpperHalfPoint):
    """The step j -> _ray_step(j) for torus_ray's ray, where D(t) = d_T(y,
    ray(t)) - t falls to B = busemann(x0, f, y): at y's integers r2, w2, hw
    (_ray_points) and h0 = sum(half_log(r2, w2))."""
    x, h, w = _ray_points(x0, f)(y)
    r2, w2 = x * x + h * h, w * w
    return partial(_ray_step, r2, w2, h * w, sum(half_log(r2, w2)))


def _ray_step(r2: int, w2: int, hw: int, h0: float, j: int):
    """(Bracket on D(t), bound on D(t) - B) where e^{2t} = K = 2^j = 2^p / 2^s:
    ray(t) = r0 + i K u0 in f's chart, so cosh 2 d_T = A = n / m, n = r2 4^s +
    w2 4^p and m = hw 2^(s + p + 1) (see _ray_points), and D(t) = (1/2) log((A +
    sqrt(A^2 - 1)) / K) is half_acosh's; the bound is _tail's at a log K just
    below j log 2."""
    s, p = (0, j) if j >= 0 else (-j, 0)
    return (half_acosh((r2 << 2 * s) + (w2 << 2 * p), hw << s + p + 1, 1 << p, 1 << s),
            _tail(h0, j * _LOG2 * (1.0 - 2.0**-50)))


def _tail(h0: float, log_k: float) -> float:
    """Bound on D(t) - B where 2t >= log_k, h0 = sum(half_log(r2, w2)) >= (1/2)
    log(r2 / w2): A + sqrt(A^2 - 1) <= 2A gives (1/2) log1p(e^{2(h0 - log K)});
    2^-49 covers the roundings, 2^-1000 an underflow."""
    a = math.nextafter(h0 - log_k, INFINITY)
    a = (a if a > 0.0 else 0.0) + 0.5 * math.log1p(math.exp(-2.0 * abs(a)))
    return a * (1.0 + 2.0**-49) + 2.0**-1000


class BallLimitEntry(Record):
    # classification: "inside", "outside" or "inconclusive"
    _fields = ("point", "busemann_value", "memberships", "classification", "nested")

    def __init__(self, point, busemann_value, memberships, classification, nested):
        self.point, self.busemann_value, self.memberships = point, busemann_value, memberships
        self.classification, self.nested = classification, nested


class BallLimitReport(Record):
    _fields = ("entries", "ok", "inconclusive")


def metric_ball_limit_check(x0: UpperHalfPoint, f: WeightedTorusFoliation,
                            sample: Sequence[UpperHalfPoint], k_max: int = 20,
                            boundary_tol: float = 1e-6) -> BallLimitReport:
    """Membership of sample points in the growing balls B(ray(t), t), t = 2^k:
    y is in iff D(t) < 0 (see ray_excess), that is iff K^2 w (w - h) < hw - r2
    for K = e^{2t} and y's integers (_ray_points): never where w >= h (B >= 0),
    else iff e^{4t} > T = (r2 - hw) / (hw - w2).  So the memberships are False
    while 2^(k+1) <= (1/2) log T, None where half_log's radius about it holds
    2^(k+1) (at most one k), then True.  inside / outside: D(2^k_max) is below
    -boundary_tol / above boundary_tol.  ok: every point nested, with the exact
    D bracket of ray_excess's step (_ray_step) meeting [B_lo, B_hi + tail] at
    the first 2^j where the tail's argument is at most 2^-40.  nested: D falls
    with t, so where that bracket at t_j, e^{2t_j} = 2^j, is >= 0 there is no
    True at 2^k <= t_j, and where it is < 0 no False at 2^k >= t_j.  ValueError
    unless 0 <= k_max <= 1022, where 2^(k_max + 1) is a double."""
    if not 0 <= k_max <= 1022:
        raise ValueError("k_max must lie in 0..1022")
    if not sample:
        raise ValueError("sample must be nonempty")
    point = _ray_points(x0, f)
    entries, ok, n = [], True, k_max + 1
    for y in sample:
        x, h, w = point(y)
        b, r2, w2, hw = half_log(w, h)[0], x * x + h * h, w * w, h * w
        h0, err = sum(half_log(r2, w2)), half_log_radius(b)
        b_lo, b_hi = b - err, b + err
        n_out = k_in = n  # out at 2^k for k < n_out, in for k >= k_in
        if w < h:  # for a >= 1, 2^(k+1) <= a iff k < bit_length(int(a)) - 1 = floor(log2 a)
            v, r = half_log(r2 - hw, hw - w2)
            n_out = min(int(v - r).bit_length() - 1, n) if v - r >= 1.0 else 0
            k_in = min(int(v + r).bit_length() - 1, n) if v + r >= 1.0 else 0
        memberships = [False] * n_out + [None] * (k_in - n_out) + [True] * (n - k_in)
        d_max = math.nextafter(b_hi + _tail(h0, 2.0 ** (k_max + 1)), INFINITY)  # >= D(2^k_max)
        cls = ("inside" if d_max < -boundary_tol else "outside" if b_lo > boundary_tol
               else "inconclusive")
        # _tail(h0, 0) bounds half the log of the tail's argument at K = 1; it falls 4-fold per j
        j = max(0, math.ceil(_tail(h0, 0.0) / _LOG2 + 20.0))
        d, d_tail = _ray_step(r2, w2, hw, h0, j)
        nested = not (d.lo >= 0.0 and k_in < n and 2.0 ** (k_in + 1) <= j * _LOG2 * (1 - 2.0**-50)
                      or d.hi < 0.0 and 2.0 ** n_out >= j * _LOG2 * (1 + 2.0**-50))  # 1 < 2 t_j
        ok = ok and nested and d.hi >= b_lo and d.lo <= math.nextafter(b_hi + d_tail, INFINITY)
        entries.append(BallLimitEntry(y, b, memberships, cls, nested))
    inconclusive = [e.point for e in entries if e.classification == "inconclusive"]
    return BallLimitReport(entries, ok, inconclusive)
