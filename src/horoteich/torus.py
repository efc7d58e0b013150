"""Genus-one model: the upper half-plane with exact extremal lengths.

A marked flat torus is a point tau of the upper half-plane; the primitive
class (p, q) has extremal length |p + q*tau|^2 / Im(tau).  Everything the
horosphere machinery needs (distance suprema, tangency, Busemann rays,
horocycles) is available either in closed form or through a certified
descent over slopes toward a closed-form supremum.
"""
from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .kernel import (
    Bracket,
    EnumerationBudgetError,
    Frozen,
    Mat2,
    Record,
    UpperHalfPoint,
    _set,
    hyperbolic_distance,
    mobius_apply,
)

INFINITY = math.inf
OUT_OF_RANGE = "level is beyond the double range"


class MonotonicityError(RuntimeError):
    """A Busemann distance sequence increased, fell below -d(x0, x), or did
    not settle before the time cap; signals a distance bug."""


# ---------------------------------------------------------------------------
# Curves and foliations


class TorusCurve(Frozen):
    """Primitive class (p, q); canonical sign p > 0, or p = 0 and q = 1."""

    _fields = ("p", "q")

    def __init__(self, p: int, q: int):
        if p == 0 and q == 0:
            raise ValueError("(0, 0) is not a curve")
        if math.gcd(abs(p), abs(q)) != 1:
            raise ValueError(f"({p}, {q}) is not primitive")
        if p < 0 or (p == 0 and q < 0):
            p, q = -p, -q
        _set(self, "p", p)
        _set(self, "q", q)

    def boundary_point(self):
        """Point of the circle at infinity where this curve degenerates."""
        if self.q == 0:
            return INFINITY
        return Fraction(-self.p, self.q)


class WeightedTorusFoliation(Frozen):
    _fields = ("weight", "curve")

    def __init__(self, weight, curve: TorusCurve):
        if not weight > 0:
            raise ValueError("weight must be positive")
        _set(self, "weight", weight)
        _set(self, "curve", curve)

    @cached_property
    def weight_squared(self) -> Bracket:  # rounded outward once, per foliation
        return Bracket.exact(Fraction(self.weight) ** 2)


def intersection(c1: TorusCurve, c2: TorusCurve) -> int:
    return abs(c1.p * c2.q - c1.q * c2.p)


def foliation_intersection(f: WeightedTorusFoliation, g: WeightedTorusFoliation):
    return Fraction(f.weight) * Fraction(g.weight) * intersection(f.curve, g.curve)


def extremal_length(tau: UpperHalfPoint, f: WeightedTorusFoliation):
    """weight^2 * |p + q*tau|^2 / Im(tau): a float, or the exact Fraction when
    tau's coordinates and the weight are Fractions.  Summed as
    re*(re/y) + q*(q*y), as in _ext, so no y^2 is formed to overflow."""
    c = f.curve
    w = f.weight if type(tau.y) is Fraction else float(f.weight)
    re = c.p + c.q * tau.x
    return w * w * (re * (re / tau.y) + c.q * (c.q * tau.y))


# ---------------------------------------------------------------------------
# Certified suprema over slopes
#
# Both suprema are Rayleigh quotients of two binary quadratic forms in (p, q):
# their sup over real slopes t = p/q has a closed form, attained at one slope
# t*.  The closed form, inflated, is the upper bound; the lower bound is the
# value at the first primitive class near t* that certifies.
#
# Rounding: with u = 2^-53, an operation on doubles whose result is normal
# has relative error at most u.  Each closed form and per-class ratio below
# takes at most 11 roundings (counted where they occur), so scaling it by
# 1 +- 16 u, one more rounding, puts an upper bound above and a lower bound
# below the exact value.  A value out of the normal range feeds no certificate.

_SLACK = 2.0**-49  # 16 u
_TINY, _HUGE = sys.float_info.min, sys.float_info.max
_LOG2 = math.log(2.0)
_SEEDS = ((0, 1), (1, 0), (1, 1), (-1, 1))


class SupResult(Record):
    _fields = ("lower", "upper", "witness", "nodes", "certified", "reason")

    def __init__(self, lower, upper, witness, nodes, certified, reason=None):
        # reason: "precision" or "range" when not certified
        self.lower, self.upper, self.witness = lower, upper, witness
        self.nodes, self.certified, self.reason = nodes, certified, reason


def _ext(p: int, q: int, num: int, den: int, y: float):
    """Ext of (p, q) at x + iy with x = num/den exactly, or None out of range.

    p + q*x is formed exactly and rounded once, as is q; a*(a/y) + q*(q*y)
    then takes 5 roundings and never forms y^2 or 1/y-sized coefficients.
    """
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


def _shrink(r: float):
    """r scaled down to a lower bound on its exact value, or None."""
    return r * (1.0 - _SLACK) if _TINY <= r <= _HUGE else None


def _classes(t: float):
    """The seeds, then the continued-fraction convergents of the double t."""
    yield from _SEEDS
    if not math.isfinite(t):
        return
    n, d = t.as_integer_ratio()
    p0, q0, p1, q1 = 0, 1, 1, 0
    while d:
        a, r = divmod(n, d)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if (p1, q1) not in _SEEDS:
            yield p1, q1
        n, d = d, r


def certified_sup(ratio, t_star: float, upper: float, stop, cap: int = 10**6) -> SupResult:
    """Certified supremum over primitive classes, from below: the witness is
    the first class of ``_classes(t_star)`` whose lower bound ``ratio(p, q)``
    (None out of range) meets ``stop(lower, upper)``.  ``upper`` bounds the
    sup over real slopes (inf out of range) and ``t_star`` attains it.  With
    no such class the result is uncertified, for "range" if anything left
    the normal range and "precision" if not."""
    best, witness, nodes, out_of_range = 0.0, (1, 0), 0, math.isinf(upper)
    for p, q in _classes(t_star):
        if nodes == cap:
            raise EnumerationBudgetError(
                f"slope enumeration cap {cap} exhausted; best lower bound {best}", best
            )
        nodes += 1
        r = ratio(p, q)
        out_of_range = out_of_range or r is None
        if r is not None and r > best:
            best, witness = r, (p, q)
            if stop(best, upper):
                return SupResult(best, upper, TorusCurve(p, q), nodes, True)
    reason = "range" if out_of_range else "precision"
    return SupResult(best, upper, TorusCurve(*witness), nodes, False, reason)


# ---------------------------------------------------------------------------
# Distances


def teich_distance(t1: UpperHalfPoint, t2: UpperHalfPoint) -> float:
    """Closed-form Teichmueller distance: half the hyperbolic distance."""
    return 0.5 * hyperbolic_distance(t1, t2)


class KerckhoffResult(Record):
    _fields = ("value", "closed_form", "witness", "nodes", "certified", "reason")

    def __init__(self, value, closed_form, witness, nodes, certified, reason=None):
        self.value, self.closed_form, self.witness = value, closed_form, witness
        self.nodes, self.certified, self.reason = nodes, certified, reason


def _pencil_top(t1: UpperHalfPoint, t2: UpperHalfPoint) -> float:
    """Upper bound on e^{2d} = 1 + D + sqrt(D) sqrt(D + 2), inf out of range.

    D = |tau1 - tau2|^2 / (2 y1 y2) is summed as (d/y1)(d/y2) over d = dx, dy,
    forming no y^2: 6 roundings for D, 10.5 for the whole.
    """
    total = 0.0
    for d in (t1.x - t2.x, t1.y - t2.y):
        a, b = d / t1.y, d / t2.y
        if d and min(abs(a), abs(b), a * b) < _TINY:
            return INFINITY
        total += a * b
    big_d = 0.5 * total
    if 0.0 < big_d < _TINY:
        return INFINITY
    return (1.0 + big_d + math.sqrt(big_d) * math.sqrt(big_d + 2.0)) * (1.0 + _SLACK)


def _kerckhoff_slope(t1: UpperHalfPoint, t2: UpperHalfPoint) -> float:
    """Slope of the maximal ratio, a root of qa t^2 + qb t + qc or inf, solved
    with tau2 moved to Re = 0: the root next to it is then small, so resolved
    to a few ulps of its own size, and near the cusp it is the one that counts."""
    s, y1, y2 = t1.x - t2.x, t1.y, t2.y
    qa, qb, qc = -s, y2 * y2 - y1 * y1 - s * s, s * y2 * y2
    if qa == 0.0:
        roots = [INFINITY] + ([-qc / qb] if qb else [])
    else:
        k = -0.5 * (qb + math.copysign(math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0)), qb))
        roots = [k / qa] + ([qc / k] if k else [])

    def ratio(t):
        if math.isinf(t):
            return y2 / y1
        return ((t + s) * ((t + s) / y1) + y1) / (t * (t / y2) + y2)

    return max(roots, key=ratio) - t2.x


def kerckhoff_distance(
    t1: UpperHalfPoint, t2: UpperHalfPoint, tol: float, cap: int = 10**6
) -> KerckhoffResult:
    """(1/2) log sup over primitive classes of the extremal-length ratio,
    certified to within ``tol``; the sup over real slopes is the top
    eigenvalue of the pencil of the two forms.  The hyperbolic closed form
    is exposed alongside for cross-checking.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    c1, c2 = (*t1.x.as_integer_ratio(), t1.y), (*t2.x.as_integer_ratio(), t2.y)
    factor = math.exp(2.0 * tol)

    def ratio(p, q):
        e1, e2 = _ext(p, q, *c1), _ext(p, q, *c2)
        return None if e1 is None or e2 is None else _shrink(e1 / e2)

    res = certified_sup(ratio, _kerckhoff_slope(t1, t2), _pencil_top(t1, t2),
                        lambda lower, upper: upper / lower <= factor, cap)
    value = 0.5 * math.log(res.lower) if res.lower > 0 else -INFINITY
    closed = teich_distance(t1, t2)
    return KerckhoffResult(value, closed, res.witness, res.nodes, res.certified, res.reason)


def ext_sup_enumeration(
    tau: UpperHalfPoint, f: WeightedTorusFoliation, tol: float, cap: int = 10**6
) -> SupResult:
    """sup_gamma i(f, gamma)^2 / Ext_tau(gamma), certified from below to
    within ``tol`` (absolute); over real slopes it is w^2 Ext_tau(f)."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    fp, fq = f.curve.p, f.curve.q
    chart = (*tau.x.as_integer_ratio(), tau.y)
    w2 = float(f.weight) * float(f.weight)  # 3 roundings; i^2, w2 * i^2 and / add 3
    top = _ext(fp, fq, *chart)
    upper = INFINITY if top is None else w2 * top * (1.0 + _SLACK)
    if not (_TINY <= w2 and _TINY <= upper <= _HUGE):
        upper = INFINITY
    # t* = -(p_f x + q_f |tau|^2) / (p_f + q_f x), written around -x
    den = fp + fq * tau.x
    t_star = -tau.x - fq * tau.y * tau.y / den if den else INFINITY

    def ratio(p, q):
        i = fp * q - fq * p
        if i == 0:
            return 0.0
        e = _ext(p, q, *chart)
        try:
            return None if e is None else _shrink(w2 * float(i * i) / e)
        except OverflowError:
            return None

    return certified_sup(ratio, t_star, upper, lambda lower, upper: upper - lower <= tol, cap)


# ---------------------------------------------------------------------------
# Geodesics


class TorusGeodesic(Record):
    """Hyperbolic geodesic between two boundary slopes, Teichmueller-unit
    parametrized (hyperbolic speed 2); point_at(t) -> endpoint_a as t -> inf."""

    _fields = ("endpoint_a", "endpoint_b", "point_at")


def _endpoint_chart(alpha, beta) -> Mat2:
    """Positive-determinant Moebius map with m(inf) = alpha, m(0) = beta."""
    if alpha == INFINITY and beta == INFINITY:
        raise ValueError("coincident endpoints")
    if alpha == INFINITY:
        return Mat2(1.0, float(beta), 0.0, 1.0)
    if beta == INFINITY:
        return Mat2(float(alpha), -1.0, 1.0, 0.0)
    a, b = float(alpha), float(beta)
    if a == b:
        raise ValueError("coincident endpoints")
    if a > b:
        return Mat2(a, b, 1.0, 1.0)
    return Mat2(a, -b, 1.0, -1.0)


def _chart_geodesic(alpha, beta) -> TorusGeodesic:
    m = _endpoint_chart(alpha, beta)

    def point_at(t: float) -> UpperHalfPoint:
        return mobius_apply(m, UpperHalfPoint(0.0, math.exp(2.0 * t)))

    return TorusGeodesic(alpha, beta, point_at)


def geodesic_between(f: TorusCurve, g: TorusCurve) -> TorusGeodesic:
    """The Teichmueller geodesic with vertical class f and horizontal g.

    Along it Ext(f) * Ext(g) = i(f, g)^2 identically.
    """
    if f == g:
        raise ValueError("curves coincide; no transverse pair")
    return _chart_geodesic(f.boundary_point(), g.boundary_point())


def tangent_point(f: WeightedTorusFoliation, s, g: WeightedTorusFoliation) -> UpperHalfPoint:
    """Unique point on the (f, g) geodesic with Ext(f) = s.

    In the geodesic's chart m (_endpoint_chart's, with exact entries),
    Ext(f)(m(w)) = k / Im w, so the point is m(i k / s) with k = Ext(f)(m(i)):
    exact Fractions, each coordinate rounded once, so within half an ulp.
    ValueError if its height, in the chart or in the half-plane, is not a
    normal double.
    """
    if not s > 0:
        raise ValueError("level must be positive")
    if f.curve == g.curve:
        raise ValueError("curves coincide; no transverse pair")
    alpha, beta = f.curve.boundary_point(), g.curve.boundary_point()
    if alpha == INFINITY:
        a, b, c, d = 1, beta, 0, 1
    elif beta == INFINITY:
        a, b, c, d = alpha, -1, 1, 0
    elif alpha > beta:
        a, b, c, d = alpha, beta, 1, 1
    else:
        a, b, c, d = alpha, -beta, 1, -1

    def chart(y):  # m(iy) = ((bd + ac y^2) + i (ad - bc) y) / (d^2 + c^2 y^2)
        den = d * d + c * c * y * y
        return UpperHalfPoint((b * d + a * c * y * y) / den, (a * d - b * c) * y / den)

    height = Fraction(extremal_length(chart(Fraction(1)), f)) / Fraction(s)
    if not _TINY <= height <= _HUGE:
        raise ValueError(OUT_OF_RANGE)
    pt = chart(height)
    if not _TINY <= pt.y <= _HUGE:
        raise ValueError(OUT_OF_RANGE)
    return UpperHalfPoint(float(pt.x), float(pt.y))


# ---------------------------------------------------------------------------
# Horospheres


def _normalize_level(weight, level):
    return Fraction(level) / Fraction(weight) ** 2


class HoroSpec(Frozen):
    """Horosphere {Ext(.)(foliation) = level}, stored weight-normalized.

    (k * weight, k^2 * level) and (weight, level) normalize to identical
    records, realizing the scaling identity of horospheres.
    """

    _fields = ("foliation", "level")

    @staticmethod
    def create(f: WeightedTorusFoliation, level) -> "HoroSpec":
        if not level > 0:
            raise ValueError("level must be positive")
        norm = _normalize_level(f.weight, level)
        return HoroSpec(WeightedTorusFoliation(Fraction(1), f.curve), norm)

    @property
    def curve(self) -> TorusCurve:
        return self.foliation.curve


def _horocycle(f: WeightedTorusFoliation, level):
    """(at, y0, cx): at maps the horocycle-flow parameter sigma (a float, or an
    array taken elementwise) to (x, y) on HS(f, level), the image of sigma + i*y0
    under w -> w (q = 0: the line y = y0 = p^2 / level; cx = 0) or w -> cx - 1/w
    (cx = fl(-p/q), y0 = q^2 / level).  The level is normalized once, here;
    ValueError(OUT_OF_RANGE) if y0 or a height y is not a normal double, or if
    a point could miss |Ext_f(x + iy) / level - 1| <= 2^-40 + 2^-51 |sigma x|.

    The bound (u = 2^-53): y0 holds the level to 2u, y and offset = x - cx are
    within 4u and 5u, cx + cx_lo is -p/q to u |cx_lo|, and e, the rounding of
    x = cx + s, s = fl(offset + cx_lo), is found exactly: x is within dx = |e| +
    16u (|s| + |cx_lo|) of exact.  A shift dx in x moves Ext / level by -2 sigma
    dx + dx^2 (sigma^2 + y0^2); as |e| <= u |x| and |sigma offset| <= 1, all is
    within 2u |sigma x| + 39u + dx^2 (sigma^2 + y0^2), and at raises where the
    last term, the rounding of x against the size of the horocycle, passes 2^-42."""
    c = f.curve
    try:
        y0 = (c.q or c.p) ** 2 / float(_normalize_level(f.weight, level))
    except (OverflowError, ZeroDivisionError):
        y0 = 0.0
    if not _TINY <= y0 <= _HUGE:
        raise ValueError(OUT_OF_RANGE)
    if c.q == 0:
        return (lambda sigma: (sigma, y0)), y0, 0.0
    cx = -c.p / c.q
    n, m = cx.as_integer_ratio()
    cx_lo = (-c.p * m - c.q * n) / (c.q * m)  # -p/q - cx, rounded once
    lo_err, k = 2.0**-49 * abs(cx_lo), 2.0**-42 / y0

    def at(sigma):
        # d = (sigma^2 + y0^2) / y0 >= y0, normal wherever y is; no square formed
        u = sigma / y0
        d = sigma * u + y0
        offset = -u / d
        s = offset + cx_lo
        x, y = cx + s, 1.0 / d
        t = x - cx
        e = (cx - (x - t)) + (s - t)  # cx + s - x, exactly (two-sum)
        dx = abs(e) + 2.0**-49 * abs(s) + lo_err
        # dx^2 (sigma^2 + y0^2) = dx^2 y0 / y to 2u; ok is a bool, or a bool array
        ok = (y >= _TINY) & (dx * dx <= k * y)
        if ok is not True and (ok is False or not ok.all()):
            raise ValueError(OUT_OF_RANGE)
        return x, y

    return at, y0, cx


def horocycle_samples_ext(f: WeightedTorusFoliation, s, g: WeightedTorusFoliation, sigmas):
    """Ext(g) at horocycle-flow samples sigmas of HS(f, s): sigmas is a float
    or an array, and the result has the same type."""
    x, y = _horocycle(f, s)[0](sigmas)
    cg = g.curve
    w2 = float(g.weight) ** 2
    re = cg.p + cg.q * x
    return w2 * (re * re + (cg.q * y) ** 2) / y


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
    r = i_ab * i_ag / i_bg
    s = i_ab * i_bg / i_ag
    t = i_ag * i_bg / i_ab
    return r, s, t


def ratio_curve_search(
    alpha: TorusCurve,
    beta: TorusCurve,
    target,
    eps,
    budget: int = 10**6,
) -> TorusCurve:
    """Primitive gamma, filling with alpha and beta, whose intersection
    ratio i(alpha, gamma) / i(beta, gamma) lies within eps of target.

    Stern-Brocot descent in the cone spanned by alpha and beta; inside it
    the ratio equals the cone coordinate w/u exactly.
    """
    if alpha == beta:
        raise ValueError("alpha and beta must be distinct")
    if not eps > 0:
        raise ValueError("eps must be strictly positive")
    if not target > 0:
        raise ValueError("target must be positive")
    target = Fraction(target)

    def reduced(u, w):
        p, q = u * alpha.p + w * beta.p, u * alpha.q + w * beta.q
        g = math.gcd(p, q)
        return p // g, q // g

    lo = (1, 0)  # (w, u) = 0/1 side: gamma ~ alpha, ratio 0
    hi = (0, 1)  # ratio inf side: gamma ~ beta
    best = None
    best_err = INFINITY
    for _ in range(budget):
        u = lo[0] + hi[0]
        w = lo[1] + hi[1]
        ratio = Fraction(w, u)
        err = abs(ratio - target)
        if err < best_err:
            best_err = err
            best = (u, w)
        if err < eps:
            return TorusCurve(*reduced(u, w))
        if ratio < target:
            lo = (u, w)
        else:
            hi = (u, w)
    u, w = best
    raise EnumerationBudgetError(
        f"ratio search budget exhausted; best ratio {Fraction(w, u)} at curve {reduced(u, w)}",
        float(Fraction(w, u)),
    )


# ---------------------------------------------------------------------------
# Equidistance


class EquidistanceReport(Record):
    # distances: the brackets' midpoints; max_error: the most |distance - expected| allowed
    _fields = ("expected", "distances", "brackets", "max_error", "unique_feet", "ok")


# Distance to a horocycle.  In the chart w = -1/(tau - cx) (w = tau if q = 0)
# HS(f, level) is the line Im w = y0 and Ext_f = c^2 / Im w, c = q or p (see
# _horocycle), so the foot of x is sigma* + i y0, sigma* = Re w(x) =
# Re 1/(cx - x) (x.x if q = 0), at distance (1/2)|log(Ext_f(x) / level)|.
# The bracket takes one end from each path (u = 2^-53):
# - lower: that Busemann form, (1/2)|log e - log l| with e = Ext_f(x) from
#   _ext (5 roundings) and l the weight-normalized level (1; a subnormal l is
#   off by 8u, but then E > 700).  The logs (1 ulp each) and their difference
#   add 1.5u E, E = |log e| + |log l|: 2^-49 (1 + E) covers 3u + 1.5u E.
# - upper: d(x, P) + d(P, HS) for the computed foot P.  hyperbolic_distance
#   takes 11 roundings while e^{2d} is a double (error 5.3u + 2u d), and four
#   logs under 745 beyond (error 4100u + u d, d > 354): 2^-47 (1 + d) covers
#   both and the sums.  d(P, HS) is P's Busemann form, bounded as above.
# P is not at(sigma*), whose abscissa, near the cusp, can land an ulp off
# x.x where the foot is far closer, a long way along the horocycle: P is
# x.x plus Re of the shift i (Y - y0) z / (sigma* + i y0), z = x - cx,
# sigma* + i Y = -1/z, at height Im -1/(sigma* + i y0), without cancellation.


def _distance_to_horocycle(f: WeightedTorusFoliation, level):
    """x -> Bracket on the Teichmueller distance from x to HS(f, level);
    ValueError(OUT_OF_RANGE) where a value it needs is not a normal double.

    The foot is unique: with w(x) = sigma_x + i Y in the chart above, the
    cosh of the hyperbolic distance from x to sigma + i y0 on the horocycle is
    1 + ((sigma - sigma_x)^2 + (Y - y0)^2) / (2 Y y0), a quadratic in sigma
    with positive leading coefficient, so strictly convex, with its one
    minimum at sigma = sigma_x; the chart is an isometry."""
    c = f.curve
    y0 = _horocycle(f, level)[1]
    log_l = math.log(float(_normalize_level(f.weight, level)))

    def gap(px: float, py: float) -> Bracket:
        """Bracket on (1/2)|log(Ext_f / level)| at px + i py."""
        e = _ext(c.p, c.q, *px.as_integer_ratio(), py)
        if e is None:
            raise ValueError(OUT_OF_RANGE)
        log_e = math.log(e)
        v, err = 0.5 * abs(log_e - log_l), 2.0**-49 * (1.0 + abs(log_e) + abs(log_l))
        return Bracket(max(v - err, 0.0), v + err)

    def distance(x: UpperHalfPoint) -> Bracket:
        if c.q == 0:
            foot = complex(x.x, y0)
        else:
            num, den = x.x.as_integer_ratio()
            z = complex((c.p * den + c.q * num) / (c.q * den), x.y)
            w = -1 / z
            foot_w = complex(w.real, y0)
            shift = (w.imag - y0) * (z / foot_w) * 1j
            foot = complex(x.x + shift.real, (-1 / foot_w).imag)
        if not (_TINY <= foot.imag <= _HUGE and abs(foot.real) <= _HUGE):
            raise ValueError(OUT_OF_RANGE)
        d = teich_distance(x, UpperHalfPoint(foot.real, foot.imag))
        upper = Bracket(d, d + 2.0**-47 * (1.0 + d)) + gap(foot.real, foot.imag)
        return Bracket(gap(x.x, x.y).lo, upper.hi)

    return distance


def equidistance_check(f: WeightedTorusFoliation, s, t, samples: int, tol: float = 1e-6,
                       seed: int = 0) -> EquidistanceReport:
    """Distance from points of HS(f, s) to HS(f, t) equals (1/2) log(t/s); the
    points' horocycle-flow parameters are uniform on [-4, 4] from
    random.Random(seed).  ok: every distance bracket holds (1/2) log(t/s) and
    is at most tol wide.  The feet are unique (see _distance_to_horocycle)."""
    if not (0 < s <= t):
        raise ValueError("need 0 < s <= t")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    on_s, to_t, rng = _horocycle(f, s)[0], _distance_to_horocycle(f, t), random.Random(seed)
    brackets = [to_t(UpperHalfPoint(*on_s(rng.uniform(-4.0, 4.0)))) for _ in range(samples)]
    ratio = Fraction(t) / Fraction(s)  # may pass the doubles
    expected = 0.5 * (math.log(ratio.numerator) - math.log(ratio.denominator))
    max_err = max(max(b.hi - expected, expected - b.lo) for b in brackets)
    ok = all(b.contains(expected) and b.width <= tol for b in brackets)
    return EquidistanceReport(expected, [0.5 * (b.lo + b.hi) for b in brackets], brackets,
                              max_err, True, ok)


# ---------------------------------------------------------------------------
# Busemann machinery


def torus_ray(x0: UpperHalfPoint, f: WeightedTorusFoliation):
    """Teichmueller ray from x0 toward f; ray(0) = x0, Ext(f) decays e^{-2t}.

    Returns (ray, chart, u0) where chart maps the vertical model geodesic
    and ray(t) = chart(i * u0 * e^{2t})."""
    alpha = f.curve.boundary_point()
    if alpha == INFINITY:
        beta = x0.x
    else:
        a = float(alpha)
        if x0.x == a:
            beta = INFINITY
        else:
            c = (x0.x * x0.x + x0.y * x0.y - a * a) / (2.0 * (x0.x - a))
            beta = 2.0 * c - a
    m = _endpoint_chart(alpha, beta)
    minv = m.inverse()
    z0 = mobius_apply(minv, x0)
    u0 = z0.y  # z0 is on the imaginary axis up to rounding

    def ray(t: float) -> UpperHalfPoint:
        return mobius_apply(m, UpperHalfPoint(0.0, u0 * math.exp(2.0 * t)))

    return ray, m, u0


def busemann(
    x0: UpperHalfPoint, f: WeightedTorusFoliation, x: UpperHalfPoint
) -> float:
    """(1/2) log of the extremal-length ratio; the closed form valid for
    indecomposable (single-curve) foliations."""
    ext0 = extremal_length(x0, f)
    if 0.0 < ext0 < INFINITY:
        return _busemann(ext0, f, x)
    return 0.5 * (_log_ext(x, f) - _log_ext(x0, f))


def _busemann(ext0, f: WeightedTorusFoliation, x: UpperHalfPoint) -> float:
    """busemann with Ext_f(x0) = ext0, a positive double, given.  Where Ext_f(x)
    or the ratio leaves the doubles, the difference of logs instead."""
    ratio = extremal_length(x, f) / ext0
    if 0.0 < ratio < INFINITY:
        return 0.5 * math.log(ratio)
    return 0.5 * (_log_ext(x, f) - math.log(ext0))


def _log_ext(tau: UpperHalfPoint, f: WeightedTorusFoliation) -> float:
    """log Ext_f(tau) = 2 log w + 2 log |p + q tau| - log Im tau, formed
    without Ext_f(tau), which may pass the doubles."""
    c = f.curve
    log_w = math.log(float(f.weight))
    return 2.0 * (log_w + math.log(math.hypot(c.p + c.q * tau.x, c.q * tau.y))) - math.log(tau.y)


def busemann_limit(
    x0: UpperHalfPoint,
    f: WeightedTorusFoliation,
    x: UpperHalfPoint,
    tol: float,
) -> float:
    """Definition-based Busemann value: limit of d(x, ray(t)) - t.

    Runs ``horolab.busemann_estimate`` on the torus backend and raises
    MonotonicityError unless that estimate is certified."""
    from . import horolab

    est = horolab.busemann_estimate(x0, f, x, horolab.TorusBackend(), tol=tol)
    if not est.certified:
        raise MonotonicityError(f"Busemann sequence not certified: {est.trace}")
    return est.value


def _ray_excess(minv: Mat2, log_u0: float, y: UpperHalfPoint):
    """t -> d_T(y, ray(t)) - t for the ray chart(i e^log_u0 e^{2t}) (minv the
    chart's inverse), stable for very large t: it works in logarithms, so
    e^{2t} is never formed, and the terms free of t (the chart image z of y,
    log |z|^2 and log(2 Im z)) are computed once."""
    z = mobius_apply(minv, y)
    log_r2 = math.log(z.x * z.x + z.y * z.y)
    log_2y = math.log(2.0 * z.y)

    def excess(t: float) -> float:
        log_u = log_u0 + 2.0 * t
        # w = (|z|^2 + u^2) / (2 * Im(z) * u)
        a, b = log_r2, 2.0 * log_u
        hi, lo = (a, b) if a >= b else (b, a)
        log_w = hi + math.log1p(math.exp(lo - hi)) - log_2y - log_u
        d_hyp = log_w + _LOG2 if log_w > 30.0 else math.acosh(max(math.exp(log_w), 1.0))
        return 0.5 * d_hyp - t

    return excess


class BallLimitEntry(Record):
    _fields = ("point", "busemann_value", "memberships", "classification", "nested")

    def __init__(self, point, busemann_value, memberships, classification, nested):
        # classification: "inside", "outside" or "inconclusive"
        self.point, self.busemann_value, self.memberships = point, busemann_value, memberships
        self.classification, self.nested = classification, nested


class BallLimitReport(Record):
    _fields = ("entries", "ok", "inconclusive")


def metric_ball_limit_check(
    x0: UpperHalfPoint,
    f: WeightedTorusFoliation,
    sample: Sequence[UpperHalfPoint],
    k_max: int = 20,
    boundary_tol: float = 1e-6,
) -> BallLimitReport:
    """Membership of sample points in the growing balls B(ray(t), t), t = 2^k.

    Once a point enters it stays (nestedness), and the limiting membership
    matches the sign of the Busemann closed form."""
    if not sample:
        raise ValueError("sample must be nonempty")
    _, m, u0 = torus_ray(x0, f)
    minv, log_u0, ext0 = m.inverse(), math.log(u0), extremal_length(x0, f)
    times = [float(2**k) for k in range(k_max + 1)]
    entries = []
    inconclusive = []
    ok = True
    for y in sample:
        b = _busemann(ext0, f, y)
        excess = _ray_excess(minv, log_u0, y)
        ds = [excess(t) for t in times]
        memberships = [d < 0.0 for d in ds]
        nested = memberships == sorted(memberships)  # never out once in
        if abs(ds[-1]) <= boundary_tol:
            cls = "inconclusive"
            inconclusive.append(y)
        elif ds[-1] < 0:
            cls = "inside"
        else:
            cls = "outside"
        if cls == "inside" and b >= boundary_tol:
            ok = False
        if cls == "outside" and b <= -boundary_tol:
            ok = False
        if not nested:
            ok = False
        entries.append(BallLimitEntry(y, b, memberships, cls, nested))
    return BallLimitReport(entries, ok, inconclusive)
