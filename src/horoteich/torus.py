"""Genus-one model: the upper half-plane with exact extremal lengths.

A marked flat torus is a point tau of the upper half-plane; the primitive
class (p, q) has extremal length |p + q*tau|^2 / Im(tau).  Everything the
horosphere machinery needs (distance suprema, tangency, Busemann rays,
horocycles) is available either in closed form or through certified
Stern-Brocot enumeration over slopes.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .kernel import (
    Mat2,
    UpperHalfPoint,
    hyperbolic_distance,
    is_exact,
    mobius_apply,
)

INFINITY = math.inf


class EnumerationBudgetError(RuntimeError):
    """Raised when the slope enumeration cap is hit before certification."""

    def __init__(self, message: str, lower_bound: float):
        super().__init__(message)
        self.lower_bound = lower_bound


class MonotonicityError(RuntimeError):
    """A Busemann distance sequence increased, fell below -d(x0, x), or did
    not settle before the time cap; signals a distance bug."""


# ---------------------------------------------------------------------------
# Curves and foliations


@dataclass(frozen=True)
class TorusCurve:
    """Primitive class (p, q); canonical sign p > 0, or p = 0 and q = 1."""

    p: int
    q: int

    def __post_init__(self):
        if self.p == 0 and self.q == 0:
            raise ValueError("(0, 0) is not a curve")
        if math.gcd(abs(self.p), abs(self.q)) != 1:
            raise ValueError(f"({self.p}, {self.q}) is not primitive")
        if self.p < 0 or (self.p == 0 and self.q < 0):
            object.__setattr__(self, "p", -self.p)
            object.__setattr__(self, "q", -self.q)

    def boundary_point(self):
        """Point of the circle at infinity where this curve degenerates."""
        if self.q == 0:
            return INFINITY
        return Fraction(-self.p, self.q)


@dataclass(frozen=True)
class WeightedTorusFoliation:
    weight: object
    curve: TorusCurve

    def __post_init__(self):
        if not self.weight > 0:
            raise ValueError("weight must be positive")


def intersection(c1: TorusCurve, c2: TorusCurve) -> int:
    return abs(c1.p * c2.q - c1.q * c2.p)


def foliation_intersection(f: WeightedTorusFoliation, g: WeightedTorusFoliation):
    return f.weight * g.weight * intersection(f.curve, g.curve)


def extremal_length(tau: UpperHalfPoint, f: WeightedTorusFoliation) -> float:
    """weight^2 * |p + q*tau|^2 / Im(tau)."""
    c = f.curve
    w = float(f.weight)
    re = c.p + c.q * tau.x
    return w * w * (re * re + (c.q * tau.y) ** 2) / tau.y


def curve_transform(g: Mat2, c: TorusCurve) -> TorusCurve:
    """Push a curve through the change of marking tau -> g(tau).

    Satisfies Ext_{g(tau)}(transformed) = Ext_tau(original) for integer g
    with det(g) = 1.
    """
    if not (g.is_unimodular() and g.det() == 1):
        raise ValueError("marking changes must be integer with det 1")
    p = c.p * g.a - c.q * g.b
    q = -c.p * g.c + c.q * g.d
    return TorusCurve(int(p), int(q))


# ---------------------------------------------------------------------------
# Quadratic forms over slopes

# A form (m0, m1, m2) stands for m0*p^2 + 2*m1*p*q + m2*q^2.


def point_form(tau: UpperHalfPoint):
    """Form whose value at (p, q) is Ext_tau of the curve (p, q)."""
    y = tau.y
    x = tau.x
    return (1.0 / y, x / y, (x * x + y * y) / y)


def curve_form(c: TorusCurve):
    """Rank-one form whose value at (p, q) is i(c, (p,q))^2."""
    return (float(c.q * c.q), float(-c.p * c.q), float(c.p * c.p))


def _form_eval(m, p, q):
    return m[0] * p * p + 2.0 * m[1] * p * q + m[2] * q * q


def _interval_max(num, den, t_lo, t_hi) -> float:
    """Max of (num over den) as a function of the slope t on [t_lo, t_hi].

    Endpoints may be +-inf; the value at infinity is num[0]/den[0].
    """
    a, b, c = num
    d, e, f = den

    def val(t):
        if math.isinf(t):
            return a / d
        return _form_eval(num, t, 1.0) / _form_eval(den, t, 1.0)

    best = max(val(t_lo), val(t_hi))
    # stationary points: (ae-bd) t^2 + (af-cd) t + (bf-ce) = 0
    A = a * e - b * d
    B = a * f - c * d
    C = b * f - c * e
    roots = []
    if A == 0.0:
        if B != 0.0:
            roots.append(-C / B)
    else:
        disc = B * B - 4.0 * A * C
        if disc >= 0.0:
            sq = math.sqrt(disc)
            roots.extend([(-B + sq) / (2.0 * A), (-B - sq) / (2.0 * A)])
    for r in roots:
        if t_lo < r < t_hi:
            best = max(best, val(r))
    # outward slack: one ulp-scale inflation keeps this a true upper bound
    return best * (1.0 + 1e-12)


@dataclass
class SupResult:
    lower: float
    upper: float
    witness: TorusCurve
    nodes: int
    certified: bool


def _slope(v) -> float:
    p, q = v
    if q == 0:
        return INFINITY if p > 0 else -INFINITY
    return p / q


def certified_sup(num_form, den_form, stop, cap: int = 10**6) -> SupResult:
    """Certified supremum of num/den over primitive classes, from below.

    Adaptive Stern-Brocot refinement of slope intervals; ``stop(lower,
    upper)`` decides when the enclosure is tight enough.  Only values at
    primitive integer classes contribute to the returned lower bound.
    """

    def ratio(v):
        p, q = v
        den = _form_eval(den_form, float(p), float(q))
        return _form_eval(num_form, float(p), float(q)) / den

    seeds = [(0, 1), (1, 0), (1, 1), (-1, 1)]
    best = -INFINITY
    witness = None
    for v in seeds:
        r = ratio(v)
        if r > best:
            best, witness = r, v

    heap = []
    counter = 0

    def push(vl, vr):
        nonlocal counter
        ub = _interval_max(num_form, den_form, _slope(vl), _slope(vr))
        if not stop(best, ub):
            counter += 1
            heapq.heappush(heap, (-ub, counter, vl, vr))

    push((0, 1), (1, 0))
    push((-1, 0), (0, 1))

    nodes = 2
    while heap:
        neg_ub, _, vl, vr = heapq.heappop(heap)
        ub = -neg_ub
        if stop(best, ub):
            break
        nodes += 1
        if nodes > cap:
            raise EnumerationBudgetError(
                f"slope enumeration cap {cap} exhausted; best lower bound {best}",
                best,
            )
        vm = (vl[0] + vr[0], vl[1] + vr[1])
        r = ratio(vm)
        if r > best:
            best, witness = r, vm
        push(vl, vm)
        push(vm, vr)

    upper = max((-h[0] for h in heap), default=best)
    upper = max(upper, best)
    p, q = witness
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    return SupResult(best, upper, TorusCurve(p, q), nodes, stop(best, upper))


# ---------------------------------------------------------------------------
# Distances


def teich_distance(t1: UpperHalfPoint, t2: UpperHalfPoint) -> float:
    """Closed-form Teichmueller distance: half the hyperbolic distance."""
    return 0.5 * hyperbolic_distance(t1, t2)


@dataclass
class KerckhoffResult:
    value: float
    closed_form: float
    witness: TorusCurve
    nodes: int
    certified: bool

    def __float__(self):
        return self.value


def kerckhoff_distance(
    t1: UpperHalfPoint, t2: UpperHalfPoint, tol: float, cap: int = 10**6
) -> KerckhoffResult:
    """(1/2) log sup over primitive classes of the extremal-length ratio.

    The supremum is enumerated from below over slopes and certified to
    within ``tol`` of the true value; the hyperbolic closed form is exposed
    alongside for cross-checking.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    num = point_form(t1)
    den = point_form(t2)
    factor = math.exp(2.0 * tol)

    def stop(lower, upper):
        return upper <= lower * factor

    res = certified_sup(num, den, stop, cap=cap)
    value = 0.5 * math.log(res.lower)
    closed = teich_distance(t1, t2)
    return KerckhoffResult(value, closed, res.witness, res.nodes, res.certified)


def ext_sup_enumeration(
    tau: UpperHalfPoint, f: WeightedTorusFoliation, tol: float, cap: int = 10**6
) -> SupResult:
    """Enumerate sup_gamma i(f, gamma)^2 / Ext_tau(gamma) from below.

    Converges to extremal_length(tau, f) within ``tol`` (absolute).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    w2 = float(f.weight) ** 2
    num = tuple(w2 * v for v in curve_form(f.curve))
    den = point_form(tau)

    def stop(lower, upper):
        return upper - lower <= tol

    return certified_sup(num, den, stop, cap=cap)


# ---------------------------------------------------------------------------
# Geodesics


@dataclass
class TorusGeodesic:
    """Hyperbolic geodesic between two boundary slopes, Teichmueller-unit
    parametrized (hyperbolic speed 2); point_at(t) -> endpoint_a as t -> inf."""

    endpoint_a: object
    endpoint_b: object
    point_at: Callable[[float], UpperHalfPoint] = field(repr=False)


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


def tangent_point(
    f: WeightedTorusFoliation,
    s,
    g: WeightedTorusFoliation,
    tol: float = 1e-12,
) -> UpperHalfPoint:
    """Unique point on the (f, g) geodesic with Ext(f) = s.

    Bisection on the geodesic parameter; Ext(f) is strictly decreasing
    toward f's endpoint.
    """
    if not s > 0:
        raise ValueError("level must be positive")
    geo = geodesic_between(f.curve, g.curve)
    target = float(s)

    def h(t):
        return extremal_length(geo.point_at(t), f)

    lo, hi = -1.0, 1.0
    while h(lo) < target:
        lo *= 2.0
        if lo < -350:
            raise ArithmeticError("bracket expansion failed")
    while h(hi) > target:
        hi *= 2.0
        if hi > 350:
            raise ArithmeticError("bracket expansion failed")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if h(mid) > target:
            lo = mid
        else:
            hi = mid
    return geo.point_at(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# Horospheres


def _normalize_level(weight, level):
    return Fraction(level) / Fraction(weight) ** 2


@dataclass(frozen=True)
class HoroSpec:
    """Horosphere {Ext(.)(foliation) = level}, stored weight-normalized.

    (k * weight, k^2 * level) and (weight, level) normalize to identical
    records, realizing the scaling identity of horospheres.
    """

    foliation: WeightedTorusFoliation
    level: Fraction

    @staticmethod
    def create(f: WeightedTorusFoliation, level) -> "HoroSpec":
        if not level > 0:
            raise ValueError("level must be positive")
        norm = _normalize_level(f.weight, level)
        return HoroSpec(WeightedTorusFoliation(Fraction(1), f.curve), norm)

    @property
    def curve(self) -> TorusCurve:
        return self.foliation.curve


def horocycle_point(f: WeightedTorusFoliation, level, sigma: float) -> UpperHalfPoint:
    """Point of HS(f, level) at horocycle-flow parameter sigma."""
    c = f.curve
    lvl = float(_normalize_level(f.weight, level))
    if c.q == 0:
        return UpperHalfPoint(sigma, c.p * c.p / lvl)
    y0 = c.q * c.q / lvl
    cx = -c.p / c.q
    denom = sigma * sigma + y0 * y0
    return UpperHalfPoint(cx - sigma / denom, y0 / denom)


def horocycle_samples_ext(
    f: WeightedTorusFoliation,
    s,
    g: WeightedTorusFoliation,
    sigmas: np.ndarray,
) -> np.ndarray:
    """Vectorized Ext(g) at horocycle-flow samples of HS(f, s)."""
    c = f.curve
    lvl = float(_normalize_level(f.weight, s))
    sig = np.asarray(sigmas, dtype=float)
    if c.q == 0:
        x = sig
        y = np.full_like(sig, c.p * c.p / lvl)
    else:
        y0 = c.q * c.q / lvl
        denom = sig * sig + y0 * y0
        x = -c.p / c.q - sig / denom
        y = y0 / denom
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
    if all(is_exact(v) for v in vals):
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
    target = Fraction(target) if is_exact(target) else target
    va = (alpha.p, alpha.q)
    vb = (beta.p, beta.q)

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
            p = u * va[0] + w * vb[0]
            q = u * va[1] + w * vb[1]
            g = math.gcd(abs(p), abs(q))
            return TorusCurve(p // g, q // g)
        if ratio < target:
            lo = (u, w)
        else:
            hi = (u, w)
    u, w = best
    p = u * va[0] + w * vb[0]
    q = u * va[1] + w * vb[1]
    g = math.gcd(abs(p), abs(q))
    raise EnumerationBudgetError(
        f"ratio search budget exhausted; best ratio {Fraction(w, u)} "
        f"at curve ({p // g}, {q // g})",
        float(Fraction(w, u)),
    )


# ---------------------------------------------------------------------------
# Equidistance


@dataclass
class EquidistanceReport:
    expected: float
    distances: list
    max_error: float
    unique_feet: bool
    ok: bool


def _distance_to_horocycle(
    x: UpperHalfPoint, f: WeightedTorusFoliation, level, span: float = 64.0
):
    """min over the horocycle HS(f, level) of the Teichmueller distance,
    together with the number of distinct numerical local minima."""

    def dist(sigma):
        return teich_distance(x, horocycle_point(f, level, sigma))

    grid = np.linspace(-span, span, 1441)
    vals = np.array([dist(s) for s in grid])
    k = int(np.argmin(vals))
    lo = float(grid[max(k - 1, 0)])
    hi = float(grid[min(k + 1, len(grid) - 1)])
    # golden-section refinement inside the grid bracket; dmin is the least
    # value seen, so it is always attained at an evaluated point
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fa, fb = dist(a), dist(b)
    dmin = min(float(vals[k]), fa, fb)
    while hi - lo > 1e-12:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - shrink * (hi - lo)
            fa = dist(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + shrink * (hi - lo)
            fb = dist(b)
        dmin = min(dmin, fa, fb)

    # count near-global minima as clusters; merge runs separated by a gap
    # of at most two grid cells so float noise in flat basins is not split
    near = np.flatnonzero(vals <= vals.min() + 1e-4)
    clusters = 0
    prev_idx = None
    for idx in near:
        if prev_idx is None or idx - prev_idx > 3:
            clusters += 1
        prev_idx = idx
    return dmin, clusters


def equidistance_check(
    f: WeightedTorusFoliation,
    s,
    t,
    samples: int,
    tol: float = 1e-6,
    seed: int = 0,
) -> EquidistanceReport:
    """Distance from points of HS(f, s) to HS(f, t) equals (1/2) log(t/s)."""
    if not (0 < s <= t):
        raise ValueError("need 0 < s <= t")
    expected = 0.5 * math.log(float(t) / float(s))
    rng = np.random.default_rng(seed)
    sigmas = rng.uniform(-4.0, 4.0, size=samples)
    distances = []
    unique = True
    if s == t:
        return EquidistanceReport(0.0, [0.0] * samples, 0.0, True, True)
    for sigma in sigmas:
        x = horocycle_point(f, s, float(sigma))
        d, clusters = _distance_to_horocycle(x, f, t)
        distances.append(d)
        if clusters != 1:
            unique = False
    max_err = max(abs(d - expected) for d in distances)
    return EquidistanceReport(expected, distances, max_err, unique, max_err <= tol and unique)


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
    return 0.5 * math.log(extremal_length(x, f) / extremal_length(x0, f))


def busemann_limit(
    x0: UpperHalfPoint,
    f: WeightedTorusFoliation,
    x: UpperHalfPoint,
    tol: float,
    slack: float = 1e-9,
) -> float:
    """Definition-based Busemann value: limit of d(x, ray(t)) - t.

    Runs ``horolab.busemann_estimate`` on the torus backend and raises
    MonotonicityError unless that estimate is certified."""
    from . import horolab

    est = horolab.busemann_estimate(x0, f, x, horolab.TorusBackend(), tol=tol, slack=slack)
    if not est.certified:
        raise MonotonicityError(f"Busemann sequence not certified: {est.trace}")
    return est.value


def ray_distance_minus_t(
    minv: Mat2, u0: float, y: UpperHalfPoint, t: float
) -> float:
    """Stable D(t) = d_T(y, ray(t)) - t, valid for very large t.

    Works with logarithms so that e^{2t} is never formed."""
    z = mobius_apply(minv, y)
    log_r2 = math.log(z.x * z.x + z.y * z.y)
    log_u = math.log(u0) + 2.0 * t
    # w = (|z|^2 + u^2) / (2 * Im(z) * u)
    hi, lo = max(log_r2, 2.0 * log_u), min(log_r2, 2.0 * log_u)
    log_num = hi + math.log1p(math.exp(lo - hi))
    log_w = log_num - math.log(2.0 * z.y) - log_u
    if log_w > 30.0:
        d_hyp = log_w + math.log(2.0)
    else:
        d_hyp = math.acosh(max(math.exp(log_w), 1.0))
    return 0.5 * d_hyp - t


@dataclass
class BallLimitEntry:
    point: UpperHalfPoint
    busemann_value: float
    memberships: list
    classification: str  # "inside", "outside", "inconclusive"
    nested: bool


@dataclass
class BallLimitReport:
    entries: list
    ok: bool
    inconclusive: list


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
    minv = m.inverse()
    entries = []
    inconclusive = []
    ok = True
    for y in sample:
        b = busemann(x0, f, y)
        memberships = []
        nested = True
        entered = False
        final_d = None
        for k in range(k_max + 1):
            t = float(2**k)
            d = ray_distance_minus_t(minv, u0, y, t)
            final_d = d
            member = d < 0.0
            if entered and not member:
                nested = False
            entered = entered or member
            memberships.append(member)
        if abs(final_d) <= boundary_tol:
            cls = "inconclusive"
            inconclusive.append(y)
        elif final_d < 0:
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
