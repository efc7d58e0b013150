"""Model-agnostic horoball algebra over a geometry backend.

A backend supplies only geometry for one concrete model, in four methods:
``ext(point, f)``, a Bracket on the extremal length of f at point;
``intersect(f, g)``, the intersection pairing as a Fraction;
``subfoliation_coeffs(f, g)``, the Fraction coefficients a_i with f = sum a_i *
(components of g), else None; and ``horosphere_sampler(f, level)``, points of
the horosphere {Ext(f) = level}.  The torus backend also has ``distance`` and
``ray`` for the Busemann machinery.  Proportionality, the sup of Ext over a
horoball, the relations between horoballs (tangency, disjointness, nesting)
and the Busemann machinery are implemented here once.

Levels, pairings and sup bounds are exact rationals (a float level is the
rational it denotes), so every relation is an exact comparison; Ext is known
only up to its bracket, so a sample excludes only when the bracket's lower
end lies above the level.  This module imports neither model; each backend
imports its own on first use.
"""
from __future__ import annotations

import importlib
import math
from fractions import Fraction

from .kernel import Bracket, Frozen, Record, UpperHalfPoint, _set

# HoroRelation tags
DISJOINT_BALLS = "DisjointBalls"
TANGENT = "Tangent"
OVERLAPPING = "Overlapping"
NESTED_FORWARD = "NestedForward"
NESTED_BACKWARD = "NestedBackward"
UNDECIDED = "Undecided"

INCLUDED_CERTIFIED = "IncludedCertified"
EXCLUDED_WITNESS = "ExcludedWitness"
INCONCLUSIVE = "Inconclusive"


class HoroBall(Frozen):
    """Sub-level set {Ext(.)(foliation) <= level} in backend terms; the level
    is kept as the exact rational it denotes."""

    _fields = ("foliation", "level")

    def __init__(self, foliation, level):
        if not level > 0:
            raise ValueError("level must be positive")
        _set(self, "foliation", foliation)
        _set(self, "level", Fraction(level))


class HoroRelation(Record):
    _fields = ("tag", "detail")

    @property
    def decided(self) -> bool:
        return self.tag != UNDECIDED


class _Model:
    """Class attribute that becomes the module horoteich.<name> on first use."""

    def __init__(self, name):
        self.name = name

    def __get__(self, obj, cls):
        cls.model = importlib.import_module(f"{__package__}.{self.name}")
        return cls.model


# ---------------------------------------------------------------------------
# Torus backend


class TorusBackend:
    """Exact upper half-plane model; points are UpperHalfPoint."""

    model = _Model("torus")

    def ext(self, point, f) -> Bracket:
        """Bracket for Ext at a point with double coordinates: the 5
        roundings of _ext widened by 2^-49 (16 u, as in the torus module's
        sup bounds), times the weight squared rounded outward; [0, inf]
        where _ext is out of range."""
        c = f.curve
        e = self.model._ext(c.p, c.q, *point.x.as_integer_ratio(), point.y)
        if e is None:
            return Bracket(0.0, math.inf)
        unit = Bracket(e * (1.0 - 2.0**-49), e * (1.0 + 2.0**-49))
        return unit.mul_nonneg(f.weight_squared)

    def intersect(self, f, g):
        return self.model.foliation_intersection(f, g)

    def subfoliation_coeffs(self, f, g):
        # indecomposable model: sub-foliation means proportional
        return [Fraction(f.weight) / Fraction(g.weight)] if f.curve == g.curve else None

    def horosphere_sampler(self, f, level):
        at = self.model._horocycle(f, level)[0]
        sigmas = [0.0] + [sign * 2.0**k for k in range(21) for sign in (1.0, -1.0)]
        return [UpperHalfPoint(*at(s)) for s in sigmas]

    def distance(self, x, y):
        return self.model.teich_distance(x, y)

    def ray(self, x0, f):
        ray, _, _ = self.model.torus_ray(x0, f)
        return ray


# ---------------------------------------------------------------------------
# Origami backend


class OrigamiBackend:
    """Flat-surface model over one origami; points are MarkedFlatSurface,
    foliations are MulticurveFoliation values on that origami."""

    model = _Model("origami")

    def __init__(self, o):
        self.origami = o
        self._cores = {}

    def _core(self, cyl):
        if cyl not in self._cores:
            self._cores[cyl] = self.model.core_trace(self.origami, cyl)
        return self._cores[cyl]

    def ext(self, point, f) -> Bracket:
        """Bracket for Ext of the weighted multicurve.

        Lower bound: the largest component bound (Ext(F_i) <= Ext(F)).
        Upper bound: sum of weighted reciprocal cylinder moduli (the
        disjoint embedded annuli give a joint competitor), each addition
        rounded up."""
        lo = 0.0
        hi = 0.0
        for w, cyl in f.components:
            b = self.model.ext_bracket(self._core(cyl), point, w * w)
            lo = max(lo, b.lo)
            hi = math.nextafter(hi + b.hi, math.inf)
        return Bracket(lo, hi)

    def intersect(self, f, g):
        total = Fraction(0)
        for wf, cf in f.components:
            for wg, cg in g.components:
                total += (
                    Fraction(wf)
                    * Fraction(wg)
                    * self.model.crossing_number(self._core(cf), self._core(cg))
                )
        return total

    def subfoliation_coeffs(self, f, g):
        by_cyl = {c: Fraction(w) for w, c in g.components}
        if len(by_cyl) != len(g.components):
            return None
        coeffs = {c: Fraction(0) for c in by_cyl}
        for w, c in f.components:
            if c not in by_cyl:
                return None
            coeffs[c] = Fraction(w) / by_cyl[c]
        return [coeffs[c] for _, c in g.components]

    def horosphere_sampler(self, f, level):
        """Horocycle-flow orbit points at the ray time where the vertical
        extremal length crosses the level; approximate for generic f."""
        base = self.model.MarkedFlatSurface.base_point(self.origami)
        e0 = self.ext(base, f)
        mid = 0.5 * (e0.lo + e0.hi)
        t = 0.5 * math.log(mid / float(level))
        x = self.model.geodesic_flow(base, t=t)
        pts = [x]
        for k in range(11):
            pts.append(self.model.horocycle_flow(x, 2**k))
            pts.append(self.model.horocycle_flow(x, -2**k))
        return pts


# ---------------------------------------------------------------------------
# Relations


def _common_ratio(coeffs):
    """The one nonzero k when every coefficient equals k, else None."""
    return coeffs[0] if coeffs and coeffs[0] != 0 and len(set(coeffs)) == 1 else None


def proportionality(f, g, backend):
    """k with f = k*g as measured foliations, else None."""
    return _common_ratio(backend.subfoliation_coeffs(f, g))


def sup_on_horoball(f1, level1, f2, backend):
    """sup of Ext(f2) over HB(f1, level1): inf, None, or a finite bound, a
    Fraction for the Fraction level of a HoroBall.

    f2 = c*f1: exactly c^2 * level1, since Ext(cF) = c^2 Ext(F).  Other
    sub-foliations f2 = sum a_i * (k components of f1): the paper constant
    (sum a_i^2) * k * level1.  Transverse (i(f1, f2) > 0): infinite, as
    horocycle-flow growth is unbounded.  Otherwise no bound is known."""
    coeffs = backend.subfoliation_coeffs(f2, f1)
    if coeffs is None:
        return math.inf if backend.intersect(f1, f2) > 0 else None
    c = _common_ratio(coeffs)
    if c is not None:
        return c * c * level1
    return sum(a * a for a in coeffs) * len(coeffs) * level1


def classify(h1, h2, backend) -> HoroRelation:
    """Relation between two horoballs.

    With i = i(f1, f2) > 0 the product of levels against i^2, compared
    exactly, decides tangent/disjoint/overlapping.  With i = 0, a Nested tag
    means the second ball's family eventually sits inside the first's (the
    first foliation is a scaled sub-foliation of the second); ties between
    proportional foliations nest by normalized level.
    """
    f1, l1 = h1.foliation, h1.level
    f2, l2 = h2.foliation, h2.level
    i = backend.intersect(f1, f2)
    if i > 0:
        prod, isq = l1 * l2, i * i
        tag = TANGENT if prod == isq else DISJOINT_BALLS if prod < isq else OVERLAPPING
        return HoroRelation(tag, {"product": prod, "i_squared": isq})

    coeffs = backend.subfoliation_coeffs(f1, f2)
    k = _common_ratio(coeffs)
    if k is not None:
        # same projective class: HB(f2, l2) = {Ext(f1) <= k^2 l2}
        eff2 = k * k * l2
        tag = NESTED_FORWARD if eff2 <= l1 else NESTED_BACKWARD
        return HoroRelation(tag, {"ratio": k, "level1": l1, "level2_in_f1": eff2})
    if coeffs is not None:
        return HoroRelation(NESTED_FORWARD, {"reason": "f1 is a sub-foliation of f2"})
    if backend.subfoliation_coeffs(f2, f1) is not None:
        return HoroRelation(NESTED_BACKWARD, {"reason": "f2 is a sub-foliation of f1"})
    return HoroRelation(UNDECIDED, {"reason": "disjoint, not comparable"})


# ---------------------------------------------------------------------------
# Busemann estimation


class BusemannEstimate(Record):
    _fields = ("value", "certified", "trace", "reason")  # trace: (t, D(t)) pairs


# Last ray time evaluated: the torus ray forms e^{2t}, which overflows a
# double past t = 355, so doubling beyond 2^8 cannot be evaluated.
BUSEMANN_T_MAX = 2.0**8
BUSEMANN_SLACK = 1e-9  # rounding allowed in each monotonicity and floor test
# D(t) = d(x, ray(t)) - t rounds by at most 16 u (u = 2^-53) per unit of 1 + t + |D(t)|: the
# distance formula and the ray point give ~10 u, the last roundings of d and of - t u each.
BUSEMANN_ROUNDING = 2.0**-49


def busemann_estimate(x0, f, x, backend, tol: float = 1e-9) -> BusemannEstimate:
    """Definition-based Busemann value lim d(x, G(t)) - t.

    Doubles t until two successive values agree within tol; certified needs
    monotone non-increase above the -d(x0, x) floor, tol at least D(t)'s rounding
    error and agreement by t = BUSEMANN_T_MAX; reason names the first that fails,
    or is "range" once a ray point (ValueError) or D(t) leaves the doubles.  The
    value is the last D(t), None if there is none."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    ray = backend.ray(x0, f)
    floor = -backend.distance(x0, x)
    trace, reason, settled, t = [], None, False, 1.0
    while t <= BUSEMANN_T_MAX and not settled:
        try:
            cur = backend.distance(x, ray(t)) - t
        except ValueError:  # a ray point beyond the doubles
            cur = math.inf
        if not math.isfinite(cur):
            reason = "range"
            break
        if trace:
            prev = trace[-1][1]
            if cur > prev + BUSEMANN_SLACK or cur < floor - BUSEMANN_SLACK:
                reason = "not_monotone"
            settled = abs(cur - prev) < tol
        trace.append((t, cur))
        t *= 2.0
    if not trace:
        return BusemannEstimate(None, False, trace, reason)
    t, cur = trace[-1]
    if reason is None and tol < BUSEMANN_ROUNDING * (1.0 + t + abs(cur)):
        reason = "precision"
    elif reason is None and not settled:
        reason = "not_settled"
    return BusemannEstimate(cur, reason is None, trace, reason)


# ---------------------------------------------------------------------------
# Inclusion probes


class ProbeResult(Record):
    _fields = ("tag", "witness", "bound", "witness_ext")
    _defaults = {"witness": None, "bound": None, "witness_ext": None}


def inclusion_probe(h1, h2, backend) -> ProbeResult:
    """Is HB(f1, level1) contained in HB(f2, level2)?

    A sample point of HS(f1, level1) with certified Ext(f2) above level2
    excludes; a certified sup bound at or below level2 includes; otherwise
    inconclusive."""
    f1, l1 = h1.foliation, h1.level
    f2, l2 = h2.foliation, h2.level
    bound = sup_on_horoball(f1, l1, f2, backend)
    if bound is not None and bound <= l2:
        return ProbeResult(INCLUDED_CERTIFIED, bound=bound)
    for p in backend.horosphere_sampler(f1, l1):
        e = backend.ext(p, f2)
        if e.lo > l2:
            return ProbeResult(EXCLUDED_WITNESS, witness=p, witness_ext=e, bound=bound)
    return ProbeResult(INCONCLUSIVE, bound=bound)
