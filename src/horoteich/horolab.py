"""Model-agnostic horoball algebra over a geometry backend.

A backend supplies only geometry for one concrete model, in four methods:
``ext(point, f)``, a Bracket on the extremal length of f at point;
``intersect(f, g)``, the intersection pairing as a Fraction;
``subfoliation_coeffs(f, g)``, the Fraction coefficients a_i with f = sum a_i *
(components of g), else None; and ``horosphere_sampler(f, level)``, points at
the horosphere {Ext(f) = level} (the torus sampler's are certified in HB(f,
level), within 2^-40 of HS(f, level)).  The torus backend also has
``ray_excess(x0, f, x)``, torus's step j -> (D(t) bracket, tail) at e^{2t} =
2^j, for the Busemann machinery.  Proportionality, the sup of Ext
over a horoball, the relations between horoballs (tangency, disjointness,
nesting) and the Busemann machinery are implemented here once.

Levels, pairings and sup bounds are exact rationals (a float level is the
rational it denotes), so every relation is an exact comparison; Ext is known
only up to its bracket, so a sample excludes only when the bracket's lower
end lies above the level.  This module imports neither model; each backend
imports its own on first use and calls only its public names.
"""
from __future__ import annotations

import importlib
import math
from fractions import Fraction

from .kernel import Bracket, Frozen, Record, _up, round_ratio

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
        self.__dict__.update(foliation=foliation, level=Fraction(level))


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
    sigmas = (0.0, *(sign * 2.0**k for k in range(21) for sign in (1.0, -1.0)))
    shrink = 1 - Fraction(1, 2**40)

    def ext(self, point, f) -> Bracket:
        """Bracket on Ext at a point with rational (double, int or Fraction)
        coordinates: the exact torus.ext_ratio rounded outward once, [max double,
        inf] past the doubles."""
        n, d = self.model.ext_ratio(point, f)
        try:
            return Bracket(round_ratio(n, d, -math.inf), round_ratio(n, d, math.inf))
        except OverflowError:
            return Bracket(math.nextafter(math.inf, 0.0), math.inf)

    def intersect(self, f, g):
        return self.model.foliation_intersection(f, g)

    def subfoliation_coeffs(self, f, g):
        # indecomposable model: sub-foliation means proportional
        return [Fraction(f.weight) / Fraction(g.weight)] if f.curve == g.curve else None

    def horosphere_sampler(self, f, level):
        """Points of HB(f, level) near HS(f, level), lazily: the chart points of
        HS(f, level shrink) at the sigmas, less those that are not doubles, each kept
        only where its exact Ext, torus.ext_ratio's n / d, is at most the level."""
        level = Fraction(level)
        at = self.model.horocycle(f, level * self.shrink)
        for sigma in self.sigmas:
            try:
                p = at(sigma)
            except ValueError:
                continue
            n, d = self.model.ext_ratio(p, f)
            if n * level.denominator <= d * level.numerator:
                yield p

    def ray_excess(self, x0, f, x):
        """j -> (Bracket on D(t), bound on D(t) - B) where e^{2t} = 2^j, for
        D(t) = d(x, ray(t)) - t, B = lim D(t) (see torus.ray_excess)."""
        return self.model.ray_excess(x0, f)(x)


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
        return [x] + [self.model.horocycle_flow(x, sign * 2**k)
                      for k in range(11) for sign in (1, -1)]


# ---------------------------------------------------------------------------
# Relations


def _common_ratio(coeffs):
    """The one nonzero k when every coefficient equals k, else None."""
    return coeffs[0] if coeffs and coeffs[0] != 0 and len(set(coeffs)) == 1 else None


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
    # value +- radius encloses B; trace: (t, midpoint of D(t)) pairs
    _fields = ("value", "radius", "certified", "trace", "reason")


BUSEMANN_STEPS = 8  # ray times tried before an estimate is not_settled


def busemann_estimate(x0, f, x, backend, tol: float = 1e-9) -> BusemannEstimate:
    """Definition-based Busemann value B = lim D(t), D(t) = d(x, ray(t)) - t.

    D falls to B, and the backend brackets D(t) where e^{2t} = 2^j with a
    bound on D(t) - B, so each step puts B in [D_lo - tail, D_hi]; at j = 0,
    D(0) = d(x0, x) also gives B >= -d(x0, x).  Each next j is where the
    tail, whose argument falls as 4^-j, drops below tol / 2 and 2^-51.
    value +- radius is the intersection of these brackets, certified when
    radius <= tol with two or more of them; else reason is "not_monotone"
    (a bracket above an earlier one or below B's lower end), "precision"
    (the tail is within D(t)'s rounding) or "not_settled" (BUSEMANN_STEPS
    steps)."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    excess = backend.ray_excess(x0, f, x)
    trace, reason, lo, hi, j = [], "not_settled", -math.inf, math.inf, 0
    for _ in range(BUSEMANN_STEPS):
        d, tail = excess(j)
        if d.lo > hi or d.hi < lo:
            reason = "not_monotone"
            break
        lo = max(lo if j else -d.hi, math.nextafter(d.lo - tail, -math.inf))  # -D(0) = -d(x0, x)
        hi = min(hi, d.hi)
        trace.append((0.5 * j * math.log(2.0), 0.5 * (d.lo + d.hi)))
        value = 0.5 * (lo + hi)
        radius = _up(max(value - lo, hi - value))
        if radius <= tol and j:  # certified only past a check against a second bracket
            reason = None
            break
        if radius > tol and tail <= d.width:
            reason = "precision"
            break
        # tail <= log1p(q) / 2, and q falls as 4^-j: step j until q is below tol and 2^-50,
        # so that the tail is below D(t)'s own rounding too, at no extra step
        log_q = 2.0 * tail + math.log(-math.expm1(-2.0 * tail))
        j += max(1, math.ceil((log_q - math.log(min(tol, 2.0**-50))) / (2.0 * math.log(2.0))))
    return BusemannEstimate(value, radius, reason is None, trace, reason)


# ---------------------------------------------------------------------------
# Inclusion probes


class ProbeResult(Record):
    _fields = ("tag", "witness", "bound", "witness_ext")

    def __init__(self, tag, witness=None, bound=None, witness_ext=None):
        self.__dict__.update(tag=tag, witness=witness, bound=bound, witness_ext=witness_ext)


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
