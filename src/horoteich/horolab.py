"""Model-agnostic horoball algebra over a geometry backend.

A backend supplies only geometry for one concrete model, in five methods:
``ext(point, f)``, a Bracket on the extremal length of f at point;
``intersect(f, g)``, the intersection pairing as a Fraction;
``subfoliation_coeffs(f, g)``, the Fraction coefficients a_i with f = sum a_i *
(components of g), else None; ``fills(f, g)``, True where every curve meets f or
g (None where not decided); and ``horosphere_sampler(h1, h2)``, which returns one
point, computed from both balls, that may show HoroBall h1 does not lie in h2.  The
torus backend also has ``ray_excess(x0, f, x)``, torus.ray_excess's step j ->
(D(t) bracket, tail) at e^{2t} = 2^j, for the Busemann machinery.  Proportionality,
the sup of Ext over a horoball, the relations between horoballs, the exclusion
witness rule and the Busemann machinery are implemented here once.

Levels, pairings and sup bounds are exact rationals (a float level is the
rational it denotes), so every relation is an exact comparison.  This module
imports neither model; each backend imports its own on first use and calls
only its public names.
"""
from __future__ import annotations

import importlib
import math
from fractions import Fraction

from .kernel import Bracket, Frozen, Record, _up, ratio_ends

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
        if level == math.inf:
            raise ValueError("level must be finite")
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
    """Exact upper half-plane model; points are UpperHalfPoint (the sampler's in Fractions)."""

    model = _Model("torus")
    shrink = 1 - Fraction(1, 2**40)

    def ext(self, point, f) -> Bracket:
        """Ext at a double, int or Fraction point, exact, rounded outward (ratio_ends)."""
        n, d = self.model.ext_ratio(point, f)
        return Bracket(*ratio_ends(n, d))

    def intersect(self, f, g):
        return Fraction(f.weight) * Fraction(g.weight) * self.model.intersection(f.curve, g.curve)

    def subfoliation_coeffs(self, f, g):
        # indecomposable model: sub-foliation means proportional
        return [Fraction(f.weight) / Fraction(g.weight)] if f.curve == g.curve else None

    def fills(self, f, g):
        return f.curve != g.curve  # every curve crosses one of two distinct classes

    def horosphere_sampler(self, h1, h2):
        """One proposal, exact: torus.horocycle_witness's point of HS(f1, level1 shrink) with
        Ext_f2 >= level2 (1 + 2^-40) for a transverse f2; both margins outlast ext's rounding."""
        return self.model.horocycle_witness(h1.foliation, h1.level * self.shrink,
                                            h2.foliation, h2.level)

    def ray_excess(self, x0, f, x):
        """j -> (Bracket on D(t), bound on D(t) - B) where e^{2t} = 2^j, for
        D(t) = d(x, ray(t)) - t, B = lim D(t) (see torus.ray_excess)."""
        return self.model.ray_excess(x0, f, x)


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

    def fills(self, f, g):
        """True where f and g hold every cylinder of two directions (they fill), else None."""
        o, cylinders = self.origami, self.model.cylinders
        return f.direction != g.direction and all(
            {c for _, c in h.components} == set(cylinders(o, h.direction)) for h in (f, g)) or None

    def horosphere_sampler(self, h1, h2):
        """One proposal: the base point flowed by diag(s, 1/s) for a vertical f1, diag(1/s, s)
        for a horizontal one, dividing f1's bracket ends and multiplying a transverse f2's lower
        end by s^2, exactly; a parallel f2 scales with f1 on the whole SL(2, R) orbit."""
        base = self.model.MarkedFlatSurface.base_point(self.origami)
        f1, f2 = h1.foliation, h2.foliation
        lo2 = self.ext(base, f2).lo if f2.direction != f1.direction else 0.0
        # s^2 > r: in HB(h1), and out of HB(h2) unless lo2 is 0.0 (parallel; weights below ~2^-537)
        r = max(Fraction(self.ext(base, f1).hi) / h1.level, h2.level / Fraction(lo2) if lo2 else 0)
        # s = (isqrt(ceil(r 4^j)) + 1) / 2^j: s^2 >= r + 4^-j > r (1 + 2^-42), as r 4^j < 2^42
        t = Fraction(2) ** (20 - (r.numerator.bit_length() - r.denominator.bit_length()) // 2)
        s = (math.isqrt(math.ceil(r * t * t)) + 1) / t
        vertical = f1.direction == self.model.VERTICAL
        return self.model.geodesic_flow(base, stretch=s if vertical else 1 / s)


# ---------------------------------------------------------------------------
# Relations


def sup_on_horoball(f1, level1, f2, backend):
    """sup of Ext(f2) over HB(f1, level1): inf, None, or a finite bound, a
    Fraction for the Fraction level of a HoroBall.

    Sub-foliation f2 = sum a_i w_i g_i of f1 = sum w_i g_i: (max a_i)^2 * level1.
    Ext(sum v_i g_i) = sup over metrics rho of (sum v_i l_rho(g_i))^2 / Area(rho)
    (Kerckhoff 1980) is monotone in the weights v_i, so Ext(f2) <= Ext(max a_i *
    f1) = (max a_i)^2 Ext(f1), as Ext(cF) = c^2 Ext(F); with every a_i = c
    this is the exact sup c^2 * level1.  Transverse (i(f1, f2) > 0): infinite,
    as horocycle-flow growth is unbounded.  Otherwise no bound is known."""
    coeffs = backend.subfoliation_coeffs(f2, f1)
    if coeffs is None:
        return math.inf if backend.intersect(f1, f2) > 0 else None
    return max(coeffs) ** 2 * level1


def classify(h1, h2, backend) -> HoroRelation:
    """Relation between two horoballs.

    With i = i(f1, f2) > 0 the product of levels against i^2, compared
    exactly, decides disjoint/tangent/overlapping, the last two only for a pair
    that fills (else Undecided).  With i = 0, a Nested tag
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
        detail = {"product": prod, "i_squared": isq}
        if tag != DISJOINT_BALLS and not backend.fills(f1, f2):
            tag, detail["reason"] = UNDECIDED, "the pair is not known to fill"
        return HoroRelation(tag, detail)

    coeffs = backend.subfoliation_coeffs(f1, f2)
    if coeffs and len(set(coeffs)) == 1:
        # same projective class: HB(f2, l2) = {Ext(f1) <= k^2 l2}
        k = coeffs[0]
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

    A certified sup bound at or below level2 includes.  Else the one point that
    ``backend.horosphere_sampler(h1, h2)`` proposes excludes, as a witness, when
    its Ext(f2) bracket lies above level2 and its Ext(f1) bracket at or below
    level1, each double bracket end compared with its rational level exactly;
    otherwise inconclusive."""
    f1, l1 = h1.foliation, h1.level
    f2, l2 = h2.foliation, h2.level
    bound = sup_on_horoball(f1, l1, f2, backend)
    if bound is not None and bound <= l2:
        return ProbeResult(INCLUDED_CERTIFIED, bound=bound)
    p = backend.horosphere_sampler(h1, h2)
    e = backend.ext(p, f2)
    if e.lo > l2 and backend.ext(p, f1).hi <= l1:
        return ProbeResult(EXCLUDED_WITNESS, witness=p, witness_ext=e, bound=bound)
    return ProbeResult(INCONCLUSIVE, bound=bound)
