"""Square-tiled translation surfaces (origamis) with exact combinatorics.

An origami is a pair of permutations (h, v) of the unit squares: h names the
square to the right, v the square on top.  Points on the SL(2,R) orbit carry
a 2x2 deformation matrix acting on (x, y) coordinates, four integers over one
denominator (the flows take a double parameter at its exact value), so flat
lengths, crossing counts and transverse measures are exact.

Coordinate convention: vectors are (x, y); the geodesic flow is
diag(e^t, e^{-t}) and the horocycle flow is the lower-triangular shear
(x, y) -> (x, y + s*x), which fixes dx and therefore the vertical foliation.
"""
from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from functools import cached_property
from operator import eq
from typing import Sequence

from .kernel import Bracket, Frozen, Mat2, Record, TraceNotClosed, round_ratio

HORIZONTAL = "horizontal"
VERTICAL = "vertical"
_ZERO, _HALF, _ONE = Fraction(0), Fraction(1, 2), Fraction(1)
_BEYOND_DOUBLES = "a value is beyond the double range"


class SingularityHit(ValueError):  # the start point is a bad argument
    """A trace ran into a vertex; ``robust_trace`` owns the one retry rule."""


def _ratio(v):
    """(n, d) in lowest terms with v = n / d, d > 0; ValueError for a NaN or an infinity."""
    try:
        return v.as_integer_ratio()
    except OverflowError as e:  # an infinity (a NaN raises ValueError)
        raise ValueError(*e.args) from None


# ---------------------------------------------------------------------------
# Permutation helpers (tuples of 0-based images)


def _inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _cycles(p):
    """The cycles of p, and the index of each point's cycle."""
    label, out = [None] * len(p), []
    for i in range(len(p)):
        if label[i] is None:
            k, cyc = len(out), [i]
            for j in cyc:  # grows while it is walked
                label[j] = k
                if p[j] != i:
                    cyc.append(p[j])
            out.append(tuple(cyc))
    return out, label


def _is_permutation(p) -> bool:
    return sorted(p) == list(range(len(p)))


# ---------------------------------------------------------------------------
# Origami


class Origami(Frozen):
    """Connected square-tiled surface given by right/top gluings; its
    ``_cylinders`` cache and cached properties are not fields."""

    _fields = ("h", "v")

    def __init__(self, h: tuple, v: tuple):
        self.__dict__.update(h=h, v=v, _cylinders={})
        if len(h) != len(v):
            raise ValueError("h and v must act on the same squares")
        if not (_is_permutation(h) and _is_permutation(v)):
            raise ValueError("h and v must be permutations")
        if len(self._orbit(0, bytearray(len(h)))) != len(h):
            raise ValueError(f"disconnected surface; orbits {self._orbit_partition()}")

    def _orbit(self, start, seen):
        """The orbit of an unseen start under h and v alone (on a finite set it is
        closed under their inverses), marked in ``seen`` as it is walked."""
        h, v, orbit = self.h, self.v, [start]
        seen[start] = 1
        for x in orbit:  # grows while it is walked
            y, z = h[x], v[x]
            if not seen[y]:
                seen[y] = 1
                orbit.append(y)
            if not seen[z]:
                seen[z] = 1
                orbit.append(z)
        return orbit

    def _orbit_partition(self):
        seen = bytearray(self.n)
        return [sorted(q + 1 for q in self._orbit(s, seen)) for s in range(self.n) if not seen[s]]

    @property
    def n(self) -> int:
        return len(self.h)

    @cached_property
    def h_inv(self) -> tuple:
        return _inverse(self.h)

    @cached_property
    def v_inv(self) -> tuple:
        return _inverse(self.v)

    @property
    def area(self) -> int:
        return self.n

    @cached_property
    def _corners(self):
        """h v, v h, and a 1 per square where they agree: its top-right corner is regular."""
        h, v = self.h, self.v
        hv, vh = [h[y] for y in v], [v[y] for y in h]
        return hv, vh, bytes(map(eq, hv, vh))

    @cached_property
    def singularities(self) -> tuple:
        """Cone-point orders (multiples of 2*pi in excess angle): the non-trivial cycles of
        (v h)^-1 (h v), less one each; its fixed points, the regular corners, are not walked."""
        hv, vh, regular = self._corners
        back = _inverse(vh)  # (v h)^-1
        seen, orders = bytearray(regular), []
        for x in range(self.n):
            if not seen[x]:
                k, y = 0, x
                while not seen[y]:
                    seen[y] = 1
                    k, y = k + 1, back[hv[y]]
                orders.append(k - 1)
        return tuple(sorted(orders))

    @property
    def genus(self) -> int:
        total = sum(self.singularities)
        return (total + 2) // 2


def build_origami(h: Sequence[int], v: Sequence[int]) -> Origami:
    """Build from 1-based one-line permutation arrays; validates connectivity."""
    return Origami(tuple([x - 1 for x in h]), tuple([x - 1 for x in v]))


# ---------------------------------------------------------------------------
# Cylinders


class CylinderCurve(Frozen):
    # squares: the cycle the core traverses; row_cycles: the rows merged into it
    _fields = ("direction", "squares", "circumference", "height", "row_cycles")

    def __init__(self, direction, squares, circumference, height, row_cycles):
        self.__dict__.update(direction=direction, squares=squares, circumference=circumference,
                             height=height, row_cycles=row_cycles)

    @property
    def holonomy(self):
        if self.direction == HORIZONTAL:
            return (self.circumference, 0)
        return (0, self.circumference)

    @property
    def all_squares(self):
        return tuple(s for row in self.row_cycles for s in row)


def cylinders(o: Origami, direction: str) -> tuple:
    """Maximal cylinders in a periodic direction, cached per origami as this tuple alone.

    Cycles of the direction's permutation are unit bands; a band merges into
    the next one across when every corner on their shared edge is regular.
    """
    if direction == HORIZONTAL:
        along, across = o.h, o.v
    elif direction == VERTICAL:
        along, across = o.v, o.h
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if direction in o._cylinders:
        return o._cylinders[direction]

    cycs, band = _cycles(along)  # unit bands, and the band of each square
    regular = o._corners[2]
    nxt = [band[across[c[0]]] if all(map(regular.__getitem__, c)) else None for c in cycs]
    has_pred = {t for t in nxt if t is not None}
    out, seen = [], bytearray(len(cycs))
    # open chains begin at a band with no predecessor; the rest are loops
    for ci in sorted(range(len(cycs)), key=has_pred.__contains__):
        chain = []
        while ci is not None and not seen[ci]:
            chain.append(ci)
            seen[ci] = 1
            ci = nxt[ci]
        if not chain:
            continue
        core = cycs[chain[0]]
        out.append(CylinderCurve(direction, core, len(core), len(chain),
                                 tuple(cycs[k] for k in chain)))
    o._cylinders[direction] = tuple(out)
    return o._cylinders[direction]


# ---------------------------------------------------------------------------
# Marked points of the SL(2, R) orbit


class MarkedFlatSurface(Frozen):
    """The marking deform = [[a, b], [c, d]] / q, held as the integers ``_m`` =
    (a, b, c, d, q) in lowest terms, q > 0.  ``gram``, not a field: integers with
    |deform (x, y)|^2 / det = (A x^2 + 2 B x y + C y^2) / D, D = ad - bc > 0."""

    _fields = ("base", "deform")

    def __init__(self, base: Origami, deform: Mat2):
        try:
            ratios = [e.as_integer_ratio() for e in (deform.a, deform.b, deform.c, deform.d)]
        except (ValueError, OverflowError):  # a NaN or infinite entry: no determinant
            ratios = [(0, 1)] * 4
        q = math.lcm(*(den for _, den in ratios))
        a, b, c, d = (num * (q // den) for num, den in ratios)
        if not a * d - b * c > 0:
            raise ValueError("deformation must have positive determinant")
        self.__dict__.update(vars(_marked(base, a, b, c, d, q)), deform=deform)

    @cached_property
    def deform(self) -> Mat2:
        a, b, c, d, q = self._m
        return Mat2(Fraction(a, q), Fraction(b, q), Fraction(c, q), Fraction(d, q))

    @staticmethod
    def base_point(o: Origami) -> "MarkedFlatSurface":
        return _marked(o, 1, 0, 0, 1, 1)


def _marked(base: Origami, a, b, c, d, q) -> MarkedFlatSurface:
    """The point marked by [[a, b], [c, d]] / q (q > 0), put in lowest terms."""
    g = math.gcd(a, b, c, d, q)
    a, b, c, d, q = a // g, b // g, c // g, d // g, q // g
    x = object.__new__(MarkedFlatSurface)  # its fields past __init__, from the integers
    x.__dict__.update(base=base, _m=(a, b, c, d, q),
                      gram=(a * a + c * c, a * b + c * d, b * b + d * d, a * d - b * c))
    return x


def geodesic_flow(x: MarkedFlatSurface, t: float = None, stretch=None) -> MarkedFlatSurface:
    """diag(k, 1/k) composed onto the marking, with k the given ``stretch`` or the
    double e^t, each taken as an exact rational."""
    if (t is None) == (stretch is None):
        raise ValueError("give exactly one of t, stretch")
    if stretch is None:
        stretch = math.exp(t) if abs(t) < 710.0 else 0.0
        if not sys.float_info.min <= stretch <= 1.0 / sys.float_info.min:
            raise ValueError(f"geodesic time {t} is out of range")  # e^t or e^-t not normal
    if not stretch > 0:
        raise ValueError("stretch must be positive")
    (kn, kd), (a, b, c, d, q) = _ratio(stretch), x._m
    return _marked(x.base, kn * kn * a, kn * kn * b, kd * kd * c, kd * kd * d, kn * kd * q)


def horocycle_flow(x: MarkedFlatSurface, s) -> MarkedFlatSurface:
    """Shear (x, y) -> (x, y + s*x) by the exact rational s; fixes dx, hence the
    vertical foliation."""
    (sn, sd), (a, b, c, d, q) = _ratio(s), x._m
    return _marked(x.base, sd * a, sd * b, sd * c + sn * a, sd * d + sn * b, sd * q)


def ext_vertical(x: MarkedFlatSurface) -> Fraction:
    """Extremal length of the base vertical foliation (measure |dx|).

    Equals the deformed L1-norm of the defining differential: area at the
    base point, area / k^2 under diag(k, 1/k), horocycle-invariant.
    Exact, n C / D from ``x.gram``.
    """
    _, _, big_c, big_d = x.gram
    return Fraction(x.base.n * big_c, big_d)


def ext_horizontal(x: MarkedFlatSurface) -> Fraction:
    big_a, _, _, big_d = x.gram
    return Fraction(x.base.n * big_a, big_d)


# ---------------------------------------------------------------------------
# Traces: exact piecewise-linear closed flat geodesics


class CurveTrace(Frozen):
    """direction: primitive integer (dx, dy), dx >= 0, or (0, 1) if vertical;
    segments ((square, (x0, y0), (x1, y1)), ...); holonomy (dx_total, dy_total).
    Not fields: ``_cylinder``, the cylinder of a ``core_trace``, else None, and
    the cached ``chains``, the homology that ``crossing_number`` pairs."""

    _fields = ("origami", "direction", "segments", "holonomy")
    _cylinder = None

    @cached_property
    def chains(self):
        """(z, c): integer chains on the edges 2s (the bottom of square s) and 2s + 1
        (its left), from ``segments``.  z, a cycle: each segment slid along its square's
        boundary between the lower-left corners of its entry and exit edges.  c, a
        cochain: its crossings of each edge, signed det(edge, direction).  Over the
        bottom edges z sums to dx_total and c to dy_total, over the left edges to
        dy_total and -dx_total; no entry is 0, as all terms on one edge share a sign."""
        h, v = self.origami.h, self.origami.v
        b = self.direction[1]
        z, c = {}, {}
        for s, (_, y0), (x1, _) in self.segments:
            if x1 == 1:  # exit right: z along the bottom, c on h[s]'s left edge
                z[2 * s] = z.get(2 * s, 0) + 1
                e, sign = 2 * h[s] + 1, -1
            elif b > 0:  # exit top: z up the left edge, c on v[s]'s bottom edge
                z[2 * s + 1] = z.get(2 * s + 1, 0) + 1
                e, sign = 2 * v[s], 1
            else:  # exit bottom
                e, sign = 2 * s, -1
            c[e] = c.get(e, 0) + sign
            if b < 0 and y0 == 1:  # entry from the top: z down the left edge
                z[2 * s + 1] = z.get(2 * s + 1, 0) - 1
        return z, c


def trace_from_point(
    o: Origami,
    square: int,
    point,
    direction,
    max_steps: int = 100000,
) -> CurveTrace:
    """Trace a straight line of rational direction until it closes up.

    ``point`` is an exact (x, y) in [0, 1) x [0, 1]; an interior start is
    replaced by the first edge point reached.  Period form: the line repeats
    the same a + |b| torus segments every period, its square moving by the
    word of h, v, v^-1 it crosses.  Decided up front, in steps (crossings,
    plus one from an interior start): a vertex, met iff b*x - a*y is an
    integer, at a step in closed form (SingularityHit); else closing after
    k periods, k the cycle length of the first edge square under the word.
    Either past ``max_steps`` raises TraceNotClosed at once.  Cost: an integer
    setup, a march of a + |b| steps in integers alone over one denominator, one
    Fraction per distinct coordinate of that period, one lookup per emitted
    segment.  Its ``chains`` come from the segments on first use, as for any trace.
    """
    a, b = direction
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ValueError("direction must be a pair of integers")
    if a < 0 or (a == 0 and b != 1):
        raise ValueError("direction must have dx > 0, or be (0, 1)")
    g = math.gcd(a, b)
    a, b = a // g, b // g
    (xn, xd), (yn, yd) = _ratio(point[0]), _ratio(point[1])
    if not (0 <= xn < xd and 0 <= yn <= yd):
        raise ValueError("point must lie in [0, 1) x [0, 1]")
    s, yn, yd = (o.v_inv[square], 1, 1) if b < 0 and yn == 0 else (square, yn, yd)
    period = a + abs(b)
    # an edge start that the line re-enters through is its own first edge point
    extra = 0 if (a > 0 and xn == 0) or (b > 0 and yn == 0) or (b < 0 and yn == yd) else 1
    steps = period + extra
    c, r = divmod(b * xn * yd - a * yn * xd, xd * yd)  # b*x - a*y = c + r / (xd*yd)
    if r == 0:  # first vertex at unfolded (p, q): count the crossings
        if a == 0 or b == 0 or (b > 0 and yn == yd and xn == 0):
            steps = 1
        else:
            p = (c * pow(b, -1, a) - 1) % a + 1
            q = (b * p - c) // a
            steps = p + q - 1 if b > 0 else p - q
    if steps > max_steps:
        raise TraceNotClosed(f"trace did not close within {max_steps} steps")
    # integer march on coordinates times d, where every crossing time is whole
    d = math.lcm(xd, yd) * max(a, 1) * max(abs(b), 1)
    u, w = xn * (d // xd), yn * (d // yd)
    ends, word, squares = [], [], []
    for _ in range(steps):
        tx = (d - u) // a if a else math.inf
        ty = (d - w) // b if b > 0 else w // -b if b < 0 else math.inf
        t = min(tx, ty)
        u0, w0, u, w = u, w, u + a * t, w + b * t
        if u % d == 0 and w % d == 0:
            raise SingularityHit(f"trace hit a vertex at square {s + 1}, "
                                 f"point ({u // d}, {w // d})")
        squares.append(s)
        ends.append((u0, w0, u, w))
        if t == tx:
            perm, u = o.h, 0
        elif b > 0:
            perm, w = o.v, 0
        else:
            perm, w = o.v_inv, d
        word.append(perm)
        s = perm[s]
    ends, word, squares = ends[extra:], word[extra:], squares[extra:]
    while s != squares[0]:
        if len(squares) + steps > max_steps:
            raise TraceNotClosed(f"trace did not close within {max_steps} steps")
        for perm in word:
            squares.append(s)
            s = perm[s]
    k = len(squares) // period
    frac = {c: Fraction(c, d) for c in set(itertools.chain.from_iterable(ends)) - {0, d}}
    frac[0], frac[d] = _ZERO, _ONE  # edge coordinates share the module's 0 and 1
    points = [((frac[x0], frac[y0]), (frac[x1], frac[y1])) for x0, y0, x1, y1 in ends]
    segments = tuple((sq, p, q) for sq, (p, q) in zip(squares, itertools.cycle(points)))
    return CurveTrace(o, (a, b), segments, (k * a, k * b))


def robust_trace(o: Origami, square: int, slope, offset=Fraction(1, 2)) -> CurveTrace:
    """Trace from an edge point; ``slope`` is a Fraction or None for vertical.

    The edge is the one the line leaves, left for slope 0 and bottom otherwise.
    The retry rule for vertex hits: the offset is divided by 3 after each
    SingularityHit, for 6 attempts in all.  The arguments are checked once."""
    if not 0 < offset < 1:
        raise ValueError("offset must lie strictly inside the edge")
    offset = Fraction(offset)
    slope = None if slope is None else Fraction(*_ratio(slope))
    direction = (0, 1) if slope is None else (slope.denominator, slope.numerator)
    point = (_ZERO, offset) if direction[1] == 0 else (offset, _ZERO)
    for _ in range(6):
        try:
            return trace_from_point(o, square, point, direction)
        except SingularityHit:
            point = tuple(c / 3 if c else c for c in point)  # the offset, along its edge
    raise SingularityHit(f"no vertex-free offset found for slope {slope} from square {square + 1}")


def core_trace(o: Origami, cyl: CylinderCurve) -> CurveTrace:
    """Straight core curve through the middle of the cylinder's first row: the
    ``trace_from_point`` from (0, 1/2) in direction (1, 0), or (1/2, 0) in (0, 1).
    That edge start re-enters as its own first edge point, each step crosses one
    square of the row's cycle, and the trace closes after ``circumference`` steps.
    The trace carries ``cyl``, the only source of ``ext_bracket``'s upper end."""
    if cyl.direction == HORIZONTAL:
        direction, p, q = (1, 0), (_ZERO, _HALF), (_ONE, _HALF)
    else:
        direction, p, q = (0, 1), (_HALF, _ZERO), (_HALF, _ONE)
    t = object.__new__(CurveTrace)  # the fields and the cylinder in one call
    t.__dict__.update(origami=o, direction=direction, holonomy=cyl.holonomy, _cylinder=cyl,
                      segments=tuple([(s, p, q) for s in cyl.squares]))
    return t


# ---------------------------------------------------------------------------
# Crossing counts


def crossing_number(t1: CurveTrace, t2: CurveTrace) -> int:
    """Exact transverse crossing count of two straight closed traces.

    On a translation surface a straight trace has one direction everywhere,
    so every crossing of two non-parallel traces has the sign det(v1, v2),
    and the count is |<[t1], [t2]>|, the algebraic intersection number of
    their homology classes (Farb and Margalit, *A Primer on Mapping Class
    Groups*, ch. 1; Matheus, Moller and Yoccoz, Invent. Math. 202 (2015), for
    the homology of origamis): t1's cycle z dotted with t2's cochain c, one
    sparse product over t1's edges.  Parallel distinct traces are disjoint
    (0), identical traces give 0.
    """
    if t1.origami is not t2.origami and t1.origami != t2.origami:
        raise ValueError("traces live on different origamis")
    (a1, b1), (a2, b2) = t1.direction, t2.direction
    if a1 * b2 == b1 * a2:  # parallel, or identical
        return 0
    z1, c2 = t1.chains[0], t2.chains[1]
    return abs(sum(v * c2[e] for e, v in z1.items() if e in c2))


# ---------------------------------------------------------------------------
# Extremal-length brackets


def ext_bracket(t: CurveTrace, x: MarkedFlatSurface, w2=1) -> Bracket:
    """Certified enclosure of w2 (a rational squared weight) times the
    extremal length of the trace's class.

    Lower bound: flat-metric competitor (deformed length squared over
    area).  Upper bound: reciprocal modulus of the cylinder that
    ``core_trace`` attached to the trace, +inf for any other trace.  Both are
    integer ratios from ``x.gram`` and w2, rounded once outward; ValueError
    where one is beyond the doubles.
    """
    big_a, big_b, big_c, big_d = x.gram
    p, q = _ratio(w2)
    hx, hy = t.holonomy
    cyl = t._cylinder
    try:
        lo = round_ratio(p * (big_a * hx * hx + 2 * big_b * hx * hy + big_c * hy * hy),
                         q * big_d * x.base.n, -math.inf)
        if cyl is None:
            return Bracket(lo, math.inf)
        hi = round_ratio(p * cyl.circumference * (big_a if cyl.direction == HORIZONTAL else big_c),
                         q * big_d * cyl.height, math.inf)
    except OverflowError:
        raise ValueError(_BEYOND_DOUBLES) from None
    return Bracket(lo, hi)  # flat bound <= cylinder bound, as circumference * height <= n


# ---------------------------------------------------------------------------
# Foliations as weighted multicurves


class MulticurveFoliation(Frozen):
    """Disjoint weighted cylinder cores sharing a direction."""

    _fields = ("components",)  # ((weight, CylinderCurve), ...)

    def __init__(self, components: tuple):
        if not components:
            raise ValueError("empty foliation")
        d = components[0][1].direction
        for w, c in components:
            if not w > 0:
                raise ValueError("weights must be positive")
            if w == math.inf:
                raise ValueError("weights must be finite")
            if c.direction != d:
                raise ValueError("components must share a direction")
        Record.__init__(self, components)

    @property
    def direction(self):
        return self.components[0][1].direction


def canonical_vertical_foliation(o: Origami) -> MulticurveFoliation:
    """The vertical foliation with measure |dx|: each vertical cylinder
    weighted by its transverse width."""
    return MulticurveFoliation(tuple((Fraction(c.height), c) for c in cylinders(o, VERTICAL)))


def canonical_horizontal_foliation(o: Origami) -> MulticurveFoliation:
    return MulticurveFoliation(tuple((Fraction(c.height), c) for c in cylinders(o, HORIZONTAL)))


# ---------------------------------------------------------------------------
# Growth along the horocycle flow


class GrowthReport(Record):
    _fields = ("i_vertical", "i_horizontal", "lower_bounds", "violations",
               "quad_coefficient", "relative_residual")

    @property
    def ok(self):
        return not self.violations


def horocycle_growth_check(
    t: CurveTrace, x: MarkedFlatSurface, s_values: Sequence[float]
) -> GrowthReport:
    """Quadratic growth of extremal length along the horocycle flow.

    Checks lo >= (|s| i_v - i_h)^2 / area when positive, and the s^2 i_v^2
    / (2 area) bound past the derived threshold; fits lo against s (None for
    fewer than 3 distinct s: no fit).  Each lower bound is ``ext_bracket``'s lo: exact
    over the deform entries, then rounded down once.  ValueError("a value is beyond
    the double range") if c2, a lower bound, a bound it is checked against or a
    float it forms from the point is beyond the double range."""
    try:
        return _growth_check(t, x, s_values)
    except (OverflowError, ZeroDivisionError):  # float() past the doubles, or 0.0 from it
        raise ValueError(_BEYOND_DOUBLES) from None


def _growth_check(t, x, s_values) -> GrowthReport:
    # the deformed vertical and horizontal measures along t: deform * holonomy, in integers
    (a, b, c, d, q), (hx, hy) = x._m, t.holonomy
    i_v, i_h = Fraction(abs(a * hx + b * hy), q), Fraction(abs(c * hx + d * hy), q)
    if not i_v > 0:
        raise ValueError("trace must cross the vertical foliation")
    area = x.base.n * x.gram[3] / (q * q)
    threshold = float(i_h) / ((1.0 - 1.0 / math.sqrt(2.0)) * float(i_v))
    los = []
    violations = []
    for s in s_values:
        xs = horocycle_flow(x, s)
        lo = ext_bracket(t, xs).lo
        los.append(lo)
        sv = abs(s) * float(i_v)
        linear = sv - float(i_h)
        near, far = linear * (linear / area), sv * (sv / (2.0 * area))
        if not max(lo, near, far) < sys.float_info.max:  # lo past it is rounded down to it
            raise ValueError(_BEYOND_DOUBLES)
        if linear > 0 and lo < near * (1.0 - 1e-12):
            violations.append((s, lo, near))
        if abs(s) >= threshold and lo < far:
            violations.append((s, lo, far))
    if len(set(s_values)) >= 3:
        # Exact least squares lo ~ c0 + c1 s + c2 s^2, rounded once: Gauss-Jordan over
        # Fractions; the Gram matrix of >= 3 distinct s is positive definite (no 0 pivot).
        pts = [(Fraction(s), Fraction(lo)) for s, lo in zip(s_values, los)]
        m = [[sum(s ** (i + j) for s, _ in pts) for j in range(3)]
             + [sum(s ** i * lo for s, lo in pts)] for i in range(3)]
        for i in range(3):
            m[i] = [v / m[i][i] for v in m[i]]
            m = [r if k == i else [a - r[i] * b for a, b in zip(r, m[i])] for k, r in enumerate(m)]
        c0, c1, c2 = (r[3] for r in m)
        err = max(abs(c0 + (c1 + c2 * s) * s - lo) for s, lo in pts)
        quad = float(c2)
        residual = float(err / max(abs(lo) for _, lo in pts)) if err else 0.0
    else:
        quad, residual = None, None
    return GrowthReport(i_v, i_h, los, violations, quad, residual)


# ---------------------------------------------------------------------------
# Walsh's E_F


def walsh_E(f: MulticurveFoliation, gamma: CurveTrace, x: MarkedFlatSurface):
    """Sum over components of i(F_j, gamma)^2 / i(F_j, G).

    G is the horizontal foliation of the defining differential at the
    ray's base point, i.e. the origami's own horizontal foliation; the
    pairing i(F_j, G) is the weighted crossing of the core with G, |dy| along
    a vertical core: w_j times its circumference.
    """
    if f.direction != VERTICAL:
        raise ValueError("walsh_E expects the vertical multicurve foliation")
    total = Fraction(0)
    for w, cyl in f.components:
        i_gamma = Fraction(w) * crossing_number(core_trace(x.base, cyl), gamma)
        total += i_gamma**2 / (Fraction(w) * cyl.circumference)
    return total


# ---------------------------------------------------------------------------
# SL(2, Z) re-marking


def _crossings(o: Origami, pos, step, d: int) -> list:
    """The gluings (h, h^-1, v, v^-1) that the move from pos by step (integers over
    d, squares half-open) crosses, in order: the line k*d sorts by |k*d - pos| times
    the other step, and two crossings at one time meet a corner (ValueError)."""
    keyed = []
    for p, s, other, fwd, back in ((pos[0], step[0], step[1], o.h, o.h_inv),
                                   (pos[1], step[1], step[0], o.v, o.v_inv)):
        lo, hi = sorted((p, p + s))
        for k in range(lo // d + 1, hi // d + 1):  # the lines k*d in (lo, hi]
            keyed.append((abs(k * d - p) * (abs(other) or 1), fwd if s > 0 else back))
    keyed.sort()
    if any(x[0] == y[0] for x, y in zip(keyed, keyed[1:])):
        raise ValueError("re-marking move meets a corner")
    return [perm for _, perm in keyed]


def _follow(word, squares) -> list:
    """Each square moved through the word of gluings."""
    for perm in word:
        squares = [perm[s] for s in squares]
    return squares


class RemarkAction(Record):
    """``source`` re-marked by the integer matrix ``_m`` = (a, b, c, d), with maps."""

    _fields = ("source", "target", "_m")

    def map_point(self, s: int, point):
        """(s, p) to frac(m p), in the old square reached by the walk from p to the
        centre of the new square holding m p; it stays in that square, off corners."""
        o, (a, b, c, d) = self.source, self._m
        x, y = Fraction(*_ratio(point[0])), Fraction(*_ratio(point[1]))
        if y == 1:  # a top edge point is on the bottom edge of the square above
            s, y = o.v[s], _ZERO
        q = 2 * math.lcm(x.denominator, y.denominator)
        px, py = x.numerator * (q // x.denominator), y.numerator * (q // y.denominator)
        mx, my = a * px + b * py, c * px + d * py
        cx, cy = mx - mx % q + q // 2, my - my % q + q // 2  # the centre, after m
        det = a * d - b * c  # m^-1 = det (d, -b; -c, a)
        step = (det * (d * cx - b * cy) - px, det * (a * cy - c * cx) - py)
        s = _follow(_crossings(o, (px, py), step, q), [s])[0]
        return s, (Fraction(mx % q, q), Fraction(my % q, q))

    def map_direction(self, direction):
        """The primitive m (dx, dy), with dx > 0, or dx = 0 < dy."""
        a, b, c, d = self._m
        x, y = a * direction[0] + b * direction[1], c * direction[0] + d * direction[1]
        g = math.gcd(x, y)
        return (x // g, y // g) if x > 0 or (x == 0 and y > 0) else (-x // g, -y // g)

    def map_trace(self, t: CurveTrace) -> CurveTrace:
        s, pt = self.map_point(*t.segments[0][:2])
        return trace_from_point(self.target, s, pt, self.map_direction(t.direction))


def remark(o: Origami, m: Mat2) -> RemarkAction:
    """Re-tile the surface for the marking composed with m.

    The squares of m O are the n lifts of the torus's unit square; each is named
    by the square of O that holds its centre, m^-1 (1/2, 1/2).  Its right and top
    neighbours are where the moves m^-1 (1, 0) and m^-1 (0, 1) from that centre
    end, and each move crosses one word of gluings from every square."""
    entries = (m.a, m.b, m.c, m.d)
    if any(isinstance(e, float) or Fraction(e).denominator != 1 for e in entries):
        raise ValueError("re-marking matrix must be integer")
    a, b, c, d = (int(e) for e in entries)
    det = a * d - b * c
    if det not in (1, -1):
        raise ValueError("re-marking matrix must be unimodular")
    # over 2: the centre in [0, 2)^2, and the moves m^-1 (2, 0), m^-1 (0, 2)
    centre = (det * (d - b) % 2, det * (a - c) % 2)
    moves = ((2 * det * d, -2 * det * c), (-2 * det * b, 2 * det * a))
    h, v = (tuple(_follow(_crossings(o, centre, move, 2), range(o.n))) for move in moves)
    return RemarkAction(o, Origami(h, v), (a, b, c, d))
