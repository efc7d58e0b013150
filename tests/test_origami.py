import itertools
import math
import random
import re
import sys
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from horoteich.kernel import Bracket, Mat2, TraceNotClosed
from horoteich import horolab as H, origami as O


L = O.build_origami([2, 1, 3], [3, 2, 1])
TORUS = O.build_origami([1], [1])
T2 = O.build_origami([2, 1], [1, 2])
STAIRCASE = O.build_origami([2, 1, 4, 3, 5], [1, 3, 2, 5, 4])


# ---------------------------------------------------------------------------
# Construction and invariants


def test_invalid_permutations_rejected():
    with pytest.raises(ValueError):
        O.build_origami([1, 1], [1, 2])
    with pytest.raises(ValueError):
        O.build_origami([1, 2], [1])


@pytest.mark.parametrize("build, h, v", [
    (O.Origami, (0.0,), (0,)),
    (O.Origami, (0, "a"), (0, 1)),
    (O.build_origami, [1.0], [1]),
    (O.build_origami, ["a"], [1]),
    (O.Origami, (0, 1), (-1, 0)),
    (O.Origami, (1, 1), (0, 1)),
    (O.Origami, (0, 2), (0, 1)),
    (O.Origami, (), ()),
], ids=["float", "str", "build-float", "build-str", "negative", "duplicate", "out-of-range",
        "empty"])
def test_a_non_permutation_is_one_value_error(build, h, v):
    """An entry that is not an integer, negative, repeated or past the last square, and
    a surface of no squares: the one ValueError of the validation, never a TypeError
    from the orbit walk, a sort or build_origami's x - 1."""
    with pytest.raises(ValueError, match="^h and v must be permutations$"):
        build(h, v)


def test_disconnected_rejected():
    with pytest.raises(ValueError, match="disconnected"):
        O.build_origami([1, 2], [1, 2])


def test_torus_invariants():
    assert TORUS.genus == 1
    assert TORUS.singularities == ()
    assert TORUS.area == 1


def test_l_origami_invariants():
    assert L.n == 3 and L.area == 3
    assert L.genus == 2
    assert L.singularities == (2,)


def test_cylinders_l_origami():
    for d in (O.HORIZONTAL, O.VERTICAL):
        circs = sorted(c.circumference for c in O.cylinders(L, d))
        assert circs == [1, 2]
        assert all(c.height == 1 for c in O.cylinders(L, d))


def test_cylinder_band_merging():
    # 1 x 2 torus: two unit vertical bands glue into one cylinder of height 2
    vert = O.cylinders(T2, O.VERTICAL)
    assert len(vert) == 1
    assert vert[0].circumference == 1 and vert[0].height == 2
    horiz = O.cylinders(T2, O.HORIZONTAL)
    assert len(horiz) == 1
    assert horiz[0].circumference == 2 and horiz[0].height == 1


def test_cylinder_holonomy():
    cyl = O.cylinders(L, O.VERTICAL)[0]
    assert cyl.holonomy == (0, cyl.circumference)


def _naive_cone_orders(o):
    """Reference: the cycle lengths less one of the commutator h v h^-1 v^-1,
    from dict inverses and a set of seen squares, the trivial cycles dropped."""
    h, v = o.h, o.v
    hi, vi = {y: x for x, y in enumerate(h)}, {y: x for x, y in enumerate(v)}
    comm = [h[v[hi[vi[x]]]] for x in range(o.n)]
    orders, seen = [], set()
    for x in range(o.n):
        length = 0
        while x not in seen:
            seen.add(x)
            x, length = comm[x], length + 1
        if length > 1:
            orders.append(length - 1)
    return tuple(sorted(orders))


def test_cones_genus_and_cylinders_on_random_origamis():
    """Seeded connected origamis of 1 to 200 squares, random ones (nearly every
    corner a cone) and a x b grid tori with a few gluings swapped (most corners
    regular, so bands merge): the cone orders are the naive commutator's, they
    sum to 2g - 2, and in each direction the cylinders partition the squares
    with circumference times height summing to n."""
    rng = random.Random(24)
    surfaces = [_random_origami(rng, n) for n in [1, 2, 200] + rng.sample(range(3, 200), 40)]
    while len(surfaces) < 100:
        a, b = rng.randint(1, 20), rng.randint(1, 10)
        h = [r * a + (c + 1) % a for r in range(b) for c in range(a)]
        v = [((r + 1) % b) * a + c for r in range(b) for c in range(a)]
        for _ in range(rng.randint(0, 3)):
            p = rng.choice((h, v))
            i, j = rng.randrange(a * b), rng.randrange(a * b)
            p[i], p[j] = p[j], p[i]
        try:
            surfaces.append(O.Origami(tuple(h), tuple(v)))
        except ValueError:  # disconnected; draw again
            continue
    merged = 0
    for o in surfaces:
        assert o.singularities == _naive_cone_orders(o)
        assert sum(o.singularities) == 2 * o.genus - 2
        for d in (O.HORIZONTAL, O.VERTICAL):
            cyls = O.cylinders(o, d)
            assert sorted(s for c in cyls for s in c.all_squares) == list(range(o.n))
            assert sum(c.circumference * c.height for c in cyls) == o.n
            merged += sum(c.height > 1 for c in cyls)
    assert merged > 50


# ---------------------------------------------------------------------------
# Flows and direction extremal lengths


def test_base_point_ext_equals_area():
    x = O.MarkedFlatSurface.base_point(L)
    assert O.ext_vertical(x) == 3
    assert O.ext_horizontal(x) == 3


def test_geodesic_flow_exact_product():
    x = O.MarkedFlatSurface.base_point(L)
    for k in [Fraction(2), Fraction(3, 2), Fraction(7, 5)]:
        y = O.geodesic_flow(x, stretch=k)
        ev, eh = O.ext_vertical(y), O.ext_horizontal(y)
        assert ev == 3 / k**2 and eh == 3 * k**2
        assert ev * eh == 9


def test_horocycle_flow_fixes_vertical():
    x = O.MarkedFlatSurface.base_point(L)
    for s in [Fraction(1), Fraction(-5), Fraction(22, 7)]:
        assert O.ext_vertical(O.horocycle_flow(x, s)) == 3


def test_flow_dispatch_and_validation():
    x = O.MarkedFlatSurface.base_point(L)
    y = O.geodesic_flow(x, t=0.5)
    assert O.ext_vertical(y) == pytest.approx(3 * math.exp(-1.0))
    with pytest.raises(ValueError):
        O.geodesic_flow(x, t=1.0, stretch=Fraction(2))
    with pytest.raises(ValueError):
        O.MarkedFlatSurface(L, Mat2(Fraction(-1), 0, 0, Fraction(1)))


def test_geodesic_time_range():
    """Times whose e^t and e^-t are both normal doubles flow; others raise a
    ValueError naming the time, not the stretch it would have made."""
    x = O.MarkedFlatSurface.base_point(L)
    for t in (-708.0, 708.0):
        assert O.geodesic_flow(x, t=t).deform.a == math.exp(t)
    for t in (-708.5, 709.0, -720.0, -1000.0, 1e300, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"geodesic time {t} is out of range")):
            O.geodesic_flow(x, t=t)
    with pytest.raises(ValueError, match="^stretch must be positive$"):
        O.geodesic_flow(x, stretch=Fraction(0))


# ---------------------------------------------------------------------------
# Traces


def test_core_trace_holonomy():
    for d in (O.HORIZONTAL, O.VERTICAL):
        for cyl in O.cylinders(L, d):
            t = O.core_trace(L, cyl)
            assert t.holonomy == cyl.holonomy
            assert {s for s, _, _ in t.segments} <= set(cyl.all_squares)


def test_trace_slope_one_closes():
    t = O.robust_trace(L, 0, Fraction(1))
    assert t.holonomy == (3, 3)
    # segments chain continuously across gluings
    for (s1, _, e1), (s2, b2, _) in zip(t.segments, t.segments[1:]):
        assert b2[0] in (0, e1[0]) and b2[1] in (0, 1, e1[1])


def test_trace_negative_slope():
    t = O.robust_trace(TORUS, 0, Fraction(-1, 2))
    assert t.direction == (2, -1)
    assert t.holonomy[1] == -1


def test_singularity_hit_and_retry():
    # a diagonal from the square's center runs straight into the corner
    with pytest.raises(O.SingularityHit, match=r"^trace hit a vertex at square 1, point \(1, 1\)$"):
        O.trace_from_point(L, 0, (Fraction(1, 2), Fraction(1, 2)), (1, 1))
    # robust_trace succeeds from a vertex-free offset
    t = O.robust_trace(L, 0, Fraction(1), offset=Fraction(1, 2))
    assert t.holonomy == (3, 3)


def test_robust_trace_makes_six_attempts():
    """From (x, 0) on the unit torus, slope m meets a vertex iff m x is an
    integer.  For m = 162 the offsets 1/2, 1/6, ..., 1/162 all do, and the
    sixth, 1/486, does not; for m = 486 all six do, so the call raises."""
    t = O.robust_trace(TORUS, 0, Fraction(162))
    assert t.segments[0][1] == (Fraction(1, 486), 0)
    with pytest.raises(O.SingularityHit, match="no vertex-free offset"):
        O.robust_trace(TORUS, 0, Fraction(486))


def test_robust_trace_is_memoized_per_origami():
    """A repeat call returns the same trace, a double slope and its Fraction share one
    entry, and the trace equals one traced on a fresh, equal origami."""
    o = O.build_origami([2, 1, 3], [3, 2, 1])
    t = O.robust_trace(o, 0, 0.5)
    assert O.robust_trace(o, 0, 0.5) is t
    assert O.robust_trace(o, 0, Fraction(1, 2), offset=0.5) is t
    assert list(o._traces) == [(0, (1, 2), (1, 2))]
    assert t == O.robust_trace(O.build_origami([2, 1, 3], [3, 2, 1]), 0, Fraction(1, 2))
    assert O.robust_trace(o, 1, 0.5) is not t and len(o._traces) == 2


def test_robust_trace_memo_keeps_retries_and_stores_no_failure():
    """Slope 162 on the unit torus closes after five retries, and a repeat call returns
    that trace again; a call that raises stores nothing and raises again."""
    o = O.build_origami([1], [1])
    t = O.robust_trace(o, 0, Fraction(162))
    assert O.robust_trace(o, 0, 162) is t and t.segments[0][1] == (Fraction(1, 486), 0)
    for _ in range(2):
        with pytest.raises(O.SingularityHit, match="no vertex-free offset"):
            O.robust_trace(o, 0, Fraction(486))
        with pytest.raises(ValueError, match="strictly inside the edge"):
            O.robust_trace(o, 0, Fraction(1), offset=0)
    assert list(o._traces) == [(0, (162, 1), (1, 2))]


def test_the_trace_memo_stays_out_of_equality_and_hash():
    a, b = O.build_origami([2, 1, 3], [3, 2, 1]), O.build_origami([2, 1, 3], [3, 2, 1])
    O.robust_trace(a, 0, Fraction(1))
    O.robust_trace(b, 0, None)
    assert a._traces.keys() != b._traces.keys()
    assert a == b and hash(a) == hash(b) and a == L


def test_edge_trace_arguments_are_checked():
    """robust_trace rejects an offset outside (0, 1) before tracing."""
    for offset in (0, 1, Fraction(3, 2), -Fraction(1, 2)):
        for slope in (Fraction(1), Fraction(0), None):
            with pytest.raises(ValueError, match="strictly inside the edge"):
                O.robust_trace(L, 0, slope, offset=offset)


def _march_trace(o, square, point, direction, max_steps=100000):
    """Reference: the Fraction march that trace_from_point replaced, one
    edge crossing per step, a vertex or the budget ending it."""
    a, b = direction
    g = math.gcd(abs(a), abs(b))
    a, b = a // g, b // g
    x, y = Fraction(point[0]), Fraction(point[1])
    s = square
    if b < 0 and y == 0:
        s = o.v_inv[s]
        y = Fraction(1)
    revisited = (a > 0 and x == 0) or (b > 0 and y == 0) or (b < 0 and y == 1)
    start_state = (s, x, y) if revisited else None
    segments = []
    hol_x = hol_y = 0
    for _ in range(max_steps):
        tx = Fraction(1 - x, a) if a > 0 else None
        if b > 0:
            ty = Fraction(1 - y, b)
        elif b < 0:
            ty = Fraction(y, -b)
        else:
            ty = None
        t = min(t for t in (tx, ty) if t is not None)
        nx = x + a * t
        ny = y + b * t
        if (nx == 0 or nx == 1) and (ny == 0 or ny == 1):
            raise O.SingularityHit(f"trace hit a vertex at square {s + 1}, point ({nx}, {ny})")
        segments.append((s, (x, y), (nx, ny)))
        if nx == 1:
            s = o.h[s]
            hol_x += 1
            x, y = Fraction(0), ny
        elif ny == 1:
            s = o.v[s]
            hol_y += 1
            x, y = nx, Fraction(0)
        elif ny == 0:
            s = o.v_inv[s]
            hol_y -= 1
            x, y = nx, Fraction(1)
        else:
            raise AssertionError("march did not reach an edge")
        if start_state is None:
            start_state, segments, hol_x, hol_y = (s, x, y), [], 0, 0
        elif (s, x, y) == start_state:
            return O.CurveTrace(o, (a, b), tuple(segments), (hol_x, hol_y))
    raise O.TraceNotClosed(f"trace did not close within {max_steps} steps")


def _trace_outcome(fn, *args, **kw):
    try:
        t = fn(*args, **kw)
    except O.SingularityHit as e:
        return ("vertex", str(e))
    except O.TraceNotClosed as e:
        return ("budget", str(e))
    return ("closed", t.segments, t.holonomy, t.direction)


def test_trace_from_point_matches_fraction_march():
    """Random origamis (n <= 12), directions |a|, |b| <= 7, edge and interior
    starts, budgets 5, 20 and 100000: the same segments, holonomy and
    direction, or the same exception with the same message."""
    rng = random.Random(6)
    seen = {"closed": 0, "vertex": 0, "budget": 0}
    budget_first = 0
    for _ in range(1500):
        o = _random_origami(rng, rng.randint(1, 12))
        a = rng.randint(0, 7)
        b = rng.randint(-7, 7) if a else 1
        den = rng.choice([1, 2, 3, 4, 6, 7, 12])
        fx, fy = Fraction(rng.randrange(den), den), Fraction(rng.randrange(den + 1), den)
        point = rng.choice([(fx, Fraction(0)), (Fraction(0), fy), (fx, Fraction(1)), (fx, fy)])
        args = (o, rng.randrange(o.n), point, (a, b))
        max_steps = rng.choice([5, 20, 100000])
        got = _trace_outcome(O.trace_from_point, *args, max_steps=max_steps)
        assert got == _trace_outcome(_march_trace, *args, max_steps=max_steps), args
        seen[got[0]] += 1
        if got[0] == "budget" and _trace_outcome(_march_trace, *args)[0] == "vertex":
            budget_first += 1
    assert min(seen.values()) > 100 and budget_first > 10


def test_robust_trace_matches_fraction_march_in_the_retry_loop():
    """robust_trace(TORUS, 0, slope) over the 88 primitive directions with
    |p|, |q| <= 8 (criterion 11's), plus slopes 162 and 486, against
    _march_trace in the same divide-by-3 retry loop: the same segments and
    holonomy, or the same exception.  The 30 directions with q even and not 0
    meet a vertex from offset 1/2 and are retried; 162 closes after five
    retries, 486 never."""
    def reference(slope, offset=Fraction(1, 2)):
        direction = (0, 1) if slope is None else (slope.denominator, slope.numerator)
        for attempt in range(6):
            point = (Fraction(0), offset) if direction[1] == 0 else (offset, Fraction(0))
            try:
                t = _march_trace(TORUS, 0, point, direction)
                retries.append(attempt)
                return t
            except O.SingularityHit:
                offset = offset / 3
        raise O.SingularityHit(f"no vertex-free offset found for slope {slope} from square 1")

    dirs = [(p, q) for p in range(9) for q in range(-8, 9)
            if math.gcd(p, q) == 1 and (p > 0 or q == 1)]
    assert len(dirs) == 88
    slopes = [None if p == 0 else Fraction(q, p) for p, q in dirs] + [Fraction(162), Fraction(486)]
    retries = []
    for slope in slopes:
        got = _trace_outcome(O.robust_trace, TORUS, 0, slope)
        assert got == _trace_outcome(reference, slope), slope
    assert len(retries) == 89 and retries.count(0) == 58 and max(retries) == 5


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_core_trace_is_the_edge_trace_from_its_first_square(data):
    """On random origamis (n <= 40), in both directions, each cylinder's core
    trace is trace_from_point from the middle of its first square's left or
    bottom edge, and its segments run through exactly the core's squares in
    cycle order."""
    o = data.draw(_origamis(40))
    half = Fraction(1, 2)
    for direction, point, way in ((O.HORIZONTAL, (Fraction(0), half), (1, 0)),
                                  (O.VERTICAL, (half, Fraction(0)), (0, 1))):
        for c in O.cylinders(o, direction):
            t = O.core_trace(o, c)
            assert t == O.trace_from_point(o, c.squares[0], point, way)
            assert tuple(s for s, _, _ in t.segments) == c.squares


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_trace_from_point_takes_int_float_and_fraction_coordinates(data):
    """A start point given as ints, floats or Fractions of equal value gives
    the same trace, with Fraction coordinates, or the same exception."""
    o = data.draw(_origamis())
    a = data.draw(st.integers(0, 6))
    b = data.draw(st.integers(-6, 6)) if a else 1
    mx, my = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    x = Fraction(data.draw(st.integers(0, 2**mx - 1)), 2**mx)
    y = Fraction(data.draw(st.integers(0, 2**my)), 2**my)
    args = (o, data.draw(st.integers(0, o.n - 1)))
    want = _trace_outcome(O.trace_from_point, *args, (x, y), (a, b))
    forms = [(float(x), float(y)), (float(x), y), (x, float(y))]
    if x.denominator == y.denominator == 1:
        forms.append((int(x), int(y)))
    for point in forms:
        assert _trace_outcome(O.trace_from_point, *args, point, (a, b)) == want, point
    if want[0] == "closed":
        assert all(type(c) is Fraction for _, p, q in want[1] for c in (*p, *q))
        t = O.trace_from_point(*args, (float(x), float(y)), (a, b))
        assert all(type(c) is Fraction for _, p, q in t.segments for c in (*p, *q))


def test_trace_from_point_rejects_bad_points():
    """Points outside [0, 1) x [0, 1] raise ValueError; so does a NaN or
    infinite coordinate, with the message Fraction() gives for it."""
    for point in [(1, 0), (Fraction(-1, 2), 0), (0.5, 1.5), (0.5, -0.25), (Fraction(1), 0.5),
                  (0.999, Fraction(9, 8))]:
        with pytest.raises(ValueError, match=r"^point must lie in \[0, 1\) x \[0, 1\]$"):
            O.trace_from_point(L, 0, point, (1, 1))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises((ValueError, OverflowError)) as want:
            Fraction(bad)
        for point in [(bad, 0), (Fraction(1, 2), bad), (bad, 7)]:
            with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
                O.trace_from_point(L, 0, point, (2, 1))


def _four_generator_orbits(h, v):
    """Reference: the orbits of the squares (1-based) under h, v and both
    inverses, ordered by their least square."""
    moves = [h, v, O._inverse(h), O._inverse(v)]
    left, parts = set(range(len(h))), []
    while left:
        orbit, stack = set(), [min(left)]
        while stack:
            x = stack.pop()
            if x not in orbit:
                orbit.add(x)
                stack += [m[x] for m in moves]
        parts.append(sorted(q + 1 for q in orbit))
        left -= orbit
    return parts


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_disconnected_message_lists_the_orbits(data):
    """Random (h, v) that keep a random split of the squares into blocks:
    the ValueError names the same orbits as the four-generator reference,
    and one orbit builds."""
    n = data.draw(st.integers(2, 14))
    labels = data.draw(st.permutations(range(n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=3)))
    blocks = [labels[i:j] for i, j in zip([0] + cuts, cuts + [n])]
    h, v = [0] * n, [0] * n
    for block in blocks:
        for perm in (h, v):
            for x, y in zip(block, data.draw(st.permutations(block))):
                perm[x] = y
    want = _four_generator_orbits(h, v)
    if len(want) == 1:
        assert O.Origami(tuple(h), tuple(v)).n == n
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(f'disconnected surface; orbits {want}')}$"):
            O.Origami(tuple(h), tuple(v))


def test_trace_budget_decided_up_front():
    """The unit torus in direction (1, 10^7) needs 10^7 + 1 steps; from x = 1/2
    it meets a vertex at step 5 * 10^6.  Both exceed the budget at once."""
    started = time.perf_counter()
    for x in (Fraction(1, 3), Fraction(1, 2)):
        with pytest.raises(O.TraceNotClosed):
            O.trace_from_point(TORUS, 0, (x, Fraction(0)), (1, 10**7), max_steps=10**6)
    assert time.perf_counter() - started < 0.5


def test_crossing_number_basic():
    tv = O.robust_trace(TORUS, 0, None)
    th = O.robust_trace(TORUS, 0, Fraction(0))
    assert O.crossing_number(tv, th) == 1
    assert O.crossing_number(tv, tv) == 0
    t11 = O.robust_trace(TORUS, 0, Fraction(1))
    assert O.crossing_number(t11, tv) == 1
    assert O.crossing_number(t11, th) == 1


def test_crossing_number_matches_determinant_spot():
    # sample of the torus determinant formula; full sweep in acceptance
    dirs = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (3, -2)]
    traces = {}
    for a, b in dirs:
        slope = None if a == 0 else Fraction(b, a)
        traces[(a, b)] = O.robust_trace(TORUS, 0, slope)
    for d1 in dirs:
        for d2 in dirs:
            expected = abs(d1[0] * d2[1] - d1[1] * d2[0])
            assert O.crossing_number(traces[d1], traces[d2]) == expected


def test_crossing_parallel_distinct_zero():
    cores = [O.core_trace(L, c) for c in O.cylinders(L, O.VERTICAL)]
    assert O.crossing_number(cores[0], cores[1]) == 0


def test_crossing_requires_same_origami():
    with pytest.raises(ValueError):
        O.crossing_number(O.robust_trace(TORUS, 0, None), O.robust_trace(L, 0, None))


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _fraction_crossing_number(t1, t2):
    """Reference: crossing_number as it was in Fraction arithmetic."""
    if t1.origami != t2.origami:
        raise ValueError("traces live on different origamis")
    if t1.segments == t2.segments:
        return 0
    d1, d2 = t1.direction, t2.direction
    if _cross(d1, d2) == 0:
        return 0
    by_square = {}
    for seg in t2.segments:
        by_square.setdefault(seg[0], []).append(seg)
    count = 0
    for s, p1, q1 in t1.segments:
        if s not in by_square:
            continue
        e1 = (q1[0] - p1[0], q1[1] - p1[1])
        for _, p2, q2 in by_square[s]:
            e2 = (q2[0] - p2[0], q2[1] - p2[1])
            denom = _cross(e1, e2)
            if denom == 0:
                continue
            w = (p2[0] - p1[0], p2[1] - p1[1])
            t = Fraction(_cross(w, e2), denom)
            u = Fraction(_cross(w, e1), denom)
            if not (0 <= t <= 1 and 0 <= u <= 1):
                continue
            px = p1[0] + t * e1[0]
            py = p1[1] + t * e1[1]
            if 0 <= px < 1 and 0 <= py < 1:
                count += 1
    return count


def _random_origami(rng, n):
    while True:
        h, v = list(range(1, n + 1)), list(range(1, n + 1))
        rng.shuffle(h)
        rng.shuffle(v)
        try:
            return O.build_origami(h, v)
        except ValueError:  # disconnected; draw again
            continue


def test_integer_crossing_matches_fraction_reference():
    rng = random.Random(20181)
    slopes = [Fraction(0), None, Fraction(1), Fraction(-1), Fraction(2),
              Fraction(-1, 2), Fraction(3, 2), Fraction(-2, 3), Fraction(1, 3)]
    surfaces = [L] + [_random_origami(rng, rng.randint(3, 12)) for _ in range(12)]
    compared = 0
    for o in surfaces:
        traces = []
        for sl in slopes:
            try:
                traces.append(O.robust_trace(o, rng.randrange(o.n), sl, offset=Fraction(3, 7)))
            except O.SingularityHit:
                continue
        traces += [O.core_trace(o, c) for d in (O.HORIZONTAL, O.VERTICAL)
                   for c in O.cylinders(o, d)]
        for t1 in traces:
            for t2 in traces:
                assert O.crossing_number(t1, t2) == _fraction_crossing_number(t1, t2)
                compared += 1
    assert compared > 1500


def test_crossing_at_segment_ends_counts_once():
    """On the unit torus, lines through (0, 1/2) of slope 1 and -1 meet the
    horizontal and vertical lines through 1/2 at ends of their segments:
    on the left or bottom edge the crossing counts, on the right or top
    edge (the same point, seen from the next square) it does not."""
    start = (Fraction(0), Fraction(1, 2))
    up = O.trace_from_point(TORUS, 0, start, (1, 1))
    down = O.trace_from_point(TORUS, 0, start, (1, -1))
    horizontal = O.trace_from_point(TORUS, 0, start, (1, 0))
    vertical = O.trace_from_point(TORUS, 0, (Fraction(1, 2), Fraction(0)), (0, 1))
    for t1 in (horizontal, vertical):
        for t2 in (up, down):
            assert O.crossing_number(t1, t2) == 1 == _fraction_crossing_number(t1, t2)
            assert O.crossing_number(t2, t1) == 1 == _fraction_crossing_number(t2, t1)


@st.composite
def _origamis(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    h = draw(st.permutations(range(1, n + 1)))
    v = draw(st.permutations(range(1, n + 1)))
    try:
        return O.build_origami(h, v)
    except ValueError:  # disconnected
        assume(False)


@st.composite
def _edge_traces(draw, o, bound=6):
    """A closed trace from an edge point k/m (m <= 6) in a direction with
    |a|, |b| <= bound, or None when that line meets a vertex."""
    a = draw(st.integers(0, bound))
    b = draw(st.integers(-bound, bound)) if a else 1
    m = draw(st.integers(2, 6))
    k = Fraction(draw(st.integers(1, m - 1)), m)
    point = draw(st.sampled_from([(k, Fraction(0)), (Fraction(0), k)]))
    try:
        return O.trace_from_point(o, draw(st.integers(0, o.n - 1)), point, (a, b))
    except O.SingularityHit:
        return None


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.data())
def test_crossing_number_matches_fraction_reference_on_random_origamis(data):
    """Random origamis (n <= 12), up to three edge traces with small offset
    denominators (so segment ends often lie on the other trace's chords)
    and every cylinder core: each ordered pair agrees with the Fraction
    reference."""
    o = data.draw(_origamis())
    traces = [data.draw(_edge_traces(o)) for _ in range(data.draw(st.integers(1, 3)))]
    traces = [t for t in traces if t is not None]
    traces += [O.core_trace(o, c) for d in (O.HORIZONTAL, O.VERTICAL) for c in O.cylinders(o, d)]
    for t1 in traces:
        for t2 in traces:
            assert O.crossing_number(t1, t2) == _fraction_crossing_number(t1, t2)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_unit_torus_crossing_is_the_determinant(data):
    """On the unit torus, lines of primitive directions (a1, b1), (a2, b2)
    with |a|, |b| <= 12 from random edge points cross |a1*b2 - a2*b1| times."""
    t1, t2 = data.draw(_edge_traces(TORUS, 12)), data.draw(_edge_traces(TORUS, 12))
    assume(t1 is not None and t2 is not None)
    (a1, b1), (a2, b2) = t1.direction, t2.direction
    assert O.crossing_number(t1, t2) == abs(a1 * b2 - a2 * b1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_chains_sum_to_the_holonomy_and_pair_antisymmetrically(data):
    """On random origamis (n <= 12), for traces from edge, top-edge and
    interior starts in directions of either slope sign, and for cores: z sums
    to hx over the bottom edges (even) and to hy over the left edges (odd); c
    sums to hy over the bottom edges and to -hx over the left edges; and
    z1 . c2 = -(z2 . c1), as the intersection form is."""
    o = data.draw(_origamis())
    traces = [data.draw(_edge_traces(o))]
    a = data.draw(st.integers(0, 7))
    b = data.draw(st.integers(-7, 7)) if a else 1
    m = data.draw(st.integers(1, 12))
    fx, fy = Fraction(data.draw(st.integers(0, m - 1)), m), Fraction(data.draw(st.integers(0, m)), m)
    point = data.draw(st.sampled_from([(fx, Fraction(1)), (fx, fy)]))
    try:
        traces.append(O.trace_from_point(o, data.draw(st.integers(0, o.n - 1)), point, (a, b)))
    except O.SingularityHit:
        pass
    traces += [O.core_trace(o, data.draw(st.sampled_from(O.cylinders(o, d))))
               for d in (O.HORIZONTAL, O.VERTICAL)]
    traces = [t for t in traces if t is not None]
    for t in traces:
        (z, c), (hx, hy) = t.chains, t.holonomy
        assert sum(v for e, v in z.items() if e % 2 == 0) == hx
        assert sum(v for e, v in z.items() if e % 2 == 1) == hy
        assert sum(v for e, v in c.items() if e % 2 == 0) == hy
        assert sum(v for e, v in c.items() if e % 2 == 1) == -hx
        assert 0 not in z.values() and 0 not in c.values()
    for t1 in traces:
        for t2 in traces:
            (z1, c1), (z2, c2) = t1.chains, t2.chains
            assert (sum(v * c2.get(e, 0) for e, v in z1.items())
                    == -sum(v * c1.get(e, 0) for e, v in z2.items()))


# ---------------------------------------------------------------------------
# Transverse measures and brackets


def test_i_with_foliation_shear():
    """L's wide horizontal core sheared by 10: deform * holonomy is (2, 20), and
    the growth report's vertical and horizontal measures are 2 and 20."""
    wide_h = [c for c in O.cylinders(L, O.HORIZONTAL) if c.circumference == 2][0]
    t = O.core_trace(L, wide_h)
    assert t.holonomy == (2, 0)
    x = O.horocycle_flow(O.MarkedFlatSurface.base_point(L), Fraction(10))
    m, (hx, hy) = x.deform, t.holonomy
    assert (m.a * hx + m.b * hy, m.c * hx + m.d * hy) == (2, 20)
    rep = O.horocycle_growth_check(t, x, [1, 2, 3])
    assert (rep.i_vertical, rep.i_horizontal) == (2, 20)


def test_ext_bracket_cylinder_core():
    x = O.MarkedFlatSurface.base_point(L)
    wide_v = [c for c in O.cylinders(L, O.VERTICAL) if c.circumference == 2][0]
    br = O.ext_bracket(O.core_trace(L, wide_v), x)
    assert br.lo == pytest.approx(4 / 3, rel=1e-12)
    assert br.hi == pytest.approx(2.0, rel=1e-12)
    assert br.lo <= br.hi


def _scan_cylinder_for(t):
    """Reference: the linear scan over the direction's cylinders."""
    direction = {(1, 0): O.HORIZONTAL, (0, 1): O.VERTICAL}.get(t.direction)
    if direction is None:
        return None
    wraps = abs(t.holonomy[0] + t.holonomy[1])
    for cyl in O.cylinders(t.origami, direction):
        if {s for s, _, _ in t.segments} <= set(cyl.all_squares) and wraps == cyl.circumference:
            return cyl
    return None


def test_core_trace_matches_the_general_trace_at_fresh_sizes():
    """On origamis of up to 200 squares, in both directions, each core built
    from its cylinder equals trace_from_point from the middle of its first
    square's left or bottom edge, with the same chains and Ext lower
    end at a flowed point.  The core carries the cylinder the linear scan finds,
    and its upper end is that cylinder's exact bound rounded up; the general
    trace carries none, so its upper end is inf."""
    rng = random.Random(21)
    starts = {O.HORIZONTAL: ((O._ZERO, O._HALF), (1, 0)), O.VERTICAL: ((O._HALF, O._ZERO), (0, 1))}
    # 10 x 20 grids whose rows all merge into one tall cylinder: a loop of bands
    # (a torus), or an open chain (the top row glued back with two columns swapped)
    grids = [[r * 10 + (c + 1) % 10 + 1 for r in range(20) for c in range(10)]]
    grids += [[(r + 1) * 10 + c + 1 if r < 19 else top[c] for r in range(20) for c in range(10)]
              for top in (range(1, 11), (2, 1, *range(3, 11)))]
    surfaces = [O.build_origami(grids[0], v) for v in grids[1:]]
    surfaces += [_random_origami(rng, rng.randint(41, 200)) for _ in range(16)]
    cores = 0
    for o in surfaces:
        x = O.horocycle_flow(O.geodesic_flow(O.MarkedFlatSurface.base_point(o),
                                             stretch=Fraction(3, 2)), Fraction(-5, 7))
        for direction, (point, vector) in starts.items():
            for c in O.cylinders(o, direction):
                t = O.core_trace(o, c)
                ref = O.trace_from_point(o, c.squares[0], point, vector)
                assert t == ref and t.chains == ref.chains
                br, general = O.ext_bracket(t, x), O.ext_bracket(ref, x)
                assert br.lo == general.lo and general.hi == math.inf
                assert t._cylinder == _scan_cylinder_for(ref) == c
                assert br.hi == _float_toward(_ext_bounds(t, x)[1], math.inf)
                cores += 1
    assert cores > 100
    assert [c.height for o in surfaces[:2] for c in O.cylinders(o, O.HORIZONTAL)] == [20, 20]


def test_ext_bracket_non_periodic_direction_unbounded_above():
    x = O.MarkedFlatSurface.base_point(L)
    t = O.robust_trace(L, 0, Fraction(1))
    br = O.ext_bracket(t, x)
    assert br.hi == math.inf
    assert br.lo == pytest.approx(18 / 3, rel=1e-12)


def _ext_bounds(t, x):
    """The flat lower bound and the cylinder upper bound (None off a
    core_trace), exact over Fractions of the deform entries."""
    a, b, c, d = (Fraction(v) for v in (x.deform.a, x.deform.b, x.deform.c, x.deform.d))
    det = a * d - b * c
    hx, hy = t.holonomy
    flat = ((a * hx + b * hy) ** 2 + (c * hx + d * hy) ** 2) / (det * x.base.n)
    cyl = t._cylinder
    if cyl is None:
        return flat, None
    ux, uy = (a, c) if cyl.direction == O.HORIZONTAL else (b, d)
    return flat, cyl.circumference * (ux * ux + uy * uy) / (det * cyl.height)


def _float_toward(v, toward):
    """float(v), one ulp toward ``toward`` if it lies on the other side of v."""
    f = float(v)
    if (Fraction(f) > v) if toward < 0 else (Fraction(f) < v):
        f = math.nextafter(f, toward)
    return f


def _random_marking(rng, x):
    """One to three flows, each a rational shear or stretch, a double shear
    |s| <= 50 or a double geodesic time |t| <= 5."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            x = O.horocycle_flow(x, Fraction(rng.randint(-500, 500), rng.randint(1, 10)))
        elif kind == 1:
            x = O.geodesic_flow(x, stretch=Fraction(rng.randint(1, 40), rng.randint(1, 40)))
        elif kind == 2:
            x = O.horocycle_flow(x, rng.uniform(-50.0, 50.0))
        else:
            x = O.geodesic_flow(x, t=rng.uniform(-5.0, 5.0))
    return x


def test_ext_bracket_encloses_the_exact_bounds():
    """The flows take double parameters at their exact values, so every
    marking is exact, and the bracket is each bound rounded to nearest, then
    one ulp outward if on the wrong side, with lo capped at hi."""
    rng = random.Random(15)
    checked = 0
    for o in (L, STAIRCASE):
        traces = [O.core_trace(o, c) for d in (O.HORIZONTAL, O.VERTICAL)
                  for c in O.cylinders(o, d)]
        traces += [O.robust_trace(o, 0, Fraction(s)) for s in ("1", "-1/2", "2/3")]
        base = O.MarkedFlatSurface.base_point(o)
        for _ in range(250):
            x = _random_marking(rng, base)
            for t in traces:
                br = O.ext_bracket(t, x)
                flat, cyl = _ext_bounds(t, x)
                lo = _float_toward(flat, -math.inf)
                hi = math.inf if cyl is None else _float_toward(cyl, math.inf)
                assert (br.lo, br.hi) == (min(lo, hi), hi)
                checked += 1
    assert checked > 3000


def test_weighted_ext_bracket_rounds_once():
    """ext_bracket(t, x, w^2) is w^2 times each exact bound, rounded to
    nearest and then one ulp outward if on the wrong side: one rounding,
    not a product of brackets."""
    rng = random.Random(16)
    for o in (L, STAIRCASE):
        traces = [O.core_trace(o, c) for d in (O.HORIZONTAL, O.VERTICAL)
                  for c in O.cylinders(o, d)]
        base = O.MarkedFlatSurface.base_point(o)
        for x in [base] + [_random_marking(rng, base) for _ in range(40)]:
            for _ in range(30):
                w2 = Fraction(rng.randint(1, 59), rng.randint(1, 59)) ** 2
                for t in traces:
                    flat, cyl = _ext_bounds(t, x)
                    assert O.ext_bracket(t, x, w2) == Bracket(
                        _float_toward(w2 * flat, -math.inf), _float_toward(w2 * cyl, math.inf))


@pytest.mark.parametrize("log2_excess, core, sign", [
    (969, True, 1), (969, False, 1), (971, True, 1), (971, False, 1), (969, False, -1)])
def test_ext_bracket_refuses_an_end_past_the_doubles(log2_excess, core, sign):
    """An end whose exact value lies past the doubles is a ValueError, also within half an
    ulp of the largest, where n / d rounds to it: the upper end of L's wide horizontal
    core (the cylinder bound), and the flat bound's ends on the slope-1 trace."""
    t = O.core_trace(L, WIDE_H) if core else SLOPE_1
    flat, cyl = _ext_bounds(t, BASE)
    w2 = sign * (Fraction(sys.float_info.max) + 2**log2_excess) / (cyl if core else flat)
    with pytest.raises(ValueError, match="^a value is beyond the double range$"):
        O.ext_bracket(t, BASE, w2)


@pytest.mark.parametrize("w2", [-1, Fraction(-1, 3), 0], ids=["-1", "-1/3", "0"])
def test_ext_bracket_refuses_a_negative_squared_weight(w2):
    """A negative w2 is a ValueError of its own on a core and on the slope-1 trace, not an
    enclosure below 0 or an empty Bracket; w2 = 0 is [0, 0] on a core, [0, inf] off one."""
    core = O.core_trace(L, WIDE_H)
    if w2 < 0:
        for t in (core, SLOPE_1):
            with pytest.raises(ValueError, match="^squared weight must not be negative$"):
                O.ext_bracket(t, BASE, w2)
    else:
        assert O.ext_bracket(core, BASE, w2) == Bracket(0.0, 0.0)
        assert O.ext_bracket(SLOPE_1, BASE, w2) == Bracket(0.0, math.inf)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.floats(-30.0, 30.0), st.floats(-1e6, 1e6))
def test_flows_at_double_parameters_are_exact(t, s):
    """A double time and shear are flowed at their exact values: the marking
    stays in SL(2, Q), and Ext of the vertical foliation is n / k^2 with k
    the double e^t."""
    x = O.horocycle_flow(O.geodesic_flow(O.MarkedFlatSurface.base_point(L), t=t), s)
    assert x.deform.det() == 1
    assert O.ext_vertical(x) == L.n / Fraction(math.exp(t)) ** 2


def _product(m, n):
    """The matrix product m n."""
    return Mat2(m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
                m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d)


def test_flowed_markings_match_fraction_products():
    """One to four flows (a rational or double shear, a rational stretch, a double
    time) give the marking that is the Fraction product of their matrices: its
    deform, gram (over the entries' common denominator), both direction extremal
    lengths and ext_bracket on every cylinder core are that product's, and the
    point equals, hashes and prints as the one built from it.  A NaN or infinite
    shear or stretch raises ValueError."""
    rng = random.Random(28)
    surfaces = [L, STAIRCASE] + [_random_origami(rng, rng.randint(2, 30)) for _ in range(4)]
    checked = 0
    for o in surfaces:
        cores = [O.core_trace(o, c) for d in (O.HORIZONTAL, O.VERTICAL)
                 for c in O.cylinders(o, d)]
        base = O.MarkedFlatSurface.base_point(o)
        for _ in range(50):
            x, ref = base, Mat2(Fraction(1), Fraction(0), Fraction(0), Fraction(1))
            for _ in range(rng.randint(1, 4)):
                kind = rng.randrange(4)
                if kind < 2:
                    s = (Fraction(rng.randint(-500, 500), rng.randint(1, 10)) if kind == 0
                         else rng.uniform(-50.0, 50.0))
                    x, ref = O.horocycle_flow(x, s), _product(Mat2(1, 0, Fraction(s), 1), ref)
                    continue
                if kind == 2:
                    k = Fraction(rng.randint(1, 40), rng.randint(1, 40))
                    x = O.geodesic_flow(x, stretch=k)
                else:
                    t = rng.uniform(-5.0, 5.0)
                    x, k = O.geodesic_flow(x, t=t), Fraction(math.exp(t))
                ref = _product(Mat2(k, 0, 0, 1 / k), ref)
            a, b, c, d = ref.a, ref.b, ref.c, ref.d
            det, q = a * d - b * c, math.lcm(*(e.denominator for e in (a, b, c, d)))
            assert x.deform == ref
            assert x.gram == tuple(q * q * v for v in (a * a + c * c, a * b + c * d,
                                                       b * b + d * d, det))
            assert O.ext_vertical(x) == o.n * (b * b + d * d) / det
            assert O.ext_horizontal(x) == o.n * (a * a + c * c) / det
            y = O.MarkedFlatSurface(o, ref)
            assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
            for t in cores:
                flat, cyl = _ext_bounds(t, y)
                lo, hi = _float_toward(flat, -math.inf), _float_toward(cyl, math.inf)
                assert O.ext_bracket(t, x) == Bracket(min(lo, hi), hi)
                checked += 1
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(Exception) as shear:
                O.horocycle_flow(x, bad)
            with pytest.raises(Exception) as stretch:
                O.geodesic_flow(x, stretch=bad)
            assert type(shear.value) is type(stretch.value) is ValueError
    assert checked > 1000


def test_growth_check_quadratic():
    x = O.MarkedFlatSurface.base_point(L)
    wide_h = [c for c in O.cylinders(L, O.HORIZONTAL) if c.circumference == 2][0]
    t = O.core_trace(L, wide_h)
    rep = O.horocycle_growth_check(t, x, [1, 2, 3, 5, 8, 13, 21])
    assert rep.ok
    assert rep.quad_coefficient == pytest.approx(4 / 3, rel=1e-9)
    assert rep.relative_residual < 1e-9


def test_growth_check_measures_are_deform_times_holonomy():
    """The report's i_vertical and i_horizontal are the absolute coordinates of
    x.deform times the trace's holonomy, formed here in Fractions: on L, the
    staircase and seeded 1-9 square origamis, for every cylinder core and traces
    of slopes of both signs, at points flowed by rational stretches and shears
    and at points marked by a rational matrix.  A trace the deformed vertical
    foliation does not cross raises ValueError."""
    rng = random.Random(47)
    surfaces = [L, STAIRCASE] + [_random_origami(rng, rng.randint(1, 9)) for _ in range(8)]
    slopes = [Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-3, 2), Fraction(-1, 4)]

    def rational():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    checked = 0
    for o in surfaces:
        traces = [O.core_trace(o, c) for d in (O.HORIZONTAL, O.VERTICAL)
                  for c in O.cylinders(o, d)] + [O.robust_trace(o, 0, s) for s in slopes]
        for _ in range(6):
            x = O.MarkedFlatSurface.base_point(o)
            for _ in range(rng.randint(1, 4)):
                x = (O.horocycle_flow(x, rational()) if rng.random() < 0.5 else
                     O.geodesic_flow(x, stretch=Fraction(rng.randint(1, 30), rng.randint(1, 30))))
            points = [x]
            while len(points) < 2:
                m = Mat2(*(rational() for _ in "abcd"))
                if m.det() > 0:
                    points.append(O.MarkedFlatSurface(o, m))
            for x, t in itertools.product(points, traces):
                (a, b, c, d), (hx, hy) = (x.deform.a, x.deform.b, x.deform.c, x.deform.d), t.holonomy
                i_v, i_h = abs(a * hx + b * hy), abs(c * hx + d * hy)
                if not i_v:
                    with pytest.raises(ValueError, match="^trace must cross the vertical"):
                        O.horocycle_growth_check(t, x, [1])
                    continue
                rep = O.horocycle_growth_check(t, x, [1])
                assert (rep.i_vertical, rep.i_horizontal) == (i_v, i_h), (o, x, t)
                assert type(rep.i_vertical) is type(rep.i_horizontal) is Fraction
                checked += 1
    assert checked > 500


def cramer_quadratic(s_values, los):
    """(c0, c1, c2) of the least-squares fit lo ~ c0 + c1 s + c2 s^2, exact:
    the normal equations solved by Cramer's rule over Fractions."""
    pts = [(Fraction(s), Fraction(lo)) for s, lo in zip(s_values, los)]
    gram = [[sum(s ** (i + j) for s, _ in pts) for j in range(3)] for i in range(3)]
    rhs = [sum(s ** i * lo for s, lo in pts) for i in range(3)]

    def det(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det(gram)
    return [det([[rhs[i] if j == col else gram[i][j] for j in range(3)] for i in range(3)]) / d
            for col in range(3)]


def growth_check_on(s_values, los):
    """horocycle_growth_check on L's wide horizontal core with ext_bracket
    returning the given lower bounds in turn."""
    x = O.MarkedFlatSurface.base_point(L)
    wide_h = [c for c in O.cylinders(L, O.HORIZONTAL) if c.circumference == 2][0]
    brackets = iter([Bracket(lo, math.inf) for lo in los])
    with mock.patch.object(O, "ext_bracket", lambda t, xs: next(brackets)):
        return O.horocycle_growth_check(O.core_trace(L, wide_h), x, s_values)


def test_growth_fit_is_the_exact_fit_rounded_once():
    """On the README case: the coefficient is the exact least-squares c2
    rounded once, and the residual the exact relative residual rounded once.
    A coefficient beyond the doubles raises ValueError."""
    x = O.MarkedFlatSurface.base_point(L)
    s_values = [1.0, 2.0, 3.0, 5.0, 10.0, 20.0]
    rep = O.horocycle_growth_check(O.robust_trace(L, 0, Fraction(0), offset=Fraction(1, 2)),
                                   x, s_values)
    c0, c1, c2 = cramer_quadratic(s_values, rep.lower_bounds)
    assert rep.quad_coefficient == float(c2)
    los = [Fraction(lo) for lo in rep.lower_bounds]
    err = max(abs(c0 + c1 * Fraction(s) + c2 * Fraction(s) ** 2 - lo)
              for s, lo in zip(s_values, los))
    assert rep.relative_residual == float(err / max(los))
    # fewer than three distinct s values determine no quadratic
    rep = growth_check_on([1.0, 1.0, 2.0], [1.0, 1.0, 4.0])
    assert rep.quad_coefficient is None and rep.relative_residual is None
    # a coefficient beyond the doubles (about -4e655 here) is a ValueError
    with pytest.raises(ValueError, match="^a value is beyond the double range$"):
        growth_check_on([0.0, 5e-324, 1e-323], [0.0, 1e9, 0.0])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=8, unique=True),
    st.data(),
)
def test_growth_fit_matches_cramer(s_values, data):
    los = data.draw(st.lists(st.floats(0, 1e9), min_size=len(s_values),
                             max_size=len(s_values)))
    c2 = cramer_quadratic(s_values, los)[2]
    if abs(c2) < 2**1024 - 2**970:  # rounds to a finite double
        assert growth_check_on(s_values, los).quad_coefficient == float(c2)
    else:
        with pytest.raises(ValueError, match="^a value is beyond the double range$"):
            growth_check_on(s_values, los)
    # lo exactly on a quadratic (integers, so every lo is a double): residual 0
    ints = data.draw(st.lists(st.integers(-1000, 1000), min_size=3, max_size=8, unique=True))
    a, b, c = data.draw(st.tuples(*[st.integers(-1000, 1000)] * 3))
    rep = growth_check_on(ints, [float(a + b * s + c * s * s) for s in ints])
    assert rep.relative_residual == 0.0 and rep.quad_coefficient == c


def test_growth_check_requires_vertical_crossing():
    x = O.MarkedFlatSurface.base_point(L)
    wide_v = [c for c in O.cylinders(L, O.VERTICAL) if c.circumference == 2][0]
    with pytest.raises(ValueError):
        O.horocycle_growth_check(O.core_trace(L, wide_v), x, [1.0])


# ---------------------------------------------------------------------------
# Walsh


def test_canonical_foliation_weights():
    fv = O.canonical_vertical_foliation(L)
    assert sorted((int(w), c.circumference) for w, c in fv.components) == [
        (1, 1),
        (1, 2),
    ]
    # total weighted flat area reproduces the surface area
    assert sum(w * c.circumference * 1 for w, c in fv.components) == 3


def test_walsh_E_value():
    fv = O.canonical_vertical_foliation(L)
    x = O.MarkedFlatSurface.base_point(L)
    wide_h = [c for c in O.cylinders(L, O.HORIZONTAL) if c.circumference == 2][0]
    gamma = O.core_trace(L, wide_h)
    assert O.walsh_E(fv, gamma, x) == Fraction(3, 2)
    narrow_h = [c for c in O.cylinders(L, O.HORIZONTAL) if c.circumference == 1][0]
    assert O.walsh_E(fv, O.core_trace(L, narrow_h), x) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# Re-marking action


def _find_relabeling(target, reference):
    """The square renaming that carries target's gluings onto reference's, or None."""
    for perm in itertools.permutations(range(reference.n)):
        h2 = tuple(perm[target.h[perm.index(i)]] for i in range(reference.n))
        v2 = tuple(perm[target.v[perm.index(i)]] for i in range(reference.n))
        if h2 == reference.h and v2 == reference.v:
            return perm
    return None


def test_remark_rejects_non_unimodular():
    with pytest.raises(ValueError, match="^re-marking matrix must be unimodular$"):
        O.remark(L, Mat2(2, 0, 0, 2))
    with pytest.raises(ValueError, match="^re-marking matrix must be unimodular$"):
        O.remark(L, Mat2(1, 2, 2, 4))  # singular
    with pytest.raises(ValueError, match="^re-marking matrix must be integer$"):
        O.remark(L, Mat2(Fraction(1, 2), 0, 0, 2))
    with pytest.raises(ValueError, match="^re-marking matrix must be integer$"):
        O.remark(L, Mat2(1.0, 0, 0, 1))


def test_remark_identity_and_stabilizers():
    """I, -I and F fix L with its square names.  T^2 fixes L up to the names of
    its squares, which the centre rule chooses: the property is T^2 L isomorphic to L."""
    for m in [Mat2(1, 0, 0, 1), Mat2(-1, 0, 0, -1), Mat2(1, 0, 0, -1)]:
        assert O.remark(L, m).target == L
    assert _find_relabeling(O.remark(L, Mat2(1, 2, 0, 1)).target, L) is not None


def test_remark_preserves_invariants():
    for m in [Mat2(2, 1, 1, 1), Mat2(0, -1, 1, 0), Mat2(1, 5, 0, 1), Mat2(1, 0, 3, 1)]:
        o2 = O.remark(L, m).target
        assert o2.n == L.n
        assert o2.genus == L.genus
        assert o2.singularities == L.singularities


@pytest.mark.parametrize("m", [(1, 1, 0, 1), (1, 0, 1, 1), (2, 1, 1, 1)])
def test_remark_maps_interior_starts_to_closed_traces(m):
    # T moves a left-edge start (0, y) of a horizontal core to (y, y)
    traces = [O.core_trace(L, c) for d in (O.HORIZONTAL, O.VERTICAL) for c in O.cylinders(L, d)]
    traces.append(O.robust_trace(L, 0, Fraction(1)))
    act = O.remark(L, Mat2(*m))
    mapped = [act.map_trace(t) for t in traces]
    for t, t2 in zip(traces, mapped):
        assert t2.direction == act.map_direction(t.direction)
    for a in range(len(traces)):
        for b in range(len(traces)):
            assert O.crossing_number(mapped[a], mapped[b]) == O.crossing_number(traces[a], traces[b])


def test_remark_preserves_crossing_numbers():
    t1 = O.robust_trace(L, 0, Fraction(1))
    wide_v = [c for c in O.cylinders(L, O.VERTICAL) if c.circumference == 2][0]
    t2 = O.core_trace(L, wide_v)
    base = O.crossing_number(t1, t2)
    for m in [Mat2(2, 1, 1, 1), Mat2(1, 1, 0, 1), Mat2(0, -1, 1, 0)]:
        act = O.remark(L, m)
        assert O.crossing_number(act.map_trace(t1), act.map_trace(t2)) == base


def _walk(o, s, x, y, dx, dy):
    """Move a short exact vector inside the tiling, crossing at most one
    edge per coordinate."""
    x, y = x + dx, y + dy
    if x >= 1:
        x -= 1
        s = o.h[s]
    elif x < 0:
        x += 1
        s = o.h.index(s)
    if y >= 1:
        y -= 1
        s = o.v[s]
    elif y < 0:
        y += 1
        s = o.v.index(s)
    return s, x, y


REMARK_MATRICES = [(1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0), (1, 0, 0, -1),  # T, T^-1, S, F
                   (2, 1, 1, 1), (3, 7, 2, 5), (-3, 2, 1, -1), (0, 1, 1, 0), (1, 0, -4, 1),
                   (5, 2, 2, 1)]


def test_generator_point_maps_respect_gluings():
    """Cut-and-reglue oracle: nearby points across an old gluing stay nearby
    across the corresponding new gluing, for the generators and composites."""
    d = Fraction(1, 97)
    y0 = Fraction(1, 3)
    for o in (L, T2, TORUS, STAIRCASE):
        for m in REMARK_MATRICES:
            act, mg = O.remark(o, Mat2(*m)), Mat2(*m)
            for s in range(o.n):
                # pair straddling the right edge of square s
                a = act.map_point(s, (1 - d, y0))
                b = act.map_point(o.h[s], (d, y0))
                dx, dy = mg.a * 2 * d, mg.c * 2 * d  # mg times (2 d, 0)
                assert _walk(act.target, a[0], *a[1], Fraction(dx), Fraction(dy)) == (b[0], *b[1])
                # pair straddling the top edge of square s
                a = act.map_point(s, (y0, 1 - d))
                b = act.map_point(o.v[s], (y0, d))
                dx, dy = mg.b * 2 * d, mg.d * 2 * d  # mg times (0, 2 d)
                assert _walk(act.target, a[0], *a[1], Fraction(dx), Fraction(dy)) == (b[0], *b[1])


def _primitive(x, y):
    g = math.gcd(x, y)
    return (x // g, y // g) if x > 0 or (x == 0 and y > 0) else (-x // g, -y // g)


def test_remark_on_random_origamis():
    """Seeded connected origamis (n <= 30) and unimodular m (|entries| <= 13, both
    determinants): the cone data is kept, directions map to the primitive m d, and
    the mapped cores and robust traces cross as the originals do."""
    rng = random.Random(25)
    for _ in range(40):
        o = _random_origami(rng, rng.randint(2, 30))
        while True:
            m = tuple(rng.randint(-13, 13) for _ in range(4))
            if abs(m[0] * m[3] - m[1] * m[2]) == 1:
                break
        act = O.remark(o, Mat2(*m))
        assert (act.target.n, act.target.genus, act.target.singularities) == \
            (o.n, o.genus, o.singularities)
        traces = [O.core_trace(o, c) for d in (O.HORIZONTAL, O.VERTICAL) for c in O.cylinders(o, d)]
        traces += [O.robust_trace(o, 0, sl) for sl in (Fraction(1), Fraction(-1, 2))]
        mapped = [act.map_trace(t) for t in traces]
        for t, t2 in zip(traces, mapped):
            assert t2.direction == act.map_direction(t.direction) == \
                _primitive(m[0] * t.direction[0] + m[1] * t.direction[1],
                           m[2] * t.direction[0] + m[3] * t.direction[1])
        for a, b in itertools.combinations(range(len(traces)), 2):
            assert O.crossing_number(mapped[a], mapped[b]) == O.crossing_number(traces[a], traces[b])


def test_remark_maps_directions():
    act = O.remark(L, Mat2(1, 1, 0, 1))
    assert act.map_direction((0, 1)) == (1, 1)
    assert act.map_direction((1, 0)) == (1, 0)
    act_s = O.remark(L, Mat2(0, -1, 1, 0))
    assert act_s.map_direction((1, 0)) == (0, 1)


# ---------------------------------------------------------------------------
# The input contract: an answer or a ValueError

ORIGAMI_EDGE = st.sampled_from([math.inf, -math.inf, math.nan, 1.7e308, -1.7e308,
                                Fraction(10**400), Fraction(-10**400), Fraction(1, 10**400),
                                Fraction(-3, 7), 2.5, 1])
BASE = O.MarkedFlatSurface.base_point(L)
WIDE_H = next(c for c in O.cylinders(L, O.HORIZONTAL) if c.circumference == 2)
SLOPE_1 = O.robust_trace(L, 0, Fraction(1))


def _vertical(w):
    return O.MulticurveFoliation(((w, O.cylinders(L, O.VERTICAL)[0]),))


def _flowed(v, w):
    return O.horocycle_flow(O.geodesic_flow(BASE, stretch=v), w)


BACKEND, FH = H.OrigamiBackend(L), O.canonical_horizontal_foliation(L)
PUBLIC_ORIGAMI_CALLS = {
    "geodesic_flow(t)": lambda v, w: O.geodesic_flow(BASE, t=v),
    "geodesic_flow(stretch)": lambda v, w: O.geodesic_flow(BASE, stretch=v),
    "horocycle_flow": lambda v, w: O.horocycle_flow(BASE, v),
    "MarkedFlatSurface": lambda v, w: O.MarkedFlatSurface(L, Mat2(v, 0, w, 1)),
    "robust_trace(slope)": lambda v, w: O.robust_trace(L, 0, v),
    "robust_trace(offset)": lambda v, w: O.robust_trace(L, 0, Fraction(1), offset=v),
    "trace_from_point": lambda v, w: O.trace_from_point(L, 0, (v, w), (2, 1)),
    "trace_from_point(direction)": lambda v, w: O.trace_from_point(
        L, 0, (Fraction(1, 2), 0), (v, w)),
    "ext_bracket": lambda v, w: O.ext_bracket(O.core_trace(L, WIDE_H), _flowed(v, 1), w),
    "ext_vertical": lambda v, w: O.ext_vertical(_flowed(v, w)),
    "horocycle_growth_check(measures)": lambda v, w: O.horocycle_growth_check(
        SLOPE_1, _flowed(v, w), []),
    "horocycle_growth_check(s)": lambda v, w: O.horocycle_growth_check(
        SLOPE_1, BASE, [v, w, 1.0]),
    "horocycle_growth_check(x)": lambda v, w: O.horocycle_growth_check(
        SLOPE_1, _flowed(v, w), [1.0, 2.0, 3.0]),
    "walsh_E": lambda v, w: O.walsh_E(O.canonical_vertical_foliation(L), SLOPE_1, _flowed(v, w)),
    "MulticurveFoliation": lambda v, w: _vertical(v),
    "RemarkAction.map_point": lambda v, w: O.remark(L, Mat2(1, 1, 0, 1)).map_point(0, (v, w)),
    "OrigamiBackend.ext": lambda v, w: BACKEND.ext(_flowed(v, 1), _vertical(w)),
    "classify": lambda v, w: H.classify(H.HoroBall(_vertical(v), w), H.HoroBall(FH, 1), BACKEND),
    "inclusion_probe": lambda v, w: H.inclusion_probe(H.HoroBall(_vertical(1), v),
                                                      H.HoroBall(FH, w), BACKEND),
}


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(PUBLIC_ORIGAMI_CALLS)), ORIGAMI_EDGE, ORIGAMI_EDGE)
@example("geodesic_flow(stretch)", math.inf, 1)
@example("horocycle_flow", math.inf, 1)
@example("robust_trace(slope)", math.inf, 1)
@example("trace_from_point", math.inf, 0)
@example("trace_from_point(direction)", 2.0, 1.0)
@example("horocycle_growth_check(s)", 1e155, 1e155)
def test_origami_public_api_answers_or_raises_value_error(name, v, w):
    """Each public origami function, and the horolab calls on the origami
    backend, answers or raises ValueError for infinite, NaN, huge and tiny
    parameters; never OverflowError or ZeroDivisionError.  A trace whose step
    budget runs out raises TraceNotClosed, the budget outcome."""
    try:
        PUBLIC_ORIGAMI_CALLS[name](v, w)
    except (ValueError, TraceNotClosed):
        pass
