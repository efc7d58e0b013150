import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from horoteich.kernel import Bracket, UpperHalfPoint
from horoteich import horolab as H
from horoteich import origami as O
from horoteich import torus as T


BE = H.TorusBackend()
L = O.build_origami([2, 1, 3], [3, 2, 1])
OB = H.OrigamiBackend(L)
STAIRCASE = O.build_origami([2, 1, 4, 3, 5], [1, 3, 2, 5, 4])


def fol(p, q, w=Fraction(1)):
    return T.WeightedTorusFoliation(w, T.TorusCurve(p, q))


def tspec(p, q, level):
    return T.HoroSpec.create(fol(p, q), Fraction(level))


CURVES_7 = [(p, q) for p in range(8) for q in range(-7, 8) if math.gcd(p, q) == 1]


# ---------------------------------------------------------------------------
# classify


def test_classify_transverse_tags():
    assert H.classify(tspec(1, 0, 1), tspec(0, 1, 1), BE).tag == H.TANGENT
    assert (
        H.classify(tspec(1, 0, Fraction(1, 2)), tspec(0, 1, 1), BE).tag
        == H.DISJOINT_BALLS
    )
    assert H.classify(tspec(1, 0, 2), tspec(0, 1, 1), BE).tag == H.OVERLAPPING


def test_classify_perturbation_flips_tag():
    eps = Fraction(1, 10**6)
    h2 = tspec(0, 1, 1)
    assert H.classify(tspec(1, 0, 1 + eps), h2, BE).tag == H.OVERLAPPING
    assert H.classify(tspec(1, 0, 1 - eps), h2, BE).tag == H.DISJOINT_BALLS


def test_classify_swap_symmetry():
    rng = np.random.default_rng(11)
    curves = [(1, 0), (0, 1), (1, 1), (2, 1), (3, -2)]
    for _ in range(50):
        i1, i2 = rng.choice(len(curves), 2, replace=False)
        l1 = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        l2 = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        h1 = tspec(*curves[i1], l1)
        h2 = tspec(*curves[i2], l2)
        t1 = H.classify(h1, h2, BE).tag
        t2 = H.classify(h2, h1, BE).tag
        swap = {H.NESTED_FORWARD: H.NESTED_BACKWARD, H.NESTED_BACKWARD: H.NESTED_FORWARD}
        assert t2 == swap.get(t1, t1)


def test_classify_float_levels_compare_exactly():
    """A float level is the rational it denotes: fl(0.1) * 10 is above 1, so
    the balls overlap, although the float product rounds to 1.0."""
    rel = H.classify(H.HoroBall(fol(1, 0), 0.1), H.HoroBall(fol(0, 1), 10.0), BE)
    assert rel.tag == H.OVERLAPPING
    assert rel.detail["product"] == Fraction(0.1) * 10 and rel.detail["i_squared"] == 1


def test_classify_parallel_nests_by_level():
    rel = H.classify(tspec(1, 0, 2), tspec(1, 0, 1), BE)
    assert rel.tag == H.NESTED_FORWARD  # smaller ball (second) sits inside
    rel = H.classify(tspec(1, 0, 1), tspec(1, 0, 2), BE)
    assert rel.tag == H.NESTED_BACKWARD


def test_classify_origami_component_nesting():
    fv = O.canonical_vertical_foliation(L)
    comp = O.MulticurveFoliation((fv.components[0],))
    rel = H.classify(H.HoroBall(comp, Fraction(3)), H.HoroBall(fv, Fraction(3)), OB)
    assert rel.tag == H.NESTED_FORWARD
    rel = H.classify(H.HoroBall(fv, Fraction(3)), H.HoroBall(comp, Fraction(3)), OB)
    assert rel.tag == H.NESTED_BACKWARD


def test_classify_origami_transverse():
    fv = O.canonical_vertical_foliation(L)
    fh = O.canonical_horizontal_foliation(L)
    i = OB.intersect(fv, fh)
    assert i > 0
    rel = H.classify(H.HoroBall(fv, i), H.HoroBall(fh, i), OB)
    assert rel.tag == H.TANGENT


def test_tangent_and_overlapping_need_a_filling_pair():
    """The torus backend: two distinct classes fill.  The origami backend: the
    canonical foliations of two directions fill, on L and on the staircase;
    a single core of L is not decided.  For such a pair classify says
    DisjointBalls below i^2 and Undecided at or above it."""
    assert BE.fills(fol(1, 0), fol(2, 1)) and not BE.fills(fol(1, 0), fol(1, 0, Fraction(2)))
    for o in (L, STAIRCASE):
        fv, fh = O.canonical_vertical_foliation(o), O.canonical_horizontal_foliation(o)
        assert H.OrigamiBackend(o).fills(fv, fh) is True
        assert H.OrigamiBackend(o).fills(fv, fv) is None
    fv, fh = O.canonical_vertical_foliation(L), O.canonical_horizontal_foliation(L)
    core, i = O.MulticurveFoliation((fv.components[0],)), OB.intersect(fv, fh)
    assert OB.fills(core, fh) is None and OB.intersect(core, fh) == 2
    assert H.classify(H.HoroBall(fv, i), H.HoroBall(fh, 2 * i), OB).tag == H.OVERLAPPING
    for level, tag in [(1, H.DISJOINT_BALLS), (2, H.UNDECIDED), (3, H.UNDECIDED)]:
        assert H.classify(H.HoroBall(core, level), H.HoroBall(fh, 2), OB).tag == tag


# ---------------------------------------------------------------------------
# busemann_estimate


def test_busemann_estimate_trivial_and_on_ray():
    x0 = UpperHalfPoint(0.0, 1.0)
    f = T.WeightedTorusFoliation(Fraction(1), T.TorusCurve(1, 0))
    est = H.busemann_estimate(x0, f, x0, BE, tol=1e-9)
    assert est.certified and abs(est.value) <= est.radius <= 1e-9
    ray, _, _ = T.torus_ray(x0, f)
    est = H.busemann_estimate(x0, f, ray(0.75), BE, tol=1e-9)
    assert est.certified and est.value == pytest.approx(-0.75, abs=1e-8)


def test_busemann_estimate_matches_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x0 = UpperHalfPoint(float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 3)))
        x = UpperHalfPoint(float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 3)))
        f = T.WeightedTorusFoliation(Fraction(1), T.TorusCurve(1, int(rng.integers(-3, 4))))
        est = H.busemann_estimate(x0, f, x, BE, tol=1e-7)
        assert est.certified
        assert est.value == pytest.approx(T.busemann(x0, f, x), abs=2e-7)
        # recorded trace is non-increasing
        ds = [d for _, d in est.trace]
        assert all(b <= a + 1e-9 for a, b in zip(ds, ds[1:]))


def d_truth(x0, p, q, x, t):
    """D(t) = d_T(x, ray(t)) - t at the double inputs, in mpmath, with the ray
    r0 + i u0 e^{2t} in the chart M of (p, q), M x0 = r0 + i u0."""
    m = T.TorusCurve(p, q).chart

    def act(z):
        w = (m.a * (mpmath.mpf(z.x) + 1j * mpmath.mpf(z.y)) + m.b) / (
            m.c * (mpmath.mpf(z.x) + 1j * mpmath.mpf(z.y)) + m.d)
        return w.real, w.imag
    (r0, u0), (a, b) = act(x0), act(x)
    k = mpmath.exp(2 * t)
    cosh = 1 + ((a - r0) ** 2 + (b - k * u0) ** 2) / (2 * b * k * u0)
    return mpmath.acosh(cosh) / 2 - t


def b_truth(x0, p, q, x):
    def ext(z):
        return (p + q * mpmath.mpf(z.x)) ** 2 / mpmath.mpf(z.y) + q * q * mpmath.mpf(z.y)
    return mpmath.log(ext(x) / ext(x0)) / 2


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(CURVES_7), st.floats(-3, 3), st.floats(-4, 4),
       st.floats(-3, 3), st.floats(-4, 4), st.floats(1e-300, 1e-3))
def test_busemann_rounding_bound_holds(pq, re0, log_im0, re, log_im, tol):
    """Each D(t) bracket, at the times the estimate steps through and at
    fixed ones up to t = 100 log 2, holds D(t) at the double inputs (mpmath,
    60 digits), each [D_lo - tail, D_hi] holds the Busemann value, and so
    does value +- radius, certified or not."""
    x0 = UpperHalfPoint(re0, math.exp(log_im0))
    x = UpperHalfPoint(re, math.exp(log_im))
    p, q = pq
    excess = BE.ray_excess(x0, fol(p, q), x)
    with mpmath.workdps(60):
        est = H.busemann_estimate(x0, fol(p, q), x, BE, tol=tol)
        assert est.certified or est.reason == "precision"
        truth = b_truth(x0, p, q, x)
        assert abs(est.value - truth) <= est.radius
        for j in {round(2 * t / math.log(2)) for t, _ in est.trace} | {0, 1, 3, 10, 40, 200}:
            d, tail = excess(j)
            exact = d_truth(x0, p, q, x, j * mpmath.log(2) / 2)
            assert d.lo <= exact <= d.hi and d.lo - tail <= truth <= d.hi, (j, d, tail)


# ---------------------------------------------------------------------------
# inclusion_probe


@pytest.mark.parametrize(
    "p, q, weight, level",
    [
        (1, 0, Fraction(1), Fraction(1)),
        (2, 3, Fraction(3, 2), Fraction(7, 3)),
        (0, 1, Fraction(2, 5), 0.37),
    ],
)
def test_torus_sampler_points_are_horocycle_points(p, q, weight, level):
    """The sampler's points lie on HS(f, level (1 - 2^-40)): their exact Ext_f is
    that level.  At l2 just below one point's Ext_f2 bracket, for a transverse f2,
    inclusion_probe returns an ExcludedWitness whose exact Ext_f is at most the level."""
    f = T.WeightedTorusFoliation(weight, T.TorusCurve(p, q))
    f2 = fol(*((0, 1) if q == 0 else (1, 0)))
    got = list(BE.horosphere_sampler(H.HoroBall(f, level), H.HoroBall(f2, 1)))
    assert got
    for pt in got:
        assert Fraction(*T.ext_ratio(pt, f)) == Fraction(level) * (1 - Fraction(1, 2**40))
        l2 = Fraction(BE.ext(pt, f2).lo) * (1 - Fraction(1, 2**30))
        res = H.inclusion_probe(H.HoroBall(f, level), H.HoroBall(f2, l2), BE)
        assert res.tag == H.EXCLUDED_WITNESS
        x = UpperHalfPoint(Fraction(res.witness.x), Fraction(res.witness.y))
        assert T.extremal_length(x, f) <= Fraction(level)


torus_weight = st.fractions(Fraction(1, 100), Fraction(100), max_denominator=100)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.sampled_from(CURVES_7),
    st.sampled_from(CURVES_7),
    st.booleans(),
    torus_weight,
    torus_weight,
    st.floats(-60.0, 60.0),
    st.floats(-60.0, 60.0),
)
@example((7, -2), (5, -1), False, Fraction(1), Fraction(1), -47.0, 60.0)
def test_torus_sampler_solves_the_witness(pq1, pq2, parallel, w1, w2, k1, k2):
    """The sampler proposes one point, and its exact Ext_f1 is level1 (1 - 2^-40).
    For f2 off f1's class its exact Ext_f2 is at least level2 (1 + 2^-40), so
    inclusion_probe returns it as an ExcludedWitness.  Levels are 2^U(-60, 60),
    and one draw in about two puts f2 on f1's curve.  The example is a probe of
    tests/probe_sweep.py whose shear s has 54 bits: rounding s up to an integer
    gains less than 2^-40 there, so only the margin in R clears level2."""
    f1, f2 = fol(*pq1, w1), fol(*(pq1 if parallel else pq2), w2)
    h1, h2 = H.HoroBall(f1, 2.0**k1), H.HoroBall(f2, 2.0**k2)
    points = list(BE.horosphere_sampler(h1, h2))
    assert Fraction(*T.ext_ratio(points[0], f1)) == h1.level * (1 - Fraction(1, 2**40))
    assert len(points) == 1
    if f1.curve != f2.curve:
        assert Fraction(*T.ext_ratio(points[0], f2)) >= h2.level * (1 + Fraction(1, 2**40))
        res = H.inclusion_probe(h1, h2, BE)
        assert res.tag == H.EXCLUDED_WITNESS and res.witness == points[0]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.floats(-9.0, 3.0),
    st.booleans(),
    st.floats(-8.0, 8.0),
    st.sampled_from(CURVES_7),
    st.integers(1, 59),
    st.integers(1, 59),
)
def test_torus_ext_bracket_encloses_exact_ext(log_re, negative, log_im, pq, num, den):
    """The torus Ext bracket holds the exact Ext at the double point, for |Re tau|
    log-uniform in [1e-9, 1e3], Im tau in [1e-8, 1e8] and weights num/den <= 59,
    and is that value rounded outward once: one double, or two adjacent ones."""
    x, y = (-1.0 if negative else 1.0) * 10.0**log_re, 10.0**log_im
    f = fol(*pq, Fraction(num, den))
    b = BE.ext(UpperHalfPoint(x, y), f)
    exact = T.extremal_length(UpperHalfPoint(Fraction(x), Fraction(y)), f)
    assert b.lo <= exact <= b.hi
    assert b.hi == (b.lo if b.lo == exact else math.nextafter(b.lo, math.inf))


def test_torus_ext_out_of_range_is_unbounded():
    """An Ext past the doubles is [max double, inf]; at int coordinates beyond
    them (Re or Im 10^400) the exact Ext is rounded outward once."""
    big, huge = sys.float_info.max, 10**400
    assert BE.ext(UpperHalfPoint(0.0, 1e-310), fol(1, 0)) == Bracket(big, math.inf)
    assert BE.ext(UpperHalfPoint(0, huge), fol(0, 1)) == Bracket(big, math.inf)
    assert BE.ext(UpperHalfPoint(0, huge), fol(1, 0)) == Bracket(0.0, 5e-324)
    assert BE.ext(UpperHalfPoint(0, huge), fol(1, 0, 10**200)) == Bracket(1.0, 1.0)
    assert BE.ext(UpperHalfPoint(huge, 1), fol(huge, -1)) == Bracket(1.0, 1.0)
    b = BE.ext(UpperHalfPoint(huge + 1, 3), fol(huge, -1))  # |-1 - 3i|^2 / 3
    assert b.lo < Fraction(10, 3) < b.hi == math.nextafter(b.lo, math.inf)


def test_torus_exclusion_witness_ext_is_certified():
    """Every torus exclusion carries a Bracket above level2 that holds the
    exact Ext_f2 on the witness's coordinates; levels log-uniform in
    [1e-6, 1e6], weights num/den <= 9."""
    rng = random.Random(19)
    excluded = 0
    for _ in range(400):
        f1 = fol(*rng.choice(CURVES_7), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        f2 = fol(*rng.choice(CURVES_7), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        l1, l2 = 10.0 ** rng.uniform(-6, 6), 10.0 ** rng.uniform(-6, 6)
        res = H.inclusion_probe(H.HoroBall(f1, l1), H.HoroBall(f2, l2), BE)
        if res.tag != H.EXCLUDED_WITNESS:
            continue
        excluded += 1
        e, p = res.witness_ext, res.witness
        assert isinstance(e, Bracket) and e.lo > Fraction(l2)
        assert e.contains(T.extremal_length(UpperHalfPoint(Fraction(p.x), Fraction(p.y)), f2))
    assert excluded > 100


def test_probe_same_foliation_sublevels_nest():
    res = H.inclusion_probe(tspec(1, 0, 1), tspec(1, 0, 2), BE)
    assert res.tag == H.INCLUDED_CERTIFIED
    assert res.bound == 1


def test_probe_transverse_always_excluded():
    res = H.inclusion_probe(tspec(1, 0, 1), tspec(0, 1, 5), BE)
    assert res.tag == H.EXCLUDED_WITNESS
    assert T.extremal_length(res.witness, tspec(0, 1, 5).foliation) > 5


def test_probe_origami_component_bound():
    fv = O.canonical_vertical_foliation(L)
    comp = O.MulticurveFoliation((fv.components[0],))
    full = H.HoroBall(fv, Fraction(2))
    # (max a_i)^2 * t = 1 * 2 = 2
    res = H.inclusion_probe(full, H.HoroBall(comp, Fraction(2)), OB)
    assert res.tag == H.INCLUDED_CERTIFIED and res.bound == 2
    low = H.inclusion_probe(full, H.HoroBall(comp, Fraction(1, 100)), OB)
    assert low.tag in (H.EXCLUDED_WITNESS, H.INCONCLUSIVE)


def test_origami_ext_encloses_weighted_core_exactly():
    """For a weight w = num/den (num, den <= 59), the bracket on Ext(w * core)
    of L's first horizontal cylinder at the base point holds the exact flat
    bound (w c)^2 / n and cylinder bound w^2 c / h."""
    cyl = O.cylinders(L, O.HORIZONTAL)[0]
    base = O.MarkedFlatSurface.base_point(L)
    flat, modulus = Fraction(cyl.circumference**2, L.n), Fraction(cyl.circumference, cyl.height)
    for num in range(1, 60):
        for den in range(1, 60):
            w = Fraction(num, den)
            b = OB.ext(base, O.MulticurveFoliation(((w, cyl),)))
            assert b.lo <= w * w * flat and b.hi >= w * w * modulus, w


def test_origami_ext_upper_sum_is_rounded_up():
    """Over four components, hi is at least the exact sum of the weighted
    cylinder bounds: three sums rounded to nearest can lose more than the
    one ulp a single final step adds, so each addition is rounded up."""
    o = O.build_origami([4, 2, 8, 1, 5, 7, 6, 3], [2, 7, 3, 8, 6, 5, 1, 4])
    weights = (Fraction(37, 41), Fraction(59, 4), Fraction(44, 59), Fraction(2, 25))
    f = O.MulticurveFoliation(tuple(zip(weights, O.cylinders(o, O.VERTICAL))))
    base = O.MarkedFlatSurface.base_point(o)
    x = O.horocycle_flow(O.geodesic_flow(base, stretch=Fraction(1, 39)), 6)
    m = x.deform
    exact = sum(w * w * c.circumference * (m.b**2 + m.d**2) / (m.det() * c.height)
                for w, c in f.components)
    assert Fraction(H.OrigamiBackend(o).ext(x, f).hi) >= exact


class OnePointBackend:
    """A stub backend: transverse foliations, one proposal, and at it Ext_f is
    exactly the double ext[f]."""

    def __init__(self, ext):
        self.ext_at = ext

    def ext(self, point, f):
        return Bracket(self.ext_at[f], self.ext_at[f])

    def intersect(self, f, g):
        return Fraction(1)

    def subfoliation_coeffs(self, f, g):
        return None

    def horosphere_sampler(self, h1, h2):
        return ["p"]


def test_probe_compares_double_brackets_with_rational_levels_exactly():
    """A double bracket end is compared with a rational level exactly: Ext_f1 =
    1.0 is above a level a hair below it, Ext_f2 = 3.0 exceeds a level a hair
    below it, and of the bracket ends max double and inf only inf exceeds a
    level past the doubles."""
    tiny = Fraction(1, 2**70)

    def tag(e1, l1, e2, l2):
        res = H.inclusion_probe(H.HoroBall("f1", l1), H.HoroBall("f2", l2),
                                OnePointBackend({"f1": e1, "f2": e2}))
        return res.tag

    assert tag(1.0, 1, 3.0, 3 - tiny) == tag(1.0, 1 + tiny, 3.0, 3 - tiny) == H.EXCLUDED_WITNESS
    assert tag(1.0, 1 - tiny, 3.0, 2) == tag(1.0, 1, 3.0, 3) == H.INCONCLUSIVE
    assert tag(1.0, 1, math.inf, Fraction(2) ** 1100) == H.EXCLUDED_WITNESS
    assert tag(1.0, 1, sys.float_info.max, Fraction(2) ** 1100) == H.INCONCLUSIVE
    assert tag(sys.float_info.max, Fraction(2) ** 1100, 3.0, 2) == H.EXCLUDED_WITNESS


def test_probe_rigidity_randomized():
    """Non-proportional pairs are never certified included (rigidity)."""
    rng = np.random.default_rng(17)
    curves = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (3, 1), (2, -3)]
    tested = 0
    for _ in range(10**4):
        i1, i2 = rng.choice(len(curves), 2, replace=False)
        l1 = Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        l2 = Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        res_tag = H.inclusion_probe(
            tspec(*curves[i1], l1), tspec(*curves[i2], l2), BE
        ).tag
        assert res_tag != H.INCLUDED_CERTIFIED
        tested += 1
    assert tested == 10**4


# ---------------------------------------------------------------------------
# horoball sup and proportionality, written once over the backend protocol


def scaled(f, c):
    return O.MulticurveFoliation(tuple((c * w, cyl) for w, cyl in f.components))


def stretched_and_sheared(be, h1, h2):
    """The origami sampler's one point, then its horocycle_flow shears by +-2^k
    (k < 11), which keep a vertical f1's Ext."""
    [x] = be.horosphere_sampler(h1, h2)
    return [x] + [O.horocycle_flow(x, sign * 2**k) for k in range(11) for sign in (1, -1)]


@pytest.mark.parametrize("origami", [L, STAIRCASE], ids=["L", "staircase"])
@pytest.mark.parametrize("c", [Fraction(1), Fraction(3, 2), Fraction(3)])
def test_probe_origami_proportional_sup_is_exact(origami, c):
    """HB(fv, l1) lies in HB(c*fv, l2) once l2 >= c^2 l1, certified with the
    exact bound c^2 l1 even below the sub-foliation constant k^2 c^2 l1; no
    stretched or sheared point has a certified Ext(c*fv) above that bound."""
    be = H.OrigamiBackend(origami)
    fv = O.canonical_vertical_foliation(origami)
    cf = scaled(fv, c)
    k = len(fv.components)
    assert k > 1 and be.subfoliation_coeffs(cf, fv) == [c] * k
    l1 = Fraction(7, 3)
    bound = c**2 * l1
    for l2 in (bound, bound * (k * k + 1) / 2, bound * k * k - Fraction(1, 10**9)):
        res = H.inclusion_probe(H.HoroBall(fv, l1), H.HoroBall(cf, l2), be)
        assert res.tag == H.INCLUDED_CERTIFIED
        assert isinstance(res.bound, Fraction) and res.bound == bound
    for p in stretched_and_sheared(be, H.HoroBall(fv, l1), H.HoroBall(cf, bound)):
        assert be.ext(p, cf).lo <= bound


TORUS_CURVES = sorted({T.TorusCurve(p, q) for p in range(-7, 8) for q in range(-7, 8)
                       if (p, q) != (0, 0) and math.gcd(p, q) == 1}, key=lambda c: (c.p, c.q))
log_level = st.floats(-6.0, 6.0).map(lambda e: Fraction(10.0**e))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(TORUS_CURVES), st.sampled_from(TORUS_CURVES),
       st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2, 5)]), log_level, log_level)
def test_torus_exclusion_witness_is_a_certificate(c1, c2, w, l1, l2):
    """A torus ExcludedWitness of HB(f1, l1) against HB(f2, l2) lies in
    HB(f1, l1) and outside HB(f2, l2), by the exact Ext at the double point.
    Curves have |p|, |q| <= 7 and levels are log-uniform in [1e-6, 1e6]."""
    f1, f2 = T.WeightedTorusFoliation(w, c1), T.WeightedTorusFoliation(Fraction(1), c2)
    res = H.inclusion_probe(H.HoroBall(f1, l1), H.HoroBall(f2, l2), BE)
    if res.tag == H.EXCLUDED_WITNESS:
        x = UpperHalfPoint(Fraction(res.witness.x), Fraction(res.witness.y))
        assert T.extremal_length(x, f1) <= l1 and T.extremal_length(x, f2) > l2


ORIGAMIS = [L, O.build_origami([2, 1, 4, 3], [1, 3, 2, 4]),
            O.build_origami([2, 3, 1, 5, 4], [4, 2, 5, 1, 3])]


def origami_foliations(o):
    """Both canonical foliations, then every horizontal and vertical core at weight 1."""
    return [O.canonical_vertical_foliation(o), O.canonical_horizontal_foliation(o)] + [
        O.MulticurveFoliation(((Fraction(1), c),))
        for d in (O.HORIZONTAL, O.VERTICAL) for c in O.cylinders(o, d)]


def test_origami_exclusion_witness_is_a_certificate():
    """An origami ExcludedWitness of HB(f1, l1) against HB(f2, l2) has Ext_f1's
    upper end at most l1 and Ext_f2's lower end above l2, and none is returned
    where f2 = sum a_i (components of f1) with (max a_i)^2 l1 <= l2; some have a
    horizontal f1.  300 probes over three origamis, their foliations above and
    levels 2^k, |k| <= 6."""
    rng = random.Random(11)
    cases = [(H.OrigamiBackend(o), origami_foliations(o)) for o in ORIGAMIS]
    excluded, horizontal = 0, 0
    for _ in range(300):
        be, fols = rng.choice(cases)
        f1, f2 = rng.choice(fols), rng.choice(fols)
        l1, l2 = Fraction(2) ** rng.randint(-6, 6), Fraction(2) ** rng.randint(-6, 6)
        res = H.inclusion_probe(H.HoroBall(f1, l1), H.HoroBall(f2, l2), be)
        if res.tag != H.EXCLUDED_WITNESS:
            continue
        excluded += 1
        horizontal += f1.direction == O.HORIZONTAL
        assert be.ext(res.witness, f1).hi <= l1 and be.ext(res.witness, f2).lo > l2
        coeffs = be.subfoliation_coeffs(f2, f1)
        assert coeffs is None or max(coeffs) ** 2 * l1 > l2
    assert excluded > 100 and horizontal > 0


def test_every_transverse_origami_probe_has_a_witness():
    """For every f1 and f2 of different directions among the foliations above,
    on the three origamis, at four level pairs 2^k, |k| <= 120, each: HB(f1, l1)
    is excluded from HB(f2, l2) by the sampler's one point, with Ext_f1's upper
    end at most l1 and Ext_f2's lower end above l2."""
    rng = random.Random(13)
    for o in ORIGAMIS:
        be, fols = H.OrigamiBackend(o), origami_foliations(o)
        for f1 in fols:
            for f2 in (f for f in fols if f.direction != f1.direction):
                for _ in range(4):
                    l1, l2 = (Fraction(2) ** rng.randint(-120, 120) for _ in "12")
                    h1, h2 = H.HoroBall(f1, l1), H.HoroBall(f2, l2)
                    res = H.inclusion_probe(h1, h2, be)
                    assert res.tag == H.EXCLUDED_WITNESS, (o, f1, l1, f2, l2)
                    assert be.horosphere_sampler(h1, h2) == [res.witness]
                    assert be.ext(res.witness, f1).hi <= l1 and be.ext(res.witness, f2).lo > l2


def test_origami_stretch_margin_is_relative():
    """On ([2,3,1,5,4], [4,2,5,1,3]) with f1 the vertical core of square 2 and f2
    the horizontal core of squares 4 and 5 (numbered from 1), at l1 = 2^-71 and
    l2 = 2^76: the stretch s^2 = 5 2^74 (1 + eps) is aimed at Ext_f2 = 4 s^2 / 5,
    and eps > 2^-42 keeps its lower end above l2 (with s at a fixed 2^-20 step,
    eps is near 2^-116 and the lower end rounds down onto 2^76)."""
    o = ORIGAMIS[2]
    be = H.OrigamiBackend(o)
    f1 = O.MulticurveFoliation(((Fraction(1), O.cylinders(o, O.VERTICAL)[0]),))
    f2 = O.MulticurveFoliation(((Fraction(1), O.cylinders(o, O.HORIZONTAL)[1]),))
    assert f1.components[0][1].squares == (1,) and f2.components[0][1].squares == (3, 4)
    l1, l2 = Fraction(1, 2**71), Fraction(2**76)
    res = H.inclusion_probe(H.HoroBall(f1, l1), H.HoroBall(f2, l2), be)
    assert res.tag == H.EXCLUDED_WITNESS
    assert be.ext(res.witness, f1).hi <= l1 and res.witness_ext.lo > l2


def test_torus_and_origami_sups_agree_on_proportional_pairs():
    fv = O.canonical_vertical_foliation(L)
    tf = T.WeightedTorusFoliation(Fraction(2), T.TorusCurve(2, 3))
    for c in (Fraction(1), Fraction(1, 3), Fraction(5, 2)):
        tc, cf = T.WeightedTorusFoliation(2 * c, T.TorusCurve(2, 3)), scaled(fv, c)
        assert BE.subfoliation_coeffs(tc, tf) == [c]
        assert OB.subfoliation_coeffs(cf, fv) == [c] * len(fv.components)
        for l1 in (Fraction(1), Fraction(7, 3), Fraction(1, 50)):
            torus_sup = H.sup_on_horoball(tf, l1, tc, BE)
            assert torus_sup == H.sup_on_horoball(fv, l1, cf, OB) == c * c * l1


@pytest.mark.parametrize("origami, direction, w1, w2", [
    (STAIRCASE, O.VERTICAL, (1, 1, 1), (1, 3, 0)),
    (STAIRCASE, O.VERTICAL, (2, 1, 1), (3, 1, 2)),
    (L, O.HORIZONTAL, (1, 1), (1, 3)),
], ids=["staircase-1-3", "staircase-3-1-2", "L-horizontal"])
def test_sup_on_horoball_is_the_largest_coefficient_squared(origami, direction, w1, w2):
    """For f2 = sum a_i (components of f1) the sup of Ext_f2 over HB(f1, l1)
    is bounded by (max a_i)^2 l1, which is c^2 l1 when every a_i = c; no
    stretched or sheared point certified in HB(f1, l1) has Ext_f2's lower end
    above it."""
    be, cyls = H.OrigamiBackend(origami), O.cylinders(origami, direction)
    f1, f2 = (O.MulticurveFoliation(tuple((Fraction(w), c) for w, c in zip(ws, cyls) if w))
              for ws in (w1, w2))
    top = max(Fraction(b, a) for a, b in zip(w1, w2))
    for l1 in (Fraction(1), Fraction(7, 3), Fraction(1, 64)):
        sup = H.sup_on_horoball(f1, l1, f2, be)
        assert sup == top**2 * l1
        certified = [p for p in stretched_and_sheared(be, H.HoroBall(f1, l1), H.HoroBall(f2, sup))
                     if be.ext(p, f1).hi <= l1]
        assert certified and all(be.ext(p, f2).lo <= sup for p in certified)
        for c in (Fraction(1), Fraction(2, 3), Fraction(5)):
            assert H.sup_on_horoball(f1, l1, scaled(f1, c), be) == c * c * l1


def test_sup_and_proportionality_live_only_in_horolab():
    for cls in (H.TorusBackend, H.OrigamiBackend):
        assert not hasattr(cls, "sup_on_horoball") and not hasattr(cls, "proportionality")
