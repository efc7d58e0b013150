import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from horoteich.kernel import Mat2, UpperHalfPoint, mobius_apply
from horoteich import horolab, torus as T


def curve(p, q):
    return T.TorusCurve(p, q)


def fol(p, q, w=Fraction(1)):
    return T.WeightedTorusFoliation(w, curve(p, q))


def primitive_pairs(bound):
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            if (p, q) != (0, 0) and math.gcd(abs(p), abs(q)) == 1:
                yield p, q


# ---------------------------------------------------------------------------
# Curves and extremal length


def test_curve_canonical_sign():
    assert curve(-1, 2) == curve(1, -2)
    assert curve(0, -1) == curve(0, 1)
    with pytest.raises(ValueError):
        T.TorusCurve(2, 4)
    with pytest.raises(ValueError):
        T.TorusCurve(0, 0)


def test_boundary_points():
    assert curve(1, 0).boundary_point() == T.INFINITY
    assert curve(0, 1).boundary_point() == 0
    assert curve(1, 2).boundary_point() == Fraction(-1, 2)


def test_extremal_length_closed_forms():
    tau = UpperHalfPoint(0.0, 2.0)
    assert T.extremal_length(tau, fol(1, 0)) == 0.5
    i = UpperHalfPoint(0.0, 1.0)
    assert T.extremal_length(i, fol(1, 1)) == pytest.approx(2.0)
    assert T.extremal_length(i, fol(0, 1)) == pytest.approx(1.0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
    st.sampled_from([Fraction(1), Fraction(3, 2)]),
    st.integers(-10**200, 10**200),
    st.integers(1, 10**6),
    st.floats(-100.0, 100.0),
)
@example(1, 0, Fraction(1), 10**200, 7, -100.0)
@example(-1, 0, Fraction(3, 2), -3, 2, 100.0)
def test_chart_is_exact(p, q, w, re_num, re_den, log_im):
    """M = TorusCurve(p, q).chart is in SL(2, Z) with bottom row (q, p); at a
    Fraction tau (|Re| <= 1e200, Im log-uniform in [1e-100, 1e100]),
    w^2 / Im M(tau) is extremal_length(tau, f) exactly, as is ext_ratio's n /
    d at that tau, whatever its denominators; and at the double
    point nearest tau, M's image in integers is the exact image, each
    coordinate rounded to within half an ulp, which M^-1 maps back to the
    double point bit for bit."""
    assume(math.gcd(p, q) == 1)
    c = T.TorusCurve(p, q)
    m = c.chart
    assert all(type(v) is int for v in (m.a, m.b, m.c, m.d))
    assert m.det() == 1 and (m.c, m.d) == (c.q, c.p)
    x, y = Fraction(re_num, re_den), Fraction(10.0**log_im) * Fraction(re_den, re_den + 1)
    _, im, den = T._act(m, x.numerator * y.denominator, y.numerator * x.denominator,
                        x.denominator * y.denominator)
    f = T.WeightedTorusFoliation(w, c)
    tau = UpperHalfPoint(x, y)
    assert w * w * Fraction(den, im) == T.extremal_length(tau, f) == Fraction(*T.ext_ratio(tau, f))
    pt = UpperHalfPoint(float(x), float(y))
    re, im, den = T._act(m, *T._ints(pt))
    px, py = Fraction(pt.x), Fraction(pt.y)
    cr, ci = m.c * px + m.d, m.c * py  # M(tau) = (a tau + b) / (c tau + d)
    nr, ni = m.a * px + m.b, m.a * py
    norm = cr * cr + ci * ci
    exact = ((nr * cr + ni * ci) / norm, (ni * cr - nr * ci) / norm)
    assert (Fraction(re, den), Fraction(im, den)) == exact
    for got, want in zip((re / den, im / den), exact):
        assert abs(Fraction(got) - want) <= Fraction(math.ulp(got)) / 2
    assert T._rounded(Mat2(m.d, -m.b, -m.c, m.a), re, im, den) == pt


def test_extremal_length_weight_scaling():
    tau = UpperHalfPoint(0.4, 1.3)
    base = T.extremal_length(tau, fol(2, 3))
    assert T.extremal_length(tau, fol(2, 3, Fraction(3))) == pytest.approx(9 * base)


def test_intersection_values():
    assert T.intersection(curve(1, 0), curve(0, 1)) == 1
    assert T.intersection(curve(1, 1), curve(1, -1)) == 2
    assert T.intersection(curve(2, 1), curve(2, 1)) == 0


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_intersection_symmetric(p1, q1, p2, q2):
    if math.gcd(abs(p1), abs(q1)) != 1 or math.gcd(abs(p2), abs(q2)) != 1:
        return
    a, b = curve(p1, q1), curve(p2, q2)
    assert T.intersection(a, b) == T.intersection(b, a) >= 0


# ---------------------------------------------------------------------------
# Kerckhoff distance


def test_kerckhoff_vertical_pair():
    r = T.kerckhoff_distance(
        UpperHalfPoint(0.0, 1.0), UpperHalfPoint(0.0, 2.0), tol=1e-9
    )
    assert r.certified
    assert r.value == pytest.approx(0.5 * math.log(2.0), abs=1e-8)
    assert r.closed_form == pytest.approx(0.5 * math.log(2.0), abs=1e-12)


def test_kerckhoff_known_value():
    r = T.kerckhoff_distance(
        UpperHalfPoint(0.0, 1.0), UpperHalfPoint(1.0, 1.0), tol=1e-9
    )
    expected = 0.5 * math.log((3.0 + math.sqrt(5.0)) / 2.0)
    assert r.value == pytest.approx(expected, abs=1e-8)


def test_kerckhoff_symmetric_and_below_oracle():
    a = UpperHalfPoint(-0.7, 0.6)
    b = UpperHalfPoint(1.2, 2.9)
    r1 = T.kerckhoff_distance(a, b, tol=1e-8)
    r2 = T.kerckhoff_distance(b, a, tol=1e-8)
    assert r1.value == pytest.approx(r2.value, abs=1e-7)
    assert r1.value <= r1.closed_form + 1e-12
    assert r1.closed_form == pytest.approx(T.teich_distance(a, b), abs=1e-12)


def test_kerckhoff_budget_exhaustion():
    # at tol 1e-15 no class meets the stop test, so the walk runs to its cap
    with pytest.raises(T.EnumerationBudgetError) as info:
        T.kerckhoff_distance(
            UpperHalfPoint(0.0, 1.0), UpperHalfPoint(0.3, 1.4), tol=1e-15, cap=3
        )
    assert info.value.lower_bound > 0


def walk(t):
    """The classes certified_sup walks for t, a double or its integer pair, in order: with
    no aim, a ratio that is always out of range and no upper bound the walk runs to its end."""
    if type(t) is float:
        t = t.as_integer_ratio() if math.isfinite(t) else (1, 0)
    seen = []
    T.certified_sup(lambda p, q: seen.append((p, q)), t, T.INFINITY, None)
    return seen


@pytest.mark.parametrize("t, classes", [
    (2.5, [(2, 1), (5, 2)]),
    (0.375, [(1, 2), (1, 3), (3, 8)]),  # [0; 2, 1, 2]: the zero quotient repeats 0/1
    (-0.5, [(-1, 1), (-1, 2)]),
    (-0.25, [(-1, 1), (-1, 4)]),  # [-1; 1, 3]: the second convergent is 0/1
    (0.0, []),
    (T.INFINITY, []),
])
def test_classes_are_the_start_values_then_the_convergents(t, classes):
    assert walk(t) == [(0, 1), (1, 0), *classes]


def test_classes_never_repeat_and_end_at_t():
    rng = random.Random(5)
    for _ in range(500):
        t = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-20, 20)
        seen = walk(t)
        assert len(set(seen)) == len(seen)
        assert seen[:2] == [(0, 1), (1, 0)] and Fraction(*seen[-1]) == Fraction(t)
        # every convergent p/q is within 1/q^2 of t, with q > 0 not decreasing
        assert all(abs(Fraction(t) - Fraction(p, q)) < Fraction(1, q * q) for p, q in seen[2:-1])
        assert 0 < seen[2][1] and [q for _, q in seen[2:]] == sorted(q for _, q in seen[2:])


def test_walked_classes_are_primitive():
    """Every class certified_sup walks, for the Kerckhoff slope and ext_sup's exact t* of
    far points (Re +-10^U(-3, 300), Im 10^U(-161.8, 300)) and of the bench's
    (Re U(-2, 2), Im log-uniform in [0.05, 3]), has gcd 1, so the witness
    _primitive makes from it is that class with its canonical sign."""
    rng = random.Random(9)
    far = lambda: (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3, 300),  # noqa: E731
                   10.0 ** rng.uniform(-161.8, 300))
    bench = lambda: (rng.uniform(-2, 2), math.exp(rng.uniform(math.log(0.05), math.log(3))))  # noqa: E731
    slopes = []
    for draw in [far] * 300 + [bench] * 300:
        (x1, y1), (x2, y2), (p, q) = draw(), draw(), rng.choice(FAR_CURVES)
        slopes.append(T._kerckhoff_slope(x1 - x2, y1, y2) - x2)
        x, y, d = T._ints(UpperHalfPoint(x1, y1))
        s = p * d + q * x  # ext_sup's t* = -(s x + q y^2) / (d s), d s = 0 where it is inf
        slopes.append((-(s * x + q * y * y), d * s))
    for t in slopes:
        for p, q in walk(t):
            c = T._primitive(p, q)
            assert math.gcd(p, q) == 1 and (c.p, c.q) in ((p, q), (-p, -q)), (t, p, q)
            assert c.p > 0 or (c.p, c.q) == (0, 1), (t, p, q)


def test_integer_coordinates_give_the_float_results():
    """An int Im is taken as a double: q * Im then never forms an exact
    integer too large for a float, as it did for the huge q of a convergent."""
    for (x1, y1), (x2, y2) in (((0, 1), (1e-310, 0.5)), ((0, 1), (1, 2)), ((2, 3), (-1, 1))):
        as_int = T.kerckhoff_distance(UpperHalfPoint(x1, y1), UpperHalfPoint(x2, y2), 1e-9)
        as_float = T.kerckhoff_distance(UpperHalfPoint(float(x1), float(y1)),
                                        UpperHalfPoint(float(x2), float(y2)), 1e-9)
        assert as_int == as_float
    # Re tau2 subnormal: the aimed class (1, -65536) keeps p + q Re tau2 normal and certifies
    b = UpperHalfPoint(1e-310, 0.5)
    r = T.kerckhoff_distance(UpperHalfPoint(0, 1), b, 1e-9)
    assert (r.certified, r.witness, r.nodes) == (True, curve(1, -65536), 1)
    d = teich_truth(UpperHalfPoint(0.0, 1.0), b)
    assert d - 1e-9 <= r.value <= d
    for f in (fol(1, 0), fol(2, 3), fol(0, 1, Fraction(3, 2))):
        assert T.ext_sup_enumeration(UpperHalfPoint(1e-310, 1), f, 1e-9) == \
            T.ext_sup_enumeration(UpperHalfPoint(1e-310, 1.0), f, 1e-9)
    backend = horolab.TorusBackend()
    for f in (fol(1, 10**400), fol(2, 3)):
        assert backend.ext(UpperHalfPoint(0, 1), f) == backend.ext(UpperHalfPoint(0.0, 1.0), f)


@pytest.mark.parametrize("sup, in_doubles", [
    (lambda tau: T.kerckhoff_distance(UpperHalfPoint(0.0, 1.0), tau, 1e-9), True),
    (lambda tau: T.ext_sup_enumeration(tau, fol(2, 3), 1e-9), False),
    (lambda tau: T.teich_distance(tau, UpperHalfPoint(0.0, 1.0)), True),
], ids=["kerckhoff", "ext_sup", "teich"])
@pytest.mark.parametrize("tau", [UpperHalfPoint(10**400, 1), UpperHalfPoint(0, 10**400)],
                         ids=["re", "im"])
def test_int_coordinate_beyond_the_doubles_is_a_value_error(sup, in_doubles, tau):
    """The Kerckhoff sup and the closed-form distance work in doubles: an int
    coordinate that float() refuses is a ValueError with a one-line message,
    not an OverflowError.  ext_sup works on the exact integers, so the same
    point raises nothing: its sup is past the doubles, uncertified with reason
    range and upper inf."""
    if in_doubles:
        with pytest.raises(ValueError, match="^a point coordinate is beyond the double range$"):
            sup(tau)
    else:
        res = sup(tau)
        assert (res.certified, res.reason, res.upper) == (False, "range", math.inf)


def test_found_tiny_im_and_huge_curve_calls():
    """The calls that raised ZeroDivisionError or OverflowError: an Im whose double
    is 0 is a ValueError for the closed-form and the Kerckhoff distance.  ext_sup
    works on the exact integers: where p_f + q_f Re tau is 10^-400 its sup, 1 +
    10^-800, certifies, and where the sup is past the doubles (a curve or an int
    point coordinate of 10^400) it is uncertified, with reason range, upper inf and
    lower the largest double, which its witness's ratio reaches: the aim takes the
    deficit the floor accepts, not tol, so the walk ends at the aimed class or next.
    A tol of 1e300 or inf there raises nothing (lower + tol is past the doubles)."""
    tiny, one = UpperHalfPoint(0, Fraction(1, 10**400)), UpperHalfPoint(0, 1.0)
    for call in (lambda: T.teich_distance(tiny, one),
                 lambda: T.kerckhoff_distance(tiny, one, 1e-9)):
        with pytest.raises(ValueError, match="^a point coordinate is beyond the double range$"):
            call()
    res = T.ext_sup_enumeration(UpperHalfPoint(Fraction(1, 10**400) - 1, 1.0), fol(1, 1), 1e-9)
    assert res.certified and res.lower <= 1 + Fraction(1, 10**800) <= res.upper
    for tau, f in ((UpperHalfPoint(0.5, 1.0), fol(10**400, 1)),
                   (UpperHalfPoint(10**400, 1), fol(2, 3)),
                   (UpperHalfPoint(0, 10**400), fol(2, 3))):
        for tol in (1e-9, 1e300, math.inf):
            res = T.ext_sup_enumeration(tau, f, tol)
            assert (res.certified, res.reason, res.upper) == (False, "range", math.inf)
            assert res.lower == T._HUGE and res.nodes <= 2


def test_ext_sup_enumeration_matches_closed_form():
    tau = UpperHalfPoint(0.37, 1.21)
    f = fol(2, 3)
    res = T.ext_sup_enumeration(tau, f, tol=1e-9)
    assert res.certified
    exact = T.extremal_length(tau, f)
    # closed form and enumeration agree to float noise on top of tol
    assert res.lower <= exact + 1e-9
    assert res.upper >= exact - 1e-8
    assert res.upper - res.lower <= 1e-9


# Truth at 50 digits on the exact double inputs; the slack matches the
# acceptance suite's 1e-12 on certified values.
mpmath.mp.dps = 50
SLACK = 1e-12
# (Re tau2, Im tau2) paired with tau1 = i: near the cusp and far up in it
CUSP_POINTS = (
    (0.3, 1e-5), (0.7, 1e-6), (1 / 3, 1e-8), (0.25, 1e-6),
    (5.0, 1e-3), (0.3, 1e-7),
    (0.3, 1e-3), (-1.4, 1e-3), (2.7, 1e-2), (0.123, 1e-4),
    (0.0, 1e3), (0.5, 1e6), (3.3, 1e8),
)
# Re tau2 over Im tau1 or Im tau2 subnormal or its square so: the sup's bound
# comes from the closed form, which is in range, so these certify too
SUBNORMAL_GAP_POINTS = ((1e-300, 2.0), (-1e-300, 1e10))


def teich_truth(a, b):
    dx, dy = mpmath.mpf(a.x) - mpmath.mpf(b.x), mpmath.mpf(a.y) - mpmath.mpf(b.y)
    return mpmath.acosh(1 + (dx * dx + dy * dy) / (2 * mpmath.mpf(a.y) * mpmath.mpf(b.y))) / 2


def assert_certificate(a, b, tol, r):
    """A certified Kerckhoff result r checked apart from its search: value is
    half the log of the witness's ratio, recomputed from _ext and scaled by
    1 - 2^-49, bit for bit, and that ratio meets the stop test against the
    closed form's upper bound.  At nodes 1 the witness may be the aimed class,
    p odd over a power of two; else nodes is its place in the walk, and no
    earlier class of the walk meets the test."""
    if not r.certified:
        return

    def lower(c):
        e1 = T._ext(*c, *a.x.as_integer_ratio(), a.y)
        e2 = T._ext(*c, *b.x.as_integer_ratio(), b.y)
        return None if e1 is None or e2 is None else e1 / e2 * (1.0 - 2.0**-49)

    top = 2.0 * (r.closed_form + T.closed_form_radius(r.closed_form))
    upper, factor = math.exp(top) * (1.0 + 2.0**-49), math.exp(2.0 * tol)
    w = lower((r.witness.p, r.witness.q))
    assert r.value == (0.5 * math.log(w) if w > 1.0 else 0.0)
    assert upper / w <= factor
    q = abs(r.witness.q)
    if r.nodes == 1 and r.witness.p % 2 and q and q & (q - 1) == 0:
        return
    classes = walk(T._kerckhoff_slope(a.x - b.x, a.y, b.y) - b.x)
    place = next(i for i, c in enumerate(classes) if T.TorusCurve(*c) == r.witness)
    assert r.nodes == place + 1
    assert all(lower(c) is None or upper / lower(c) > factor for c in classes[:place])


def assert_sound(r, truth, tol):
    """A certified Kerckhoff value lies in [truth - tol, truth], up to SLACK."""
    if r.certified:
        assert truth - tol - SLACK <= r.value <= truth + SLACK
    else:
        assert r.reason in ("precision", "range")


log_im = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)


# 150 examples each keep both property tests near one second of Tier-1
@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.floats(-3, 3), log_im, st.floats(-3, 3), log_im, st.sampled_from([1e-9, 1e-6]))
def test_kerckhoff_certified_values_are_true(x1, y1, x2, y2, tol):
    a, b = UpperHalfPoint(x1, y1), UpperHalfPoint(x2, y2)
    r = T.kerckhoff_distance(a, b, tol=tol)
    assert_sound(r, teich_truth(a, b), tol)
    assert_certificate(a, b, tol, r)


def slope_by_ratio(s, y1, y2):
    """The reference root choice: both roots of qa t^2 + qb t + qc (inf for qa = 0) and
    Ext_tau1 / Ext_tau2 at each in floats, for tau1 = s + i y1 and tau2 = i y2.  Returns
    the root of the larger ratio and the two ratios, or (the root, None, None) where
    there is one."""
    def ratio(t):
        return y2 / y1 if math.isinf(t) else ((t + s) * ((t + s) / y1) + y1) / (t * (t / y2) + y2)

    qa, qb, qc = -s, y2 * y2 - y1 * y1 - s * s, s * y2 * y2
    if qa == 0.0:
        t, u = math.inf, -qc / qb if qb else None
    else:
        k = -0.5 * (qb + math.copysign(math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0)), qb))
        t, u = k / qa, qc / k if k else None
    if u is None:
        return t, None, None
    return (u if ratio(u) > ratio(t) else t), ratio(t), ratio(u)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(st.sampled_from([0.0, 1e-300, -1e-300]), st.floats(-3, 3)), log_im, log_im)
def test_kerckhoff_slope_is_the_root_of_the_larger_ratio(s, y1, y2):
    """The sign rule picks the root that the ratio evaluated at both roots picks, wherever
    those two float ratios are finite and more than 2^-40 apart relative; s = 0, +-1e-300
    and U(-3, 3), and y1, y2 = 10^U(-8, 8)."""
    want, r_t, r_u = slope_by_ratio(s, y1, y2)
    got = T._kerckhoff_slope(s, y1, y2)
    if r_t is None:
        assert got == want
    elif math.isfinite(r_t) and math.isfinite(r_u) and abs(r_t - r_u) > 2.0**-40 * max(r_t, r_u):
        assert got == want, (s, y1, y2, r_t, r_u)


def test_kerckhoff_slope_edges():
    """qa = 0 with each sign of qb; s = 1e-300 with y1 = y2, where qb and the
    discriminant underflow (a finite slope, no ZeroDivisionError); and a far pair
    where qb^2 overflows, whose reference ratios overflow and pick -0.0, but whose
    maximizing root is the larger one, about 2.4e125 exactly and inf in doubles."""
    assert T._kerckhoff_slope(0.0, 2.0, 1.0) == 0.0
    assert T._kerckhoff_slope(0.0, 1.0, 2.0) == math.inf
    assert math.isfinite(T._kerckhoff_slope(1e-300, 1.0, 1.0))
    far = (5.090234581715681e75, 3.111032810266831e-160, 3.530724490531554e100)
    assert T._kerckhoff_slope(*far) == math.inf
    assert slope_by_ratio(*far)[0] == 0.0 and math.isinf(slope_by_ratio(*far)[2])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    st.floats(-3, 3),
    log_im,
    st.integers(0, 9),
    st.integers(-9, 9),
    st.fractions(Fraction(1, 3), Fraction(4)),
)
def test_ext_sup_certified_values_are_true(x, y, p, q, w):
    if math.gcd(p, q) != 1:
        return
    tau = UpperHalfPoint(x, y)
    re, im = p + q * mpmath.mpf(x), q * mpmath.mpf(y)
    truth = (mpmath.mpf(w.numerator) / w.denominator) ** 2 * (re * re + im * im) / y
    tol = 1e-10 * max(1.0, float(truth))
    res = T.ext_sup_enumeration(tau, fol(p, q, w), tol=tol)
    slack = SLACK * max(1.0, truth)
    if res.certified:
        assert truth - tol - slack <= res.lower <= truth + slack
        assert res.upper >= truth - slack
    else:
        assert res.reason in ("tolerance", "range")


@pytest.mark.parametrize("x, y", CUSP_POINTS + SUBNORMAL_GAP_POINTS)
def test_kerckhoff_cusp_points_certify(x, y):
    a, b = UpperHalfPoint(0.0, 1.0), UpperHalfPoint(x, y)
    t0 = time.perf_counter()
    r = T.kerckhoff_distance(a, b, tol=1e-9)
    elapsed = time.perf_counter() - t0
    assert r.certified
    assert_sound(r, teich_truth(a, b), 1e-9)
    assert_certificate(a, b, 1e-9, r)
    assert elapsed < 0.05


def test_kerckhoff_closed_form_with_tiny_heights():
    """2 y1 y2 rounds to 0 here; the closed form must still be finite and right."""
    a, b = UpperHalfPoint(0.3, 2.3e-308), UpperHalfPoint(1.0, 1e-150)
    r = T.kerckhoff_distance(a, b, tol=1e-9)
    assert r.closed_form == pytest.approx(float(teich_truth(a, b)), rel=1e-14)
    assert_sound(r, teich_truth(a, b), 1e-9)


@pytest.mark.parametrize("both", [False, True], ids=["one-point", "both-points"])
def test_kerckhoff_subnormal_square_band(both):
    """Im tau in [1.5e-162, 1e-140], where Im tau^2 is subnormal: every
    result is right or uncertified, never an exception."""
    rng = np.random.default_rng(11 if both else 10)
    lo, hi = math.log(1.5e-162), math.log(1e-140)
    certified = 0
    for _ in range(300):
        y1 = math.exp(rng.uniform(lo, hi)) if both else math.exp(rng.uniform(-2, 2))
        a = UpperHalfPoint(float(rng.uniform(-3, 3)), y1)
        b = UpperHalfPoint(float(rng.uniform(-3, 3)), math.exp(rng.uniform(lo, hi)))
        r = T.kerckhoff_distance(a, b, tol=1e-9)
        assert_sound(r, teich_truth(a, b), 1e-9)
        certified += r.certified
    assert certified >= (200 if both else 300)


# ---------------------------------------------------------------------------
# The aimed class: certified_sup tries one class before it walks


def sup_call(monkeypatch, sup, *args):
    """The arguments (ratio, t_star, upper, stop, cap, aim) of sup(*args)'s certified_sup call."""
    real, calls = T.certified_sup, []

    def spy(*call):
        calls.append(call)
        return real(*call)
    with monkeypatch.context() as m:
        m.setattr(T, "certified_sup", spy)
        sup(*args)
    return calls[0]


def bench_point(rng):
    return UpperHalfPoint(rng.uniform(-2, 2), math.exp(rng.uniform(math.log(0.05), math.log(3))))


def test_aimed_class_certifies_on_the_bench_box_and_else_the_walk_decides(monkeypatch):
    """On the benchmark's box (Re U(-2, 2), Im log-uniform in [0.05, 3]) both
    sups certify at the class that aim names, at node 1: p odd over q a power
    of two; ext_sup does so at a tol of 1e-15 relative too.  Where that class
    fails, refused here as out of range, certified_sup returns what the unaimed
    walk does, to the last bit, as it does for Kerckhoff at a tol of 1e-15
    relative, where no class meets the stop test.  Below one ulp of ext_sup's
    sup no class certifies: the aimed and the unaimed walk stop at the floor,
    the sup rounded down, and ext_sup returns reason tolerance with the two
    doubles either side of the exact sup; at a tol of that ulp, which the ends
    meet exactly, it certifies with the same ends."""
    rng, cases = random.Random(40), []
    for _ in range(150):
        cases.append((T.kerckhoff_distance, bench_point(rng), bench_point(rng), 1e-9, 1e-15))
        tau, pq = bench_point(rng), rng.choice(FAR_CURVES[:-1] + [(4, 9), (7, -3)])
        f = fol(*pq, Fraction(rng.randint(1, 4), 3))
        ext = T.extremal_length(tau, f)
        cases.append((T.ext_sup_enumeration, tau, f, 1e-9 * max(1.0, ext), 0.5 * math.ulp(ext)))
        r = T.ext_sup_enumeration(tau, f, 1e-15 * ext)
        assert r.certified and r.nodes == 1, (tau, f)
    for sup, a, b, tol, tiny in cases:
        r = sup(a, b, tol)
        q = abs(r.witness.q)
        assert r.certified and r.nodes == 1 and r.witness.p % 2 and q & (q - 1) == 0, (a, b)
        for tol, refused in ((tol, 1), (tiny, 0)):
            ratio, t_star, upper, stop, cap, aim = sup_call(monkeypatch, sup, a, b, tol)
            seen = []

            def refusing(p, q):
                seen.append((p, q))
                return None if len(seen) == refused else ratio(p, q)
            aimed = T.certified_sup(refusing, t_star, upper, stop, cap, aim)
            walked = T.certified_sup(ratio, t_star, upper, stop, cap)
            if refused or sup is T.kerckhoff_distance:
                assert aimed == walked, (a, b, tol)
                assert aimed[3] == (None if refused else "precision")
            else:
                s, exact = sup(a, b, tol), exact_ext(a, b)
                assert aimed[0] == walked[0] == s.lower and aimed[3] is walked[3] is None
                assert (s.certified, s.reason) == (False, "tolerance"), (a, b, tol)
                assert s.lower < exact < s.upper == math.nextafter(s.lower, math.inf)
                ulp = sup(a, b, s.upper - s.lower)
                assert ulp.certified and (ulp.lower, ulp.upper) == (s.lower, s.upper), (a, b)
            assert not refused or T._primitive(*seen[0]) == r.witness  # the one refused


def test_cap_counts_the_walked_classes():
    """README's torus-dist pair at tol 1e-15, where no class meets the stop
    test: the aimed class, tried and failed, is not counted, so each cap ends
    with the best lower bound of that many walked classes, and with no cap the
    walk ends uncertified at t*'s last convergent, its 35th class."""
    a, b = UpperHalfPoint(0.0, 1.0), UpperHalfPoint(1.0, 2.0)
    for cap, best in enumerate([0.3999999999999993, 1.9999999999999964, 2.5999999999999956,
                                2.615384615384611, 2.618025751072957, 2.618033963166702], 1):
        with pytest.raises(T.EnumerationBudgetError) as info:
            T.kerckhoff_distance(a, b, tol=1e-15, cap=cap)
        assert info.value.lower_bound == best, cap
    r = T.kerckhoff_distance(a, b, tol=1e-15)
    assert (r.certified, r.reason, r.nodes) == (False, "precision", 35)


# ---------------------------------------------------------------------------
# Geodesics, Minsky equality, tangency


def test_geodesic_endpoints_and_minsky_equality():
    f, g = curve(1, 0), curve(0, 1)
    geo = T.geodesic_between(f, g)
    assert geo.endpoint_a == T.INFINITY and geo.endpoint_b == 0
    i2 = T.intersection(f, g) ** 2
    for t in np.linspace(-3, 3, 13):
        pt = geo.point_at(float(t))
        prod = T.extremal_length(pt, fol(1, 0)) * T.extremal_length(pt, fol(0, 1))
        assert prod == pytest.approx(i2, rel=1e-10)


def test_geodesic_unit_speed():
    geo = T.geodesic_between(curve(1, 0), curve(0, 1))
    d = T.teich_distance(geo.point_at(0.0), geo.point_at(1.5))
    assert d == pytest.approx(1.5, abs=1e-9)


def test_minsky_inequality_random():
    rng = np.random.default_rng(7)
    curves = [curve(p, q) for p, q in primitive_pairs(6)]
    for _ in range(300):
        tau = UpperHalfPoint(float(rng.uniform(-2, 2)), float(rng.uniform(0.25, 4)))
        a, b = rng.choice(len(curves), size=2, replace=False)
        ca, cb = curves[a], curves[b]
        lhs = T.intersection(ca, cb) ** 2
        rhs = T.extremal_length(tau, T.WeightedTorusFoliation(Fraction(1), ca)) * (
            T.extremal_length(tau, T.WeightedTorusFoliation(Fraction(1), cb))
        )
        assert lhs <= rhs * (1 + 1e-12) + 1e-12


def test_tangent_point_level():
    f = fol(1, 0)
    g = fol(0, 1)
    pt = T.tangent_point(f, Fraction(1, 2), g)
    assert T.extremal_length(pt, f) == pytest.approx(0.5, abs=1e-10)
    # on the geodesic, Ext(g) = i^2 / Ext(f) = 2
    assert T.extremal_length(pt, g) == pytest.approx(2.0, abs=1e-9)


def test_tangent_point_is_on_the_level():
    """Ext(f) at the closed-form tangent point is s to 2^-48, for every
    transverse pair of classes with |p|, |q| <= 3, two weights and rational
    levels a/b with a, b <= 5."""
    classes = {T.TorusCurve(p, q) for p in range(-3, 4) for q in range(-3, 4)
               if math.gcd(p, q) == 1}
    levels = {Fraction(a, b) for a in range(1, 6) for b in range(1, 6)}
    for c1, c2 in itertools.permutations(classes, 2):
        g = T.WeightedTorusFoliation(Fraction(1), c2)
        for w in (Fraction(1), Fraction(3, 2)):
            f = T.WeightedTorusFoliation(w, c1)
            for s in levels:
                pt = T.tangent_point(f, s, g)
                ext = T.extremal_length(UpperHalfPoint(Fraction(pt.x), Fraction(pt.y)), f)
                assert abs(ext / s - 1) <= Fraction(1, 2**48), (c1, c2, w, s)


def test_horocycle_point_lies_on_level_set():
    for p, q in [(1, 0), (0, 1), (2, 3), (3, -1)]:
        f = fol(p, q)
        for level in (Fraction(1, 2), Fraction(2), Fraction(7, 3)):
            for sigma in (-3.0, 0.0, 0.25, 10.0):
                x = T.horocycle(f, level)(sigma)
                assert T.extremal_length(x, f) == pytest.approx(
                    float(level), rel=1e-9
                )


def test_out_of_double_range_levels_raise_value_error():
    """Levels whose horocycle points or tangent point leave the doubles are
    rejected with ValueError, never a ZeroDivisionError or OverflowError.  A
    far level t of an equidistance check is measured, not drawn, so it is
    reported, and correctly."""
    tiny, huge = Fraction(1, 10**400), Fraction(10**400)
    for f in (fol(1, 0), fol(2, 1)):
        for level in (tiny, huge):
            with pytest.raises(ValueError, match="double range"):
                T.horocycle(f, level)(0.0)
    with pytest.raises(ValueError, match="double range"):
        T.equidistance_check(fol(2, 1), tiny, Fraction(2), 3)
    rep = T.equidistance_check(fol(2, 1), Fraction(1), huge, 3)
    assert rep.ok and all(b.contains(200 * math.log(10.0)) for b in rep.brackets)
    with pytest.raises(ValueError, match="double range"):
        T.tangent_point(fol(1, 0), tiny, fol(0, 1))


def distance_to_horocycle(pt, f, level):
    """_half_log_distance's bracket on pt's distance to HS(f, level), from pt's chart point."""
    return T._half_log_distance(T._act(f.curve.chart, *T._ints(pt)),
                                T._normalize_level(f.weight, level))


def exact_ext(pt, f):
    return T.extremal_length(UpperHalfPoint(Fraction(pt.x), Fraction(pt.y)), f)


def offset(pt, f, level):
    """pt's distance to HS(f, level), (1/2)|log(Ext_f(pt) / level)|, at 50
    digits from the exact Ext at the double point."""
    ratio = exact_ext(pt, f) / Fraction(level)
    with mpmath.workdps(50):
        return abs(mpmath.log(mpmath.mpf(ratio.numerator) / ratio.denominator)) / 2


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    st.sampled_from(list(primitive_pairs(7))),
    st.sampled_from([Fraction(1), Fraction(3, 2)]),
    st.floats(-20.0, 20.0),
    st.floats(-10.0, 10.0),
)
def test_horocycle_points_keep_their_bound(pq, w, log_level, sigma):
    """How far a point of horocycle(f, level) is off HS(f, level) is measured:
    the bracket of _half_log_distance holds its distance at 50 digits.
    Where the horocycle is 2^20 ulps of p/q across (q = 0: always), the point
    keeps the bound the float chart once proved, 2^-40 + 2^-51 |sigma x|;
    otherwise the call raises ValueError(OUT_OF_RANGE).  Levels are
    log-uniform in [1e-20, 1e20]."""
    p, q = pq
    f, level = fol(p, q, w), 10.0**log_level
    try:
        pt = T.horocycle(f, level)(sigma)
    except ValueError as e:
        assert str(e) == T.OUT_OF_RANGE
        return
    b = distance_to_horocycle(pt, f, level)
    assert b.lo <= offset(pt, f, level) <= b.hi
    if not q or level / float(w * w * q * q) >= 2.0**20 * math.ulp(p / q):
        assert b.hi <= 2.0**-40 + 2.0**-51 * abs(sigma * pt.x)


def test_found_horocycle_narrower_than_an_ulp_is_not_ok():
    """The FOUND call: HS((-5, 3), 1e-20) is 1.1e-21 across, below ulp(5/3), so
    no double point is on it.  Its points are returned, and the equidistance
    check measures how far they are off: each bracket still holds (1/2) log 4,
    but is too wide, and the report is not ok.  At 1e-8 the horocycle is
    resolved and its points are on it."""
    f = fol(-5, 3)
    assert not on_horocycle(T.horocycle(f, 1e-20)(0.7), f, 1e-20)
    rep = T.equidistance_check(f, 1e-20, 4e-20, 500, seed=1)
    assert not rep.ok and all(b.contains(rep.expected) and b.width > 1 for b in rep.brackets)
    assert on_horocycle(T.horocycle(f, 1e-8)(0.7), f, 1e-8)
    assert T.equidistance_check(f, Fraction(1), Fraction(4), 50, seed=1).ok


def on_horocycle(pt, f, level, rel=Fraction(1, 10**12)):
    """pt lies on HS(f, level) to rel, by the exact Ext at pt."""
    return abs(exact_ext(pt, f) / Fraction(level) - 1) <= rel


@pytest.mark.parametrize("level", [Fraction(10**300), Fraction(10**160), Fraction(1, 10**300)])
def test_far_level_horocycle_points_or_out_of_range(level):
    """Where sigma^2 + h^2 is below or above the doubles, a horocycle point is
    returned or ValueError(OUT_OF_RANGE); never a ZeroDivisionError.  A point
    at |sigma| <= 2^20 is on the horocycle to 2^-50.  One far out, such as
    sigma = 1e300 on HS((2, 1), 1e-300), whose offset from -2 is below ulp(2),
    can be far off it, and its measured distance says so."""
    f = fol(2, 1)
    at = T.horocycle(f, level)
    for sigma in (0.0, 1e-300, 1e-160, 0.5, 4.0, 64.0, 2.0**20, 1e150, 1e300):
        for s in (sigma, -sigma):
            try:
                pt = at(s)
            except ValueError as e:
                assert str(e) == T.OUT_OF_RANGE
            else:
                b = distance_to_horocycle(pt, f, level)
                assert b.lo <= offset(pt, f, level) <= b.hi, (level, s)
                assert sigma > 2.0**20 or on_horocycle(pt, f, level, Fraction(2.0**-50))


def test_found_horocycle_underflow_calls():
    """The two calls that ended in ZeroDivisionError: the equidistance check
    returns a report that is not ok unless it is right, and the sampler's
    point lies in HB(f, 10^300), by its exact Ext."""
    from horoteich.horolab import HoroBall, TorusBackend

    f = T.WeightedTorusFoliation(1, curve(2, 1))
    rep = T.equidistance_check(f, 10**300, 10**301, 3)
    assert not rep.ok or rep.max_error <= 1e-6
    h2 = HoroBall(T.WeightedTorusFoliation(1, curve(1, 0)), 1)
    point = TorusBackend().horosphere_sampler(HoroBall(f, 10**300), h2)
    assert exact_ext(point, f) <= 10**300


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    st.floats(-3, 3),
    log_im,
    st.integers(-60, 60),
    st.integers(-60, 60),
    st.fractions(Fraction(1, 1000), Fraction(1000), max_denominator=1000),
)
def test_torus_ext_tolerance_encloses_exact_value(x, y, p, q, w):
    """torus-ext prints Ext rounded from the exact Fraction at the double
    inputs, within its tolerance."""
    import contextlib, io, json

    from horoteich import cli

    if (p, q) == (0, 0) or math.gcd(p, q) != 1:
        return
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.run(["torus-ext", f"--tau={x!r}+{y!r}i", f"--curve={p},{q}",
                          f"--weight={w}"])
    assert status == 0
    ext = json.loads(out.getvalue())["results"]["ext"]
    re = p + q * Fraction(x)
    exact = w * w * (re * re + (q * Fraction(y)) ** 2) / Fraction(y)
    assert abs(Fraction(ext["value"]) - exact) <= Fraction(ext["tolerance"])


def test_horocycle_samples_ext_vectorized():
    """The array closed form in f's chart is Ext(g) at horocycle(f, s)'s points,
    for transverse pairs, weights other than 1 and g = f."""
    sig = np.linspace(-5, 5, 41)
    for fp, gp, s in (((1, 0), (0, 1), Fraction(1)), ((2, 3), (1, -1), Fraction(7, 3)),
                      ((3, -1), (3, -1), Fraction(1, 5)), ((0, 1), (5, 2), Fraction(9))):
        f, g = fol(*fp, Fraction(3, 2)), fol(*gp, Fraction(2, 5))
        vals = T.horocycle_samples_ext(f, s, g, sig)
        at = T.horocycle(f, s)
        for x, v in zip(sig, vals):
            assert v == pytest.approx(T.extremal_length(at(float(x)), g), rel=1e-12)


def test_horospec_normalization():
    f = T.WeightedTorusFoliation(Fraction(2), curve(1, 0))
    h1 = T.HoroSpec.create(f, Fraction(4))
    h2 = T.HoroSpec.create(fol(1, 0), Fraction(1))
    assert h1 == h2


def test_tangency_examples():
    h1 = T.HoroSpec.create(fol(1, 0), Fraction(1))
    h2 = T.HoroSpec.create(fol(0, 1), Fraction(1))
    assert T.tangency_check(h1, h2)
    h3 = T.HoroSpec.create(fol(0, 1), Fraction(1, 2))
    assert not T.tangency_check(h1, h3)
    pt = T.tangency_point(h1, h2)
    assert T.extremal_length(pt, h1.foliation) == pytest.approx(1.0, abs=1e-10)
    assert T.extremal_length(pt, h2.foliation) == pytest.approx(1.0, abs=1e-10)


def test_triple_tangency_levels():
    assert T.triple_tangency_levels(1, 1, 1) == (1, 1, 1)
    assert T.triple_tangency_levels(2, 3, 6) == (1, 4, 9)
    assert T.triple_tangency_levels(5, 5, 5) == (5, 5, 5)
    with pytest.raises(ValueError):
        T.triple_tangency_levels(0, 1, 1)


@given(
    st.fractions(min_value=Fraction(1, 50), max_value=50),
    st.fractions(min_value=Fraction(1, 50), max_value=50),
    st.fractions(min_value=Fraction(1, 50), max_value=50),
)
def test_triple_tangency_products(a, b, c):
    r, s, t = T.triple_tangency_levels(a, b, c)
    assert r * s == a * a and r * t == b * b and s * t == c * c


# ---------------------------------------------------------------------------
# Ratio-curve search


def test_ratio_curve_examples():
    g = T.ratio_curve_search(curve(1, 0), curve(0, 1), Fraction(1), Fraction(1, 100))
    assert g == curve(1, 1)
    g2 = T.ratio_curve_search(curve(1, 0), curve(0, 1), Fraction(2), Fraction(1, 100))
    assert T.intersection(curve(1, 0), g2) == 2 * T.intersection(curve(0, 1), g2)


def test_ratio_curve_random_targets():
    rng = np.random.default_rng(3)
    a, b = curve(1, 2), curve(1, -1)
    for _ in range(25):
        target = float(rng.uniform(0.1, 10.0))
        g = T.ratio_curve_search(a, b, target, 1e-3)
        ratio = T.intersection(a, g) / T.intersection(b, g)
        assert abs(ratio - target) < 1e-3


def ratio_curve_reference(alpha, beta, target, eps, budget=10**6):
    """ratio_curve_search as it was before the run walk, frozen: the Stern-Brocot
    descent one mediant at a time, each compared with target in Fractions."""
    target = Fraction(target)

    def reduced(u, w):
        p, q = u * alpha.p + w * beta.p, u * alpha.q + w * beta.q
        g = math.gcd(p, q)
        return p // g, q // g

    lo, hi, best, best_err = (1, 0), (0, 1), None, math.inf
    for _ in range(budget):
        u, w = lo[0] + hi[0], lo[1] + hi[1]
        ratio = Fraction(w, u)
        err = abs(ratio - target)
        if err < best_err:
            best, best_err = (u, w), err
        if err < eps:
            return T.TorusCurve(*reduced(u, w))
        lo, hi = ((u, w), hi) if ratio < target else (lo, (u, w))
    u, w = best
    raise T.EnumerationBudgetError(f"ratio search budget exhausted; best ratio {Fraction(w, u)} at "
                                   f"curve {reduced(u, w)}", float(Fraction(w, u)))


def ratio_curve_outcome(search, *args):
    """("curve", p, q), or ("budget", message, lower_bound) for a budget exit."""
    try:
        g = search(*args)
        return "curve", g.p, g.q
    except T.EnumerationBudgetError as e:
        return "budget", str(e), e.lower_bound


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def test_ratio_curve_run_walk_matches_the_mediant_walk():
    """Seeded sweep against the frozen one-mediant-at-a-time search: random
    curve pairs; rational targets (random, small, ratios of consecutive
    Fibonacci numbers) and float ones; Fraction and float eps, down to 1e-30,
    and inf; budgets log-uniform in [1, 10^4]; and budgets that end on a tie.
    Each call gives the same curve, or the same budget message and lower_bound."""
    rng = random.Random(46)

    def fibonacci_ratio():  # F(k) / F(k + 1) or its inverse: quotients all 1 but the last
        k = rng.randint(2, 40)
        return Fraction(fibonacci(k), fibonacci(k + 1)) ** rng.choice((-1, 1))
    pairs = [pq for pq in primitive_pairs(5) if pq[0] > 0 or pq == (0, 1)]
    targets = [lambda: Fraction(rng.randint(1, 10**rng.randint(1, 8)),
                                rng.randint(1, 10**rng.randint(1, 8))),
               lambda: Fraction(rng.randint(1, 40), rng.randint(1, 40)),
               fibonacci_ratio, lambda: 10.0 ** rng.uniform(-6, 6)]
    epsilons = [lambda: Fraction(1, 10**rng.randint(0, 30)),
                lambda: Fraction(rng.randint(1, 9), rng.randint(1, 999)),
                lambda: 10.0 ** rng.uniform(-20, 1), lambda: math.inf]
    kinds = Counter()
    for _ in range(2000):
        alpha, beta = (curve(*pq) for pq in rng.sample(pairs, 2))
        args = (alpha, beta, rng.choice(targets)(), rng.choice(epsilons)(),
                int(10 ** rng.uniform(0, 4)))
        got = ratio_curve_outcome(T.ratio_curve_search, *args)
        assert got == ratio_curve_outcome(ratio_curve_reference, *args), args
        kinds[got[0]] += 1
    assert min(kinds.values()) >= 500, kinds
    for k in range(1, 30):  # k/1 and then (k + 1)/1 are 1/2 off k + 1/2: the first stays best
        args = (curve(1, 0), curve(0, 1), Fraction(2 * k + 1, 2), Fraction(1, 10), k + 1)
        got = ratio_curve_outcome(T.ratio_curve_search, *args)
        assert got == ratio_curve_outcome(ratio_curve_reference, *args) == (
            "budget", f"ratio search budget exhausted; best ratio {k} at curve (1, {k})", k)


def test_ratio_curve_costs_a_step_per_partial_quotient():
    """1e308 is one run of 10^308 mediants j/1, and the default budget of
    10^6 mediants ends inside it: one division, where the mediant walk took
    seconds.  F(301)/F(300), all but one quotient 1, at an eps of 10^-200,
    below every convergent's error (about 10^-125 or more) but its own 0, is
    300 mediants, nearly all a run of their own."""
    start = time.perf_counter()
    with pytest.raises(T.EnumerationBudgetError) as info:
        T.ratio_curve_search(curve(1, 0), curve(0, 1), 1e308, 0.1)
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == "ratio search budget exhausted; best ratio 1000000 at curve (1, 1000000)"
    assert info.value.lower_bound == 1e6
    target, eps = Fraction(fibonacci(301), fibonacci(300)), Fraction(1, 10**200)
    for budget in (1, 150, 299, 300, 10**6):  # 300 mediants reach the target
        args = (curve(1, 0), curve(0, 1), target, eps, budget)
        start = time.perf_counter()
        got = ratio_curve_outcome(T.ratio_curve_search, *args)
        assert time.perf_counter() - start < 0.1
        assert got == ratio_curve_outcome(ratio_curve_reference, *args), budget
    assert got == ("curve", fibonacci(300), fibonacci(301))


def test_ratio_curve_input_contract():
    """A budget below 1 or an infinite target is a ValueError; an infinite eps
    admits the first mediant, 1/1."""
    a, b = curve(1, 0), curve(0, 1)
    for target, budget in ((1, 0), (1, -2), (math.inf, 10)):
        with pytest.raises(ValueError):
            T.ratio_curve_search(a, b, target, 0.1, budget)
    for target in (Fraction(1, 10**400), 7, 1e300):
        assert T.ratio_curve_search(a, b, target, math.inf) == curve(1, 1)


# ---------------------------------------------------------------------------
# Equidistance, Busemann, metric balls


def test_equidistance_basic():
    rep = T.equidistance_check(fol(1, 1), Fraction(1), Fraction(4), samples=3)
    assert rep.ok
    assert rep.expected == pytest.approx(0.5 * math.log(4.0))


def test_equidistance_rejects_empty_sample():
    with pytest.raises(ValueError, match="samples must be at least 1"):
        T.equidistance_check(fol(1, 1), Fraction(1), Fraction(4), samples=0)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        T.equidistance_check(fol(1, 1), Fraction(2), Fraction(2), samples=0)


def horocycle_cases(seed, n):
    """Seeded points (Im tau >= 0.05, so every foot lies well inside the
    +-64 grid), curves with q = 0 and q != 0, weights other than 1 and
    levels log-uniform in [1e-3, 1e3], kept off the horocycle itself."""
    rng = np.random.default_rng(seed)
    curves = [(1, 0), (2, 1), (0, 1), (3, -2), (1, 1)]
    weights = [Fraction(1), Fraction(3, 2), Fraction(2, 5)]
    cases = []
    while len(cases) < n:
        y = math.exp(rng.uniform(math.log(0.05), math.log(20)))
        x = UpperHalfPoint(float(rng.uniform(-3, 3)), y)
        f = fol(*curves[len(cases) % len(curves)], weights[len(cases) % len(weights)])
        level = Fraction(math.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
        if abs(math.log(T.extremal_length(x, f) / float(level))) > 0.1:
            cases.append((x, f, level))
    return cases


def test_distance_to_horocycle_closed_form():
    """Test-only oracle: the distance to HS(f, level) is (1/2)|log(Ext_x(f) / level)|."""
    for x, f, level in horocycle_cases(4, 200):
        bracket = distance_to_horocycle(x, f, level)
        for dmin in (bracket.lo, bracket.hi):
            assert abs(dmin - 0.5 * abs(math.log(T.extremal_length(x, f) / float(level)))) <= 1e-9


@pytest.mark.parametrize("s", [1, 10**8, 10**20, 10**150, Fraction(1, 10**20)])
def test_equidistance_far_levels(s):
    """The FOUND calls (levels far above q^2, where a grid search over a fixed
    sigma range returned 16.8 and 316) and their neighbours: every bracket
    holds (1/2) log 4 within tol.  With 100 samples, some foot lies where
    at(sigma*) misses x.x by an ulp, hyperbolically far at these levels."""
    for samples in (3, 100):
        rep = T.equidistance_check(fol(2, 1), s, 4 * s, samples)
        assert rep.ok and rep.unique_feet
        assert all(b.contains(0.6931471805599453) and b.width <= 1e-6 for b in rep.brackets)
        assert rep.distances == [0.5 * (b.lo + b.hi) for b in rep.brackets]


far_level = st.floats(-300.0, 300.0).map(lambda e: Fraction(10.0**e))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.sampled_from(list(primitive_pairs(5))),
    st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2, 5)]),
    far_level,
    far_level,
    st.integers(0, 10**6),
)
def test_equidistance_brackets_hold_the_distance(pq, w, s, t, seed):
    """Each bracket holds the true distance from its sample point x (the
    double point drawn as documented) to HS(f, t), (1/2)|log(Ext_f(x) / t)|
    at 50 digits, or the check raises ValueError(OUT_OF_RANGE)."""
    s, t = min(s, t), max(s, t)
    f = fol(*pq, w)
    try:
        rep = T.equidistance_check(f, s, t, 3, seed=seed)
    except ValueError as e:
        assert str(e) == T.OUT_OF_RANGE
        return
    rng = random.Random(seed)
    p, q = f.curve.p, f.curve.q
    w2 = (mpmath.mpf(w.numerator) / w.denominator) ** 2
    level = mpmath.mpf(t.numerator) / t.denominator
    for b in rep.brackets:
        x = T.horocycle(f, s)(rng.uniform(-4.0, 4.0))
        re, y = p + q * mpmath.mpf(x.x), mpmath.mpf(x.y)
        ext = w2 * (re * re + (q * y) ** 2) / y
        truth = abs(mpmath.log(ext / level)) / 2
        assert b.lo <= truth <= b.hi, (pq, w, s, t, seed, b, truth)


def test_busemann_closed_vs_limit():
    x0 = UpperHalfPoint(0.0, 1.0)
    f = fol(1, 0)
    for x in [UpperHalfPoint(0.5, 0.7), UpperHalfPoint(-1.2, 2.5)]:
        closed = T.busemann(x0, f, x)
        limit = T.busemann_limit(x0, f, x, tol=1e-8)
        assert limit == pytest.approx(closed, abs=2e-8)


def test_busemann_on_ray():
    x0 = UpperHalfPoint(0.0, 1.0)
    f = fol(1, 0)
    ray, _, _ = T.torus_ray(x0, f)
    assert T.busemann(x0, f, ray(1.25)) == pytest.approx(-1.25, abs=1e-9)
    assert T.busemann(x0, f, x0) == 0.0


@pytest.mark.parametrize("pq", [(1, 0), (0, 1), (2, 1), (3, -2), (5, -7)])
def test_torus_ray_chart(pq):
    """ray(t) = chart(i u0 e^{2t}) for the returned chart, a positive-determinant
    Mat2, and u0 = Im M x0; ray(0) is x0, and Ext_f decays as e^{-2t}."""
    x0, f = UpperHalfPoint(0.3, 1.7), fol(*pq)
    ray, chart, u0 = T.torus_ray(x0, f)
    assert chart.det() > 0 and u0 == pytest.approx(1.0 / T.extremal_length(x0, f), rel=1e-15)
    assert ray(0.0) == x0
    for t in (-1.5, 0.5, 3.0):
        pt = mobius_apply(chart, UpperHalfPoint(0.0, u0 * math.exp(2.0 * t)))
        assert (pt.x, pt.y) == pytest.approx((ray(t).x, ray(t).y), rel=1e-12, abs=1e-12)
        assert T.extremal_length(ray(t), f) == pytest.approx(
            T.extremal_length(x0, f) * math.exp(-2.0 * t), rel=1e-12)


def test_half_log_holds_the_truth():
    """[v - r, v + r] from half_log(n, d) holds (1/2) log(n / d) (mpmath, 80
    digits) for n / d = 2^k odd / odd, |k| <= 5000, far from the doubles, and
    is centred on 0 for n = d."""
    rng = random.Random(31)
    odd = lambda: rng.getrandbits(rng.randint(1, 200)) | 1  # noqa: E731
    cases = [(n, n) for n in (1, 3, 2**200 + 1, 10**400)]
    for k in [5000, -5000, 0] + [rng.randint(-5000, 5000) for _ in range(200)]:
        a, b = odd(), odd()
        cases.append((a << k, b) if k >= 0 else (a, b << -k))
    with mpmath.workdps(80):
        for n, d in cases:
            v, r = T.half_log(n, d)
            truth = (mpmath.log(n) - mpmath.log(d)) / 2
            assert v - r <= truth <= v + r and r == T.half_log_radius(v), (n, d)
            assert n != d or v == 0.0


def far_cosh(rng):
    """The exact A = 1 + |tau1 - tau2|^2 / (2 y1 y2), as (n, m), of two double
    points with Re = +-10^U(-3, 300) and Im = 10^U(-161.8, 300)."""
    re = [Fraction(rng.choice((-1, 1)) * 10.0 ** rng.uniform(-3, 300)) for _ in "12"]
    im = [Fraction(10.0 ** rng.uniform(-161.8, 300)) for _ in "12"]
    a = 1 + ((re[0] - re[1]) ** 2 + (im[0] - im[1]) ** 2) / (2 * im[0] * im[1])
    return a.numerator, a.denominator


def half_acosh_truth(n, m, k, e):
    """(1/2) log((A + sqrt(A^2 - 1)) / (k 2^e)), A = n / m, in mpmath from the
    exact A - 1, so that A near 1 keeps its digits."""
    t = mpmath.mpf(n - m) / m
    return (mpmath.log1p(t + mpmath.sqrt(t * (t + 2))) - mpmath.log(k) - e * mpmath.log(2)) / 2


def test_half_acosh_holds_the_truth():
    """half_acosh's bracket holds (1/2) log((A + sqrt(A^2 - 1)) kd / kn)
    (mpmath, 80 digits): with kn = kd = 1, i.e. (1/2) acosh(A), for the exact
    A of far point pairs, A = 1 and A = 1 + 2^-300; and with kn / kd = k 2^p
    / 2^s, K = 2^j (as _ray_step passes them) or a 64-bit odd integer times 2^j."""
    rng = random.Random(31)
    cases = [(n, n, 1, 0) for n in (1, 7, 10**400)] + [(2**300 + 1, 2**300, 1, 0)]
    cases += [(*far_cosh(rng), 1, 0) for _ in range(200)]
    for _ in range(200):
        x, h, w = (rng.getrandbits(rng.randint(1, 400)) + 1 for _ in "xhw")
        k, e = rng.choice([1, rng.getrandbits(64) | 1 << 63 | 1]), rng.randint(-6000, 6000)
        cases.append((x * x + h * h + w * w, 2 * h * w, k, e))
    with mpmath.workdps(80):
        for n, m, k, e in cases:
            d = T.half_acosh(n, m, k << max(e, 0), 1 << max(-e, 0))
            assert d.lo <= half_acosh_truth(n, m, k, e) <= d.hi, (n, m, k, e)


def test_busemann_closed_form_beyond_the_doubles():
    """Where Ext_f or the ratio of the two Exts leaves the doubles, the closed
    form is still within the CLI record's tag of the truth."""
    def log_ext(t, p, q):
        re, im = p + q * mpmath.mpf(t.x), q * mpmath.mpf(t.y)
        return mpmath.log((re * re + im * im) / mpmath.mpf(t.y))

    near, far = UpperHalfPoint(0.0, 1.0), UpperHalfPoint(1e300, 1.0)
    low, high = UpperHalfPoint(0.0, 1e-160), UpperHalfPoint(0.0, 1e200)
    for x0, (p, q), x in ((near, (2, 1), far), (far, (2, 1), near), (low, (0, 1), high)):
        truth = (log_ext(x, p, q) - log_ext(x0, p, q)) / 2
        value = T.busemann(x0, fol(p, q), x)
        assert abs(value - truth) <= T.HALF_LOG_ROUNDING * (1 + abs(value)), (x0, x)


def test_ray_distance_stable_at_huge_times():
    """D(t) at the two powers of two around e^{2t}, t = 2^20, is a narrow
    bracket at or below D(16)'s that holds the Busemann value."""
    x0 = UpperHalfPoint(0.0, 1.0)
    f = fol(1, 0)
    y = UpperHalfPoint(0.4, 2.0)
    step, b = T.ray_excess(x0, f, y), T.busemann(x0, f, y)
    j = math.floor(2**21 / math.log(2))  # 2^j <= e^{2^21} < 2^(j + 1)
    (d_huge, _), (d_small, _) = step(j + 1), step(j)
    assert d_huge.width < 1e-14 and d_small.hi == d_huge.hi
    assert d_huge.hi <= step(math.floor(32 / math.log(2)))[0].hi + 1e-15
    assert d_huge.lo <= b <= d_huge.hi


def ray_truth(x0, f, y, log_k):
    """(D(t), B) at the double inputs, where log K = 2t (an mpf), in mpmath
    from the exact chart coordinates of y and x0."""
    m = f.curve.chart
    re0, im0, den0 = T._act(m, *T._ints(x0))
    re, im, den = T._act(m, *T._ints(y))
    dx, h, u0 = Fraction(re, den) - Fraction(re0, den0), Fraction(im, den), Fraction(im0, den0)

    def mp(v):
        return mpmath.mpf(v.numerator) / v.denominator
    k = mpmath.exp(log_k)
    cosh = 1 + (mp(dx) ** 2 + (mp(h) - k * mp(u0)) ** 2) / (2 * mp(h) * k * mp(u0))
    return mpmath.acosh(cosh) / 2 - log_k / 2, mpmath.log(mp(u0) / mp(h)) / 2


FAR_CURVES = [(1, 0), (0, 1), (1, 1), (2, 1), (3, -2), (5, -7), (999999, 1000000)]
far_re = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 200.0)).map(
    lambda se: se[0] * 10.0**se[1])
far_im = st.floats(-100.0, 100.0).map(lambda e: 10.0**e)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(FAR_CURVES), far_re, far_im, far_re, far_im, st.integers(0, 6000))
@example((2, 1), 1e300, 1.0, 0.0, 1.0, 1990)
def test_ray_excess_brackets_hold_the_truth(pq, x0r, x0i, yr, yi, j):
    """For start and sample points anywhere in |Re| <= 1e200, Im in [1e-100,
    1e100], the exact D(t) bracket at e^{2t} = 2^j holds D(t) at the double
    inputs (mpmath, 80 digits), [D_lo - tail, D_hi] holds the Busemann value,
    and so does busemann's closed form, within its rounding."""
    x0, y, f = UpperHalfPoint(x0r, x0i), UpperHalfPoint(yr, yi), fol(*pq)
    d, tail = T.ray_excess(x0, f, y)(j)
    b = T.busemann(x0, f, y)
    with mpmath.workdps(80):
        d_true, b_true = ray_truth(x0, f, y, j * mpmath.log(2))
        assert d.lo <= d_true <= d.hi and d.lo - tail <= b_true <= d.hi, (d, tail, d_true, b_true)
        assert abs(b - b_true) <= T.HALF_LOG_ROUNDING * (1 + abs(b))


def test_metric_ball_limit_small_sample():
    x0 = UpperHalfPoint(0.0, 1.0)
    f = fol(1, 0)
    sample = [UpperHalfPoint(0.3, 2.5), UpperHalfPoint(-0.4, 0.5), UpperHalfPoint(1.0, 1.4)]
    sample = [x for x in sample if abs(T.busemann(x0, f, x)) >= 1e-3]
    rep = T.metric_ball_limit_check(x0, f, sample)
    assert rep.ok and not rep.inconclusive


def ball_limit_samples():
    """The criterion-8 sample, then seeded ones with Im tau log-uniform in
    [1e-8, 1e8], from near the cusp to far up it."""
    rng = np.random.default_rng(8)
    x0, f = UpperHalfPoint(0.0, 1.0), fol(1, 0)
    sample = []
    while len(sample) < 200:
        x = UpperHalfPoint(float(rng.uniform(-3, 3)), float(math.exp(rng.uniform(-1.5, 1.5))))
        if abs(T.busemann(x0, f, x)) >= 1e-3:
            sample.append(x)
    yield x0, f, sample
    r = random.Random(11)
    for c in [(1, 0), (2, 1), (0, 1), (3, -2)]:
        x0 = UpperHalfPoint(r.uniform(-1, 1), math.exp(r.uniform(-0.5, 0.5)))
        yield x0, fol(*c), [UpperHalfPoint(r.uniform(-3, 3), 10.0 ** r.uniform(-8, 8))
                            for _ in range(100)]


def test_ball_limit_sweep_matches_per_call_distances():
    """The sweep decides most memberships from B's bracket and the tail bound;
    each decided one has the sign of D(2^k) formed per call in mpmath (50
    digits), an undecided one is within 1e-12 of 0, and the class is that of
    D(2^20), which is at least 1e-6 from 0 here."""
    for x0, f, sample in ball_limit_samples():
        rep = T.metric_ball_limit_check(x0, f, sample)
        assert rep.ok
        for y, e in zip(sample, rep.entries):
            with mpmath.workdps(50):
                ds = [ray_truth(x0, f, y, mpmath.mpf(2) ** (k + 1))[0] for k in range(21)]
            for m, d in zip(e.memberships, ds):
                assert (d < 0) == m if m is not None else abs(d) < 1e-12
            cls = "inconclusive" if abs(ds[-1]) <= 1e-6 else "inside" if ds[-1] < 0 else "outside"
            assert e.classification == cls and e.nested
            assert e.busemann_value == T.busemann(x0, f, y)


def test_ball_limit_point_on_the_limit_sphere_is_inconclusive():
    """A point with Busemann value 0 (x0 itself, and x0 moved along the
    horocycle Im = 1.7 of the curve (1, 0)) is listed once as inconclusive;
    ok still holds.  x0 is in no ball, as D(t) = 0 there."""
    x0, f = UpperHalfPoint(0.3, 1.7), fol(1, 0)
    rep = T.metric_ball_limit_check(x0, f, [x0, UpperHalfPoint(2.0, 0.5), UpperHalfPoint(5.3, 1.7)])
    assert rep.ok and rep.inconclusive == [x0, UpperHalfPoint(5.3, 1.7)]
    assert [e.classification for e in rep.entries] == ["inconclusive", "outside", "inconclusive"]
    assert rep.entries[0].memberships == [False] * 21


@pytest.mark.parametrize("k", [0, 1, 3])
def test_ball_limit_point_near_the_threshold_is_open_at_one_k(k):
    """From x0 = i along the curve (1, 0), y = X + 2i is in B(ray(t), t) iff
    e^{4t} > T = X^2 + 2.  With X the double nearest sqrt(e^{2^(k+2)} - 2),
    (1/2) log T is within half_log's radius of 2^(k+1): the membership at
    2^k is None, those before it False and those after it True, each the
    sign of D(2^k) (mpmath, 50 digits)."""
    x0, f = UpperHalfPoint(0.0, 1.0), fol(1, 0)
    with mpmath.workdps(50):
        y = UpperHalfPoint(float(mpmath.sqrt(mpmath.exp(2 ** (k + 2)) - 2)), 2.0)
        entry = T.metric_ball_limit_check(x0, f, [y]).entries[0]
        assert entry.memberships == [False] * k + [None] + [True] * (20 - k)
        assert abs(ray_truth(x0, f, y, mpmath.mpf(2) ** (k + 1))[0]) < 1e-12
        for i, m in enumerate(entry.memberships):
            if m is not None:
                assert (ray_truth(x0, f, y, mpmath.mpf(2) ** (i + 1))[0] < 0) == m
    assert entry.nested


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(FAR_CURVES), far_re, far_im, far_re, far_im)
def test_ball_limit_check_is_busemann_and_the_backend_brackets(pq, x0r, x0i, yr, yi):
    """For far start and sample points, the check's busemann_value is busemann's,
    each tail it forms is at h0, its one ray step is at r2, w2, hw from y's
    integers (_ray_points) and h0, and that step's pair, at e^{2t} = 2^j, is
    ray_excess's step at j, in the torus module and in TorusBackend, bit for bit."""
    x0, y, f = UpperHalfPoint(x0r, x0i), UpperHalfPoint(yr, yi), fol(*pq)
    ray_step, tail, calls = T._ray_step, T._tail, []

    def spy(name, fn, *args):
        calls.append((name, args, fn(*args)))
        return calls[-1][2]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_ray_step", lambda *a: spy("step", ray_step, *a))
        mp.setattr(T, "_tail", lambda *a: spy("tail", tail, *a))
        entry = T.metric_ball_limit_check(x0, f, [y]).entries[0]
    x, h, w = T._ray_points(x0, f)(y)
    b, r2, w2, hw = T.half_log(w, h)[0], x * x + h * h, w * w, h * w
    h0 = sum(T.half_log(r2, w2))
    assert repr(entry.busemann_value) == repr(b) == repr(T.busemann(x0, f, y))
    assert all(repr(args[0]) == repr(h0) for name, args, _ in calls if name == "tail")
    [(_, (*point, j), pair)] = [c for c in calls if c[0] == "step"]
    assert repr(point) == repr([r2, w2, hw, h0])
    step = T.ray_excess(x0, f, y)(j)
    assert repr(pair) == repr(step) == repr(horolab.TorusBackend().ray_excess(x0, f, y)(j))


def test_ball_limit_k_max_lies_in_0_to_1022():
    """k_max outside 0..1022, where 2^(k_max + 1) leaves the doubles or no
    ball is checked, raises ValueError before any membership is formed; the
    ends of the range answer, with k_max + 1 memberships a point."""
    x0, y = UpperHalfPoint(0.0, 1.0), UpperHalfPoint(0.1, 5.0)
    for k_max in (-1, 1023):
        with pytest.raises(ValueError, match=r"^k_max must lie in 0\.\.1022$"):
            T.metric_ball_limit_check(x0, fol(1, 0), [y], k_max=k_max)
    for k_max in (0, 1022):
        rep = T.metric_ball_limit_check(x0, fol(1, 0), [y], k_max=k_max)
        assert rep.ok and len(rep.entries[0].memberships) == k_max + 1


def test_ball_limit_is_ok_at_the_corners_of_the_double_range():
    """At the corners of the double range (|Re| 0 or the largest, Im the least
    subnormal, the least normal, 1 or the largest), in the charts of small
    classes and of ones whose -p/q is the largest double, every check is ok."""
    big, tiny, low = 1.7976931348623157e308, 5e-324, 2.2250738585072014e-308
    corners = [UpperHalfPoint(x, y) for x in (-big, 0.0, big) for y in (tiny, low, 1.0, big)]
    for pq in [(1, 0), (0, 1), (1, 1), (int(big), -1), (int(big), 1)]:
        for x0, y in itertools.product(corners, corners):
            assert T.metric_ball_limit_check(x0, fol(*pq), [y]).ok, (pq, x0, y)


@pytest.mark.parametrize("inside", [True, False])
def test_ball_limit_nested_is_never_out_once_in(monkeypatch, inside):
    """From x0 = i along the curve (1, 0), 0.1 + 5i is in every ball B(ray(t),
    t), t = 2^k, and 3 + 0.5i in none.  Both are nested and ok; with the
    exact D bracket of the ok step forced to [1, 1] for the inside point
    (D >= 0 up to t_j, yet in at t = 1) or to [-1, -1] for the outside one
    (D < 0 from t_j on, yet out at t = 2^20), the point is not nested and ok
    fails."""
    x0, f = UpperHalfPoint(0.0, 1.0), fol(1, 0)
    y = UpperHalfPoint(0.1, 5.0) if inside else UpperHalfPoint(3.0, 0.5)
    rep = T.metric_ball_limit_check(x0, f, [y])
    assert rep.entries[0].memberships == [inside] * 21
    assert rep.entries[0].nested and rep.ok
    forced = T.Bracket(1.0, 1.0) if inside else T.Bracket(-1.0, -1.0)
    monkeypatch.setattr(T, "half_acosh", lambda *args: forced)
    rep = T.metric_ball_limit_check(x0, f, [y])
    assert rep.entries[0].memberships == [inside] * 21
    assert not rep.entries[0].nested and not rep.ok


def test_ball_limit_ok_is_a_check(monkeypatch):
    """ok fails when the exact D(t) brackets disagree with the closed form:
    here they are shifted up by 1e-9, past B_hi + tail."""
    x0, f, sample = next(ball_limit_samples())
    half_acosh = T.half_acosh

    def shifted(*args):
        d = half_acosh(*args)
        return T.Bracket(d.lo + 1e-9, d.hi + 1e-9)
    assert T.metric_ball_limit_check(x0, f, sample[:5]).ok
    monkeypatch.setattr(T, "half_acosh", shifted)
    assert not T.metric_ball_limit_check(x0, f, sample[:5]).ok


# ---------------------------------------------------------------------------
# The input contract: an answer or a ValueError

# The double range's edges: ints 10^300-10^420 and their reciprocals, subnormals,
# 1.7e308 and ordinary values; a curve coordinate of 10^400; weights and levels
# far outside the doubles or infinite
EDGE_X = st.one_of(st.integers(300, 420).map(lambda e: 10**e),
                   st.integers(300, 420).map(lambda e: Fraction(1, 10**e)),
                   st.integers(1, 1000).map(lambda k: k * 5e-324),
                   st.just(1.7e308), st.floats(0.05, 3.0))
EDGE_POINT = st.builds(lambda s, x, y: UpperHalfPoint(s * x, y), st.sampled_from([-1, 1]),
                       EDGE_X, EDGE_X)
EDGE_FOLIATION = st.tuples(  # (p, q, weight): built in the test, as a weight may be refused
    st.sampled_from([(1, 0), (0, 1), (2, 1), (3, -2), (1, 10**400), (10**400, 1),
                     (10**400, 10**400 + 1)]),
    st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(1, 10**400), Fraction(10**300),
                     math.inf])).map(lambda d: (*d[0], d[1]))
EDGE_LEVEL = st.sampled_from([Fraction(1), Fraction(1, 10**400), Fraction(10**300), 2.5,
                              1e-300, 1e300, math.inf])
BACKEND = horolab.TorusBackend()
PUBLIC_TORUS_CALLS = {
    "extremal_length": lambda a, b, f, g, l1, l2, k: T.extremal_length(a, f),
    "ext_ratio": lambda a, b, f, g, l1, l2, k: T.ext_ratio(a, f),
    "teich_distance": lambda a, b, f, g, l1, l2, k: T.teich_distance(a, b),
    "kerckhoff_distance": lambda a, b, f, g, l1, l2, k: T.kerckhoff_distance(a, b, 1e-9),
    "ext_sup_enumeration": lambda a, b, f, g, l1, l2, k: T.ext_sup_enumeration(a, f, 1e-9),
    "busemann": lambda a, b, f, g, l1, l2, k: T.busemann(a, f, b),
    "metric_ball_limit_check": lambda a, b, f, g, l1, l2, k: T.metric_ball_limit_check(
        a, f, [b], k),
    "tangent_point": lambda a, b, f, g, l1, l2, k: T.tangent_point(f, l1, g),
    "horocycle": lambda a, b, f, g, l1, l2, k: T.horocycle(f, l1)(0.5),
    "horocycle_witness": lambda a, b, f, g, l1, l2, k: T.horocycle_witness(f, l1, g, l2),
    "TorusBackend.ext": lambda a, b, f, g, l1, l2, k: BACKEND.ext(a, f),
    "busemann_estimate": lambda a, b, f, g, l1, l2, k: horolab.busemann_estimate(a, f, b, BACKEND),
    "inclusion_probe": lambda a, b, f, g, l1, l2, k: horolab.inclusion_probe(
        horolab.HoroBall(f, l1), horolab.HoroBall(g, l2), BACKEND),
    "classify": lambda a, b, f, g, l1, l2, k: horolab.classify(
        horolab.HoroBall(f, l1), horolab.HoroBall(g, l2), BACKEND),
    "ratio_curve_search": lambda a, b, f, g, l1, l2, k: ratio_curve_outcome(
        T.ratio_curve_search, f.curve, g.curve, l1, l2, k),
}
ONE, HALF = UpperHalfPoint(0.5, 1.0), UpperHalfPoint(0.5, Fraction(1, 10**400))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(PUBLIC_TORUS_CALLS)), EDGE_POINT, EDGE_POINT, EDGE_FOLIATION,
       EDGE_FOLIATION, EDGE_LEVEL, EDGE_LEVEL, st.integers(-3, 1100))
@example("extremal_length", ONE, ONE, (1, 10**400, 1), (1, 0, 1), 1, 1, 20)
@example("extremal_length", HALF, ONE, (1, 0, 1), (1, 0, 1), 1, 1, 20)
@example("kerckhoff_distance", UpperHalfPoint(Fraction(1, 10**400), 0.75),
         UpperHalfPoint(Fraction(-1, 10**400), 1.25), (1, 0, 1), (1, 0, 1), 1, 1, 20)
@example("kerckhoff_distance", UpperHalfPoint(-10**300, 1.7e308),
         UpperHalfPoint(Fraction(1, 10**400), 1e-310), (1, 0, 1), (1, 0, 1), 1, 1, 20)
@example("metric_ball_limit_check", ONE, ONE, (1, 0, 1), (1, 0, 1), 1, 1, 1023)
@example("ext_sup_enumeration", ONE, ONE, (1, 0, math.inf), (1, 0, 1), 1, 1, 20)
@example("horocycle_witness", ONE, ONE, (1, 0, 1), (0, 1, 1), 1, math.inf, 20)
@example("ratio_curve_search", ONE, ONE, (1, 0, 1), (0, 1, 1), math.inf, 1, 20)
@example("ratio_curve_search", ONE, ONE, (1, 0, 1), (0, 1, 1), 1, 1, 0)
def test_torus_public_api_answers_or_raises_value_error(name, a, b, f, g, l1, l2, k_max):
    """Each public torus function, and the horolab calls on the torus backend,
    answers or raises ValueError at the edges of the double range; never
    OverflowError or ZeroDivisionError.  The ball-limit check takes k_max
    from -3 to 1100, and ratio_curve_search takes it as its budget, whose
    exit is an answer."""
    try:
        PUBLIC_TORUS_CALLS[name](a, b, fol(*f), fol(*g), l1, l2, k_max)
    except ValueError:
        pass
