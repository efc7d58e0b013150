import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from horoteich.kernel import (
    Bracket,
    Mat2,
    UpperHalfPoint,
    as_float_down,
    as_float_up,
    hyperbolic_distance,
    mobius_apply,
    round_ratio,
)


def test_mat2_det_and_inverse():
    m = Mat2(Fraction(2), Fraction(1), Fraction(1), Fraction(1))
    assert m.det() == 1
    inv = Mat2(m.d, -m.b, -m.c, m.a)  # the adjugate, the inverse at det 1
    prod = (m.a * inv.a + m.b * inv.c, m.a * inv.b + m.b * inv.d,
            m.c * inv.a + m.d * inv.c, m.c * inv.b + m.d * inv.d)
    assert prod == (1, 0, 0, 1) and inv.det() == 1


def test_upper_half_point_validation():
    with pytest.raises(ValueError):
        UpperHalfPoint(0.0, -1.0)
    with pytest.raises(ValueError):
        UpperHalfPoint(0.0, 0.0)
    assert UpperHalfPoint(1.0, 2.0).tau == 1 + 2j


def test_mobius_identity_and_translation():
    z = UpperHalfPoint(0.3, 1.7)
    assert mobius_apply(Mat2(1.0, 0.0, 0.0, 1.0), z) == z
    w = mobius_apply(Mat2(1.0, 2.0, 0.0, 1.0), z)
    assert w.x == pytest.approx(2.3) and w.y == pytest.approx(1.7)


def test_mobius_rejects_negative_det():
    with pytest.raises(ValueError):
        mobius_apply(Mat2(1.0, 0.0, 0.0, -1.0), UpperHalfPoint(0.0, 1.0))


def test_hyperbolic_distance_on_imaginary_axis():
    a = UpperHalfPoint(0.0, 1.0)
    b = UpperHalfPoint(0.0, math.e)
    assert hyperbolic_distance(a, b) == pytest.approx(1.0)
    assert hyperbolic_distance(a, a) == 0.0


@given(
    st.floats(-5, 5), st.floats(0.1, 5), st.floats(-5, 5), st.floats(0.1, 5)
)
def test_hyperbolic_distance_symmetric(x1, y1, x2, y2):
    a, b = UpperHalfPoint(x1, y1), UpperHalfPoint(x2, y2)
    assert hyperbolic_distance(a, b) == pytest.approx(hyperbolic_distance(b, a))


def mp_distance(a, b):
    """Hyperbolic distance at 50 digits on the exact double inputs."""
    with mpmath.workdps(50):
        dx, dy = mpmath.mpf(a.x) - mpmath.mpf(b.x), mpmath.mpf(a.y) - mpmath.mpf(b.y)
        return mpmath.acosh(1 + (dx * dx + dy * dy) / (2 * mpmath.mpf(a.y) * mpmath.mpf(b.y)))


@pytest.mark.parametrize(
    "a, b",
    [
        (UpperHalfPoint(0.0, 1e-160), UpperHalfPoint(1.0, 1e-160)),  # y1 y2 underflows
        (UpperHalfPoint(0.3, 2.3e-308), UpperHalfPoint(1.0, 1e-150)),  # 2 y1 y2 is 0
    ],
)
def test_hyperbolic_distance_tiny_heights(a, b):
    d = hyperbolic_distance(a, b)
    assert d == pytest.approx(float(mp_distance(a, b)), rel=1e-14)
    assert hyperbolic_distance(b, a) == d


def test_hyperbolic_distance_log_uniform_heights():
    """Im tau log-uniform in [1e-300, 1e8]: always finite, never raises, and
    right to 1e-14 relative (every distance in this set is above 5)."""
    rng = np.random.default_rng(5)
    lo, hi = math.log(1e-300), math.log(1e8)
    for _ in range(2000):
        a = UpperHalfPoint(float(rng.uniform(-3, 3)), math.exp(rng.uniform(lo, hi)))
        b = UpperHalfPoint(float(rng.uniform(-3, 3)), math.exp(rng.uniform(lo, hi)))
        d, truth = hyperbolic_distance(a, b), mp_distance(a, b)
        assert math.isfinite(d)
        assert abs(d - truth) <= 1e-14 * truth


def test_hyperbolic_distance_nearby_points():
    """Points 1e-15 to 1e-1 apart, relative to Im tau in [1e-8, 1e8]: right to
    1e-14 relative, where acosh(1 + D) loses every digit below about 1e-8."""
    rng = np.random.default_rng(6)
    for _ in range(1000):
        y = math.exp(rng.uniform(math.log(1e-8), math.log(1e8)))
        gap = y * math.exp(rng.uniform(math.log(1e-15), math.log(1e-1)))
        a = UpperHalfPoint(float(rng.uniform(-3, 3)), y)
        b = UpperHalfPoint(a.x + gap * float(rng.uniform(-1, 1)), y + gap * float(rng.uniform(-1, 1)))
        if a == b:
            continue
        d, truth = hyperbolic_distance(a, b), mp_distance(a, b)
        assert abs(d - truth) <= 1e-14 * truth


def test_mobius_isometry():
    m = Mat2(2.0, 1.0, 1.0, 1.0)
    a = UpperHalfPoint(0.2, 0.9)
    b = UpperHalfPoint(-1.1, 2.4)
    d0 = hyperbolic_distance(a, b)
    d1 = hyperbolic_distance(mobius_apply(m, a), mobius_apply(m, b))
    assert d1 == pytest.approx(d0, abs=1e-12)


def test_bracket_basic():
    b = Bracket(1.0, 2.0)
    assert b.contains(1.5)
    assert not b.contains(2.5)
    with pytest.raises(ValueError):
        Bracket(2.0, 1.0)


def test_bracket_exact_encloses():
    v = Fraction(1, 3)
    b = Bracket.exact(v)
    assert Fraction(b.lo) <= v <= Fraction(b.hi)
    assert b.width < 1e-15


def test_bracket_arithmetic_outward():
    a = Bracket.exact(Fraction(1, 3))
    b = Bracket.exact(Fraction(1, 7))
    s = a + b
    assert Fraction(s.lo) <= Fraction(1, 3) + Fraction(1, 7) <= Fraction(s.hi)
    p = a.mul_nonneg(b)
    assert Fraction(p.lo) <= Fraction(1, 21) <= Fraction(p.hi)
    lg = a.log()
    assert lg.lo <= math.log(1 / 3) <= lg.hi


def test_bracket_infinite_upper():
    b = Bracket(1.0, math.inf)
    assert (b + Bracket.exact(1)).hi == math.inf
    assert b.log().hi == math.inf


def test_rounding_helpers():
    v = Fraction(1, 3)
    assert Fraction(as_float_down(v)) <= v <= Fraction(as_float_up(v))
    assert as_float_down(Fraction(1, 2)) == 0.5 == as_float_up(Fraction(1, 2))


@given(st.integers(-10**400, 10**400), st.integers(1, 10**400))
def test_round_ratio_is_the_nearest_double_stepped_outward(n, d):
    """Down and up are the doubles either side of n / d, equal when n / d is
    a double, and one of them is the nearest double (n / d)."""
    v = Fraction(n, d)
    try:
        near = n / d
    except OverflowError:
        with pytest.raises(OverflowError):
            round_ratio(n, d, -math.inf)
        return
    lo, hi = round_ratio(n, d, -math.inf), round_ratio(n, d, math.inf)
    assert Fraction(lo) <= v <= Fraction(hi)
    assert near in (lo, hi)
    assert hi == (lo if Fraction(lo) == v else math.nextafter(lo, math.inf))
