"""The value classes and reports are plain classes over kernel.Record: the
value classes keep a frozen dataclass's equality, hashing, immutability and
argument checks, the reports a dataclass's mutable, unhashable records."""
import math
import random
import re
from fractions import Fraction

import pytest

from horoteich import curvegraph as C, horolab as H, origami as O, torus as T
from horoteich.kernel import Bracket, Frozen, Mat2, UpperHalfPoint

L = O.build_origami([2, 1, 3], [3, 2, 1])
CYL = O.cylinders(L, O.VERTICAL)[0]
TRACE = O.core_trace(L, CYL)
ID = Mat2(Fraction(1), Fraction(0), Fraction(0), Fraction(1))
FOL = T.WeightedTorusFoliation(Fraction(1), T.TorusCurve(2, 1))

# class -> (the arguments of one value, (bad arguments, the ValueError message), ...)
VALUES = {
    Mat2: ((1, 2, 3, 4),),
    UpperHalfPoint: ((0.5, 2.0), ((0.5, 0.0), "point not in upper half-plane: y = 0.0")),
    Bracket: ((1.0, 2.0), ((2.0, 1.0), "empty bracket [2.0, 1.0]")),
    T.TorusCurve: ((2, -1), ((0, 0), "(0, 0) is not a curve"),
                   ((2, 4), "(2, 4) is not primitive")),
    T.WeightedTorusFoliation: ((Fraction(3, 2), T.TorusCurve(1, 1)),
                               ((0, T.TorusCurve(1, 1)), "weight must be positive")),
    T.HoroSpec: ((FOL, Fraction(2)),),
    H.HoroBall: ((FOL, Fraction(2)), ((FOL, 0), "level must be positive")),
    O.Origami: (((1, 0, 2), (2, 1, 0)),
                (((1, 0), (0, 1, 2)), "h and v must act on the same squares"),
                (((0, 0), (0, 1)), "h and v must be permutations"),
                (((1, 0, 2), (0, 1, 2)), "disconnected surface; orbits [[1, 2], [3]]")),
    O.CylinderCurve: (("vertical", (0, 2), 2, 1, ((0, 2),)),),
    O.MarkedFlatSurface: ((L, ID), *(((L, m), "deformation must have positive determinant") for m in (
        Mat2(1, 0, 0, -1), Mat2(0, 0, 0, 0),  # negative and zero determinant
        Mat2(Fraction(2, 3), Fraction(1, 2), Fraction(4, 3), Fraction(1)),
        Mat2(Fraction(1, 3), Fraction(5, 7), Fraction(1, 2), Fraction(-1, 9)),
        Mat2(0.5, 0.25, 2.0, 1.0), Mat2(0.0, 1.5, 0.75, 0.0),
        Mat2(math.nan, 0.0, 0.0, 1.0), Mat2(Fraction(1), math.nan, Fraction(0), Fraction(1)),
        Mat2(math.inf, 0.0, 0.0, 1.0), Mat2(Fraction(1), 0, 0, -math.inf)))),
    O.CurveTrace: ((L, (0, 1), TRACE.segments, (0, 2)),),
    O.MulticurveFoliation: ((((Fraction(1), CYL),),),
                            (((),), "empty foliation"),
                            ((((0, CYL),),), "weights must be positive"),
                            ((((1, CYL), (1, O.cylinders(L, O.HORIZONTAL)[0])),),
                             "components must share a direction")),
    C.CurveSet: ((("a", "b"), (1, 2), ((0, 1), (1, 0))),
                 ((("a",), (1, 2), ((0,),)), "vertices, payloads and i_matrix sizes differ"),
                 ((("a", "b"), (1, 2), ((0, 1), (1,))), "i_matrix is not square"),
                 ((("a",), (1,), ((1,),)), "i_matrix diagonal must be zero"),
                 ((("a", "b"), (1, 2), ((0, 1), (2, 0))),
                  "i_matrix must be symmetric and nonnegative")),
    C.Graph: ((("a", "b"), (frozenset({1}), frozenset({0}))),),
}


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_value_class_keeps_frozen_dataclass_semantics(cls):
    args, *bad = VALUES[cls]
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b and hash(a) == hash(b)
    # another class with the same fields and values is not equal
    twin = type("Twin", (Frozen,), {"_fields": cls._fields})(*(getattr(a, n) for n in cls._fields))
    assert a != twin and twin != a
    with pytest.raises(AttributeError):
        setattr(a, cls._fields[0], None)
    with pytest.raises(AttributeError):
        delattr(a, cls._fields[0])
    assert a == b
    assert repr(a).startswith(f"{cls.__name__}({cls._fields[0]}=")
    for bad_args, message in bad:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(*bad_args)


def test_equal_fields_in_different_classes_differ():
    assert Bracket(1.0, 2.0) != UpperHalfPoint(1.0, 2.0)
    assert T.TorusCurve(-2, 1) == T.TorusCurve(2, -1) != T.TorusCurve(2, 1)
    assert (T.TorusCurve(-2, 1).p, T.TorusCurve(-2, 1).q) == (2, -1)


def test_caches_stay_out_of_equality_hash_and_repr():
    a, b = O.Origami((1, 0, 2), (2, 1, 0)), O.Origami((1, 0, 2), (2, 1, 0))
    O.cylinders(a, O.VERTICAL)  # fills a's cylinder cache and its cached properties
    assert a._cylinders and not b._cylinders
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert repr(a) == "Origami(h=(1, 0, 2), v=(2, 1, 0))"
    assert TRACE.chains == ({1: 1, 5: 1}, {0: 1, 4: 1}) and TRACE == O.core_trace(L, CYL)


def test_gram_is_the_fraction_formula_on_flowed_points():
    """gram = (A, B, C, D) over the deform entries a, b, c, d (det = ad - bc):
    A / D, B / D, C / D are (a^2 + c^2, ab + cd, b^2 + d^2) / det, and D is det
    times the square of the entries' common denominator."""
    rng = random.Random(24)
    x = O.MarkedFlatSurface.base_point(L)
    for _ in range(200):
        if rng.random() < 0.5:
            x = O.horocycle_flow(x, rng.choice([Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                                                rng.uniform(-5.0, 5.0)]))
        else:
            x = O.geodesic_flow(x, stretch=Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        a, b, c, d = (Fraction(e) for e in (x.deform.a, x.deform.b, x.deform.c, x.deform.d))
        det, q = a * d - b * c, math.lcm(*(e.denominator for e in (a, b, c, d)))
        big_a, big_b, big_c, big_d = x.gram
        assert big_d == det * q * q > 0
        assert (Fraction(big_a, big_d), Fraction(big_b, big_d), Fraction(big_c, big_d)) == (
            (a * a + c * c) / det, (a * b + c * d) / det, (b * b + d * d) / det)


def test_reports_keep_dataclass_semantics():
    """Reports are mutable and unhashable; equality stays within the class."""
    rep = H.ProbeResult(H.INCONCLUSIVE, bound=2)
    assert (rep.tag, rep.witness, rep.bound, rep.witness_ext) == (H.INCONCLUSIVE, None, 2, None)
    assert rep == H.ProbeResult(H.INCONCLUSIVE, None, 2) != H.ProbeResult(H.INCONCLUSIVE)
    rep.bound = 3
    assert rep.bound == 3
    with pytest.raises(TypeError):
        hash(rep)
    assert T.SupResult(1.0, 2.0, T.TorusCurve(1, 0), 3, True).reason is None
    assert T.KerckhoffResult(1.0, 2.0, T.TorusCurve(1, 0), 3, True) != \
        T.SupResult(1.0, 2.0, T.TorusCurve(1, 0), 3, True)
    assert repr(H.HoroRelation("Tangent", {})) == "HoroRelation(tag='Tangent', detail={})"
    assert "_stages" not in repr(O.remark(L, ID))


@pytest.mark.parametrize("args, kwargs", [((), {}), ((1, 2, 3), {}), ((1,), {"tag": 2}),
                                          ((1,), {"bogus": 2}), ((), {"detail": {}})])
def test_record_init_rejects_wrong_arguments(args, kwargs):
    with pytest.raises(TypeError):
        H.HoroRelation(*args, **kwargs)
