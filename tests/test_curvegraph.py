from fractions import Fraction

import pytest

from horoteich import curvegraph as C
from horoteich import origami as O
from horoteich import torus as T


L = O.build_origami([2, 1, 3], [3, 2, 1])


def l_core_set():
    ids, traces = [], []
    for d in (O.HORIZONTAL, O.VERTICAL):
        for k, cyl in enumerate(O.cylinders(L, d)):
            ids.append(f"{d[0]}{k}")
            traces.append(O.core_trace(L, cyl))
    return C.curve_set_from_traces(ids, traces)


def test_torus_curve_set_edgeless():
    curves = tuple(T.TorusCurve(p, q) for p, q in [(1, 0), (0, 1), (1, 1), (2, 1)])
    # i = |p1 q2 - q1 p2|: every pair of distinct classes meets
    i_matrix = ((0, 1, 1, 1), (1, 0, 1, 2), (1, 1, 0, 1), (1, 2, 1, 0))
    cs = C.CurveSet((0, 1, 2, 3), curves, i_matrix)
    g = C.build_graph(cs)
    assert g.edges == ()


def test_single_vertex_graph():
    cs = C.CurveSet(("a",), (T.TorusCurve(1, 0),), ((0,),))
    g = C.build_graph(cs)
    assert g.edges == ()
    assert C.graph_distance(g, "a", "a") == 0


def test_l_origami_adjacency():
    cs = l_core_set()
    assert cs.i_matrix == tuple(tuple(O.crossing_number(a, b) for b in cs.payloads)
                                for a in cs.payloads)
    g = C.build_graph(cs)
    edges = set(map(frozenset, g.edges))
    # disjoint pairs: the two horizontal cores, the two vertical cores, and
    # the narrow horizontal core with the narrow vertical core
    assert frozenset({"h0", "h1"}) in edges
    assert frozenset({"v0", "v1"}) in edges
    assert len(edges) == 3


def test_graph_distance_bfs():
    cs = l_core_set()
    g = C.build_graph(cs)
    assert C.graph_distance(g, "h0", "h1") == 1
    # the wide cores intersect; the only route passes a disjoint third curve
    assert C.graph_distance(g, "h0", "v0") > 1
    iso = C.CurveSet(("x", "y"), (T.TorusCurve(1, 0), T.TorusCurve(0, 1)), ((0, 1), (1, 0)))
    assert C.graph_distance(C.build_graph(iso), "x", "y") == C.UNREACHABLE


def test_graph_distance_metric_properties():
    cs = l_core_set()
    g = C.build_graph(cs)
    vs = list(g.vertices)
    for u in vs:
        for v in vs:
            duv = C.graph_distance(g, u, v)
            assert duv == C.graph_distance(g, v, u)
            for w in vs:
                duw = C.graph_distance(g, u, w)
                dwv = C.graph_distance(g, w, v)
                assert duv <= duw + dwv


def test_automorphism_identity_and_counterexample():
    cs = l_core_set()
    g = C.build_graph(cs)
    ident = {v: v for v in g.vertices}
    assert C.automorphism_check(g, ident)
    # swapping one endpoint of an edge with a non-adjacent vertex breaks it
    broken = dict(ident)
    broken["h0"], broken["v0"] = "v0", "h0"
    assert not C.automorphism_check(g, broken)


def test_automorphism_rejects_non_bijection():
    cs = l_core_set()
    g = C.build_graph(cs)
    with pytest.raises(ValueError):
        C.automorphism_check(g, {v: "h0" for v in g.vertices})


def test_curve_set_validation():
    with pytest.raises(ValueError):
        C.CurveSet(("a", "b"), (None, None), ((0, 1), (2, 0)))
    with pytest.raises(ValueError):
        C.CurveSet(("a",), (None,), ((1,),))


def test_curve_set_table():
    cs = l_core_set()
    rows = C.curve_set_table(cs)
    assert len(rows) == 4
    assert all({"id", "payload", "i_row"} <= set(r) for r in rows)
