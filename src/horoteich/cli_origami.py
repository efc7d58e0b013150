"""Origami subcommands of the command line, each ``cmd_<name>(args)`` returning
(inputs, results) as ``cli.run`` expects.  ``cli`` imports this module only
when an origami command (or ``relation --model origami``) runs."""
from __future__ import annotations

import math
from fractions import Fraction

from . import origami as O
from .cli import InputError, _inputs, num_exact, num_float, num_rounded, parse_level, parse_rational


def parse_perm(text: str):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise InputError(f"permutation {text!r} must be a bracketed 1-based array")
    try:
        vals = [int(x) for x in text[1:-1].split(",")]
    except ValueError as e:
        raise InputError(f"cannot parse permutation {text!r}") from e
    return vals


def parse_slope(text: str):
    text = text.strip().lower()
    if text in ("vert", "vertical", "inf"):
        return None
    return parse_rational(text)


def _build_origami(args):
    if args.h is None or args.v is None:
        raise InputError("origami requires --h and --v (or a config [origami] section)")
    hp, vp = parse_perm(args.h), parse_perm(args.v)
    if args.n is not None and args.n != len(hp):
        raise InputError(f"config n = {args.n} does not match permutation length {len(hp)}")
    return O.build_origami(hp, vp)


def cmd_origami_info(args):
    o = _build_origami(args)
    results = {
        "n": o.n,
        "area": num_exact(o.area),
        "genus": o.genus,
        "cone_orders": list(o.singularities),
        "cylinders": {
            d: [
                {"circumference": c.circumference, "height": c.height,
                 "squares": [s + 1 for s in c.all_squares]}
                for c in O.cylinders(o, d)
            ]
            for d in (O.HORIZONTAL, O.VERTICAL)
        },
    }
    return _inputs(args, "h", "v"), results


def cmd_origami_flow(args):
    o = _build_origami(args)
    x = O.MarkedFlatSurface.base_point(o)
    if args.kind == "geodesic":
        if args.time:
            y = O.geodesic_flow(x, t=float(parse_rational(args.param)))
        else:
            y = O.geodesic_flow(x, stretch=parse_rational(args.param))
    else:
        y = O.horocycle_flow(x, parse_rational(args.param))
    ev, eh = O.ext_vertical(y), O.ext_horizontal(y)
    results = {
        "ext_vertical": num_exact(ev),
        "ext_horizontal": num_exact(eh),
        "product": num_exact(ev * eh),
        "area_squared": num_exact(Fraction(o.n) ** 2),
    }
    return _inputs(args, "h", "v", "kind", "param", "time"), results


def _trace_from_args(o, slope_text, square, offset_text):
    slope = parse_slope(slope_text)
    if not 1 <= square <= o.n:
        raise InputError(f"square {square} out of range 1..{o.n}")
    offset = parse_rational(offset_text)
    return O.robust_trace(o, square - 1, slope, offset=offset)


def cmd_origami_intersect(args):
    o = _build_origami(args)
    t1 = _trace_from_args(o, args.slope1, args.square1, args.offset1)
    t2 = _trace_from_args(o, args.slope2, args.square2, args.offset2)
    results = {
        "crossings": num_exact(O.crossing_number(t1, t2)),
        "holonomy1": list(t1.holonomy),
        "holonomy2": list(t2.holonomy),
    }
    return _inputs(args, "h", "v", "slope1", "square1", "slope2", "square2"), results


def cmd_growth_check(args):
    o = _build_origami(args)
    t = _trace_from_args(o, args.slope, args.square, args.offset)
    x = O.MarkedFlatSurface.base_point(o)
    s_values = [float(parse_rational(p)) for p in args.s_values.split(",")]
    rep = O.horocycle_growth_check(t, x, s_values)
    quad, res = rep.quad_coefficient, rep.relative_residual  # rounded once, or None: no fit
    results = {
        "ok": rep.ok,
        "i_vertical": num_exact(rep.i_vertical),
        "i_horizontal": num_exact(rep.i_horizontal),
        "lower_bounds": [num_float(v, math.ulp(v)) for v in rep.lower_bounds],
        "quadratic_coefficient": num_rounded(quad) if quad is not None else None,
        "fit_residual": num_rounded(res) if res is not None else None,
        "violations": len(rep.violations),
    }
    if not rep.ok:
        results["reason"] = "violation"
    return _inputs(args, "h", "v", "slope", "square", "s_values"), results


def cmd_walsh_e(args):
    o = _build_origami(args)
    gamma = _trace_from_args(o, args.slope, args.square, args.offset)
    f = O.canonical_vertical_foliation(o)
    x = O.MarkedFlatSurface.base_point(o)
    results = {
        "E": num_exact(O.walsh_E(f, gamma, x)),
        "components": [
            {"weight": str(w), "circumference": c.circumference}
            for w, c in f.components
        ],
    }
    return _inputs(args, "h", "v", "slope", "square"), results


def cmd_curve_graph(args):
    from . import curvegraph as C
    o = _build_origami(args)
    traces, ids, named = [], [], {}
    for d in (O.HORIZONTAL, O.VERTICAL):
        for k, cyl in enumerate(O.cylinders(o, d)):
            traces.append(O.core_trace(o, cyl))
            ids.append(f"{d[0]}{k}")
            if 0 in cyl.all_squares:
                named[d] = ids[-1]
    cores = len(ids)
    for text in args.slopes.split(";") if args.slopes else ():
        slope = parse_slope(text)  # traced from square 1: slope 0 or vert is a core through it
        key = O.VERTICAL if slope is None else O.HORIZONTAL if slope == 0 else slope
        ids.append(f"s{text.strip()}")
        if key in named:
            repeat, first = ids[-1], named[key]
            if repeat == first:  # one entry written twice: name both by position
                repeat, first = len(ids) - cores, f"{first} of entry {ids.index(first) - cores + 1}"
            raise InputError(f"--slopes entry {repeat} is the curve {first}")
        named[key] = ids[-1]
        traces.append(O.robust_trace(o, 0, slope))
    cs = C.curve_set_from_traces(ids, traces)
    g = C.build_graph(cs)
    dist = {}
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            d = C.graph_distance(g, u, v)
            dist[f"{u}-{v}"] = "unreachable" if d == C.UNREACHABLE else d
    results = {
        "vertices": C.curve_set_table(cs),
        "edges": [list(e) for e in g.edges],
        "distances": dist,
    }
    return _inputs(args, "h", "v", "slopes"), results


def relation_balls(args):
    """The two horoballs of ``relation --model origami``, and their backend."""
    from . import horolab as H
    o = _build_origami(args)

    def pick(text, level_text):
        level = parse_level(level_text)
        if text is None:
            raise InputError("--model origami requires --f1 and --f2")
        name, sep, index = text.strip().lower().partition(":")
        if name == "vertical":
            f = O.canonical_vertical_foliation(o)
        elif name == "horizontal":
            f = O.canonical_horizontal_foliation(o)
        else:
            raise InputError(
                f"unknown foliation {text!r}; use vertical, horizontal, "
                "vertical:<k>, or horizontal:<k>"
            )
        if sep:
            k = len(f.components)
            if not (index.isdecimal() and int(index) < k):
                raise InputError(f"{text!r}: component index must be in 0..{k - 1}")
            f = O.MulticurveFoliation((f.components[int(index)],))
        return H.HoroBall(f, level)

    return pick(args.f1, args.level1), pick(args.f2, args.level2), H.OrigamiBackend(o)
