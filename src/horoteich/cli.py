"""Batch command-line frontend.

Each subcommand parses one model description, runs one computation, and
prints a machine-readable record (json by default, csv on request).  Every
numeric field is either exact (a rational string) or a float with a stated
tolerance; output is deterministic for fixed inputs and seed apart from the
timestamp field.

Exit status: 0 success, 2 undecided or uncertified result (a record with a
``reason``), 1 input error (usage errors included).  ``run`` is the one
request pipeline: parse, fill unset options from ``--config``, call the
handler, wrap its inputs and results in the record envelope and emit it.  It
alone maps outcomes to exit codes: a record's ``reason`` to 2, a model's
``ValueError`` and any ``OverflowError`` to 1.
Each handler imports the model modules it uses, so a call loads no others.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from fractions import Fraction

from .kernel import EnumerationBudgetError, TraceNotClosed, UpperHalfPoint

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNDECIDED = 2


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: one ``error:`` line and exit 1."""

    def error(self, message):
        raise InputError(message)


# ---------------------------------------------------------------------------
# Parsers

_REAL = r"[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_IMAG = r"[+-](?:(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?)?"
_COMPLEX_RE = re.compile(rf"^({_REAL})?({_IMAG})i$|^({_REAL})$")


def parse_tau(text: str) -> UpperHalfPoint:
    """Complex in the a+bi format, no spaces; must lie in the upper half-plane."""
    m = _COMPLEX_RE.match(text.strip())
    if not m:
        raise InputError(f"cannot parse complex number {text!r}; use a+bi")
    if m.group(3) is not None:
        raise InputError(f"{text!r} has no positive imaginary part")
    re_part = float(m.group(1)) if m.group(1) else 0.0
    im_text = m.group(2)
    if im_text in ("+", "-"):
        im_text += "1"
    im_part = float(im_text)
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise InputError(f"{text!r} is not a finite complex number")
    if not im_part > 0:
        raise InputError(f"{text!r} is not in the upper half-plane")
    if im_part * im_part == 0.0:  # torus forms need Im(tau)^2 in doubles
        raise InputError(f"{text!r} is too close to the real axis for double precision")
    return UpperHalfPoint(re_part, im_part)


def parse_curve(text: str):
    from . import torus as T
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError as e:
        raise InputError(f"cannot parse curve {text!r}; use p,q") from e
    return T.TorusCurve(p, q)


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"cannot parse rational {text!r}") from e


def parse_level(text: str) -> Fraction:
    level = parse_rational(text)
    if not level > 0:
        raise InputError("levels must be positive")
    return level


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


# ---------------------------------------------------------------------------
# Output encoding


def num_exact(v) -> dict:
    return {"value": str(Fraction(v)), "float": float(v), "exact": True}


def num_float(v, tol) -> dict:
    return {"value": float(v), "exact": False, "tolerance": float(tol)}


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def utc_timestamp(ns: int) -> str:
    """ns since the epoch as datetime's UTC isoformat(), without datetime."""
    us = ns // 1000 % 10**6
    text = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(ns // 10**9))
    return f"{text}.{us:06d}+00:00" if us else f"{text}+00:00"


def emit(record: dict, fmt: str) -> None:
    record = {**record, "timestamp": utc_timestamp(time.time_ns())}
    if fmt == "json":
        sys.stdout.write(json.dumps(record, indent=2, default=str, allow_nan=False) + "\n")
    else:  # "csv", the one other format _apply_config admits
        import csv
        rows = [("key", "value")]
        _flatten("", record, rows)
        csv.writer(sys.stdout).writerows(rows)


# ---------------------------------------------------------------------------
# Config file


def _config_value(key: str, text, kind):
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"config {key} = {text!r} is not a valid {kind.__name__}") from None


def load_config(path: str) -> dict:
    import configparser
    cfg = configparser.ConfigParser()
    read = cfg.read(path)
    if not read:
        raise InputError(f"cannot read config file {path!r}")
    out = {}
    if cfg.has_section("origami"):
        sec = cfg["origami"]
        out.update((key, sec[key]) for key in ("h", "v") if key in sec)
        if "n" in sec:
            out["n"] = _config_value("n", sec["n"], int)
    if cfg.has_section("job"):
        for key in ("tol", "cap", "seed", "format"):
            if key in cfg["job"]:
                out[key] = cfg["job"][key]
    return out


def _apply_config(args) -> None:
    """Fill the options the command line left unset from --config, then from
    the defaults, and check tol, cap and the format.  Flags always win over
    the file."""
    cfg = load_config(args.config) if args.config else {}
    for key, default, kind in (("tol", 1e-9, float), ("cap", 10**6, int), ("seed", 0, int)):
        if getattr(args, key) is None:
            setattr(args, key, _config_value(key, cfg.get(key, default), kind))
    args.format = args.format or cfg.get("format", "json")
    if "h" in vars(args):  # the origami options
        args.h, args.v = args.h or cfg.get("h"), args.v or cfg.get("v")
    args.n = cfg.get("n")
    if not 0 < args.tol < math.inf:  # strict JSON has no infinity to carry
        raise InputError(f"tolerance must be {'finite' if args.tol > 0 else 'positive'}")
    if args.cap < 1:
        raise InputError("enumeration cap must be at least 1")
    if args.format not in ("json", "csv"):  # a config value; before any file is written
        raise InputError(f"unknown output format {args.format!r}")


def _build_origami(args):
    from . import origami as O
    if args.h is None or args.v is None:
        raise InputError("origami requires --h and --v (or a config [origami] section)")
    hp, vp = parse_perm(args.h), parse_perm(args.v)
    if args.n is not None and args.n != len(hp):
        raise InputError(f"config n = {args.n} does not match permutation length {len(hp)}")
    return O.build_origami(hp, vp)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (inputs, results), results with a "reason" when undecided


def _inputs(args, *names) -> dict:
    return {k: getattr(args, k) for k in names}


def cmd_torus_ext(args):
    from . import torus as T
    tau = parse_tau(args.tau)
    f = T.WeightedTorusFoliation(parse_rational(args.weight), parse_curve(args.curve))
    # exact at the double inputs, then rounded once: within one ulp
    val = float(T.extremal_length(UpperHalfPoint(Fraction(tau.x), Fraction(tau.y)), f))
    return _inputs(args, "tau", "curve", "weight"), {"ext": num_float(val, math.ulp(val))}


def cmd_torus_dist(args):
    from . import torus as T
    t1, t2 = parse_tau(args.tau1), parse_tau(args.tau2)
    res = T.kerckhoff_distance(t1, t2, tol=args.tol, cap=args.cap)
    results = {
        "distance": num_float(res.value, args.tol) if res.certified else None,
        "closed_form": num_float(res.closed_form, T.closed_form_radius(res.closed_form)),
        "witness_curve": f"{res.witness.p},{res.witness.q}",
        "nodes": res.nodes,
        "certified": res.certified,
    }
    if not res.certified:  # "precision" or "range"
        results["reason"] = res.reason
    return _inputs(args, "tau1", "tau2", "tol", "cap"), results


def _horospec(curve_text, level_text):
    from . import torus as T
    f = T.WeightedTorusFoliation(Fraction(1), parse_curve(curve_text))
    return T.HoroSpec.create(f, parse_level(level_text))


def cmd_tangency(args):
    from . import torus as T
    h1 = _horospec(args.curve1, args.level1)
    h2 = _horospec(args.curve2, args.level2)
    tangent = T.tangency_check(h1, h2)
    results = {
        "tangent": tangent,
        "product": num_exact(h1.level * h2.level),
        "i_squared": num_exact(Fraction(T.intersection(h1.curve, h2.curve)) ** 2),
    }
    if tangent:
        pt = T.tangency_point(h1, h2)
        results["tangent_point"] = {  # the exact point, each coordinate rounded once
            "re": num_float(pt.x, math.ulp(pt.x) / 2),
            "im": num_float(pt.y, math.ulp(pt.y) / 2),
        }
    return _inputs(args, "curve1", "level1", "curve2", "level2"), results


def cmd_triple(args):
    from . import torus as T
    parts = args.i.split(",")
    if len(parts) != 3:
        raise InputError("--i requires three comma-separated positive values")
    vals = [parse_rational(p) for p in parts]
    r, s, t = T.triple_tangency_levels(*vals)
    return _inputs(args, "i"), {"r": num_exact(r), "s": num_exact(s), "t": num_exact(t)}


def cmd_ratio_curve(args):
    from . import torus as T
    alpha, beta = parse_curve(args.alpha), parse_curve(args.beta)
    target = parse_rational(args.target)
    eps = parse_rational(str(args.eps)) if args.eps else Fraction(1, 1000)
    gamma = T.ratio_curve_search(alpha, beta, target, eps, budget=args.cap)
    ratio = Fraction(T.intersection(alpha, gamma), T.intersection(beta, gamma))
    results = {
        "curve": f"{gamma.p},{gamma.q}",
        "ratio": num_exact(ratio),
        "error": num_exact(abs(ratio - target)),
    }
    return {**_inputs(args, "alpha", "beta", "target"), "eps": str(eps)}, results


def cmd_busemann(args):
    from . import horolab as H, torus as T
    x0, x = parse_tau(args.tau0), parse_tau(args.tau)
    f = T.WeightedTorusFoliation(Fraction(1), parse_curve(args.curve))
    closed = T.busemann(x0, f, x)
    est = H.busemann_estimate(x0, f, x, H.TorusBackend(), tol=args.tol)
    results = {
        "closed_form": num_float(closed, T.half_log_radius(closed)),
        "limit_estimate": num_float(est.value, est.radius),
        "certified": est.certified,
        "steps": len(est.trace),
    }
    if not est.certified:  # "not_monotone", "precision" or "not_settled"
        results["reason"] = est.reason
    return _inputs(args, "tau0", "curve", "tau", "tol"), results


def cmd_ball_limit(args):
    import random
    from . import torus as T
    x0 = parse_tau(args.tau0)
    f = T.WeightedTorusFoliation(Fraction(1), parse_curve(args.curve))
    rng = random.Random(args.seed)
    sample = []
    while len(sample) < args.samples:
        x = UpperHalfPoint(rng.uniform(-3, 3), math.exp(rng.uniform(-1.5, 1.5)))
        if abs(T.busemann(x0, f, x)) >= 1e-3:
            sample.append(x)
    rep = T.metric_ball_limit_check(x0, f, sample)
    results = {
        "ok": rep.ok,
        "inside": sum(1 for e in rep.entries if e.classification == "inside"),
        "outside": sum(1 for e in rep.entries if e.classification == "outside"),
        "inconclusive": len(rep.inconclusive),
    }
    if rep.inconclusive or not rep.ok:
        results["reason"] = "inconclusive" if rep.inconclusive else "not_nested"
    return _inputs(args, "tau0", "curve", "samples", "seed"), results


def cmd_origami_info(args):
    from . import origami as O
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
    from . import origami as O
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
    from . import origami as O
    slope = parse_slope(slope_text)
    if not 1 <= square <= o.n:
        raise InputError(f"square {square} out of range 1..{o.n}")
    offset = parse_rational(offset_text)
    return O.robust_trace(o, square - 1, slope, offset=offset)


def cmd_origami_intersect(args):
    from . import origami as O
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
    from . import origami as O
    o = _build_origami(args)
    t = _trace_from_args(o, args.slope, args.square, args.offset)
    x = O.MarkedFlatSurface.base_point(o)
    s_values = [float(parse_rational(p)) for p in args.s_values.split(",")]
    rep = O.horocycle_growth_check(t, x, s_values)
    quad, res = rep.quad_coefficient, rep.relative_residual
    fitted = quad is not None  # then both are rounded once from exact rationals
    results = {
        "ok": rep.ok,
        "i_vertical": num_exact(rep.i_vertical),
        "i_horizontal": num_exact(rep.i_horizontal),
        "lower_bounds": [num_float(v, math.ulp(v)) for v in rep.lower_bounds],
        "quadratic_coefficient": num_float(quad, math.ulp(quad) / 2) if fitted else None,
        "fit_residual": num_float(res, math.ulp(res) / 2) if fitted else None,
        "violations": len(rep.violations),
    }
    if not rep.ok:
        results["reason"] = "violation"
    return _inputs(args, "h", "v", "slope", "square", "s_values"), results


def cmd_walsh_e(args):
    from . import origami as O
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
    from . import curvegraph as C, origami as O
    o = _build_origami(args)
    traces = []
    ids = []
    for d in (O.HORIZONTAL, O.VERTICAL):
        for k, cyl in enumerate(O.cylinders(o, d)):
            traces.append(O.core_trace(o, cyl))
            ids.append(f"{d[0]}{k}")
    if args.slopes:
        for text in args.slopes.split(";"):
            slope = parse_slope(text)
            tr = O.robust_trace(o, 0, slope)
            traces.append(tr)
            ids.append(f"s{text.strip()}")
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


def cmd_relation(args):
    from . import horolab as H
    if args.model == "torus":
        if args.curve1 is None or args.curve2 is None:
            raise InputError("--model torus requires --curve1 and --curve2")
        h1 = _horospec(args.curve1, args.level1)
        h2 = _horospec(args.curve2, args.level2)
        rel = H.classify(h1, h2, H.TorusBackend())
    else:
        from . import origami as O
        o = _build_origami(args)
        be = H.OrigamiBackend(o)

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

        rel = H.classify(pick(args.f1, args.level1), pick(args.f2, args.level2), be)
    inputs = _inputs(args, "model", "curve1", "curve2", "f1", "f2", "level1", "level2")
    results = {"tag": rel.tag, "detail": {k: str(v) for k, v in rel.detail.items()}}
    if not rel.decided:
        results["reason"] = "undecided"
    return inputs, results


def _svg_horocycles(curve, levels):
    """Static SVG of the horocycles HS((p,q), level) in the half-plane."""
    from . import torus as T
    width, height, scale = 720, 420, 110.0
    x_min, y_max = -3.0, height / scale

    def sx(x):
        return (x - x_min) * scale

    def sy(y):
        return height - y * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="0" y1="{height}" x2="{width}" y2="{height}" stroke="black" stroke-width="2"/>',
    ]
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    for k, level in enumerate(levels):
        color = colors[k % len(colors)]
        # the line y = 1 / level for q = 0, else the circle tangent at -p/q of diameter level / q^2
        size = level / (curve.q * curve.q) if curve.q else 1 / level
        if not (sys.float_info.min <= size <= sys.float_info.max  # exact, on the Fraction
                and (curve.q == 0 or size * scale < math.inf)):  # a circle's px, as drawn
            raise ValueError(T.OUT_OF_RANGE)
        size = float(size)
        if curve.q == 0 and size <= y_max:
            parts.append(
                f'<line x1="0" y1="{sy(size):.2f}" x2="{width}" y2="{sy(size):.2f}" '
                f'stroke="{color}" stroke-width="1.5" fill="none"/>'
            )
        elif curve.q:
            r = 0.5 * size
            parts.append(
                f'<circle cx="{sx(-curve.p / curve.q):.2f}" cy="{sy(r):.2f}" r="{r * scale:.2f}" '
                f'stroke="{color}" stroke-width="1.5" fill="none"/>'
            )
        parts.append(
            f'<text x="8" y="{18 * (k + 1)}" fill="{color}" font-size="13">'
            f"level {level}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_torus_plot(args):
    curve = parse_curve(args.curve)
    levels = [parse_level(p) for p in args.levels.split(",")]
    svg = _svg_horocycles(curve, levels)
    try:
        with open(args.out, "w") as fh:
            fh.write(svg)
    except OSError as e:
        raise InputError(f"cannot write {args.out!r}: {e.strerror}") from e
    results = {"path": args.out, "levels_drawn": len(levels)}
    return _inputs(args, "curve", "levels"), results


# ---------------------------------------------------------------------------
# Argument parsing


class _Commands(_Parser):
    """Top-level parser: building all 15 subparsers is most of a call's parse time, so it adds
    only the one its first argument names, or all for --help, no argument or an unknown name."""

    def parse_known_args(self, args=None, namespace=None):  # all of them for sys.argv
        _add_commands(self.commands, args[0] if args else None)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    ap = _Commands(prog="horoteich")
    ap.commands = ap.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    return ap


def _add_commands(sub, only=None) -> None:
    """Add to ``sub`` the subparser named ``only``, or all if it names none."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv"])
    common.add_argument("--config", help="INI file with [origami] and [job] sections")
    common.add_argument("--tol", type=float)
    common.add_argument("--cap", type=int)
    common.add_argument("--seed", type=int)
    origami = argparse.ArgumentParser(add_help=False)
    origami.add_argument("--h", help="1-based bracketed array, e.g. [2,1,3]")
    origami.add_argument("--v")
    trace = argparse.ArgumentParser(add_help=False)
    trace.add_argument("--slope", default="0")
    trace.add_argument("--square", type=int, default=1)
    trace.add_argument("--offset", default="1/2")

    def command(name, fn, *parents, required=()):
        if name in sub.choices or only not in (None, name):
            return None
        p = sub.add_parser(name, parents=[*parents, common])
        p.set_defaults(fn=fn)
        for option in required:
            p.add_argument(f"--{option}", required=True)
        return p

    if p := command("torus-ext", cmd_torus_ext, required=("tau", "curve")):
        p.add_argument("--weight", default="1")
    command("torus-dist", cmd_torus_dist, required=("tau1", "tau2"))
    command("tangency", cmd_tangency, required=("curve1", "level1", "curve2", "level2"))

    if p := command("triple", cmd_triple):
        p.add_argument("--i", required=True, help="i_ab,i_ag,i_bg")

    if p := command("ratio-curve", cmd_ratio_curve, required=("alpha", "beta", "target")):
        p.add_argument("--eps")
    command("busemann", cmd_busemann, required=("tau0", "curve", "tau"))
    if p := command("ball-limit", cmd_ball_limit, required=("tau0", "curve")):
        p.add_argument("--samples", type=int, default=20)

    command("origami-info", cmd_origami_info, origami)

    if p := command("origami-flow", cmd_origami_flow, origami):
        p.add_argument("--kind", required=True, choices=["geodesic", "horocycle"])
        p.add_argument("--param", required=True,
                       help="stretch factor (geodesic) or shear (horocycle); rational stays exact")
        p.add_argument("--time", action="store_true",
                       help="interpret a geodesic parameter as time t instead of stretch e^t")

    if p := command("origami-intersect", cmd_origami_intersect, origami):
        for k, offset in (("1", "1/2"), ("2", "1/3")):
            p.add_argument(f"--slope{k}", required=True)
            p.add_argument(f"--square{k}", type=int, default=1)
            p.add_argument(f"--offset{k}", default=offset)

    if p := command("growth-check", cmd_growth_check, origami, trace):
        p.add_argument("--s-values", dest="s_values", default="1,2,3,5,10,20")

    command("walsh-e", cmd_walsh_e, origami, trace)

    if p := command("curve-graph", cmd_curve_graph, origami):
        p.add_argument("--slopes", help="semicolon-separated extra slopes")

    if p := command("relation", cmd_relation, origami):
        p.add_argument("--model", required=True, choices=["torus", "origami"])
        for option in ("curve1", "curve2", "f1", "f2", "level1", "level2"):
            p.add_argument(f"--{option}", required=option.startswith("level"))

    command("torus-plot", cmd_torus_plot, required=("curve", "levels", "out"))
    if only is not None and only not in sub.choices:  # --help or an unknown name
        _add_commands(sub)


def run(argv) -> int:
    """Parse, merge --config, run the handler, emit its record; the exit status."""
    try:
        args = build_parser().parse_args(argv)
        _apply_config(args)
        inputs, results = args.fn(args)
        emit({"command": args.subcommand, "inputs": inputs, "results": results}, args.format)
        return EXIT_UNDECIDED if "reason" in results else EXIT_OK
    except ValueError as e:  # InputError, or an argument the model rejects
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OverflowError:
        print("error: a value is beyond the double range", file=sys.stderr)
        return EXIT_INPUT
    except EnumerationBudgetError as e:
        print(f"error: enumeration budget exhausted; lower bound {e.lower_bound}", file=sys.stderr)
        return EXIT_UNDECIDED
    except TraceNotClosed as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNDECIDED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
