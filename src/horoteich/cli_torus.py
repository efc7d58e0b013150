"""Torus subcommands of the command line, each ``cmd_<name>(args)`` returning
(inputs, results) as ``cli.run`` expects.  ``cli`` imports this module only
when a torus command (or ``relation --model torus``) runs."""
from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from . import torus as T
from .cli import (InputError, _inputs, num_exact, num_float, num_rounded, parse_level,
                  parse_rational, to_double)
from .kernel import UpperHalfPoint

_NUM = r"(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?"  # 2, 2.5, .5, 2e3; a sign before it
_COMPLEX_RE = re.compile(rf"^([+-]?{_NUM})?([+-](?:{_NUM})?)i$|^([+-]?{_NUM})$")


def parse_tau(text: str) -> UpperHalfPoint:
    """Complex in the a+bi format, no spaces; must lie in the upper half-plane."""
    m = _COMPLEX_RE.match(text.strip())
    if not m:
        raise InputError(f"cannot parse complex number {text!r}; use a+bi")
    if m.group(3) is not None:
        raise InputError(f"{text!r} has no positive imaginary part")
    re_part = float(m.group(1)) if m.group(1) else 0.0
    im_part = float(m.group(2) + "1" if m.group(2) in ("+", "-") else m.group(2))
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise InputError(f"{text!r} is not a finite complex number")
    if not im_part > 0:
        raise InputError(f"{text!r} is not in the upper half-plane")
    if im_part * im_part == 0.0:  # torus forms need Im(tau)^2 in doubles
        raise InputError(f"{text!r} is too close to the real axis for double precision")
    return UpperHalfPoint(re_part, im_part)


def parse_curve(text: str):
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError as e:
        raise InputError(f"cannot parse curve {text!r}; use p,q") from e
    return T.TorusCurve(p, q)


def cmd_torus_ext(args):
    tau = parse_tau(args.tau)
    f = T.WeightedTorusFoliation(parse_rational(args.weight), parse_curve(args.curve))
    val = T.extremal_length(tau, f)  # exact at the double inputs, then rounded once
    return _inputs(args, "tau", "curve", "weight"), {"ext": num_rounded(val)}


def cmd_torus_dist(args):
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
    f = T.WeightedTorusFoliation(Fraction(1), parse_curve(curve_text))
    return T.HoroSpec.create(f, parse_level(level_text))


def cmd_tangency(args):
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
            "re": num_rounded(pt.x),
            "im": num_rounded(pt.y),
        }
    return _inputs(args, "curve1", "level1", "curve2", "level2"), results


def cmd_triple(args):
    parts = args.i.split(",")
    if len(parts) != 3:
        raise InputError("--i requires three comma-separated positive values")
    vals = [parse_rational(p) for p in parts]
    r, s, t = T.triple_tangency_levels(*vals)
    return _inputs(args, "i"), {"r": num_exact(r), "s": num_exact(s), "t": num_exact(t)}


def cmd_ratio_curve(args):
    alpha, beta = parse_curve(args.alpha), parse_curve(args.beta)
    target, eps = parse_rational(args.target), parse_rational(args.eps or "1/1000")
    gamma = T.ratio_curve_search(alpha, beta, target, eps, budget=args.cap)  # cap counts mediants
    ratio = Fraction(T.intersection(alpha, gamma), T.intersection(beta, gamma))
    results = {"curve": f"{gamma.p},{gamma.q}", "ratio": num_exact(ratio),
               "error": num_exact(abs(ratio - target))}
    return {**_inputs(args, "alpha", "beta", "target"), "eps": str(eps)}, results


def cmd_busemann(args):
    from . import horolab as H
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


def relation_balls(args):
    """The two horoballs of ``relation --model torus``, and their backend."""
    from . import horolab as H
    if args.curve1 is None or args.curve2 is None:
        raise InputError("--model torus requires --curve1 and --curve2")
    h1 = _horospec(args.curve1, args.level1)
    return h1, _horospec(args.curve2, args.level2), H.TorusBackend()


def _svg_horocycles(curve, levels):
    """Static SVG of the horocycles HS((p,q), level) in the half-plane."""
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
            cx = sx(to_double(Fraction(-curve.p, curve.q)))  # -p/q, refused past the doubles
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{sy(r):.2f}" r="{r * scale:.2f}" '
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
