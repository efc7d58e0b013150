import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, note, settings, strategies as st

from horoteich import cli, cli_torus, origami as O, torus as T
from horoteich.kernel import UpperHalfPoint

L_ARGS = ["--h", "[2,1,3]", "--v", "[3,2,1]"]


def strict_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_json(capsys, argv):
    status = cli.run(argv)
    out = capsys.readouterr().out
    return json.loads(out, parse_constant=strict_constant), status


def strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


def test_torus_ext_paper_value(capsys):
    rec, status = run_json(capsys, ["torus-ext", "--tau", "0+2i", "--curve", "1,0"])
    assert status == 0
    assert rec["results"]["ext"]["value"] == 0.5
    assert "tolerance" in rec["results"]["ext"]


def test_torus_dist(capsys):
    rec, status = run_json(capsys, ["torus-dist", "--tau1", "0+1i", "--tau2", "0+2i"])
    assert status == 0
    assert rec["results"]["certified"] is True
    assert abs(rec["results"]["distance"]["value"] - 0.34657359) < 1e-6
    rec, status = run_json(capsys, ["torus-dist", "--tau1", "0+1i", "--tau2", "0+1e-5i"])
    assert status == 0
    assert abs(rec["results"]["distance"]["value"] - 0.5 * math.log(1e5)) < 1e-6
    rec, status = run_json(capsys, ["torus-dist", "--tau1", "0+1i", "--tau2", "0+1e-150i"])
    assert status == 0
    assert abs(rec["results"]["distance"]["value"] - 0.5 * math.log(1e150)) < 1e-6
    # Im(tau)^2 subnormal: still certified, and within tol of the closed form
    for im in ("1e-160", "1e-157"):
        rec, status = run_json(capsys, ["torus-dist", "--tau1", "0+1i", "--tau2", f"0+{im}i"])
        y = float(im)
        truth = 0.5 * math.acosh(1.0 + (1.0 - y) ** 2 / (2.0 * y))
        assert status == 0 and rec["results"]["certified"] is True
        assert truth - 1e-9 - 1e-12 <= rec["results"]["distance"]["value"] <= truth + 1e-12
    assert cli_torus.parse_tau("0.3+1e-8i") == UpperHalfPoint(0.3, 1e-8)
    assert cli_torus.parse_tau("-2.5E+1+3e0i") == UpperHalfPoint(-25.0, 3.0)


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["--tau1", "0+1i", "--tau2", "1+2i", "--tol", "1e-17"], "precision"),
        (["--tau1", "0+1e-160i", "--tau2", "1+1e-160i"], "range"),
    ],
    ids=["tol-below-doubles", "sup-beyond-doubles"],
)
def test_torus_dist_uncertified_reason(argv, reason, capsys):
    rec, status = run_json(capsys, ["torus-dist", *argv])
    assert status == 2
    assert rec["results"]["certified"] is False
    assert rec["results"]["reason"] == reason
    assert rec["results"]["distance"] is None  # not near the distance: no value, no tolerance
    assert rec["results"]["closed_form"]["exact"] is False


def test_torus_dist_closed_form_tiny_heights(capsys):
    """2 y1 y2 underflows; the closed form is still finite and right."""
    rec, status = run_json(capsys, ["torus-dist", "--tau1", "0+1e-160i", "--tau2", "1+1e-160i"])
    truth = -math.log(1e-160)  # (1/2) acosh(1 + 1 / (2 y^2)) = -log(y) to within 1e-300
    assert status == 2
    assert rec["results"]["closed_form"]["value"] == pytest.approx(truth, rel=1e-14)


def test_torus_dist_closed_form_nearby_points(capsys):
    """tau2 = tau1 + 1e-7: the closed form is 5e-8 to within its tolerance."""
    rec, status = run_json(capsys, ["torus-dist", "--tau1", "0+1i", "--tau2", "1e-7+1i"])
    closed = rec["results"]["closed_form"]
    with mpmath.workdps(50):
        truth = mpmath.asinh(mpmath.mpf(1e-7) / 2)  # (1/2) acosh(1 + dx^2 / 2)
    assert status == 0
    assert abs(closed["value"] - truth) <= closed["tolerance"]


@pytest.mark.parametrize("tau2", ["0+1i", "1e-300+1i"])
def test_torus_dist_is_never_negative(tau2, capsys):
    """At tau1 = i, tau2 = i or nearly so, the distance is 0 or 5e-301: the
    certified value is 0, not half the log of a lower bound below 1."""
    rec, status = run_json(capsys, ["torus-dist", "--tau1", "0+1i", "--tau2", tau2])
    assert status == 0 and rec["results"]["certified"] is True
    assert rec["results"]["distance"]["value"] == 0.0


def test_torus_dist_closed_form_far_apart_in_re(capsys):
    """Re tau1 - Re tau2 overflows the doubles; the closed form is still finite
    and within its tag of (1/2) acosh(1 + dx^2 / 2) (mpmath, 50 digits)."""
    rec, status = run_json(capsys, ["torus-dist", "--tau1=1.7e308+1i", "--tau2=-1.7e308+1i"])
    closed = rec["results"]["closed_form"]
    with mpmath.workdps(50):
        truth = mpmath.acosh(1 + (2 * mpmath.mpf(1.7e308)) ** 2 / 2) / 2
    assert status == 2 and rec["results"]["reason"] == "range"
    assert math.isfinite(closed["value"]) and abs(closed["value"] - truth) <= closed["tolerance"]


def test_triple(capsys):
    rec, status = run_json(capsys, ["triple", "--i", "2,3,6"])
    assert status == 0
    r = rec["results"]
    assert (r["r"]["value"], r["s"]["value"], r["t"]["value"]) == ("1", "4", "9")
    assert all(r[k]["exact"] for k in "rst")


def test_tangency(capsys):
    rec, status = run_json(
        capsys,
        ["tangency", "--curve1", "1,0", "--level1", "1", "--curve2", "0,1", "--level2", "1"],
    )
    assert status == 0 and rec["results"]["tangent"] is True
    pt = rec["results"]["tangent_point"]
    assert (pt["re"]["value"], pt["im"]["value"]) == (0.0, 1.0)


def _exact_tangent_point(c1, s, c2):
    """The point of the (c1, c2) geodesic with Ext_c1 = s, exactly.  On the
    semicircle over [alpha, beta], |tau - alpha|^2 = (x - alpha)(beta - alpha),
    so Ext_c1 = q1^2 (x - alpha)(beta - alpha) / y = s and y^2 = (x - alpha)(beta - x)
    give x - alpha = u = span s^2 / (s^2 + q1^4 span^2), span = beta - alpha."""
    (p1, q1), (p2, q2) = c1, c2
    if q1 == 0:  # alpha = inf: the line x = beta, where Ext_c1 = 1 / y
        return Fraction(-p2, q2), 1 / s
    alpha = Fraction(-p1, q1)
    if q2 == 0:  # beta = inf: the line x = alpha, where Ext_c1 = q1^2 y
        return alpha, s / q1**2
    span = Fraction(-p2, q2) - alpha
    u = span * s * s / (s * s + q1**4 * span**2)
    return alpha + u, q1 * q1 * u * span / s


TORUS_CURVES = [(p, q) for p in range(8) for q in range(-7, 8)
                if math.gcd(p, q) == 1 and (p > 0 or q == 1)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.lists(st.sampled_from(TORUS_CURVES), min_size=2, max_size=2, unique=True),
    st.floats(-200.0, 200.0).map(lambda e: Fraction(10.0**e)),
)
@example([(1, 0), (2, 1)], Fraction(7, 10**20))
@example([(0, 1), (1, 1)], Fraction(1, 10**170))
def test_tangent_point_is_within_its_tolerance(pair, s):
    """Curves with |p|, |q| <= 7, levels log-uniform in [1e-200, 1e200], less
    those whose point leaves the doubles: each coordinate of the tangent point
    is within its tolerance of the exact point.  (At 7/10^20 on (1, 0) and
    (2, 1), Im is 10^20/7, and its double is 877.7 away.  At 1/10^170 on
    (0, 1) and (1, 1), Re is about -10^-340, and its double is -0.0.)"""
    (c1, c2), i = pair, abs(pair[0][0] * pair[1][1] - pair[0][1] * pair[1][0])
    args = cli.build_parser().parse_args(
        ["tangency", "--curve1", "%d,%d" % c1, "--level1", str(s),
         "--curve2", "%d,%d" % c2, "--level2", str(i * i / s)])
    try:
        _, results = args.fn(args)
    except ValueError as e:  # Im not a normal double, or Re not a double
        assume(str(e) != T.OUT_OF_RANGE)
        raise
    assert "reason" not in results and results["tangent"] is True
    pt = results["tangent_point"]
    for field, exact in zip(("re", "im"), _exact_tangent_point(c1, s, c2)):
        value, tol = pt[field]["value"], pt[field]["tolerance"]
        assert abs(Fraction(value) - exact) <= Fraction(tol), (field, value, exact)


def test_ratio_curve(capsys):
    rec, status = run_json(
        capsys,
        ["ratio-curve", "--alpha", "1,0", "--beta", "0,1", "--target", "3/2"],
    )
    assert status == 0
    assert rec["results"]["ratio"]["value"] == "3/2"


def test_busemann(capsys):
    rec, status = run_json(
        capsys, ["busemann", "--tau0", "0+1i", "--curve", "1,0", "--tau", "1+3i"]
    )
    assert status == 0 and rec["results"]["certified"] is True
    assert abs(
        rec["results"]["closed_form"]["value"] - rec["results"]["limit_estimate"]["value"]
    ) < 1e-6


def test_ball_limit(capsys):
    rec, status = run_json(
        capsys,
        ["ball-limit", "--tau0", "0+1i", "--curve", "1,0", "--samples", "5", "--seed", "3"],
    )
    assert status == 0 and rec["results"]["ok"] is True


def test_origami_info(capsys):
    rec, status = run_json(
        capsys, ["origami-info", "--h", "[2,1,3]", "--v", "[3,2,1]"]
    )
    assert status == 0
    r = rec["results"]
    assert r["genus"] == 2 and r["area"]["value"] == "3"
    assert r["cone_orders"] == [2]
    for d in ("horizontal", "vertical"):
        assert sorted(c["circumference"] for c in r["cylinders"][d]) == [1, 2]


def test_origami_flow_exact(capsys):
    rec, status = run_json(
        capsys,
        ["origami-flow", "--h", "[2,1,3]", "--v", "[3,2,1]", "--kind", "geodesic", "--param", "2"],
    )
    assert status == 0
    r = rec["results"]
    assert r["ext_vertical"]["value"] == "3/4" and r["ext_vertical"]["exact"]
    assert r["product"]["value"] == "9"


def test_origami_flow_time_is_exact_at_the_double_stretch(capsys):
    """--time flows by exactly diag(k, 1/k), k the double exp(t) taken as a
    rational: the Ext fields are n / k^2 and n k^2, and their product is
    exactly n^2, even where Ext is far above 1e4."""
    t = "-15.83711461575393"
    rec, status = run_json(capsys, ["origami-flow", *L_ARGS, "--kind", "geodesic",
                                    "--param", t, "--time"])
    assert status == 0
    big_k = Fraction(math.exp(float(t)))
    r = rec["results"]
    for name, want in (("ext_vertical", 3 / big_k**2),
                       ("ext_horizontal", 3 * big_k**2), ("product", Fraction(9))):
        assert r[name]["exact"] and Fraction(r[name]["value"]) == want, name


def test_origami_intersect(capsys):
    rec, status = run_json(
        capsys,
        ["origami-intersect", "--h", "[2,1,3]", "--v", "[3,2,1]",
         "--slope1", "1", "--slope2", "vert"],
    )
    assert status == 0 and rec["results"]["crossings"]["value"] == "2"


NEGATIVE_VALUES = [
    ["origami-intersect", *L_ARGS, "--slope1", "-1/2", "--slope2", "vert"],
    ["growth-check", *L_ARGS, "--s-values", "-1,2,3"],
    ["torus-ext", "--tau", "-1+2i", "--curve", "1,0"],
    ["torus-ext", "--tau", "0+2i", "--curve", "-1,2"],
    pytest.param(["torus-ext", "--tau", ".5+1i", "--curve", "1,0"], id="torus-ext-dot"),
    pytest.param(["torus-ext", "--tau", "-.5+2i", "--curve", "1,0"], id="torus-ext-minus-dot"),
    pytest.param(["origami-intersect", *L_ARGS, "--slope1", "-.5", "--slope2", "vert"],
                 id="origami-intersect-minus-dot"),
]


@pytest.mark.parametrize("argv", NEGATIVE_VALUES, ids=lambda a: a[0])
def test_negative_values_after_a_space(argv, capsys):
    """A value that starts with -, a dot or both and then a digit (-1/2, .5+1i,
    -.5) is read as the value of the flag before it: the record is that of the
    --flag=value form with the number's leading 0 written out."""
    def padded(text):
        return re.sub(r"(?<!\d)\.(?=\d)", "0.", text)
    i = next(k for k, a in enumerate(argv) if re.match(r"-\.?\d|\.\d", a))
    joined = [*argv[:i - 1], f"{argv[i - 1]}={padded(argv[i])}", *argv[i + 1:]]
    rec, status = run_json(capsys, argv)
    want, want_status = run_json(capsys, joined)
    rec.pop("timestamp"), want.pop("timestamp")
    rec["inputs"] = {k: padded(v) if isinstance(v, str) else v for k, v in rec["inputs"].items()}
    assert status == want_status == 0 and rec == want


def test_growth_check(capsys):
    rec, status = run_json(
        capsys, ["growth-check", "--h", "[2,1,3]", "--v", "[3,2,1]"]
    )
    assert status == 0 and rec["results"]["ok"] is True
    assert rec["results"]["violations"] == 0


def test_growth_lower_bounds_are_within_their_tolerance(capsys):
    """Each lower bound is the exact flat bound at its shear, rounded down
    once, so it lies within its one-ulp tolerance of that bound, also near
    1.3e16 where a fixed 1e-12 cannot hold."""
    from horoteich import origami as O
    s_values = ["1", "2.5", "7e3", "1e8"]
    rec, status = run_json(capsys, ["growth-check", *L_ARGS, "--s-values", ",".join(s_values)])
    assert status == 0
    o = O.build_origami([2, 1, 3], [3, 2, 1])
    hx, hy = O.robust_trace(o, 0, Fraction(0), offset=Fraction(1, 2)).holonomy
    bounds = rec["results"]["lower_bounds"]
    assert len(bounds) == len(s_values)
    for s, got in zip(map(Fraction, s_values), bounds):
        flat = (hx * hx + (s * hx + hy) ** 2) / o.n
        assert abs(Fraction(got["value"]) - flat) <= Fraction(got["tolerance"]), s


def test_walsh_e(capsys):
    rec, status = run_json(
        capsys, ["walsh-e", "--h", "[2,1,3]", "--v", "[3,2,1]", "--slope", "0", "--square", "1"]
    )
    assert status == 0 and rec["results"]["E"]["value"] == "3/2"


def test_curve_graph(capsys):
    rec, status = run_json(
        capsys, ["curve-graph", "--h", "[2,1,3]", "--v", "[3,2,1]"]
    )
    assert status == 0
    assert len(rec["results"]["vertices"]) == 4
    assert len(rec["results"]["edges"]) == 3


@pytest.mark.parametrize(
    "perms, slopes, repeat, first",
    [
        (L_ARGS, "0", "s0", "h0"),
        (L_ARGS, "vert", "svert", "v0"),
        (L_ARGS, "1;2/2", "s2/2", "s1"),
        (L_ARGS, "1/2;-1;Vertical", "sVertical", "v0"),
        (["--h", "[1,2,4,3]", "--v", "[3,1,2,4]"], "0", "s0", "h0"),  # square 1 in row 2 of h0
        (L_ARGS, "1;1", "2", "s1 of entry 1"),  # one id twice: both entries by position
        (L_ARGS, " 1;1", "2", "s1 of entry 1"),
    ],
)
def test_curve_graph_refuses_a_repeated_curve(perms, slopes, repeat, first, capsys):
    """A --slopes entry that is a curve already listed, the core of the cylinder
    through square 1 for slope 0 or vert, or an earlier equal slope, exits 1
    with one line naming both ids, not as a second vertex joined to the first;
    an entry whose id is the earlier entry's is named by its position, and the
    earlier one by its id and position."""
    assert cli.run(["curve-graph", *perms, "--slopes", slopes]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --slopes entry {repeat} is the curve {first}\n"


def test_relation_torus_and_origami(capsys):
    rec, status = run_json(
        capsys,
        ["relation", "--model", "torus", "--curve1", "1,0", "--level1", "1/2",
         "--curve2", "0,1", "--level2", "1"],
    )
    assert status == 0 and rec["results"]["tag"] == "DisjointBalls"
    rec, status = run_json(
        capsys,
        ["relation", "--model", "origami", "--h", "[2,1,3]", "--v", "[3,2,1]",
         "--f1", "vertical:0", "--f2", "vertical", "--level1", "3", "--level2", "3"],
    )
    assert status == 0 and rec["results"]["tag"] == "NestedForward"


def test_torus_plot(tmp_path, capsys):
    out = tmp_path / "plot.svg"
    rec, status = run_json(
        capsys, ["torus-plot", "--curve", "1,1", "--levels", "1,2,4", "--out", str(out)]
    )
    assert status == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and svg.count("<circle") == 3


def test_torus_plot_draws_only_finite_sizes(tmp_path, capsys):
    """A circle as large as the doubles allow is drawn with finite px; a line
    y = 1 / level far above the canvas is not drawn, and not refused, though
    its height times the px scale overflows (the circle's case is refused
    in test_bad_input_and_budget_exit_cleanly)."""
    out = tmp_path / "plot.svg"
    for curve, level, circles, lines in (("1,1", "1.6e306", 1, 1), ("1,0", "1e-307", 0, 1)):
        rec, status = run_json(
            capsys, ["torus-plot", "--curve", curve, "--levels", level, "--out", str(out)])
        svg = out.read_text()
        assert status == 0 and "inf" not in svg and "nan" not in svg
        assert (svg.count("<circle"), svg.count("<line")) == (circles, lines)


def test_csv_format(capsys):
    status = cli.run(["triple", "--i", "1,1,1", "--format", "csv"])
    out = capsys.readouterr().out
    assert status == 0
    assert out.splitlines()[0] == "key,value"
    assert "results.r.value,1" in out


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "job.ini"
    cfg.write_text("[origami]\nn = 3\nh = [2,1,3]\nv = [3,2,1]\n\n[job]\nformat = json\n")
    rec, status = run_json(capsys, ["origami-info", "--config", str(cfg)])
    assert status == 0 and rec["results"]["genus"] == 2


def test_config_flags_win_and_file_fills_the_rest(tmp_path, capsys):
    """--tol, --format, --h and --v flags win over the --config file, which
    fills only the options the flags leave unset; a bad value from the file
    is an input error before the command runs."""
    job = tmp_path / "job.ini"
    job.write_text("[origami]\nh = [1]\nv = [1]\n\n[job]\ntol = 1e-6\ncap = 100\nformat = csv\n")
    rec, status = run_json(capsys, ["origami-info", *L_ARGS, "--format", "json",
                                    "--config", str(job)])
    assert status == 0 and rec["inputs"] == {"h": "[2,1,3]", "v": "[3,2,1]"}
    assert rec["results"]["n"] == 3
    dist = ["torus-dist", "--tau1", "0+1i", "--tau2", "1+2i", "--config", str(job)]
    rec, status = run_json(capsys, [*dist, "--tol", "1e-8", "--format", "json"])
    assert status == 0 and (rec["inputs"]["tol"], rec["inputs"]["cap"]) == (1e-8, 100)
    assert cli.run(dist) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "key,value" and {"inputs.tol,1e-06", "inputs.cap,100"} <= set(rows)
    half = tmp_path / "half.ini"
    half.write_text("[origami]\nh = [2,1,3]\nv = [1,2,3]\n")
    rec, status = run_json(capsys, ["origami-info", "--v", "[3,2,1]", "--config", str(half)])
    assert status == 0 and rec["inputs"] == {"h": "[2,1,3]", "v": "[3,2,1]"}
    n5 = tmp_path / "n5.ini"
    n5.write_text("[origami]\nn = 5\n")
    assert cli.run(["origami-info", *L_ARGS, "--config", str(n5)]) == 1
    assert capsys.readouterr().err == "error: config n = 5 does not match permutation length 3\n"
    xml = tmp_path / "xml.ini"
    xml.write_text("[job]\nformat = xml\n")
    svg = tmp_path / "p.svg"
    argv = ["torus-plot", "--curve", "1,1", "--levels", "1", "--out", str(svg), "--config", str(xml)]
    assert cli.run(argv) == 1 and not svg.exists()
    assert capsys.readouterr().err == "error: unknown output format 'xml'\n"


def test_config_mismatched_n(tmp_path, capsys):
    cfg = tmp_path / "job.ini"
    cfg.write_text("[origami]\nn = 5\nh = [2,1,3]\nv = [3,2,1]\n")
    assert cli.run(["origami-info", "--config", str(cfg)]) == 1


def test_deterministic_output(capsys):
    cli.run(["torus-dist", "--tau1", "0+1i", "--tau2", "1+2i", "--seed", "7"])
    first = strip_timestamp(capsys.readouterr().out)
    cli.run(["torus-dist", "--tau1", "0+1i", "--tau2", "1+2i", "--seed", "7"])
    second = strip_timestamp(capsys.readouterr().out)
    assert first == second


def test_input_errors_exit_one(capsys):
    assert cli.run(["torus-ext", "--tau", "0-2i", "--curve", "1,0"]) == 1
    assert cli.run(["torus-ext", "--tau", "0+2i", "--curve", "2,4"]) == 1
    assert cli.run(["torus-ext", "--tau", "junk", "--curve", "1,0"]) == 1
    assert cli.run(["origami-info", "--h", "[1,1]", "--v", "[1,2]"]) == 1
    assert cli.run(["ratio-curve", "--alpha", "1,0", "--beta", "1,0", "--target", "1"]) == 1
    assert cli.run(["torus-ext", "--tau", "0-1e-5i", "--curve", "1,0"]) == 1
    assert cli.run(["torus-ext", "--tau", "0+1e-400i", "--curve", "1,0"]) == 1
    assert cli.run(["torus-ext", "--tau", "0+1e400i", "--curve", "1,0"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 8


@pytest.mark.parametrize(
    "argv, status",
    [
        (["relation", "--model", "torus", "--curve2", "0,1", "--level1", "1", "--level2", "1"], 1),
        (["relation", "--model", "origami", *L_ARGS, "--f1", "vertical:9", "--f2", "vertical",
          "--level1", "1", "--level2", "1"], 1),
        (["relation", "--model", "origami", *L_ARGS, "--f1", "vertical", "--f2", "horizontal",
          "--level1", "0", "--level2", "1"], 1),
        (["ball-limit", "--tau0", "0+1i", "--curve", "1,0", "--samples", "0"], 1),
        (["ratio-curve", "--alpha", "1,0", "--beta", "0,1", "--target", "3/2", "--eps", "0"], 1),
        (["origami-flow", *L_ARGS, "--kind", "geodesic", "--param", "1e400", "--time"], 1),
        (["origami-flow", *L_ARGS, "--kind", "geodesic", "--param", "-1000", "--time"], 1),
        (["origami-flow", *L_ARGS, "--kind", "geodesic", "--param", "-720", "--time"], 1),
        (["torus-plot", "--curve", "1,1", "--levels", "1", "--out", "{tmp}/missing/p.svg"], 1),
        (["origami-intersect", *L_ARGS, "--slope1", "1000000", "--slope2", "vert"], 2),
        (["origami-info", "--config", "{tmp}/bad-n.ini"], 1),
        (["torus-ext", "--tau", "0+1i", "--curve", "1,0", "--config", "{tmp}/bad-tol.ini"], 1),
        (["torus-dist", "--tau1", "0+1i", "--tau2", "0+1e-200i"], 1),
        (["torus-plot", "--curve", "1,1", "--levels", "1e-400,2", "--out", "{tmp}/p.svg"], 1),
        (["torus-plot", "--curve", "1,1", "--levels", "1e400", "--out", "{tmp}/p.svg"], 1),
        (["torus-plot", "--curve", "1,1", "--levels", "1e308", "--out", "{tmp}/p.svg"], 1),
        (["tangency", "--curve1", "1,0", "--level1", "1e-400", "--curve2", "0,1",
          "--level2", "1e400"], 1),
        (["triple", "--i", "1e-400,1,1"], 1),
        (["torus-ext", "--tau", "0+2i"], 1),
        (["torus-ext", "--tau", "0+2i", "--curve", "1,0", "--bogus", "1"], 1),
        (["ball-limit", "--tau0", "0+1i", "--curve", "1,0", "--samples", "abc"], 1),
        (["relation", "--model", "foo", "--level1", "1", "--level2", "1"], 1),
        (["torus-ext", "--tau", "0+1i", "--curve", "1,0", "--weight", "0"], 1),
        (["origami-intersect", *L_ARGS, "--slope1", "1", "--offset1", "0", "--slope2", "vert"],
         1),
        (["growth-check", *L_ARGS, "--offset", "0"], 1),
        (["walsh-e", *L_ARGS, "--offset", "0"], 1),
        (["growth-check", *L_ARGS, "--s-values", "1e200,2e200,3e200"], 1),
        (["growth-check", *L_ARGS, "--s-values", "1e155"], 1),
        (["origami-flow", *L_ARGS, "--kind", "horocycle", "--param", "1e400"], 1),
        (["origami-flow", *L_ARGS, "--kind", "geodesic", "--param", "1e400"], 1),
        (["torus-dist", "--tau1", "0+1i", "--tau2", "1+2i", "--tol", "inf"], 1),
        (["busemann", "--tau0", "0+1i", "--curve", "1,0", "--tau", "1+2i", "--tol", "inf"], 1),
        (["growth-check", *L_ARGS, "--s-values", "1,2,1e400"], 1),
        (["torus-ext", "--tau", "0+1i", "--curve", "1,0", "--config", "{tmp}/no-section.ini"], 1),
        (["torus-ext", "--tau", "0+1i", "--curve", "1,0", "--config", "{tmp}/percent.ini"], 1),
        (["torus-plot", "--curve", "1" + "0" * 400 + ",1", "--levels", "1", "--out",
          "{tmp}/p.svg"], 1),
        (["torus-dist", "--tau1", "0+1i", "--tau2", "1+2i", "--tol", "1000"], 1),
    ],
    ids=["relation-no-curve1", "relation-bad-component", "relation-zero-level",
         "ball-limit-no-samples", "ratio-curve-zero-eps", "flow-time-overflow",
         "flow-time-underflow", "flow-time-subnormal",
         "plot-missing-dir", "intersect-trace-budget", "config-bad-n", "config-bad-tol",
         "tau-below-double-range", "plot-level-below-double-range",
         "plot-level-above-double-range", "plot-radius-above-double-range",
         "tangency-level-below-double-range", "triple-level-above-double-range",
         "usage-missing-option", "usage-unknown-option", "usage-bad-int",
         "usage-bad-choice", "ext-zero-weight", "intersect-edge-offset",
         "growth-edge-offset", "walsh-edge-offset", "growth-bound-beyond-double-range",
         "growth-lower-bound-beyond-double-range", "flow-shear-beyond-double-range",
         "flow-stretch-beyond-double-range", "torus-dist-infinite-tol",
         "busemann-infinite-tol", "growth-s-value-beyond-double-range",
         "config-without-section", "config-percent-sign", "plot-centre-beyond-double-range",
         "torus-dist-tol-factor-beyond-double-range"],
)
def test_bad_input_and_budget_exit_cleanly(argv, status, tmp_path, capsys):
    (tmp_path / "bad-n.ini").write_text("[origami]\nh = [2,1,3]\nv = [3,2,1]\nn = x\n")
    (tmp_path / "bad-tol.ini").write_text("[job]\ntol = abc\n")
    (tmp_path / "no-section.ini").write_text("tol = 1e-6\n")
    (tmp_path / "percent.ini").write_text("[job]\ntol = 1%\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert cli.run(argv) == status
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv, err", [
    (["torus-dist", "--tau1", "0+1i", "--tau2", "1+2i", "--tol", "1e-15", "--cap", "5"],
     "slope enumeration cap 5 exhausted; best lower bound 2.618025751072957 on the sup of "
     "the extremal-length ratio"),
    (["ratio-curve", "--alpha", "1,0", "--beta", "0,1", "--target", "0.1", "--eps", "1e-30",
      "--cap", "3"],
     "ratio search budget exhausted; best ratio 1/3 at curve (3, 1)"),
], ids=["torus-dist", "ratio-curve"])
def test_budget_exit_names_what_it_bounds(argv, err, capsys):
    """A budget exit prints its exception's message as one error line: the
    torus-dist bound is on the sup of the extremal-length ratio, e^{2d}, not on
    the distance 0.4812, and the best ratio 1/3 lies above the target 1/10."""
    assert cli.run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


FAR_START = {
    "busemann-far-tau0": ["busemann", "--tau0", "1e300+1i", "--curve", "2,1", "--tau", "0+1i"],
    "ball-limit-far-tau0": ["ball-limit", "--tau0", "1e300+1i", "--curve", "2,1"],
    "busemann-far-up-tau0": ["busemann", "--tau0", "0+1e300i", "--curve", "1,0",
                             "--tau", "1e300+1i"],
    "ball-limit-far-up-tau0": ["ball-limit", "--tau0", "0+1e300i", "--curve", "5,-7"],
}


@pytest.mark.parametrize("argv", FAR_START.values(), ids=FAR_START.keys())
def test_far_start_calls(argv, capsys):
    """Valid start points far out, where the ray's chart once overflowed and
    these calls exited 1: each exits 0 or 2 with a strict-JSON record, a
    reason exactly when it exits 2, and a finite busemann closed form within
    its tag of the value at the double inputs (mpmath, 60 digits)."""
    rec, status = run_json(capsys, argv)
    results = rec["results"]
    assert status in (0, 2) and ("reason" in results) == (status == 2)
    if argv[0] == "busemann":
        x0, x = cli_torus.parse_tau(argv[2]), cli_torus.parse_tau(argv[6])
        p, q = map(int, argv[4].split(","))
        with mpmath.workdps(60):
            def ext(z):
                re, y = p + q * mpmath.mpf(z.x), mpmath.mpf(z.y)
                return (re * re + (q * y) ** 2) / y
            truth = mpmath.log(ext(x) / ext(x0)) / 2
            closed = results["closed_form"]
            assert math.isfinite(closed["value"])
            assert abs(closed["value"] - truth) <= closed["tolerance"]


FAR_CURVES = [(1, 0), (0, 1), (1, 1), (2, 1), (3, -2), (5, -7), (999999, 1000000)]
far_re = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 200.0)).map(
    lambda se: se[0] * 10.0**se[1])
far_im = st.floats(-100.0, 100.0).map(lambda e: 10.0**e)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(FAR_CURVES), far_re, far_im, far_re, far_im)
@example((2, 1), 1e300, 1.0, 0.0, 1.0)
def test_busemann_closed_form_within_its_tag(pq, x0, y0, x, y):
    """The busemann record's closed form is within its tolerance of the value
    at the double inputs (mpmath, 50 digits), for |Re| up to 1e200 and Im
    log-uniform in [1e-100, 1e100]."""
    p, q = pq
    args = cli.build_parser().parse_args(
        ["busemann", f"--tau0={x0!r}+{y0!r}i", f"--curve={p},{q}", f"--tau={x!r}+{y!r}i",
         "--tol=1e-9"])
    _, results = args.fn(args)
    with mpmath.workdps(50):
        def ext(re, im):
            a, b = p + q * mpmath.mpf(re), mpmath.mpf(im)
            return (a * a + (q * b) ** 2) / b
        truth = mpmath.log(ext(x, y) / ext(x0, y0)) / 2
        closed = results["closed_form"]
        assert abs(closed["value"] - truth) <= closed["tolerance"]


TAG_CURVES = [(1, 0), (0, 1), (1, 1), (2, 1), (3, -2), (5, -7)]
tag_tau = st.tuples(st.floats(-1e3, 1e3), st.floats(-8.0, 8.0).map(lambda e: 10.0**e))


def run_record(argv):
    """(results, exit status) of one command through cli.run."""
    import contextlib
    import io
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.run(argv)
    return json.loads(out.getvalue(), parse_constant=strict_constant)["results"], status


def assert_tagged(field, truth):
    assert abs(field["value"] - truth) <= field["tolerance"], (field, truth)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(TAG_CURVES), st.sampled_from(TAG_CURVES), tag_tau, tag_tau,
       st.floats(-8.0, 8.0))
@example((2, 1), (1, 0), (1e300, 1.0), (0.0, 1.0), 0.0)
def test_torus_tags_hold(pq, pq2, tau0, tau, log_level):
    """Every tagged float of the torus README commands (torus-ext, torus-dist
    when certified and its closed form, tangency's point, busemann's closed
    form and limit estimate, certified or not) is within its tolerance of
    the value at the double inputs, in mpmath at 50 digits; Im tau is
    log-uniform in [1e-8, 1e8] and |Re tau| <= 1e3, with one far start."""
    (p, q), (x0, y0), (x, y) = pq, tau0, tau
    t0, t = f"--tau0={x0!r}+{y0!r}i", f"{x!r}+{y!r}i"
    with mpmath.workdps(50):
        def ext(re, im, p=p, q=q):
            a, b = p + q * mpmath.mpf(re), mpmath.mpf(im)
            return (a * a + (q * b) ** 2) / b

        r, status = run_record(["torus-ext", f"--tau={t}", f"--curve={p},{q}"])
        assert status == 0
        assert_tagged(r["ext"], ext(x, y))

        r, status = run_record(["torus-dist", f"--tau1={x0!r}+{y0!r}i", f"--tau2={t}"])
        dx, dy = mpmath.mpf(x0) - mpmath.mpf(x), mpmath.mpf(y0) - mpmath.mpf(y)
        dist = mpmath.acosh(1 + (dx * dx + dy * dy) / (2 * mpmath.mpf(y0) * mpmath.mpf(y))) / 2
        assert_tagged(r["closed_form"], dist)
        if r["certified"]:
            assert_tagged(r["distance"], dist)

        r, status = run_record(["busemann", t0, f"--curve={p},{q}", f"--tau={t}"])
        assert status in (0, 2)
        truth = mpmath.log(ext(x, y) / ext(x0, y0)) / 2
        assert_tagged(r["closed_form"], truth)
        assert_tagged(r["limit_estimate"], truth)

        c1, c2 = T.TorusCurve(*pq), T.TorusCurve(*pq2)
        if c1 != c2:  # tangent levels s and i^2 / s, s = 10^log_level as a rational
            level = Fraction(10.0**log_level)
            r, status = run_record(["tangency", f"--curve1={p},{q}", f"--level1={level}",
                                    f"--curve2={c2.p},{c2.q}",
                                    f"--level2={T.intersection(c1, c2) ** 2 / level}"])
            assert status == 0 and r["tangent"]
            # in c1's chart M the point is M(-p2/q2) + i / level, mapped back by M^-1
            m = c1.chart
            beta = mpmath.mpf(m.a) / m.c if c2.q == 0 else (
                (m.a * mpmath.mpf(-c2.p) / c2.q + m.b) / (m.c * mpmath.mpf(-c2.p) / c2.q + m.d))
            w = beta + 1j / (mpmath.mpf(level.numerator) / level.denominator)
            point = (m.d * w - m.b) / (m.a - m.c * w)
            assert_tagged(r["tangent_point"]["re"], point.real)
            assert_tagged(r["tangent_point"]["im"], point.imag)


def exact_fields(node):
    """The exact-tagged numbers in a record, depth first."""
    if isinstance(node, dict) and node.get("exact") is True:
        yield node
    for child in node.values() if isinstance(node, dict) else node if isinstance(node, list) else ():
        yield from exact_fields(child)


def least_squares_quadratic(s_values, los):
    """(c0, c1, c2) of the exact least-squares fit lo ~ c0 + c1 s + c2 s^2: the
    normal equations solved by Cramer's rule over Fractions."""
    gram = [[sum(s ** (i + j) for s in s_values) for j in range(3)] for i in range(3)]
    rhs = [sum(s ** i * lo for s, lo in zip(s_values, los)) for i in range(3)]

    def det(m):
        return sum(m[0][j] * (m[1][j - 2] * m[2][j - 1] - m[1][j - 1] * m[2][j - 2])
                   for j in range(3))  # cofactors along row 0, columns taken cyclically
    return [det([[rhs[i] if j == k else gram[i][j] for j in range(3)] for i in range(3)])
            / det(gram) for k in range(3)]


def assert_growth_tags_hold(r, n, slope, s_texts):
    """Each lower bound of the growth-check results ``r`` (n squares, a trace of
    ``slope``) is within its tolerance of the exact flat bound |M_s hol|^2 / (det n)
    at the double s (M_s the shear, det 1), and the fitted coefficient and
    residual are within theirs of the exact least-squares fit to the printed
    lower bounds."""
    # the trace's holonomy (hx, hy): hx = i_vertical > 0, and hy has the slope's sign
    hx, hy = Fraction(r["i_vertical"]["value"]), Fraction(r["i_horizontal"]["value"])
    hy = -hy if slope.startswith("-") else hy
    s_values = [Fraction(float(Fraction(text))) for text in s_texts]
    for s, field in zip(s_values, r["lower_bounds"], strict=True):
        flat = (hx * hx + (hy + s * hx) ** 2) / n
        assert abs(Fraction(field["value"]) - flat) <= Fraction(field["tolerance"]), (s, field)
    quad, residual = r["quadratic_coefficient"], r["fit_residual"]
    if len(set(s_values)) < 3:
        assert quad is None and residual is None
    else:
        los = [Fraction(field["value"]) for field in r["lower_bounds"]]
        c0, c1, c2 = least_squares_quadratic(s_values, los)
        err = max(abs(c0 + (c1 + c2 * s) * s - lo) for s, lo in zip(s_values, los))
        for field, exact in ((quad, c2), (residual, err / max(map(abs, los)))):
            assert abs(Fraction(field["value"]) - exact) <= Fraction(field["tolerance"]), field


tag_slope = st.tuples(st.integers(-6, 6), st.integers(1, 6)).map(lambda pq: f"{pq[0]}/{pq[1]}")
tag_s = st.fractions(-50, 50, max_denominator=8).map(str) | st.floats(-50.0, 50.0).map(repr)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(*[st.permutations(range(1, n + 1))] * 2)),
       tag_slope, st.lists(tag_s, min_size=1, max_size=7), st.data())
def test_origami_tags_hold(hv, slope, s_texts, data):
    """growth-check on small random origamis, slopes and s values: its tags
    hold (``assert_growth_tags_hold``).  In the origami-info, -flow,
    -intersect, walsh-e and curve-graph records on the same surface, each
    exact field's float is the float of its value."""
    try:
        n = O.build_origami(*hv).n
    except ValueError:  # disconnected
        assume(False)
    perms = ["--h", str(list(hv[0])), "--v", str(list(hv[1]))]
    square = str(data.draw(st.integers(1, n)))
    r, status = run_record(["growth-check", *perms, f"--slope={slope}", f"--square={square}",
                            f"--s-values={','.join(s_texts)}"])
    assert status == 0
    assert_growth_tags_hold(r, n, slope, s_texts)

    other = data.draw(tag_slope | st.just("vert"))
    # curve-graph refuses a horizontal or vertical slope (a core) and a repeated one
    graph_slopes = data.draw(st.lists(tag_slope.filter(lambda t: t[0] != "0"), min_size=2,
                                      max_size=2, unique_by=Fraction))
    param = data.draw(st.fractions(1, 50, max_denominator=9).map(str))
    records = [r]
    for argv in (["origami-info"],
                 ["origami-flow", "--kind", data.draw(st.sampled_from(["geodesic", "horocycle"])),
                  f"--param={param}"],
                 ["origami-intersect", f"--slope1={slope}", f"--square1={square}",
                  f"--slope2={other}"],
                 ["walsh-e", f"--slope={slope}", f"--square={square}"],
                 ["curve-graph", f"--slopes={';'.join(graph_slopes)}"]):
        record, status = run_record([argv[0], *perms, *argv[1:]])
        assert status == 0, argv
        records.append(record)
    fields = list(exact_fields(records))
    assert len(fields) >= 9  # i_v, i_h, area, 4 flow fields, crossings, E
    for field in fields:
        assert field["float"] == float(Fraction(field["value"])), field


TINY_RESIDUAL_S = ("-6.990146922516109e-14,1.3098934668348966e-05,3.616838929544806e-26,"
           "3.1724466587709723e+148,-2.1368996860640667e-40")


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(["0", "1", "1/2", "-1/3", "2"]),
       st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-150.0, 150.0))
                .map(lambda se: repr(se[0] * 10.0 ** se[1])), min_size=3, max_size=6))
@example("1", TINY_RESIDUAL_S.split(","))
def test_growth_tags_hold_from_tiny_to_huge_s(slope, s_texts):
    """growth-check on L with 3-6 s values of +-10^U(-150, 150): its tags hold,
    also where the fit's residual or coefficient is below 2^-1021, where half
    an ulp is 0.0 (at TINY_RESIDUAL_S the residual prints as 1.75288120025e-313,
    and the exact residual is not that double)."""
    r, status = run_record(["growth-check", *L_ARGS, f"--slope={slope}",
                            f"--s-values={','.join(s_texts)}"])
    assert status == 0
    assert_growth_tags_hold(r, 3, slope, s_texts)


def test_geodesic_time_out_of_range_names_the_time(capsys):
    """e^t or e^-t beyond the normal doubles is the time's fault, not a stretch's."""
    for t in ("-1000", "-720", "709"):
        assert cli.run(["origami-flow", *L_ARGS, "--kind", "geodesic", "--param", t,
                        "--time"]) == 1
        assert capsys.readouterr().err == f"error: geodesic time {float(t)} is out of range\n"


def test_utc_timestamp_is_datetime_isoformat():
    """The record's timestamp, formed without datetime, is the text
    datetime.now(timezone.utc).isoformat() gives, which leaves out a zero
    microsecond and rounds nanoseconds down."""
    from datetime import datetime, timezone
    for ns in (0, 999, 1000, 1_700_000_000_000_000_000, 1_700_000_000_123_456_789,
               1_760_000_000_999_999_999, 4_102_444_800_000_001_000):
        want = datetime.fromtimestamp(ns // 10**9, timezone.utc)
        want = want.replace(microsecond=ns // 1000 % 10**6).isoformat()
        assert cli.utc_timestamp(ns) == want
    assert cli.utc_timestamp(1_700_000_000_000_000_000) == "2023-11-14T22:13:20+00:00"
    assert cli.utc_timestamp(1_700_000_000_000_001_999) == "2023-11-14T22:13:20.000001+00:00"


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["torus-ext", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.run(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: horoteich")


def test_far_up_torus_points_do_not_overflow(capsys):
    """Ext at Im tau = 1e200 is formed without squaring Im tau."""
    rec, status = run_json(capsys, ["busemann", "--tau0", "0+1i", "--curve", "0,1",
                                    "--tau", "0+1e200i"])
    assert status == 0 and rec["results"]["certified"] is True
    assert rec["results"]["closed_form"]["value"] == pytest.approx(0.5 * math.log(1e200))
    rec, status = run_json(capsys, ["ball-limit", "--tau0", "0+1e200i", "--curve", "0,1",
                                    "--samples", "3"])
    assert status == 0 and rec["results"]["ok"] is True


def test_ball_limit_exit_2_reasons(capsys, monkeypatch):
    """An undecided ball-limit record says why: some point stayed
    inconclusive, or a membership did not stay nested.  Exit 0 has no reason."""
    from horoteich import torus as T
    argv = ["ball-limit", "--tau0", "0+1i", "--curve", "1,0", "--samples", "5"]
    rec, status = run_json(capsys, argv)
    assert status == 0 and "reason" not in rec["results"]
    check = T.metric_ball_limit_check
    for ok, stuck, reason in ((True, 1, "inconclusive"), (False, 0, "not_nested")):
        def forced(*args, **kwargs):
            rep = check(*args, **kwargs)
            return T.BallLimitReport(rep.entries, ok, rep.entries[:stuck])
        monkeypatch.setattr(T, "metric_ball_limit_check", forced)
        rec, status = run_json(capsys, argv)
        assert status == 2 and rec["results"]["reason"] == reason


def test_relation_undecided_reason(capsys):
    """Disjoint, non-comparable origami components are undecided: exit 2 with
    a top-level reason; a decided relation has none."""
    argv = ["relation", "--model", "origami", *L_ARGS, "--f1", "vertical:0", "--level1", "1",
            "--f2", "vertical:1", "--level2", "1"]
    rec, status = run_json(capsys, argv)
    assert status == 2 and rec["results"]["reason"] == "undecided"
    rec, status = run_json(capsys, argv[:-4] + ["--f2", "horizontal", "--level2", "1"])
    assert status == 0 and "reason" not in rec["results"]


def test_relation_tangent_needs_a_filling_pair(capsys):
    """On L the cores vertical:0 and horizontal:0 meet once, but two curves that
    meet once do not fill a genus-2 surface: at l1 l2 = i^2 = 1 the relation is
    Undecided, exit 2, where it said Tangent.  The canonical foliations fill, and
    stay Tangent at l1 l2 = i^2 = 9; a product below i^2 stays DisjointBalls."""
    argv = ["relation", "--model", "origami", *L_ARGS, "--f1", "vertical:0", "--level1", "1",
            "--f2", "horizontal:0", "--level2", "1"]
    rec, status = run_json(capsys, argv)
    assert status == 2 and rec["results"]["tag"] == "Undecided"
    assert rec["results"]["detail"]["reason"] == "the pair is not known to fill"
    rec, status = run_json(capsys, argv[:-1] + ["1/2"])
    assert status == 0 and rec["results"]["tag"] == "DisjointBalls"
    argv = argv[:-8] + ["--f1", "vertical", "--level1", "1", "--f2", "horizontal", "--level2", "9"]
    rec, status = run_json(capsys, argv)
    assert status == 0 and rec["results"]["tag"] == "Tangent"


@pytest.mark.parametrize("reason", ["precision", "not_monotone", "not_settled"])
def test_busemann_exit_2_reasons(capsys, monkeypatch, reason):
    """An uncertified Busemann record says why: tol below the rounding width
    of D(t)'s bracket; a D(t) bracket above an earlier one (here each one
    after t = 0 is raised by j); or a tail bound that never falls (here
    held at 1 or more), so that BUSEMANN_STEPS steps do not settle it.  Exit 0 has no reason."""
    from horoteich import horolab as H
    argv = ["busemann", "--tau0", "0+1i", "--curve", "1,0", "--tau", "1+3i"]
    rec, status = run_json(capsys, argv)
    assert status == 0 and "reason" not in rec["results"]
    if reason == "precision":
        argv += ["--tol", "1e-300"]
    else:
        ray_excess = H.TorusBackend.ray_excess

        def forced(self, x0, f, x):
            excess = ray_excess(self, x0, f, x)

            def at(j):
                d, tail = excess(j)
                if reason == "not_monotone":
                    return H.Bracket(d.lo + j, d.hi + j), tail
                return d, max(tail, 1.0)
            return at
        monkeypatch.setattr(H.TorusBackend, "ray_excess", forced)
    rec, status = run_json(capsys, argv)
    assert status == 2 and rec["results"]["certified"] is False
    assert rec["results"]["reason"] == reason


def test_busemann_uncertified_tag_covers_its_error(capsys):
    """With --tol below D(t)'s rounding width the estimate is uncertified,
    and its tag, the half-width of its bracket, still covers its distance to
    the Busemann value at the double inputs (mpmath, 50 digits).  A
    certified estimate is tagged with at most tol."""
    argv = ["busemann", "--tau0", "0+1i", "--curve", "1,0", "--tau", "1+3i"]
    rec, status = run_json(capsys, [*argv, "--tol", "1e-300"])
    r = rec["results"]
    assert status == 2 and r["reason"] == "precision"
    with mpmath.workdps(50):
        truth = mpmath.log(mpmath.mpf(1) / 3) / 2  # Ext(1, 0) is 1 / Im
        assert abs(r["limit_estimate"]["value"] - truth) <= r["limit_estimate"]["tolerance"] < 1e-14
    rec, status = run_json(capsys, argv)
    assert status == 0 and rec["results"]["limit_estimate"]["tolerance"] <= 1e-9


def test_growth_check_violation_reason(capsys, monkeypatch):
    from horoteich import origami as O
    rec, status = run_json(capsys, ["growth-check", *L_ARGS])
    assert status == 0 and "reason" not in rec["results"]
    check = O.horocycle_growth_check

    def forced(*args):
        rep = check(*args)
        rep.violations.append((1.0, 0.0, 1.0))
        return rep
    monkeypatch.setattr(O, "horocycle_growth_check", forced)
    rec, status = run_json(capsys, ["growth-check", *L_ARGS])
    assert status == 2 and rec["results"]["reason"] == "violation"
    assert rec["results"]["violations"] == 1


def test_growth_check_decides_up_to_the_double_range(capsys):
    """At s = 7e153 the lower bound 4 (1 + s^2) / 3 is a double though
    (2 s)^2 is not, so the bounds it is checked against must not overflow."""
    rec, status = run_json(capsys, ["growth-check", *L_ARGS, "--s-values", "7e153"])
    assert status == 0 and rec["results"]["ok"] is True
    assert rec["results"]["lower_bounds"][0]["value"] == pytest.approx(4 / 3 * 7e153 ** 2)


def test_growth_check_fit_tags(capsys):
    """The fitted coefficient and residual are rounded once from exact
    rationals and tagged with half an ulp; with fewer than three s values
    there is no fit, and both fields are null, with no tolerance."""
    rec, status = run_json(capsys, ["growth-check", *L_ARGS])
    assert status == 0
    for key in ("quadratic_coefficient", "fit_residual"):
        field = rec["results"][key]
        assert field["tolerance"] == math.ulp(field["value"]) / 2
    rec, status = run_json(capsys, ["growth-check", *L_ARGS, "--s-values", "1,2"])
    assert status == 0
    assert rec["results"]["quadratic_coefficient"] is None is rec["results"]["fit_residual"]


def test_emit_refuses_non_finite_values(capsys):
    """A record is strict JSON: a NaN or infinity is an error, and nothing is
    printed."""
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            cli.emit({"results": {"value": value}}, "json")
        assert capsys.readouterr().out == ""


def readme_commands():
    """The argv of each ``horoteich`` line in the README's command-line section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("## Command line"):text.index("## Acceptance")]
    return [shlex.split(line)[1:] for line in section.splitlines()
            if line.startswith("horoteich ")]


NO_NUMPY_PROCESS = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # from here on, any numpy import raises ImportError
from fractions import Fraction
import horoteich, horoteich.cli as cli
from horoteich import torus, origami, horolab, curvegraph

statuses = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        statuses.append(cli.run(argv))
f = torus.WeightedTorusFoliation(Fraction(1), torus.TorusCurve(2, 1))
assert torus.equidistance_check(f, Fraction(1), Fraction(4), samples=3).ok
loaded = [m for m, mod in sys.modules.items() if mod is not None and m.partition(".")[0]
          in ("numpy", "scipy", "dataclasses", "inspect", "datetime")]
print(json.dumps([statuses, loaded]))
"""


def test_readme_commands_load_no_numpy(tmp_path):
    """Every module, the 15 README commands and an equidistance check run in
    one fresh process where importing numpy fails, and load neither numpy
    nor scipy, nor dataclasses, inspect or datetime, which cost a cold call
    milliseconds of imports and class generation."""
    commands = readme_commands()
    assert len(commands) == 15
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_PROCESS, json.dumps(commands)],
                          env=env, cwd=tmp_path, check=True, capture_output=True, text=True)
    statuses, loaded = json.loads(proc.stdout)
    assert dict(zip(map(" ".join, commands), statuses)) == {" ".join(c): 0 for c in commands}
    assert loaded == []
    assert (tmp_path / "plot.svg").exists()


def fresh_python(code, *args):
    """Run code in a fresh interpreter with the checkout's src/ on the path."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout)


def test_package_import_loads_no_model():
    """import horoteich and horoteich.cli load no model module, and every
    name in __all__ resolves on first use."""
    first, cli_loads, missing = fresh_python("""
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("horoteich."))
import horoteich
first = loaded()
import horoteich.cli
cli_loads = loaded()
missing = [n for n in horoteich.__all__ if getattr(horoteich, n, None) is None]
from horoteich import Origami, torus
print(json.dumps([first, cli_loads, missing]))
""")
    assert first == []
    assert cli_loads == ["horoteich.cli", "horoteich.kernel"]
    assert missing == []


TORUS_ONLY = ["origami", "horolab", "curvegraph", "cli_origami"]
ORIGAMI_ONLY = ["torus", "horolab", "cli_torus"]


@pytest.mark.parametrize(
    "argv, status, unloaded",
    [
        (["torus-ext", "--tau", "0+2i", "--curve", "1,0"], 0, TORUS_ONLY),
        (["torus-dist", "--tau1", "0+1i", "--tau2", "1+2i"], 0, TORUS_ONLY),
        (["torus-dist", "--tau1", "0+1i", "--tau2", "1+2i", "--tol", "1e-15", "--cap", "50"], 2,
         TORUS_ONLY),
        (["tangency", "--curve1", "1,0", "--level1", "1", "--curve2", "0,1", "--level2", "1"],
         0, TORUS_ONLY),
        (["triple", "--i", "2,3,6"], 0, TORUS_ONLY),
        (["ratio-curve", "--alpha", "1,0", "--beta", "0,1", "--target", "3/2"], 0, TORUS_ONLY),
        (["torus-plot", "--curve", "1,1", "--levels", "1,2,4", "--out", "{tmp}/p.svg"], 0,
         TORUS_ONLY),
        (["busemann", "--tau0", "0+1i", "--curve", "1,0", "--tau", "1+3i"], 0,
         ["origami", "cli_origami"]),
        (["relation", "--model", "torus", "--curve1", "1,0", "--level1", "1/2",
          "--curve2", "0,1", "--level2", "1"], 0, ["origami", "cli_origami"]),
        (["relation", "--model", "origami", *L_ARGS, "--f1", "vertical", "--level1", "1",
          "--f2", "horizontal", "--level2", "1"], 0, ["torus", "cli_torus"]),
        (["origami-info", *L_ARGS], 0, ORIGAMI_ONLY),
        (["origami-flow", *L_ARGS, "--kind", "geodesic", "--param", "2"], 0, ORIGAMI_ONLY),
        (["origami-intersect", *L_ARGS, "--slope1", "1", "--slope2", "vert"], 0, ORIGAMI_ONLY),
        (["origami-intersect", *L_ARGS, "--slope1", "1000000", "--slope2", "vert"], 2,
         ORIGAMI_ONLY),
        (["growth-check", *L_ARGS], 0, ORIGAMI_ONLY),
        (["walsh-e", *L_ARGS, "--slope", "0", "--square", "1"], 0, ORIGAMI_ONLY),
        (["curve-graph", *L_ARGS], 0, ORIGAMI_ONLY),
    ],
    ids=["torus-ext", "torus-dist", "torus-dist-budget", "tangency", "triple", "ratio-curve",
         "torus-plot", "busemann", "relation-torus", "relation-origami", "origami-info",
         "origami-flow", "origami-intersect", "intersect-trace-budget", "growth-check",
         "walsh-e", "curve-graph"],
)
def test_fresh_command_loads_only_its_model(argv, status, unloaded, tmp_path):
    """A cold call imports no model module its subcommand does not use, and
    budget errors still exit 2 with neither model imported by run()."""
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    got, loaded = fresh_python("""
import contextlib, io, json, sys
import horoteich.cli as cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    status = cli.run(json.loads(sys.argv[1]))
print(json.dumps([status, sorted(m for m in sys.modules if m.startswith("horoteich."))]))
""", json.dumps(argv))
    assert got == status
    assert not {f"horoteich.{m}" for m in unloaded} & set(loaded)


def test_python_m_compiles_cli_once():
    """Under python -m, cli.py runs as __main__ and registers itself as
    horoteich.cli, so the handler module's "from .cli import" does not import
    (and compile) cli.py a second time."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "horoteich.cli", "torus-ext",
                           "--tau", "0+2i", "--curve", "1,0"], env=env, check=True,
                          capture_output=True, text=True)
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "horoteich.cli_torus" in imported
    assert "horoteich.cli" not in imported
    assert json.loads(proc.stdout)["results"]["ext"]["value"] == 0.5


def test_numeric_fields_tagged(capsys):
    rec, _ = run_json(
        capsys, ["torus-dist", "--tau1", "0+1i", "--tau2", "1+2i"]
    )

    def check(node):
        if isinstance(node, dict):
            if "value" in node and isinstance(node.get("value"), (int, float, str)):
                assert (
                    node.get("exact") is True
                    or "bracket" in node
                    or "tolerance" in node
                )
            for v in node.values():
                check(v)
        elif isinstance(node, list):
            for v in node:
                check(v)

    check(rec["results"])


# ---------------------------------------------------------------------------
# The exit contract, fuzzed from the option table


def option_table():
    """{subcommand: [(flag, required, choices, takes_value, dest)]}, from the parser
    that ``cli._add_commands`` builds, without --help."""
    ap = cli.build_parser()
    cli._add_commands(ap.commands)
    return {name: [(a.option_strings[-1], a.required, a.choices, a.nargs != 0, a.dest)
                   for a in p._actions if a.option_strings and a.dest != "help"]
            for name, p in ap.commands.choices.items()}


OPTIONS = option_table()
BIG = "1" + "0" * 400  # 10^400 in digits: an int, and past the doubles as a quotient
EDGE_VALUES = ["inf", "-inf", "nan", "1e400", "-1e400", "1e-400", BIG,
               "5e-324", "-2.2250738585072014e-308", ".5", "-.5", ".5e3", "", " ", "abc",
               "1/0", "0/0", "1,", ",", "[", "0x1p3", "1e308"]
# by the option's dest less a trailing digit: (values a call takes, values a call refuses,
# BIG among them wherever a value holds integers or numbers beside each other); a
# dest not named here takes only the edge values, so a new option is fuzzed without an edit
KIND_VALUES = {
    "tau": (["0+1i", "0+2i", "1e300+1i", "0+1e300i", "0+1e-160i", "-.5+.5i", "1e-310+0.5i"],
            ["0-1i", "1+2"]),
    "curve": (["1,0", "0,1", "2,1", "-1,2", "5,-7", "1,1"],
              ["2,4", "0,0", "1e400,1", BIG + ",1", "1," + BIG]),
    "level": (["1", "1/2", "7/3", "1e-170", "1e170"], ["0", "-1", "1e400"]),
    "h": (["[2,1,3]", "[3,1,2]"], ["[1]", "[1,1]", "[0]", "[]", "[2,1,"]),
    "v": (["[3,2,1]", "[1,3,2]"], ["[2,1,4,3]", "[1,2]", "[2,1,3]"]),
    "f": (["vertical", "horizontal", "vertical:0", "horizontal:1"],
          ["diagonal", "vertical:-1", "horizontal:x", "vertical:9"]),
    "slope": (["0", "1", "-1/2", "vert", "162", "1000000"], ["486", "10" * 200, "1/0"]),
    "offset": (["1/2", "1/3", "1/1000000"], ["0", "1", "-1/2"]),
    "square": (["1", "2", "3"], ["0", "-1", "9"]),
    "i": (["1,1,1", "2,3,1"], ["1e-400,1,1", "1,2", "0,1,1", BIG + ",1,1"]),
    "levels": (["1,2", "1/2,1,2,3"], ["1e-400,2", "1e308", "1," + BIG]),
    "s_values": (["1,2,3", "1,2", "-1,2,3"],
                 ["1e155", "1e200,2e200,3e200", "1e400", "1,2," + BIG]),
    "param": (["2", "1/2", "-720", "3/7"], ["-1000", "1e400", "0"]),
    "target": (["3/2", "1/10", "1e20", "1e308"], ["-1", "0"]),
    "eps": (["0.1", "1e-30", "1/1000"], ["0"]),
    "weight": (["1", "3/2", "1e200"], ["0", "-1"]),
    "tol": (["1e-9", "1e-3", "0.5", "1e-300"], ["0", "1000"]),
    "out": (["p.svg"], ["missing/p.svg"]),
    "slopes": (["1/2", "1/2;2", "vert;0"], ["1;1", "1/2;" + BIG]),
    "config": (["job.ini", "origami.ini"], ["missing.ini", "bad.ini", "percent.ini"]),
    # sizes, bounded so that no example allocates or walks without limit: no edge values;
    # the sweep's --cap is the first, large enough that a search gets past its first nodes
    "cap": (["1000", "1", "3", "1000000"], ["0", "-1"]),
    "samples": (["1", "3", "20"], ["0", "-1"]),
    "seed": (["0", "7"], ["-1"]),
}
KIND_VALUES["alpha"] = KIND_VALUES["beta"] = KIND_VALUES["curve"]
SIZES = ("cap", "samples")
INI_FILES = {"job.ini": "[job]\ntol = 1e-6\ncap = 50\n",
             "origami.ini": "[origami]\nh = [2,1,3]\nv = [3,2,1]\nn = 3\n",
             "bad.ini": "tol = 1e-6\n", "percent.ini": "[job]\ntol = 1%\n"}


def cli_argv(name, rng):
    """The subcommand name and values for its options, drawn by rng.  In a clean argv every
    value is one the call takes, and an optional option is left out one time in ten; else
    one value in three is a refused or an edge value, half each where the kind lists
    refused ones, a required option is left out one time in ten and an optional one every
    other time."""
    clean, argv = rng.random() < 0.5, [name]
    for flag, required, choices, takes_value, dest in OPTIONS[name]:
        if rng.random() >= (1.0 if clean and required else 0.9 if clean or required else 0.5):
            continue
        if not takes_value:
            argv.append(flag)
            continue
        pool, bad = (choices, ["xml"]) if choices else \
            KIND_VALUES.get(dest.rstrip("0123456789"), ([], []))
        if not pool or not clean and rng.random() < 1 / 3:  # a refused or an edge value
            pool = bad if dest in SIZES or bad and rng.random() < 0.5 else EDGE_VALUES
        value = rng.choice(pool)
        argv += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
    return argv


def swept_argvs(name):
    """Each refused and edge value of each option in turn (only refused ones for the sizes),
    the other options at accepted values: the k-th option of a kind takes the kind's k-th
    value, so curve1 and curve2, or alpha and beta, differ; no --config, and every sweep
    once with no flag and once with all of them where the subcommand has any."""
    base, seen = {}, {}
    for flag, _, choices, takes_value, dest in OPTIONS[name]:
        kind = dest.rstrip("0123456789")
        if takes_value and kind != "config":
            pool = choices or KIND_VALUES.get(kind, ([], []))[0]
            k = seen[kind] = seen.get(kind, -1) + 1
            if pool:
                base[flag] = pool[k % len(pool)]
    flags = [flag for flag, _, _, takes_value, _ in OPTIONS[name] if not takes_value]
    for on in dict.fromkeys([(), tuple(flags)]):
        for flag, _, choices, takes_value, dest in OPTIONS[name]:
            if takes_value:
                bad = ["xml"] if choices else \
                    KIND_VALUES.get(dest.rstrip("0123456789"), ([], []))[1]
                for value in bad if dest in SIZES else [*bad, *EDGE_VALUES]:
                    yield [name, *on, *(f"{f}={v}" for f, v in {**base, flag: value}.items())]


def check_exit_contract(argv):
    """Run argv in the working directory: exit 0, 1 or 2, never a traceback.  Exit 1
    prints one stderr line starting error:, exit 2 a record with a reason or one such
    line, and exit 0 a record without one."""
    import contextlib, io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert status in (0, 1, 2)
    if status == 1 or status == 2 and not out:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err
    else:  # a record, with a reason exactly where the exit is 2
        assert err == ""
        assert ("reason" in record_results(out)) == (status == 2)


@pytest.mark.parametrize("name", sorted(OPTIONS))
@settings(max_examples=15, derandomize=True, deadline=2000)
@given(rng=st.randoms(use_true_random=True))
def test_exit_contract_holds_for_fuzzed_argv(name, rng):
    """Every argv drawn from the option table keeps the exit contract
    (check_exit_contract).  Values come from edge lists (infinities, nan, 1e+-400,
    10^400 in digits, subnormals, dot-first numbers, empty and malformed text) and
    from lists by the option's kind, which put 10^400 inside curves and lists;
    --cap is at most 10^6 and --samples at most 20."""
    import tempfile

    argv = cli_argv(name, rng)
    note(shlex.join(["horoteich", *argv]))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for file, text in INI_FILES.items():
            Path(tmp, file).write_text(text)
        os.chdir(tmp)
        try:
            check_exit_contract(argv)
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("name", sorted(OPTIONS))
def test_exit_contract_holds_for_each_bad_value(name, tmp_path, monkeypatch):
    """Every refused and edge value of every option, one at a time (swept_argvs), keeps
    the exit contract: a value the random draws of the fuzz above may miss, such as
    10^400 inside a curve or a --tol whose e^(2 tol) overflows, is tried in every
    option that takes it."""
    for file, text in INI_FILES.items():
        (tmp_path / file).write_text(text)
    monkeypatch.chdir(tmp_path)
    for argv in swept_argvs(name):
        try:
            check_exit_contract(argv)
        except BaseException as e:
            e.add_note(shlex.join(["horoteich", *argv]))
            raise


def record_results(out):
    """The results of a printed json or csv record; csv keys lose their "results." prefix."""
    import csv, io

    if out.startswith("key,value"):
        rows = csv.reader(io.StringIO(out))
        return {k[len("results."):]: v for k, v in rows if k.startswith("results.")}
    return json.loads(out, parse_constant=strict_constant)["results"]
