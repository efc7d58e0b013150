"""Oracle checks, one per job class.

Each ``check_<class>(job, out)`` returns None when the output is right and
a short reason otherwise.  Truth comes from closed forms evaluated with
mpmath at 50 digits on the exact double inputs, from exact rational
arithmetic, from combinatorics recomputed here from the permutations, or,
where none exists, from ``pinned.json`` (records of the seed commit).
Nothing here imports the package under test.
"""
from __future__ import annotations

import json
import math
import os
from collections import deque
from fractions import Fraction

import mpmath

import jobs

mpmath.mp.dps = 50
SLACK = 1e-12  # the acceptance suite's own slack on certified values

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")) as _fh:
    PINNED = json.load(_fh)


def _mp(x):
    """Exact for doubles, ints and Fractions (50 digits for the latter)."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def teich_truth(x1, y1, x2, y2):
    """Teichmueller distance: half the hyperbolic distance."""
    dx, dy = _mp(x1) - _mp(x2), _mp(y1) - _mp(y2)
    return mpmath.acosh(1 + (dx * dx + dy * dy) / (2 * _mp(y1) * _mp(y2))) / 2


def ext_truth(x, y, p, q, w=1):
    """w^2 |p + q tau|^2 / Im tau."""
    re = p + q * _mp(x)
    return _mp(w) ** 2 * (re * re + (q * _mp(y)) ** 2) / _mp(y)


def busemann_truth(x0, y0, p, q, x, y):
    return mpmath.log(ext_truth(x, y, p, q) / ext_truth(x0, y0, p, q)) / 2


def _within(v, lo, hi):
    return lo <= _mp(v) <= hi


def _failed(out):
    if "error" in out:
        return "raised " + out["error"].split(":")[0]
    if out.get("budget"):
        return "budget exhausted"
    return None


# -- torus-sweep -------------------------------------------------------------


def check_kerckhoff(job, out):
    _, x1, y1, x2, y2, tol, _cap = job
    if _failed(out):
        return _failed(out)
    if not out["certified"]:
        return "uncertified"
    truth = teich_truth(x1, y1, x2, y2)
    if not _within(out["value"], truth - tol - SLACK, truth + SLACK):
        return "wrong certified value"
    return None


check_cusp = check_kerckhoff


def check_ext_sup(job, out):
    _, x, y, p, q, w, tol = job
    if _failed(out):
        return _failed(out)
    if not out["certified"]:
        return "uncertified"
    truth = ext_truth(x, y, p, q, Fraction(w))
    slack = SLACK * max(1, truth)
    if not _within(out["lower"], truth - tol - slack, truth + slack):
        return "wrong certified value"
    return None


def _torus_tag(p1, q1, l1, p2, q2, l2):
    i = abs(p1 * q2 - q1 * p2)
    l1, l2 = Fraction(l1), Fraction(l2)
    if i == 0:  # same curve: the smaller level's ball sits inside
        return "NestedForward" if l2 <= l1 else "NestedBackward"
    prod = l1 * l2
    return "Tangent" if prod == i * i else "DisjointBalls" if prod < i * i else "Overlapping"


def check_classify(job, out):
    if _failed(out):
        return _failed(out)
    want = _torus_tag(*job[1:])
    return None if out["tag"] == want else f"tag {out['tag']}, want {want}"


def check_probe(job, out):
    _, p1, q1, l1, p2, q2, l2 = job
    if _failed(out):
        return _failed(out)
    included = (p1, q1) == (p2, q2) and Fraction(l1) <= Fraction(l2)
    want = "IncludedCertified" if included else "ExcludedWitness"
    return None if out["tag"] == want else f"tag {out['tag']}, want {want}"


def check_busemann(job, out):
    _, x0, y0, p, q, x, y, tol = job
    if _failed(out):
        return _failed(out)
    if not out["certified"]:
        return "uncertified"
    truth = busemann_truth(x0, y0, p, q, x, y)
    if abs(_mp(out["value"]) - truth) > 2 * tol + SLACK:
        return "estimate off the closed form"
    return None


def check_equidistance(job, out):
    _, _p, _q, s, t, samples, _seed = job
    if _failed(out):
        return _failed(out)
    expected = mpmath.log(_mp(Fraction(t) / Fraction(s))) / 2
    if not (out["ok"] and out["unique"]):
        return "check reported not ok"
    if len(out["distances"]) != samples or any(
            abs(_mp(d) - expected) > 1e-6 for d in out["distances"]):
        return "distance off (1/2) log(t/s)"
    return None


def check_ball_limit(job, out):
    _, x0, y0, p, q, pts = job
    if _failed(out):
        return _failed(out)
    want = ["inside" if busemann_truth(x0, y0, p, q, x, y) < 0 else "outside" for x, y in pts]
    if out["classes"] != want:
        return "membership differs from the Busemann sign"
    if not (out["ok"] and out["nested"]):
        return "check reported not ok"
    return None


# -- origami-sweep -----------------------------------------------------------


def _perm0(one_line):
    return [x - 1 for x in one_line]


def _cycles(p):
    seen = set()
    out = []
    for i in range(len(p)):
        if i in seen:
            continue
        cyc = []
        j = i
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        out.append(cyc)
    return out


def cone_orders(h, v):
    """Cone orders from the cycles of the commutator h v h^-1 v^-1."""
    h, v = _perm0(h), _perm0(v)
    n = len(h)
    hi, vi = [0] * n, [0] * n
    for i in range(n):
        hi[h[i]] = i
        vi[v[i]] = i
    comm = [h[v[hi[vi[x]]]] for x in range(n)]
    return sorted(len(c) - 1 for c in _cycles(comm) if len(c) > 1)


def _flow_matrix(flow):
    kind, param = flow
    k = Fraction(param)
    if kind == "geodesic":
        return (k, Fraction(0), Fraction(0), 1 / k)
    return (Fraction(1), Fraction(0), k, Fraction(1))


def _bracket_ok(b, lo_exact, hi_exact):
    lo, hi = b
    return (Fraction(lo) <= lo_exact and lo_exact * (1 - Fraction(SLACK)) <= Fraction(lo)
            and hi != math.inf and Fraction(hi) >= hi_exact
            and Fraction(hi) <= hi_exact * (1 + Fraction(SLACK)))


def check_fresh(job, out):
    _, h, v, flow = job
    if _failed(out):
        return _failed(out)
    n = len(h)
    cones = cone_orders(h, v)
    if out["n"] != n or out["cones"] != cones:
        return "cone data differs from the commutator cycles"
    if sum(cones) != 2 * out["genus"] - 2:
        return "cone orders do not sum to 2g - 2"
    for d, cyls in out["cyl"].items():
        if sum(c * ht for c, ht in cyls) != n:
            return f"{d} cylinder areas do not sum to n"
    flowed = _flow_matrix(flow)
    for d, c, ht, hol, nseg, b0, b1 in out["cores"]:
        want_hol = [c, 0] if d == "horizontal" else [0, c]
        if hol != want_hol or nseg != c:
            return "core trace does not close after one circumference"
        u = (1, 0) if d == "horizontal" else (0, 1)
        for (a, b, cc, dd), br in (((1, 0, 0, 1), b0), (flowed, b1)):
            dt = a * dd - b * cc
            vx, vy = a * hol[0] + b * hol[1], cc * hol[0] + dd * hol[1]
            ux, uy = a * u[0] + b * u[1], cc * u[0] + dd * u[1]
            lo_exact = Fraction(vx * vx + vy * vy) / (dt * n)
            hi_exact = Fraction(c) * (ux * ux + uy * uy) / (dt * ht)
            if not _bracket_ok(br, lo_exact, hi_exact):
                return "ext bracket is not the cylinder enclosure"
    return None


def _bfs(matrix, a, b):
    if a == b:
        return 0
    dist = {a: 0}
    queue = deque([a])
    while queue:
        i = queue.popleft()
        for j, x in enumerate(matrix[i]):
            if j != i and x == 0 and j not in dist:
                dist[j] = dist[i] + 1
                if j == b:
                    return dist[j]
                queue.append(j)
    return "inf"


def check_unit_table(job, out):
    _, dirs, pairs = job
    if _failed(out):
        return _failed(out)
    want = [[0 if i == j else abs(a[0] * b[1] - a[1] * b[0]) for j, b in enumerate(dirs)]
            for i, a in enumerate(dirs)]
    if out["matrix"] != want:
        return "crossing table differs from |p1 q2 - q1 p2|"
    if out["dist"] != [_bfs(want, a, b) for a, b in pairs]:
        return "graph distances differ"
    return None


def _fixed_matrix(name, slopes):
    table = PINNED["tables"][name]
    ids = table["ids"]
    rows = [i for i, k in enumerate(ids) if not k.startswith("s:")]
    rows += [ids.index("s:" + s) for s in slopes]
    return [[table["matrix"][i][j] for j in rows] for i in rows]


def check_fixed_table(job, out):
    _, name, slopes = job
    if _failed(out):
        return _failed(out)
    want = _fixed_matrix(name, slopes)
    if out["matrix"] != want:
        return "crossing table differs from the pinned table"
    n = len(want)
    pairs = [(0, n - 1), (1, n - 2), (n - 1, n - 2)]
    if out["dist"] != [_bfs(want, a, b) for a, b in pairs]:
        return "graph distances differ"
    return None


def _primitive(a, b):
    g = math.gcd(abs(a), abs(b))
    a, b = a // g, b // g
    return [-a, -b] if a < 0 or (a == 0 and b < 0) else [a, b]


def check_remark(job, out):
    _, name, m, slopes = job
    if _failed(out):
        return _failed(out)
    h, v = jobs.SURFACES[name]
    th, tv = out["target"]
    if len(th) != len(h) or cone_orders(th, tv) != cone_orders(h, v):
        return "re-marked surface has other cone data"
    a, b, c, d = m
    if out["mapped_dirs"] != [_primitive(a * x + b * y, c * x + d * y) for x, y in out["dirs"]]:
        return "mapped directions differ from the matrix action"
    if out["before"] != out["after"] or out["before"] != _fixed_matrix(name, slopes):
        return "crossing numbers not invariant under re-marking"
    return None


def walsh_truth(name, arg):
    """Walsh E of the vertical foliation against gamma, in closed form.

    On the unit torus gamma of direction (a, b) gives a^2.  On a fixed
    surface gamma is the horizontal line at height 1/2 through ``arg``; it
    meets a vertical core once per shared square, so with weight = height
    w_j, E = sum_j w_j * shared_j^2 / circumference_j.
    """
    if name == "unit":
        return Fraction(arg[0] ** 2)
    h = _perm0(jobs.SURFACES[name][0])
    row = next(c for c in _cycles(h) if arg - 1 in c)
    total = Fraction(0)
    for squares, circ, height in jobs.VERTICAL_CYLINDERS[name]:
        shared = len({s - 1 for s in squares} & set(row))
        total += Fraction(height * shared * shared, circ)
    return total


def check_walsh(job, out):
    _, name, arg = job
    if _failed(out):
        return _failed(out)
    want = walsh_truth(name, arg)
    return None if Fraction(out["E"]) == want else f"E = {out['E']}, want {want}"


def check_backend_ext(job, out):
    """At diag(k, 1/k): component j has Ext bracket [w^2 c^2/(k^2 n), w c/k^2]
    with w the height; the backend takes the max of the lower ends and the
    sum of the upper ends."""
    _, name, stretch = job
    if _failed(out):
        return _failed(out)
    k2 = Fraction(stretch) ** 2
    n = len(jobs.SURFACES[name][0])
    cyls = jobs.VERTICAL_CYLINDERS[name]
    lo = max(Fraction(w * w * c * c) / (k2 * n) for _, c, w in cyls)
    hi = sum(Fraction(w * c) / k2 for _, c, w in cyls)
    return None if _bracket_ok(out["bracket"], lo, hi) else "bracket is not the cylinder enclosure"


def check_backend_classify(job, out):
    _, name, l1, l2 = job
    if _failed(out):
        return _failed(out)
    i = jobs.FOLIATION_I[name]
    prod = Fraction(l1) * Fraction(l2)
    want = "Tangent" if prod == i * i else "DisjointBalls" if prod < i * i else "Overlapping"
    return None if out["tag"] == want else f"tag {out['tag']}, want {want}"


def check_backend_probe(job, out):
    _, _name, kind, _l1, _l2 = job
    if _failed(out):
        return _failed(out)
    # transverse foliations: the sup is infinite; otherwise l1 <= l2 on one
    # foliation, so the first ball lies in the second
    want = "ExcludedWitness" if kind == "transverse" else "IncludedCertified"
    return None if out["tag"] == want else f"tag {out['tag']}, want {want}"


# -- cli ---------------------------------------------------------------------


def _results(stdout):
    rec = json.loads(stdout)
    rec.pop("timestamp", None)
    return rec["results"]


def _cli_closed_form(cmd, r):
    """Closed-form checks of one README command's results; None if right."""
    if cmd == "torus-ext":
        return None if r["ext"]["value"] == 0.5 else "Ext((1,0)) at 2i is not 1/2"
    if cmd == "torus-dist":
        truth = teich_truth(0.0, 1.0, 1.0, 2.0)
        ok = r["certified"] and _within(r["distance"]["value"], truth - 1e-9 - SLACK, truth + SLACK)
        return None if ok else "distance is not the acosh closed form"
    if cmd == "tangency":
        pt = r["tangent_point"]
        ok = (r["tangent"] and r["product"]["value"] == "1" and r["i_squared"]["value"] == "1"
              and abs(pt["re"]["value"]) <= 1e-9 and abs(pt["im"]["value"] - 1) <= 1e-9)
        return None if ok else "tangency at level 1 * 1 = 1^2 is not at i"
    if cmd == "triple":
        ok = [r[k]["value"] for k in "rst"] == ["1", "4", "9"]
        return None if ok else "levels are not (1, 4, 9)"
    if cmd == "ratio-curve":
        p, q = (int(x) for x in r["curve"].split(","))
        ok = Fraction(abs(q), abs(p)) == Fraction(r["ratio"]["value"]) == Fraction(3, 2)
        return None if ok and r["error"]["value"] == "0" else "ratio is not 3/2"
    if cmd == "busemann":
        truth = busemann_truth(0.0, 1.0, 1, 0, 1.0, 3.0)
        ok = (r["certified"] and abs(_mp(r["closed_form"]["value"]) - truth) <= SLACK
              and abs(_mp(r["limit_estimate"]["value"]) - truth) <= 2e-9 + SLACK)
        return None if ok else "Busemann value is not -(1/2) log 3"
    if cmd == "ball-limit":
        ok = r["ok"] and r["inside"] + r["outside"] == 20 and r["inconclusive"] == 0
        return None if ok else "ball limit not decided on 20 points"
    if cmd == "origami-info":
        cyl_ok = all(sum(c["circumference"] * c["height"] for c in cs) == 3
                     for cs in r["cylinders"].values())
        ok = (r["cone_orders"] == cone_orders(*jobs.L_ORIGAMI)
              and sum(r["cone_orders"]) == 2 * r["genus"] - 2 and cyl_ok)
        return None if ok else "L-origami genus or cylinder data wrong"
    if cmd == "origami-flow":
        ok = ([r[k]["value"] for k in ("ext_vertical", "ext_horizontal", "product", "area_squared")]
              == ["3/4", "12", "9", "9"])
        return None if ok else "Ext is not n/k^2, n k^2 at stretch 2"
    if cmd == "walsh-e":
        return None if Fraction(r["E"]["value"]) == walsh_truth("L", 1) else "E is not 3/2"
    if cmd == "relation":
        return None if r["tag"] == _torus_tag(1, 0, "1/2", 0, 1, "1") else "wrong relation tag"
    if cmd == "torus-plot":
        return None if r["levels_drawn"] == 3 else "not one curve per level 1, 2, 4"
    raise KeyError(cmd)


# README commands whose results _cli_closed_form checks; the others
# (origami-intersect, growth-check, curve-graph) are compared with pinned.json.
CLI_CLOSED_FORM = frozenset({
    "torus-ext", "torus-dist", "tangency", "triple", "ratio-curve", "busemann", "ball-limit",
    "origami-info", "origami-flow", "walsh-e", "relation", "torus-plot"})


# Fields of the pinned records that are how a result was reached, not the
# result: a correct change may move them.
NOT_RESULTS = frozenset({"path", "fit_residual", "payload"})


def pinned_form(rec):
    """A record with its non-result fields dropped."""
    if isinstance(rec, dict):
        return {k: pinned_form(v) for k, v in rec.items() if k not in NOT_RESULTS}
    if isinstance(rec, list):
        return [pinned_form(v) for v in rec]
    return rec


def matches_pinned(got, want):
    """``got`` equals the pinned ``want``, inexact values within the
    tolerance the record states (relative above 1)."""
    if isinstance(want, dict) and want.get("exact") is False and "tolerance" in want:
        if not isinstance(got, dict) or not isinstance(got.get("value"), (int, float)):
            return False
        tol = max(want["tolerance"], got.get("tolerance", 0)) * max(1.0, abs(want["value"]))
        return abs(got["value"] - want["value"]) <= tol
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(matches_pinned(got[k], v) for k, v in want.items()))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(matches_pinned(g, w) for g, w in zip(got, want)))
    return got == want


def check_cli(job, out):
    """Exit code 0, then the closed form where one exists; otherwise the
    pinned record of the seed commit, compared on its results only."""
    index = job[1]
    cmd = jobs.README_COMMANDS[index][0]
    if _failed(out):
        return _failed(out)
    if out["status"] != 0:
        return f"exit code {out['status']}"
    try:
        r = _results(out["stdout"])
    except (ValueError, KeyError):
        return "output is not a JSON record"
    if cmd in CLI_CLOSED_FORM:
        return _cli_closed_form(cmd, r)
    if not matches_pinned(pinned_form(r), PINNED["cli"][cmd]):
        return "record differs from the pinned record"
    return None


CHECKS = {name[len("check_"):]: fn for name, fn in globals().items() if name.startswith("check_")}


def check(job, out):
    return CHECKS[job[0]](job, out)
