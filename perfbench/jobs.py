"""Seeded job lists for the three workloads.

Pure standard library, so the harness can rebuild any round from the seed
for its oracle checks without importing the package under test.  A round
is a fixed composition of job classes; only the parameters inside each
class come from the seed, so failure counts and rank statistics stay
comparable across seeds.

A job is a tuple whose first entry names its class.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("cli-cold", "torus-sweep", "origami-sweep")

L_ORIGAMI = ([2, 1, 3], [3, 2, 1])
STAIRCASE = ([2, 1, 4, 3, 5], [1, 3, 2, 5, 4])
UNIT_TORUS = ([1], [1])
SURFACES = {"L": L_ORIGAMI, "staircase": STAIRCASE, "unit": UNIT_TORUS}

# Vertical cylinders of the fixed surfaces as (first-row squares (1-based),
# circumference, height), read off the permutations by hand, and the
# intersection number of the canonical vertical and horizontal foliations.
VERTICAL_CYLINDERS = {
    "L": (((1, 3), 2, 1), ((2,), 1, 1)),
    "staircase": (((1,), 1, 1), ((2, 3), 2, 1), ((4, 5), 2, 1)),
}
FOLIATION_I = {"L": 3, "staircase": 5}

# The 15 commands of the README, in README order.  ``{tmp}`` is replaced
# by a scratch directory inside the checkout.
README_COMMANDS = (
    ("torus-ext", "--tau", "0+2i", "--curve", "1,0"),
    ("torus-dist", "--tau1", "0+1i", "--tau2", "1+2i"),
    ("tangency", "--curve1", "1,0", "--level1", "1", "--curve2", "0,1", "--level2", "1"),
    ("triple", "--i", "2,3,6"),
    ("ratio-curve", "--alpha", "1,0", "--beta", "0,1", "--target", "3/2"),
    ("busemann", "--tau0", "0+1i", "--curve", "1,0", "--tau", "1+3i"),
    ("ball-limit", "--tau0", "0+1i", "--curve", "1,0", "--samples", "20"),
    ("origami-info", "--h", "[2,1,3]", "--v", "[3,2,1]"),
    ("origami-flow", "--h", "[2,1,3]", "--v", "[3,2,1]", "--kind", "geodesic", "--param", "2"),
    ("origami-intersect", "--h", "[2,1,3]", "--v", "[3,2,1]", "--slope1", "1", "--slope2", "vert"),
    ("growth-check", "--h", "[2,1,3]", "--v", "[3,2,1]"),
    ("walsh-e", "--h", "[2,1,3]", "--v", "[3,2,1]", "--slope", "0", "--square", "1"),
    ("curve-graph", "--h", "[2,1,3]", "--v", "[3,2,1]"),
    ("relation", "--model", "torus", "--curve1", "1,0", "--level1", "1/2",
     "--curve2", "0,1", "--level2", "1"),
    ("torus-plot", "--curve", "1,1", "--levels", "1,2,4", "--out", "{tmp}/plot.svg"),
)

KERCKHOFF_TOL = 1e-9
KERCKHOFF_CAP = 10**6

# (Re tau2, Im tau2) paired with tau1 = i.  At the seed commit the first
# four certify wrong values and the next two exhaust the cap.
CUSP_POINTS = (
    (0.3, 1e-5), (0.7, 1e-6), (1 / 3, 1e-8), (0.25, 1e-6),
    (5.0, 1e-3), (0.3, 1e-7),
    (0.3, 1e-3), (-1.4, 1e-3), (2.7, 1e-2), (0.123, 1e-4),
    (0.0, 1e3), (0.5, 1e6), (3.3, 1e8),
)
# Passes over the cusp list per round.  The two cap-exhausting pairs take
# most of a round's time and so set its goodput; with one pass that rests on
# two jobs about 10 s apart, and the machine's speed over those seconds
# moved it by up to 30 % between runs.
CUSP_PASSES = 2

# Job counts per round: (full, tiny).
TORUS_COUNTS = {
    "kerckhoff": (3000, 30),
    "ext_sup": (200, 5),
    "classify": (200, 8),
    "probe": (200, 8),
    "busemann": (200, 5),
    "equidistance": (14, 1),
    "ball_limit": (20, 2),
}
ORIGAMI_COUNTS = {
    "fresh": (200, 6),
    "unit_table": (30, 2),
    "fixed_table": (10, 2),
    "remark": (8, 2),
    "walsh": (30, 3),
    "backend_ext": (10, 2),
    "backend_classify": (10, 2),
    "backend_probe": (10, 2),
}
FRESH_N = (3, 800)
TINY_FRESH_N = (3, 40)
TINY_CAP = 10**4
# Equidistance checks form the tail of torus-sweep: the eight slowest cusp
# jobs take the top ranks, and with 14 checks of about 0.15 s each the
# percentile with ten jobs beyond it falls inside this one class, not on
# the edge between classes, where it moved with the seed.
EQUIDISTANCE_SAMPLES = 10


def rng_for(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rnd}")


def _log_uniform_strata(rng, k, lo, hi):
    """k values, one per equal-width stratum of [log lo, log hi], shuffled."""
    a, b = math.log(lo), math.log(hi)
    vals = [math.exp(a + (i + rng.random()) * (b - a) / k) for i in range(k)]
    rng.shuffle(vals)
    return vals


def interleave(rng, jobs, slow_classes):
    """Shuffle, then spread the jobs of ``slow_classes`` evenly through the
    round, so the cheap jobs run throughout its wall time rather than in a
    few bursts, and their timings sample the whole run."""
    slow = [j for j in jobs if j[0] in slow_classes]
    cheap = [j for j in jobs if j[0] not in slow_classes]
    rng.shuffle(slow)
    rng.shuffle(cheap)
    out = []
    step = len(cheap) / (len(slow) + 1)
    taken = 0
    for i, job in enumerate(slow):
        upto = round((i + 1) * step)
        out.extend(cheap[taken:upto])
        taken = upto
        out.append(job)
    out.extend(cheap[taken:])
    return out


def primitive_vectors(bound):
    """Primitive (p, q) with 0 <= p <= bound, |q| <= bound, canonical sign."""
    out = []
    for p in range(0, bound + 1):
        for q in range(-bound, bound + 1):
            if (p, q) != (0, 0) and math.gcd(p, abs(q)) == 1 and (p > 0 or q == 1):
                out.append((p, q))
    return out


UNIT_DIRECTIONS = primitive_vectors(8)  # the 88 directions of criterion 11


def _level(rng, hi=9):
    return f"{rng.randint(1, hi)}/{rng.randint(1, 4)}"


def _frac(text):
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def busemann_closed(x0, y0, p, q, x, y):
    """(1/2) log Ext_x / Ext_x0 of the curve (p, q), in floats."""
    def ext(a, b):
        re = p + q * a
        return (re * re + (q * b) ** 2) / b
    return 0.5 * math.log(ext(x, y) / ext(x0, y0))


def torus_round(seed: int, rnd: int, tiny: bool = False):
    rng = rng_for("torus-sweep", seed, rnd)
    n = {k: v[1] if tiny else v[0] for k, v in TORUS_COUNTS.items()}
    cap = TINY_CAP if tiny else KERCKHOFF_CAP
    jobs = []
    k = n["kerckhoff"]
    ys1 = _log_uniform_strata(rng, k, 0.05, 3.0)
    ys2 = _log_uniform_strata(rng, k, 0.05, 3.0)
    for y1, y2 in zip(ys1, ys2):
        jobs.append(("kerckhoff", rng.uniform(-2, 2), y1, rng.uniform(-2, 2), y2,
                     KERCKHOFF_TOL, cap))
    for x, y in CUSP_POINTS * CUSP_PASSES:
        jobs.append(("cusp", 0.0, 1.0, x, y, KERCKHOFF_TOL, cap))
    curves = primitive_vectors(5)
    for y in _log_uniform_strata(rng, n["ext_sup"], 0.25, 4.0):
        p, q = rng.choice(curves)
        x = rng.uniform(-2, 2)
        w = f"{rng.randint(1, 4)}/{rng.randint(1, 3)}"
        a, b = _frac(w)
        size = (a / b) ** 2 * ((p + q * x) ** 2 + (q * y) ** 2) / y
        # relative tolerance: an absolute 1e-9 on values near 1e3 is below
        # what doubles resolve, and only exhausts the cap
        jobs.append(("ext_sup", x, y, p, q, w, 1e-10 * max(1.0, size)))
    small = primitive_vectors(3)
    for i in range(n["classify"]):
        c1 = rng.choice(small)
        l1 = _level(rng)
        kind = i % 4
        if kind == 0:  # same curve: nested
            c2, l2 = c1, _level(rng)
        else:
            c2 = rng.choice([c for c in small if c != c1])
            inter = abs(c1[0] * c2[1] - c1[1] * c2[0])
            a, b = _frac(l1)
            # kind 1: exactly tangent; otherwise a random level
            l2 = f"{inter * inter * b}/{a}" if kind == 1 else _level(rng)
        jobs.append(("classify", c1[0], c1[1], l1, c2[0], c2[1], l2))
    for i in range(n["probe"]):
        c1 = rng.choice(small)
        a, b = rng.randint(1, 9), rng.randint(1, 4)
        l1 = f"{a}/{b}"
        kind = i % 3
        if kind == 0:  # same curve, larger level: included
            c2, l2 = c1, f"{a * rng.randint(2, 5)}/{b}"
        elif kind == 1:  # same curve, smaller level: excluded
            c2, l2 = c1, f"{a}/{b * rng.randint(2, 5)}"
        else:  # transverse: excluded
            c2, l2 = rng.choice([c for c in small if c != c1]), _level(rng)
        jobs.append(("probe", c1[0], c1[1], l1, c2[0], c2[1], l2))
    for _ in range(n["busemann"]):
        p, q = rng.choice(small)
        jobs.append(("busemann", rng.uniform(-2, 2), math.exp(rng.uniform(-1, 1)), p, q,
                     rng.uniform(-2, 2), math.exp(rng.uniform(-1, 1)), 1e-9))
    for _ in range(n["equidistance"]):
        p, q = rng.choice([(1, 0), (0, 1), (1, 1), (2, 1)])
        s = f"{rng.randint(1, 4)}/{rng.randint(1, 3)}"
        a, b = _frac(s)
        t = f"{a * rng.randint(2, 8)}/{b}"
        jobs.append(("equidistance", p, q, s, t, EQUIDISTANCE_SAMPLES, rng.randint(0, 10**6)))
    for _ in range(n["ball_limit"]):
        p, q = rng.choice(small)
        x0, y0 = rng.uniform(-1, 1), math.exp(rng.uniform(-0.5, 0.5))
        pts = []
        while len(pts) < 20:
            x, y = rng.uniform(-3, 3), math.exp(rng.uniform(-1.5, 1.5))
            if abs(busemann_closed(x0, y0, p, q, x, y)) >= 1e-3:
                pts.append((x, y))
        jobs.append(("ball_limit", x0, y0, p, q, tuple(pts)))
    # the cusp list, the equidistance checks and the ball-limit sweeps
    return interleave(rng, jobs, ("cusp", "equidistance", "ball_limit"))


def _connected(h, v):
    n = len(h)
    seen = {0}
    stack = [0]
    hi = [0] * n
    vi = [0] * n
    for i in range(n):
        hi[h[i]] = i
        vi[v[i]] = i
    while stack:
        x = stack.pop()
        for y in (h[x], v[x], hi[x], vi[x]):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def random_origami(rng, n):
    """1-based one-line arrays (h, v) of a connected n-square origami."""
    while True:
        h = list(range(n))
        v = list(range(n))
        rng.shuffle(h)
        rng.shuffle(v)
        if _connected(h, v):
            return [x + 1 for x in h], [x + 1 for x in v]


REMARK_MATRICES = ((0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0), (1, 0, 0, -1),
                   (0, -1, -1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (2, 1, 1, 1))
TABLE_SLOPES = ("0", "vert", "1", "-1", "2", "1/2", "-2", "3")


def origami_round(seed: int, rnd: int, tiny: bool = False):
    rng = rng_for("origami-sweep", seed, rnd)
    n = {k: v[1] if tiny else v[0] for k, v in ORIGAMI_COUNTS.items()}
    lo, hi = TINY_FRESH_N if tiny else FRESH_N
    jobs = []
    for size in _log_uniform_strata(rng, n["fresh"], lo, hi + 1):
        h, v = random_origami(rng, min(int(size), hi))
        if rng.random() < 0.5:
            flow = ("geodesic", f"{rng.randint(2, 7)}/{rng.randint(1, 5)}")
        else:
            flow = ("horocycle", f"{rng.randint(-9, 9)}/{rng.randint(1, 5)}")
        jobs.append(("fresh", h, v, flow))
    # one direction from each of 12 strata of trace length |p| + |q|, each
    # stratum cycled in its own shuffled order: every direction recurs
    # about equally often, and every table costs about the same, so the
    # tail percentile (which falls among these tables) does not move with
    # the seed
    by_length = sorted(UNIT_DIRECTIONS, key=lambda d: (abs(d[0]) + abs(d[1]), d))
    strata = [by_length[len(by_length) * t // 12:len(by_length) * (t + 1) // 12]
              for t in range(12)]
    strata = [rng.sample(st, len(st)) for st in strata]
    for j in range(n["unit_table"]):
        dirs = [st[j % len(st)] for st in strata]
        rng.shuffle(dirs)
        pairs = [tuple(rng.sample(range(12), 2)) for _ in range(4)]
        jobs.append(("unit_table", dirs, pairs))
    for i in range(n["fixed_table"]):
        name = ("L", "staircase")[i % 2]
        slopes = rng.sample(TABLE_SLOPES, 4)
        jobs.append(("fixed_table", name, slopes))
    for i in range(n["remark"]):  # each matrix once, on alternating surfaces
        m = REMARK_MATRICES[i % len(REMARK_MATRICES)]
        name = ("L", "staircase")[i % 2]
        jobs.append(("remark", name, m, rng.sample(TABLE_SLOPES, 3)))
    walsh_dirs = [d for d in UNIT_DIRECTIONS if d[0] > 0]
    for i in range(n["walsh"]):
        if i % 3:
            jobs.append(("walsh", "unit", rng.choice(walsh_dirs)))
        else:
            name = ("L", "staircase")[(i // 3) % 2]
            jobs.append(("walsh", name, rng.randint(1, len(SURFACES[name][0]))))
    for i in range(n["backend_ext"]):
        name = ("L", "staircase")[i % 2]
        jobs.append(("backend_ext", name, f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"))
    for i in range(n["backend_classify"]):
        name = ("L", "staircase")[i % 2]
        l1 = _level(rng)
        if i % 4 < 2:  # exactly tangent: l1 * l2 = i^2
            a, b = _frac(l1)
            l2 = f"{FOLIATION_I[name] ** 2 * b}/{a}"
        else:
            l2 = _level(rng)
        jobs.append(("backend_classify", name, l1, l2))
    for i in range(n["backend_probe"]):
        name = ("L", "staircase")[i % 2]
        k = len(VERTICAL_CYLINDERS[name])
        a, b = rng.randint(1, 9), rng.randint(1, 4)
        kind = ("transverse", "included", "within_bound")[i % 3]
        if kind == "transverse":
            l2 = _level(rng)
        elif kind == "included":  # l2 >= k^2 l1, the backend's certified bound
            l2 = f"{a * k * k * rng.randint(1, 3)}/{b}"
        else:  # l1 < l2 < k^2 l1: included, but below the certified bound
            l2 = f"{a * (k * k + 1)}/{2 * b}"
        jobs.append(("backend_probe", name, kind, f"{a}/{b}", l2))
    return interleave(rng, jobs, ("unit_table", "fixed_table", "remark"))


def cli_round(seed: int, rnd: int, tiny: bool = False):
    """Two passes over the README commands, each in its own seeded order."""
    rng = rng_for("cli-cold", seed, rnd)
    order = []
    for _ in range(2):
        p = list(range(len(README_COMMANDS)))
        rng.shuffle(p)
        order += p
    if tiny:
        order = order[:5]
    return [("cli", i) for i in order]


ROUNDS = {"cli-cold": cli_round, "torus-sweep": torus_round, "origami-sweep": origami_round}
