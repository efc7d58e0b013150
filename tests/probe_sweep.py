"""Seeded inclusion-probe sweeps over both backends, with each witness checked
exactly, seeded Kerckhoff-distance sweeps checked against mpmath and seeded
ext_sup sweeps checked against the exact sup.  pytest does not collect this
file; run it from the repository root:

    PYTHONPATH=src python tests/probe_sweep.py [--dump FILE]

Origami sweeps, 900 probes each, over L = ([2,1,3], [3,2,1]),
([2,1,4,3], [1,3,2,4]) and ([2,3,1,5,4], [4,2,5,1,3]), each with its
foliations in this order: canonical vertical, canonical horizontal, every
horizontal core, then every vertical core, the cores at weight 1.  One
random.Random(seed) draws per probe, in this order: the surface (choice), f1
(choice), f2 (choice), then k1 and k2 (randint(-K, K)), and the levels are
2^k1, 2^k2.  The sweeps are (seed, K) = (11, 6), (12, 60) and (13, 120).

Torus sweep, 2,000 probes from random.Random(7), over the primitive curves
(p, q) with |p|, |q| <= 7 (sorted by p, then q).  Per probe, in this order:
f1's curve (choice; weight 1), then random() < 0.2 puts f2 on f1's curve, else
f2's curve is a choice; f2's weight (randint(1, 3)); then k1 and k2
(randint(-60, 60)), and the levels are 2^k1, 2^k2.

Kerckhoff sweeps, 3,000 pairs each, one random.Random(seed) drawing per
pair Re tau1, Im tau1, Re tau2, Im tau2 (and the tol, where it is drawn):
  - far, Random(3): Re = choice((-1.0, 1.0)) * 10^uniform(-3, 300), Im =
    10^uniform(-161.8, 300), tol 1e-9, where most pairs leave the doubles;
  - near-cusp, Random(4): Re = uniform(-3, 3), Im = 10^uniform(-8, 8), tol =
    10^uniform(-12, -2).

ext_sup sweeps, 3,000 pairs each, one random.Random(seed) drawing per pair
tau (Re, then Im, as the Kerckhoff sweep of the same name draws a point), the
curve (choice, from the torus sweep's list) and the weight a/b (randint(1, 5),
a then b): far, Random(103), and near-cusp, Random(104); tol 1e-9, cap 10^4.

Prints each sweep's tag counts, a pair counted as transverse when its origami
foliations have different directions (most, not all, of those cross) or its
torus foliations have i(f1, f2) > 0, and each Kerckhoff sweep's certified,
range and precision counts, with the pairs certified at the aimed class
(nodes 1, witness not 0/1), the nodes reported and the classes whose ratio
certified_sup evaluated, and each ext_sup sweep's counts by reason and its
mean time per call.  Exits 1 if an ExcludedWitness fails its exact check
(torus: torus.extremal_length at the witness's exact Fraction coordinates;
origami: Ext_f1's cylinder upper end and Ext_f2's flat lower end, in Fractions
from the witness's gram integers), if a transverse probe of either backend is
Inconclusive, if a certified Kerckhoff value lies outside [d - tol, d] for
the distance d at the double inputs (mpmath, 60 digits), up to 1e-12 (1 + d),
or if a Kerckhoff sweep certifies fewer pairs than its floor in
KERCKHOFF_FLOORS; and for ext_sup, if a result's [lower, upper] misses the
sup w^2 Ext_tau(f), exact in Fractions at the double inputs, a certified
lower lies below it by more than tol, a reason is precision, or a sweep
certifies fewer pairs than its floor in EXT_SUP_FLOORS.
--dump FILE writes one line per probe (tag, witness, witness bracket, bound;
a torus witness as its two coordinates, each the str of a Fraction), per
Kerckhoff pair (reason, witness, nodes, value) and per ext_sup pair (reason,
witness, nodes, lower, upper), to compare two source trees.
"""
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import mpmath

from horoteich import horolab as H
from horoteich import origami as O
from horoteich import torus as T
from horoteich.kernel import UpperHalfPoint

ORIGAMI_SWEEPS = ((11, 6), (12, 60), (13, 120))
KERCKHOFF_SWEEPS = {
    "far": (3, lambda rng: (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3, 300),
                            10.0 ** rng.uniform(-161.8, 300)), lambda rng: 1e-9),
    "near-cusp": (4, lambda rng: (rng.uniform(-3, 3), 10.0 ** rng.uniform(-8, 8)),
                  lambda rng: 10.0 ** rng.uniform(-12, -2)),
}
KERCKHOFF_FLOORS = {"far": 1018, "near-cusp": 3000}  # certified pairs
EXT_SUP_SEEDS = {"far": 103, "near-cusp": 104}  # tau drawn as KERCKHOFF_SWEEPS draws it
EXT_SUP_FLOORS = {"far": 37, "near-cusp": 2210}  # certified pairs
TORUS_CURVES = sorted((p, q) for p in range(-7, 8) for q in range(-7, 8)
                      if math.gcd(p, q) == 1)


def origami_foliations(o):
    return [O.canonical_vertical_foliation(o), O.canonical_horizontal_foliation(o)] + [
        O.MulticurveFoliation(((Fraction(1), c),))
        for d in (O.HORIZONTAL, O.VERTICAL) for c in O.cylinders(o, d)]


def origami_witness_holds(o, x, f1, l1, f2, l2):
    """Ext_f1 <= sum of w^2 circumference / modulus-height terms <= l1, and
    Ext_f2 >= the largest flat bound w^2 |deform hol|^2 / (det n) > l2."""
    a, b, c, d = x.gram
    hi = sum(w * w * cyl.circumference * (a if cyl.direction == O.HORIZONTAL else c)
             / (d * cyl.height) for w, cyl in f1.components)
    lo = 0
    for w, cyl in f2.components:
        hx, hy = O.core_trace(o, cyl).holonomy
        lo = max(lo, w * w * Fraction(a * hx * hx + 2 * b * hx * hy + c * hy * hy, d * o.n))
    return hi <= l1 and lo > l2


def origami_sweep(seed, k, dump):
    rng = random.Random(seed)
    cases = [(o, H.OrigamiBackend(o), origami_foliations(o)) for o in (
        O.build_origami([2, 1, 3], [3, 2, 1]), O.build_origami([2, 1, 4, 3], [1, 3, 2, 4]),
        O.build_origami([2, 3, 1, 5, 4], [4, 2, 5, 1, 3]))]
    tags, bad = Counter(), 0
    for _ in range(900):
        o, be, fols = rng.choice(cases)
        f1, f2 = rng.choice(fols), rng.choice(fols)
        l1, l2 = Fraction(2) ** rng.randint(-k, k), Fraction(2) ** rng.randint(-k, k)
        res = H.inclusion_probe(H.HoroBall(f1, l1), H.HoroBall(f2, l2), be)
        tags[res.tag, "transverse" if f1.direction != f2.direction else "parallel"] += 1
        if res.tag == H.EXCLUDED_WITNESS:
            bad += not origami_witness_holds(o, res.witness, f1, l1, f2, l2)
        w = res.witness._m if res.witness is not None else None
        dump.append(f"origami {seed} {res.tag} {w} {res.witness_ext} {res.bound}")
    left = tags[H.INCONCLUSIVE, "transverse"]
    print(f"origami Random({seed}), levels 2^+-{k}: {summary(tags)}; "
          f"{bad} witnesses fail the exact check, {left} transverse Inconclusive")
    return bad + left


def torus_sweep(dump):
    rng, be = random.Random(7), H.TorusBackend()
    tags, bad = Counter(), 0
    for _ in range(2000):
        c1 = rng.choice(TORUS_CURVES)
        c2 = c1 if rng.random() < 0.2 else rng.choice(TORUS_CURVES)
        f1 = T.WeightedTorusFoliation(Fraction(1), T.TorusCurve(*c1))
        f2 = T.WeightedTorusFoliation(Fraction(rng.randint(1, 3)), T.TorusCurve(*c2))
        l1, l2 = Fraction(2) ** rng.randint(-60, 60), Fraction(2) ** rng.randint(-60, 60)
        res = H.inclusion_probe(H.HoroBall(f1, l1), H.HoroBall(f2, l2), be)
        tags[res.tag, "transverse" if be.intersect(f1, f2) else "parallel"] += 1
        p, w = res.witness, None
        if p is not None:
            w = f"{p.x} {p.y}"
            x = UpperHalfPoint(Fraction(p.x), Fraction(p.y))
            bad += not (T.extremal_length(x, f1) <= l1 and T.extremal_length(x, f2) > l2)
        dump.append(f"torus {res.tag} {w} {res.witness_ext} {res.bound}")
    left = tags[H.INCONCLUSIVE, "transverse"]
    print(f"torus Random(7), levels 2^+-60: {summary(tags)}; "
          f"{bad} witnesses fail the exact check, {left} transverse Inconclusive")
    return bad + left


def counting_walks(counts):
    """torus.certified_sup, wrapped so that each ratio it evaluates adds 1 to
    counts["evaluated"]."""
    sup = T.certified_sup

    def counted(ratio, *args):
        def r(p, q):
            counts["evaluated"] += 1
            return ratio(p, q)
        return sup(r, *args)
    return counted


def kerckhoff_truth(a, b):
    with mpmath.workdps(60):
        dx, y1, y2 = mpmath.mpf(a.x) - mpmath.mpf(b.x), mpmath.mpf(a.y), mpmath.mpf(b.y)
        return mpmath.acosh(1 + (dx * dx + (y1 - y2) ** 2) / (2 * y1 * y2)) / 2


def kerckhoff_sweep(name, dump):
    seed, point, tol_draw = KERCKHOFF_SWEEPS[name]
    rng, counts, wrong = random.Random(seed), Counter(), 0
    sup, T.certified_sup = T.certified_sup, counting_walks(counts)
    try:
        for _ in range(3000):
            a, b = UpperHalfPoint(*point(rng)), UpperHalfPoint(*point(rng))
            tol = tol_draw(rng)
            r = T.kerckhoff_distance(a, b, tol)
            counts[r.reason or "certified"] += 1
            counts["aimed"] += r.certified and r.nodes == 1 and r.witness != T.TorusCurve(0, 1)
            counts["nodes"] += r.nodes
            if r.certified:
                d = kerckhoff_truth(a, b)
                slack = 1e-12 * (1 + d)
                wrong += not d - tol - slack <= r.value <= d + slack
            dump.append(f"kerckhoff {name} {r.reason} {r.witness.p},{r.witness.q} {r.nodes} "
                        f"{r.value.hex()}")
    finally:
        T.certified_sup = sup
    short = max(KERCKHOFF_FLOORS[name] - counts["certified"], 0)
    print(f"kerckhoff {name} Random({seed}): {counts['certified']} certified "
          f"({counts['aimed']} at the aimed class, {short} short of the floor), "
          f"{counts['range']} range, {counts['precision']} precision; {counts['nodes']} nodes, "
          f"{counts['evaluated']} classes evaluated; {wrong} certified values wrong")
    return wrong + short


def ext_sup_sweep(name, dump):
    seed, point = EXT_SUP_SEEDS[name], KERCKHOFF_SWEEPS[name][1]
    rng, counts, wrong, spent = random.Random(seed), Counter(), 0, 0.0
    for _ in range(3000):
        tau = UpperHalfPoint(*point(rng))
        (p, q), w = rng.choice(TORUS_CURVES), Fraction(rng.randint(1, 5), rng.randint(1, 5))
        f = T.WeightedTorusFoliation(w, T.TorusCurve(p, q))
        t = time.perf_counter()
        r = T.ext_sup_enumeration(tau, f, 1e-9, 10**4)
        spent += time.perf_counter() - t
        counts[r.reason or "certified"] += 1
        x, y = Fraction(tau.x), Fraction(tau.y)
        truth = w * w * ((p + q * x) ** 2 + (q * y) ** 2) / y
        wrong += not r.lower <= truth <= r.upper or r.certified and r.lower < truth - Fraction(1e-9)
        dump.append(f"ext_sup {name} {r.reason} {r.witness.p},{r.witness.q} {r.nodes} "
                    f"{r.lower.hex()} {r.upper.hex()}")
    short = max(EXT_SUP_FLOORS[name] - counts["certified"], 0)
    print(f"ext_sup {name} Random({seed}): {counts['certified']} certified ({short} short of "
          f"the floor), {counts['range']} range, {counts['tolerance']} tolerance, "
          f"{counts['precision']} precision; {spent / 3000 * 1e6:.1f} us a call; "
          f"{wrong} results wrong")
    return wrong + short + counts["precision"]


def summary(tags):
    return ", ".join(f"{n} {tag} ({kind})" for (tag, kind), n in sorted(tags.items()))


def main(argv):
    dump, failures = [], 0
    for seed, k in ORIGAMI_SWEEPS:
        t = time.perf_counter()
        failures += origami_sweep(seed, k, dump)
        print(f"  {time.perf_counter() - t:.2f} s")
    t = time.perf_counter()
    failures += torus_sweep(dump)
    print(f"  {time.perf_counter() - t:.2f} s")
    for name in KERCKHOFF_SWEEPS:
        t = time.perf_counter()
        failures += kerckhoff_sweep(name, dump)
        print(f"  {time.perf_counter() - t:.2f} s")
    for name in EXT_SUP_SEEDS:
        t = time.perf_counter()
        failures += ext_sup_sweep(name, dump)
        print(f"  {time.perf_counter() - t:.2f} s")
    if argv[:1] == ["--dump"]:
        with open(argv[1], "w") as out:
            out.write("\n".join(dump) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
