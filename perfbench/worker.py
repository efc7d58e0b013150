"""Worker process: imports the package, runs seeded rounds of one in-process
workload as a single closed-loop client, and prints its raw results as JSON.

Reads a JSON spec on stdin:
  {"workload": "torus-sweep" | "origami-sweep" | "cli-inproc",
   "seed": int, "rounds": int, "trace": bool, "tiny": bool,
   "setup": bool (take set-up samples, imports.py, between jobs, each
                  after one timing of speed.cold_reference),
   "tmp": directory for files the jobs write}

Nothing here judges correctness; the harness checks every output against
its oracle after this process has exited.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time
from fractions import Fraction

import imports
import jobs
from speed import Reference, SpeedLog, cold_reference
from spans import NullTracer, Tracer

PACKAGE_MODULES = {
    "cli-inproc": ("cli",),
    "torus-sweep": ("torus", "horolab", "kernel"),
    "origami-sweep": ("origami", "curvegraph", "horolab", "kernel"),
}
SPEC = {}
# Set by load_package: the horoteich modules the workload calls.
cli = curvegraph = horolab = kernel = origami = torus = None


def load_package(workload):
    """Import the package modules a workload calls."""
    globals().update({m: importlib.import_module("horoteich." + m)
                      for m in PACKAGE_MODULES[workload]})


def _origami(name):
    h, v = jobs.SURFACES[name]
    return origami.build_origami(h, v)


def _slope(text):
    return None if text == "vert" else Fraction(text)


def _fol(p, q, w=Fraction(1)):
    return torus.WeightedTorusFoliation(w, torus.TorusCurve(p, q))


def _bracket(b):
    return [b.lo, b.hi]


class Runner:
    """Executes jobs; ``tr`` is a Tracer or a NullTracer."""

    def __init__(self, tr, workload):
        self.tr = tr
        self.recording = isinstance(tr, Tracer)
        self.recorded = {"points": [], "charts": [], "brackets": []}
        self.surfaces = {}
        if workload == "origami-sweep":
            self.surfaces = {k: _origami(k) for k in jobs.SURFACES}
            self.backends = {k: horolab.OrigamiBackend(o) for k, o in self.surfaces.items()}
        if workload == "cli-inproc" and self.recording:
            _trace_cli_glue(tr)

    # -- torus-sweep -------------------------------------------------------

    def kerckhoff(self, x1, y1, x2, y2, tol, cap):
        t1, t2 = kernel.UpperHalfPoint(x1, y1), kernel.UpperHalfPoint(x2, y2)
        if self.recording and len(self.recorded["points"]) < 4000:
            self.recorded["points"].append((t1, t2))
        with self.tr.span("torus.kerckhoff"):
            try:
                r = torus.kerckhoff_distance(t1, t2, tol=tol, cap=cap)
            except torus.EnumerationBudgetError as e:
                self.tr.count("torus.sup_nodes", cap)
                self.tr.count("torus.budget_exhausted")
                return {"budget": True, "lower": e.lower_bound}
        self.tr.count("torus.sup_nodes", r.nodes)
        return {"value": r.value, "certified": r.certified, "nodes": r.nodes}

    cusp = kerckhoff  # the fixed near-cusp and far-up list, same call

    def ext_sup(self, x, y, p, q, w, tol):
        tau = kernel.UpperHalfPoint(x, y)
        with self.tr.span("torus.ext_sup"):
            r = torus.ext_sup_enumeration(tau, _fol(p, q, Fraction(w)), tol=tol)
        self.tr.count("torus.sup_nodes", r.nodes)
        return {"lower": r.lower, "upper": r.upper, "certified": r.certified, "nodes": r.nodes}

    def _balls(self, p1, q1, l1, p2, q2, l2):
        return (horolab.HoroBall(_fol(p1, q1), Fraction(l1)),
                horolab.HoroBall(_fol(p2, q2), Fraction(l2)))

    def classify(self, *args):
        h1, h2 = self._balls(*args)
        with self.tr.span("horolab.classify"):
            rel = horolab.classify(h1, h2, horolab.TorusBackend())
        return {"tag": rel.tag}

    def probe(self, *args):
        h1, h2 = self._balls(*args)
        with self.tr.span("horolab.probe"):
            res = horolab.inclusion_probe(h1, h2, horolab.TorusBackend())
        return {"tag": res.tag}

    def busemann(self, x0, y0, p, q, x, y, tol):
        a, b = kernel.UpperHalfPoint(x0, y0), kernel.UpperHalfPoint(x, y)
        with self.tr.span("horolab.busemann"):
            est = horolab.busemann_estimate(a, _fol(p, q), b, horolab.TorusBackend(), tol=tol)
        self.tr.count("horolab.busemann_steps", len(est.trace))
        return {"value": est.value, "certified": est.certified, "steps": len(est.trace)}

    def equidistance(self, p, q, s, t, samples, seed):
        with self.tr.span("torus.equidistance"):
            rep = torus.equidistance_check(_fol(p, q), Fraction(s), Fraction(t),
                                           samples=samples, tol=1e-6, seed=seed)
        return {"ok": rep.ok, "distances": rep.distances, "unique": rep.unique_feet}

    def ball_limit(self, x0, y0, p, q, pts):
        base = kernel.UpperHalfPoint(x0, y0)
        sample = [kernel.UpperHalfPoint(x, y) for x, y in pts]
        if self.recording and len(self.recorded["charts"]) < 2000:
            _, chart, _ = torus.torus_ray(base, _fol(p, q))
            self.recorded["charts"].extend((chart, pt) for pt in sample)
        with self.tr.span("torus.ball_limit"):
            rep = torus.metric_ball_limit_check(base, _fol(p, q), sample)
        return {"ok": rep.ok, "classes": [e.classification for e in rep.entries],
                "nested": all(e.nested for e in rep.entries)}

    # -- origami-sweep -----------------------------------------------------

    def fresh(self, h, v, flow):
        tr = self.tr
        with tr.span("origami.build"):
            o = origami.build_origami(h, v)
        tr.count("origami.squares", o.n)
        with tr.span("origami.genus"):
            genus, cones = o.genus, o.singularities
        x = origami.MarkedFlatSurface.base_point(o)
        kind, param = flow
        if kind == "geodesic":
            y = origami.geodesic_flow(x, stretch=Fraction(param))
        else:
            y = origami.horocycle_flow(x, Fraction(param))
        cyl_out = {}
        cores = []
        for d in (origami.HORIZONTAL, origami.VERTICAL):
            with tr.span("origami.cylinders"):
                cyls = origami.cylinders(o, d)
            cyl_out[d] = [[c.circumference, c.height] for c in cyls]
            for c in cyls:
                t = self._core(o, c)
                with tr.span("origami.ext_bracket"):
                    b0 = origami.ext_bracket(t, x)
                with tr.span("origami.ext_bracket"):
                    b1 = origami.ext_bracket(t, y)
                if self.recording and len(self.recorded["brackets"]) < 2000:
                    self.recorded["brackets"].extend((b0, b1))
                cores.append([d, c.circumference, c.height, list(t.holonomy),
                              len(t.segments), _bracket(b0), _bracket(b1)])
        return {"n": o.n, "genus": genus, "cones": list(cones), "cyl": cyl_out, "cores": cores}

    def _table(self, traces):
        ids = list(range(len(traces)))
        with self.tr.span("curvegraph.table"):
            cs = curvegraph.curve_set_from_traces(ids, traces)
        self.tr.count("curvegraph.pairs", len(ids) * (len(ids) - 1))
        return cs

    def _graph(self, cs, pairs):
        with self.tr.span("curvegraph.graph"):
            g = curvegraph.build_graph(cs)
            dist = [curvegraph.graph_distance(g, a, b) for a, b in pairs]
        return [d if d != curvegraph.UNREACHABLE else "inf" for d in dist]

    def _trace(self, o, square, slope):
        with self.tr.span("origami.trace"):
            t = origami.robust_trace(o, square, slope)
        self.tr.count("origami.trace_segments", len(t.segments))
        return t

    def _core(self, o, cyl):
        with self.tr.span("origami.trace"):
            t = origami.core_trace(o, cyl)
        self.tr.count("origami.trace_segments", len(t.segments))
        return t

    def unit_table(self, dirs, pairs):
        o = self.surfaces["unit"]
        traces = [self._trace(o, 0, None if a == 0 else Fraction(b, a)) for a, b in dirs]
        cs = self._table(traces)
        return {"matrix": [list(r) for r in cs.i_matrix], "dist": self._graph(cs, pairs)}

    def _fixed_curves(self, name, slopes):
        o = self.surfaces[name]
        traces = []
        for d in (origami.HORIZONTAL, origami.VERTICAL):
            for c in origami.cylinders(o, d):
                traces.append(self._core(o, c))
        traces += [self._trace(o, 0, _slope(s)) for s in slopes]
        return o, traces

    def fixed_table(self, name, slopes):
        _, traces = self._fixed_curves(name, slopes)
        cs = self._table(traces)
        n = len(traces)
        pairs = [(0, n - 1), (1, n - 2), (n - 1, n - 2)]
        return {"matrix": [list(r) for r in cs.i_matrix], "dist": self._graph(cs, pairs)}

    def _crossings(self, traces):
        n = len(traces)
        with self.tr.span("origami.crossing"):
            m = [[origami.crossing_number(traces[i], traces[j]) for j in range(n)]
                 for i in range(n)]
        self.tr.count("origami.crossing_pairs", n * n)
        return m

    def remark(self, name, m, slopes):
        o, traces = self._fixed_curves(name, slopes)
        with self.tr.span("origami.remark"):
            act = origami.remark(o, kernel.Mat2(*m))
            mapped = [act.map_trace(t) for t in traces]
        return {"target": [[x + 1 for x in act.target.h], [x + 1 for x in act.target.v]],
                "dirs": [list(t.direction) for t in traces],
                "mapped_dirs": [list(t.direction) for t in mapped],
                "before": self._crossings(traces), "after": self._crossings(mapped)}

    def walsh(self, name, arg):
        o = self.surfaces[name]
        if name == "unit":
            a, b = arg
            gamma = self._trace(o, 0, Fraction(b, a))
        else:
            gamma = self._trace(o, arg - 1, Fraction(0))
        f = origami.canonical_vertical_foliation(o)
        x = origami.MarkedFlatSurface.base_point(o)
        with self.tr.span("origami.walsh"):
            e = origami.walsh_E(f, gamma, x)
        return {"E": str(e)}

    def backend_ext(self, name, stretch):
        o = self.surfaces[name]
        x = origami.geodesic_flow(origami.MarkedFlatSurface.base_point(o),
                                  stretch=Fraction(stretch))
        f = origami.canonical_vertical_foliation(o)
        with self.tr.span("horolab.origami_ext"):
            b = self.backends[name].ext(x, f)
        return {"bracket": _bracket(b)}

    def backend_classify(self, name, l1, l2):
        o = self.surfaces[name]
        h1 = horolab.HoroBall(origami.canonical_vertical_foliation(o), Fraction(l1))
        h2 = horolab.HoroBall(origami.canonical_horizontal_foliation(o), Fraction(l2))
        with self.tr.span("horolab.classify"):
            rel = horolab.classify(h1, h2, self.backends[name])
        return {"tag": rel.tag}

    def backend_probe(self, name, kind, l1, l2):
        o = self.surfaces[name]
        fv = origami.canonical_vertical_foliation(o)
        f2 = origami.canonical_horizontal_foliation(o) if kind == "transverse" else fv
        h1 = horolab.HoroBall(fv, Fraction(l1))
        h2 = horolab.HoroBall(f2, Fraction(l2))
        with self.tr.span("horolab.probe_origami"):
            res = horolab.inclusion_probe(h1, h2, self.backends[name])
        return {"tag": res.tag}

    # -- cli-inproc --------------------------------------------------------

    def cli(self, index):
        argv = [a.replace("{tmp}", SPEC["tmp"]) for a in jobs.README_COMMANDS[index]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.run(argv)
        return {"status": status, "stdout": out.getvalue()}

    def run(self, job):
        with self.tr.span("job." + job[0]):
            return getattr(self, job[0])(*job[1:])


def _trace_cli_glue(tr):
    """Wrap cli.build_parser and cli.emit, in this process only, so that
    cli.run itself is what runs: parsing (building the parser and
    parse_args), the subcommand function and encoding get spans."""
    build, emit = cli.build_parser, cli.emit

    def build_parser():
        with tr.span("cli.parse"):
            ap = build()
        parse = ap.parse_args

        def parse_args(*a, **kw):
            with tr.span("cli.parse"):
                args = parse(*a, **kw)
            fn = args.fn

            def run_fn(*a, **kw):
                with tr.span("cli.run"):
                    return fn(*a, **kw)
            args.fn = run_fn
            return args
        ap.parse_args = parse_args
        return ap

    def traced_emit(*a, **kw):
        with tr.span("cli.encode"):
            return emit(*a, **kw)

    cli.build_parser, cli.emit = build_parser, traced_emit


def kernel_pass(recorded, budget_s=0.3):
    """Direct kernel calls on inputs recorded from the traced jobs: ops/s."""
    out = {}

    def rate(name, fn, items, ops_per_item):
        if not items:
            return
        n = 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < budget_s:
            for it in items:
                fn(it)
            n += len(items)
        out[name] = n * ops_per_item / (time.perf_counter() - t0)

    rate("kernel.hyperbolic_distance.ops_per_s",
         lambda p: kernel.hyperbolic_distance(*p), recorded["points"], 1)
    rate("kernel.mobius.ops_per_s", lambda p: kernel.mobius_apply(*p), recorded["charts"], 1)

    def bracket_ops(b):  # extremal-length brackets: lo > 0, so log is defined
        s = b + b
        s.mul_nonneg(b)
        s.scale(2.0)
        s.log()
        kernel.Bracket.exact(Fraction(1, 3))

    rate("kernel.bracket.ops_per_s", bracket_ops, recorded["brackets"], 5)
    return out


def main():
    SPEC.update(json.loads(sys.stdin.read()))
    workload = SPEC["workload"]
    load_package(workload)
    roundgen = jobs.ROUNDS["cli-cold" if workload == "cli-inproc" else workload]
    tr = Tracer() if SPEC["trace"] else NullTracer()
    runner = Runner(tr, workload)
    todo = [(rnd, k, job) for rnd in range(SPEC["rounds"])
            for k, job in enumerate(roundgen(SPEC["seed"], rnd, SPEC["tiny"]))]
    setup_at = imports.positions(len(todo), SPEC["tiny"]) if SPEC["setup"] else []
    setup, cold = [], []
    ref = Reference()
    log = SpeedLog(reference=ref)
    results = []
    try:
        for i, (rnd, k, job) in enumerate(todo):
            for _ in range(setup_at.count(i)):
                cold.append((time.perf_counter(), cold_reference()))
                setup.append((time.perf_counter(), imports.time_import(workload)))
            log.maybe_sample()
            tr.job = (rnd, k)
            t = time.perf_counter()
            try:
                out = runner.run(job)
            except Exception as e:  # reported as a failed job, never fatal
                out = {"error": f"{type(e).__name__}: {str(e)[:200]}"}
            results.append([rnd, k, (time.perf_counter() - t) * 1e3, out, t])
        log.sample()
    finally:
        ref.close()
    report = {
        "refs": log.samples,
        "setup": setup,
        "cold": cold,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
    }
    if SPEC["trace"]:
        report["spans"] = tr.spans
        report["counters"] = dict(tr.counters)
        report["kernel"] = kernel_pass(runner.recorded) if workload != "cli-inproc" else {}
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
