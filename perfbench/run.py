"""The horoteich benchmark.

    python3 perfbench/run.py                  # all three workloads, then the traced run
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is one closed-loop client in
a single process: ``cli-cold`` spawns one fresh ``python -m horoteich.cli``
per job, the in-process workloads run in one worker process
(``worker.py``).  Every job's output is checked against its oracle
(``oracle.py``) after the timed phase.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of the traced run.  See
README.md in this directory.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import imports
import jobs
import oracle
import spans
import speed
from speed import SpeedLog

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SCRATCH = ".perfbench"  # under the checkout root; holds temp files and traces

# A run measures max(1, seconds // ROUND_S) whole rounds, so every run of a
# workload at one --seconds does the same work: one round at the
# benchmark's 20 s.  A round takes 20-45 s of jobs on the reference machine
# (2-core Xeon, CPython 3.11): about 35 s cli-cold, 40 s torus-sweep,
# 20 s origami-sweep.
ROUND_S = 20.0
# job_ms_tail: the highest percentile with at least ten jobs beyond it in a
# one-round run (30, 3860 and 308 jobs respectively).
TAIL_PERCENTILE = {"cli-cold": 66.0, "torus-sweep": 99.7, "origami-sweep": 96.7}
SPAWN_RUNS = 3
CHILD_TIMEOUT_S = 170
UNITS = {
    "setup_s": "s", "job_ms_p50": "ms", "job_ms_tail": "ms",
    "goodput_jobs_per_s": "1/s", "pass_ratio": "ratio", "peak_rss_mb": "MB",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env(root):
    env = dict(os.environ)
    env.pop("HOROTEICH_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _run(cmd, root, **kw):
    try:
        return subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, **kw)
    except subprocess.TimeoutExpired as e:
        raise HarnessError(f"{cmd[:3]} did not finish in {CHILD_TIMEOUT_S} s") from e


def percentile(values, pct):
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, math.ceil(pct / 100.0 * len(v)) - 1)]


# ---------------------------------------------------------------------------
# Set-up time


def time_import(root, workload):
    try:
        return imports.time_import(workload, cwd=root, env=child_env(root))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        raise HarnessError(str(e)) from e


def time_cold_reference():
    try:
        return speed.cold_reference()
    except subprocess.SubprocessError as e:
        raise HarnessError(f"cold reference failed: {e}") from e


# ---------------------------------------------------------------------------
# Workload runs


def rounds_for(seconds):
    return max(1, int(seconds // ROUND_S))


def run_cli_cold(root, seed, rounds, tiny, tmp):
    """One fresh CLI process per job, README commands in seeded order, each
    after one timing of the cold reference (speed.py), with set-up samples
    taken between jobs."""
    todo = [(rnd, k, index) for rnd in range(rounds)
            for k, (_, index) in enumerate(jobs.cli_round(seed, rnd, tiny))]
    setup_at = imports.positions(len(todo), tiny)
    setup, cold, results = [], [], []
    for i, (rnd, k, index) in enumerate(todo):
        for _ in range(setup_at.count(i)):
            setup.append((time.perf_counter(), time_import(root, "cli-cold")))
        cold.append((time.perf_counter(), time_cold_reference()))
        argv = [a.replace("{tmp}", tmp) for a in jobs.README_COMMANDS[index]]
        t = time.perf_counter()
        p = _run([sys.executable, "-m", "horoteich.cli", *argv], root)
        ms = (time.perf_counter() - t) * 1e3
        out = {"status": p.returncode, "stdout": p.stdout}
        if "Traceback" in p.stderr:
            out = {"error": p.stderr.strip().splitlines()[-1]}
        results.append([rnd, k, ms, out, t])
    cold.append((time.perf_counter(), time_cold_reference()))
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"results": results, "setup": setup, "cold": cold, "refs": cold,
            "ref_s": speed.COLD_REF_S, "maxrss_kb": rss_kb}


def run_worker(root, workload, seed, rounds, trace, tiny, tmp, setup=False):
    spec = {"workload": workload, "seed": seed, "rounds": rounds, "trace": trace,
            "tiny": tiny, "setup": setup, "tmp": tmp}
    p = _run([sys.executable, WORKER], root, input=json.dumps(spec))
    if p.returncode != 0:
        raise HarnessError(f"{workload} worker failed: {p.stderr.strip()[-500:]}")
    return json.loads(p.stdout)


def check_results(workload, seed, tiny, results):
    """Oracle verdicts: list of (job, reason or None), one per result."""
    gen = jobs.ROUNDS["cli-cold" if workload == "cli-inproc" else workload]
    rounds = {}
    verdicts = []
    for rnd, k, _ms, out, _t in results:
        if rnd not in rounds:
            rounds[rnd] = gen(seed, rnd, tiny)
        job = rounds[rnd][k]
        verdicts.append((job, oracle.check(job, out)))
    expected = sum(len(r) for r in rounds.values())
    if expected != len(results):
        raise HarnessError(f"{len(results)} results for {expected} jobs")
    return verdicts


def speed_log(raw):
    """The run's reference timings: the in-process mix for the worker's
    jobs, the cold reference for cold CLI jobs (speed.py)."""
    return SpeedLog((tuple(x) for x in raw["refs"]), ref_s=raw.get("ref_s", speed.REF_S))


def job_times(raw):
    """Per-job ms, scaled to reference speed."""
    log = speed_log(raw)
    return [log.normalize_ms(r[4], r[2]) for r in raw["results"]]


def setup_times(raw):
    """Set-up samples in s, scaled to reference speed by the cold reference."""
    log = SpeedLog((tuple(x) for x in raw["cold"]), ref_s=speed.COLD_REF_S)
    return [s / log.factor_at(t, t + s) for t, s in raw["setup"]]


def end_to_end(workload, raw, verdicts, ms, setup):
    """The six end-to-end metrics from per-job times ``ms`` and set-up
    samples ``setup``."""
    passed = sum(1 for _, reason in verdicts if reason is None)
    return {
        "setup_s": statistics.median(setup),
        "job_ms_p50": statistics.median(ms),
        "job_ms_tail": percentile(ms, TAIL_PERCENTILE[workload]),
        "goodput_jobs_per_s": passed / (sum(ms) / 1e3),
        "pass_ratio": passed / len(verdicts),
        "peak_rss_mb": raw["maxrss_kb"] / 1024.0,
    }


def run_untraced(root, workload, seed, seconds, tiny, tmp):
    time_import(root, workload)  # unmeasured: compiles the bytecode first
    rounds = 1 if tiny else rounds_for(seconds)
    if workload == "cli-cold":
        raw = run_cli_cold(root, seed, rounds, tiny, tmp)
    else:
        raw = run_worker(root, workload, seed, rounds, False, tiny, tmp, setup=True)
    verdicts = check_results(workload, seed, tiny, raw["results"])
    metrics = end_to_end(workload, raw, verdicts, job_times(raw), setup_times(raw))
    wall = end_to_end(workload, raw, verdicts, [r[2] for r in raw["results"]],
                      [s for _, s in raw["setup"]])
    raw["wall"] = {k: wall[k] for k in ("setup_s", "job_ms_p50", "job_ms_tail",
                                        "goodput_jobs_per_s")}
    raw["wall"]["speed_factor"] = speed_log(raw).median_factor()
    raw["wall"]["cold_speed_factor"] = SpeedLog(
        (tuple(x) for x in raw["cold"]), ref_s=speed.COLD_REF_S).median_factor()
    return raw, verdicts, metrics


# ---------------------------------------------------------------------------
# Traced run


def importtime_breakdown(stderr):
    """ms from ``-X importtime``: the whole import of horoteich.cli; scipy and
    numpy subtrees not nested in one another (inclusive); and horoteich's
    own modules (self time)."""
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":")[1])
            cum_us = int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), self_us, cum_us))
    out = {"cli.import_ms": 0.0, "cli.import_ms.scipy": 0.0, "cli.import_ms.numpy": 0.0,
           "cli.import_ms.horoteich": 0.0}
    stack = []  # top-level package names of the open ancestors
    for depth, name, self_us, cum_us in reversed(rows):  # parents print last
        del stack[depth:]
        top = name.split(".")[0]
        if name == "horoteich.cli" and depth == 0:
            out["cli.import_ms"] += cum_us / 1e3
        if top == "horoteich":
            out["cli.import_ms.horoteich"] += self_us / 1e3
        elif top in ("scipy", "numpy") and not {"scipy", "numpy"} & set(stack):
            out[f"cli.import_ms.{top}"] += cum_us / 1e3
        stack.append(top)
    return out


CLI_INPROC_ROUNDS = 2


def cli_layer(root, seed, tiny, tmp):
    spawn = []
    for _ in range(SPAWN_RUNS):
        t = time.perf_counter()
        _run([sys.executable, "-c", "pass"], root)
        spawn.append((time.perf_counter() - t) * 1e3)
    breakdowns = []
    for _ in range(3):
        p = _run([sys.executable, "-X", "importtime", "-c", "import horoteich.cli"], root)
        breakdowns.append(importtime_breakdown(p.stderr))
    metrics = {"cli.spawn_ms": statistics.median(spawn)}
    for key in breakdowns[0]:
        metrics[key] = statistics.median(b[key] for b in breakdowns)
    raw = run_worker(root, "cli-inproc", seed, CLI_INPROC_ROUNDS, True, tiny, tmp)
    summary = spans.summarize(raw["spans"])
    for phase in ("parse", "run", "encode"):  # ms per command
        metrics[f"cli.{phase}_ms"] = summary[f"cli.{phase}"]["total_s"] * 1e3 / len(raw["results"])
    metrics["cli.exit_mismatch"] = sum(
        1 for r in raw["results"] if r[3].get("status") != 0)
    return metrics, raw


def _median_ms(summary, name):
    d = summary.get(name)
    return statistics.median(d["durations"]) * 1e3 if d else 0.0


def _per_s(summary, name, count=None):
    d = summary.get(name)
    if not d or d["total_s"] == 0:
        return 0.0
    return (d["calls"] if count is None else count) / d["total_s"]


def layer_metrics(torus_raw, torus_verdicts, origami_raw, origami_verdicts):
    ts = spans.summarize(torus_raw["spans"])
    os_ = spans.summarize(origami_raw["spans"])
    tc, oc = torus_raw["counters"], origami_raw["counters"]
    sup_s = sum(ts[n]["total_s"] for n in ("torus.kerckhoff", "torus.ext_sup") if n in ts)
    tags = [r[3].get("tag") for raw in (torus_raw, origami_raw) for r in raw["results"]]
    probes = [(job, out) for raw, verdicts in ((torus_raw, torus_verdicts),
                                              (origami_raw, origami_verdicts))
              for (job, _), (_, _, _, out, _) in zip(verdicts, raw["results"])
              if job[0] in ("probe", "backend_probe")]
    classify_calls = ts.get("horolab.classify", {}).get("calls", 0) + \
        os_.get("horolab.classify", {}).get("calls", 0)
    classify_s = ts.get("horolab.classify", {}).get("total_s", 0) + \
        os_.get("horolab.classify", {}).get("total_s", 0)
    m = {
        "torus.kerckhoff.calls": ts["torus.kerckhoff"]["calls"],
        "torus.kerckhoff.self_ms": ts["torus.kerckhoff"]["self_s"] * 1e3,
        "torus.sup_nodes": tc.get("torus.sup_nodes", 0),
        "torus.sup_nodes_per_s": tc.get("torus.sup_nodes", 0) / sup_s,
        "torus.budget_exhausted": tc.get("torus.budget_exhausted", 0),
        "torus.wrong_certified": sum(1 for _, r in torus_verdicts
                                     if r == "wrong certified value"),
        "torus.ext_sup.ms": _median_ms(ts, "torus.ext_sup"),
        "torus.equidistance.ms": _median_ms(ts, "torus.equidistance"),
        "torus.ball_limit.ms": _median_ms(ts, "torus.ball_limit"),
        "horolab.classify.per_s": classify_calls / classify_s if classify_s else 0.0,
        "horolab.probe.per_s": _per_s(ts, "horolab.probe"),
        "horolab.probe_origami.per_s": _per_s(os_, "horolab.probe_origami"),
        "horolab.probe.decided_ratio": sum(
            1 for _, out in probes if out.get("tag") not in (None, "Inconclusive")) / len(probes),
        "horolab.busemann.steps": tc.get("horolab.busemann_steps", 0) /
        ts["horolab.busemann"]["calls"],
        "horolab.busemann.ms": _median_ms(ts, "horolab.busemann"),
        "horolab.undecided": sum(1 for t in tags if t in ("Undecided", "Inconclusive")),
        "origami.build.squares_per_s": _per_s(os_, "origami.build", oc.get("origami.squares", 0)),
        "origami.cylinders.ms": _median_ms(os_, "origami.cylinders"),
        "origami.trace.steps_per_s": _per_s(os_, "origami.trace",
                                            oc.get("origami.trace_segments", 0)),
        "origami.ext_bracket.per_s": _per_s(os_, "origami.ext_bracket"),
        "origami.crossing.pairs_per_s": _per_s(os_, "origami.crossing",
                                               oc.get("origami.crossing_pairs", 0)),
        "origami.remark.ms": _median_ms(os_, "origami.remark"),
        "origami.walsh.ms": _median_ms(os_, "origami.walsh"),
        "curvegraph.table.pairs_per_s": _per_s(os_, "curvegraph.table",
                                               oc.get("curvegraph.pairs", 0)),
        "curvegraph.graph.ms": _median_ms(os_, "curvegraph.graph"),
    }
    m.update(torus_raw["kernel"])
    m.update(origami_raw["kernel"])
    return m


def busy_s(raw):
    """Seconds at reference speed spent in jobs."""
    return sum(job_times(raw)) / 1e3


def traced_run(root, workload, seed, tiny, tmp):
    """Per-layer metrics from one traced round of every mix, plus the
    traced/untraced wall-time ratio of ``workload``'s mix.  Returns
    (metrics, attempted, failed, spans by workload)."""
    cli_m, cli_raw = cli_layer(root, seed, tiny, tmp)
    t_raw = run_worker(root, "torus-sweep", seed, 1, True, tiny, tmp)
    o_raw = run_worker(root, "origami-sweep", seed, 1, True, tiny, tmp)
    t_ver = check_results("torus-sweep", seed, tiny, t_raw["results"])
    o_ver = check_results("origami-sweep", seed, tiny, o_raw["results"])
    c_ver = check_results("cli-inproc", seed, tiny, cli_raw["results"])
    metrics = dict(cli_m)
    metrics.update(layer_metrics(t_raw, t_ver, o_raw, o_ver))
    own = {"cli-cold": ("cli-inproc", cli_raw, c_ver), "torus-sweep": ("torus-sweep", t_raw, t_ver),
           "origami-sweep": ("origami-sweep", o_raw, o_ver)}[workload]
    name, raw, verdicts = own
    rounds = CLI_INPROC_ROUNDS if name == "cli-inproc" else 1
    base = run_worker(root, name, seed, rounds, False, tiny, tmp)
    metrics["trace.overhead_ratio"] = busy_s(raw) / busy_s(base)
    failed = sum(1 for _, r in verdicts if r is not None)
    traces = {"cli-inproc": cli_raw["spans"], "torus-sweep": t_raw["spans"],
              "origami-sweep": o_raw["spans"]}
    return metrics, len(verdicts), failed, traces


# ---------------------------------------------------------------------------
# Reporting


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(pkg):
    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(root, workload, seed):
    git = None
    if os.path.isdir(os.path.join(root, ".git")):
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        git = p.stdout.strip() or None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, "src"))):
        dirnames.sort()
        for f in sorted(filenames):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "mpmath": _version("mpmath"), "git_sha": git,
        "src_sha256": digest.hexdigest(), "PYTHONPATH": "src", "HOROTEICH_THREADS": None,
    }


def failure_summary(verdicts):
    return dict(Counter(f"{job[0]}: {reason}" for job, reason in verdicts if reason))


def emit_report(label, metrics, units, extra=None):
    print(f"== {label}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units.get(name, '')}")
    for k, v in (extra or {}).items():
        print(f"  {k}: {v}")


def layer_unit(name):
    if name.endswith("_ms") or name.endswith(".ms") or ".import_ms" in name:
        return "ms"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def write_traces(root, workload, seed, traces):
    path = os.path.join(root, SCRATCH, f"trace-{workload}-{seed}.json")
    with open(path, "w") as fh:
        json.dump({k: [dict(zip(("name", "start", "end", "parent", "job"), s)) for s in v]
                   for k, v in traces.items()}, fh)
    return os.path.relpath(path, root)


def report_untraced(workload, seed, raw, verdicts, metrics):
    """Print one workload's end-to-end report; returns the failed count."""
    failed = sum(1 for _, r in verdicts if r)
    n = len(verdicts)
    rounds = len({r[0] for r in raw["results"]})
    extra = {"as measured, before scaling to reference speed": raw["wall"]}
    cap_s = cap_pair_seconds(raw, verdicts)
    if cap_s:
        extra["cap-exhausting cusp pairs (s, as measured)"] = [round(x, 2) for x in cap_s]
    emit_report(f"{workload} (seed {seed}, {rounds} rounds)", metrics, UNITS, {
        **extra,
        "set-up samples (s, as measured)": [round(x, 3) for _, x in raw["setup"]],
        "tail percentile": f"p{TAIL_PERCENTILE[workload]} of {n} jobs",
        "fail_ratio": f"{failed}/{n} = {failed / n:.6g}",
        "failures": failure_summary(verdicts)})
    return failed


def cap_pair_seconds(raw, verdicts):
    """Wall time of each cusp pair that exhausted its node cap."""
    return [r[2] / 1e3 for r, (job, reason) in zip(raw["results"], verdicts)
            if job[0] == "cusp" and reason == "budget exhausted"]


def run_one(root, workload, seed, seconds, trace, tiny, tmp):
    """One workload run; prints and returns the final result object."""
    print(json.dumps({"provenance": provenance(root, workload, seed)}))
    if trace:
        metrics, attempted, failed, traces = traced_run(root, workload, seed, tiny, tmp)
        units = {k: layer_unit(k) for k in metrics}
        emit_report(f"{workload} traced run (seed {seed})", metrics, units,
                    {"spans": write_traces(root, workload, seed, traces)})
    else:
        raw, verdicts, metrics = run_untraced(root, workload, seed, seconds, tiny, tmp)
        attempted = len(verdicts)
        failed = report_untraced(workload, seed, raw, verdicts, metrics)
        units = UNITS
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return result


# Hand-measured in ROADMAP.md before this harness existed (seconds).  The
# fourth, about 8 s per cap-exhausting cusp pair, is set beside the
# torus-sweep report's own figure.
ROADMAP_BASELINE = {"import horoteich.cli": 0.86, "of which scipy": 0.64,
                    "one cold subcommand": 0.98}


def run_all(root, seed, seconds, tiny, tmp):
    """The one command: every workload end to end, then the traced run."""
    e2e = {w: run_one(root, w, seed, seconds, False, tiny, tmp) for w in jobs.WORKLOADS}
    traced = run_one(root, "torus-sweep", seed, seconds, True, tiny, tmp)["metrics"]
    print("layer map: " + os.path.join("perfbench", "layers.json"))
    measured = {"import horoteich.cli": traced["cli.import_ms"]["value"] / 1e3,
                "of which scipy": traced["cli.import_ms.scipy"]["value"] / 1e3,
                "one cold subcommand": e2e["cli-cold"]["metrics"]["job_ms_p50"]["value"] / 1e3}
    print("== ROADMAP baseline vs this run (s)")
    for k, base in ROADMAP_BASELINE.items():
        print(f"  {k:32s} baseline {base:6.2f}  measured {measured[k]:6.2f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=jobs.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=ROUND_S)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes (for the self-tests)")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "horoteich", "cli.py")):
        print("error: run from the repository root (src/horoteich not found)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, SCRATCH), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=os.path.join(root, SCRATCH))
    try:
        if args.workload == "all":
            run_all(root, args.seed, args.seconds, args.tiny, tmp)
        else:
            run_one(root, args.workload, args.seed, args.seconds, bool(args.trace),
                    args.tiny, tmp)
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
