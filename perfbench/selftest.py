"""Self-tests of the benchmark harness.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the package's own test collection; each
workload run here takes several seconds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def bench(*args, cwd=ROOT):
    p = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args], cwd=cwd,
                       capture_output=True, text=True, timeout=300)
    return p


def last_json(p):
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_workload_runs_tiny_with_every_end_to_end_metric(workload):
    res = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    assert 0 <= res["failed"] <= res["attempted"]
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_one_command_runs_every_workload_then_the_traced_run():
    p = bench("--seed", "3", "--tiny")
    assert p.returncode == 0, p.stderr
    results = [json.loads(line) for line in p.stdout.splitlines()
               if line.startswith('{"correct"')]
    assert len(results) == len(jobs.WORKLOADS) + 1
    e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for res in results[:-1]:
        assert {k: v["unit"] for k, v in res["metrics"].items()} == e2e
    assert {k: v["unit"] for k, v in results[-1]["metrics"].items()} == layer
    assert "== ROADMAP baseline vs this run (s)" in p.stdout


def test_layer_map_names_exactly_the_per_layer_metrics():
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)["layers"]
    mapped = [m for entry in layers for m in entry["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCH["per_layer"])
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for entry in layers:
        for metric, workload in entry["moves"] + entry.get("no_change", []):
            assert metric in e2e and workload in jobs.WORKLOADS


def test_injected_wrong_output_counts_as_failed(tmp_path):
    raw = run.run_worker(ROOT, "torus-sweep", 3, 1, False, True, str(tmp_path))
    ms = run.job_times(raw)
    verdicts = run.check_results("torus-sweep", 3, True, raw["results"])
    before = run.end_to_end("torus-sweep", raw, verdicts, ms, [1.0])
    # corrupt one certified Kerckhoff value that passed its oracle
    k = next(i for i, (job, reason) in enumerate(verdicts)
             if job[0] == "kerckhoff" and reason is None)
    raw["results"][k][3]["value"] += 1e-6
    verdicts2 = run.check_results("torus-sweep", 3, True, raw["results"])
    after = run.end_to_end("torus-sweep", raw, verdicts2, ms, [1.0])
    failed = sum(1 for _, r in verdicts if r)
    assert sum(1 for _, r in verdicts2 if r) == failed + 1
    n = len(verdicts)
    assert after["pass_ratio"] == pytest.approx(before["pass_ratio"] - 1 / n)


def test_self_time_on_hand_built_span_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6]; a has child c [2, 3]
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 3.0, 6.0, 0, 0],
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 1.0, 3.0])
    s = spans.summarize(tree)
    assert s["root"]["calls"] == 1 and s["a"]["total_s"] == pytest.approx(3.0)


def test_speed_factor_scales_job_times():
    ref = speed.REF_S
    # reference timings at t = 0..9 s: the machine runs at half speed
    # from t = 5 s on
    log = speed.SpeedLog([(float(t), ref if t < 5 else 2 * ref) for t in range(10)])
    assert log.factor_at(0.4, 0.6) == pytest.approx(1.0)
    assert log.factor_at(8.9, 9.1) == pytest.approx(2.0)
    assert log.normalize_ms(8.9, 200.0) == pytest.approx(100.0)
    # a job as long as the run takes its factor from every timing
    assert log.factor_at(0.0, 9.0) == pytest.approx(1.5)


def test_reference_runs_in_a_sibling_process():
    ref = speed.Reference()
    try:
        times = [ref.time() for _ in range(3)]
    finally:
        ref.close()
    assert ref.proc.returncode == 0 and all(0 < t < 1 for t in times)


def test_cold_reference_times_a_fresh_interpreter_and_scales_set_up():
    t = speed.cold_reference()
    assert 0 < t < speed.COLD_TIMEOUT_S
    # the machine runs at half speed: set-up samples and cold jobs halve
    slow = 2 * speed.COLD_REF_S
    raw = {"cold": [(float(i), slow) for i in range(10)], "refs": [(float(i), slow)
                                                                for i in range(10)],
           "ref_s": speed.COLD_REF_S, "setup": [(4.0, 1.2), (6.0, 1.0)],
           "results": [[0, 0, 800.0, {}, 5.0]]}
    assert run.setup_times(raw) == pytest.approx([0.6, 0.5])
    assert run.job_times(raw) == pytest.approx([400.0])


def _cli_out(command, results):
    record = {"command": command, "results": results, "timestamp": "now"}
    return {"status": 0, "stdout": json.dumps(record)}


def _cli_job(command):
    return ("cli", next(i for i, argv in enumerate(jobs.README_COMMANDS) if argv[0] == command))


def test_closed_form_commands_ignore_how_the_result_was_reached():
    # another witness, node count and a value inside the tolerance: still right
    results = {"distance": {"value": 0.4812118245, "exact": False, "tolerance": 1e-9},
               "closed_form": {"value": 0.48121182505960347, "exact": False,
                               "tolerance": 1e-12},
               "witness_curve": "1,0", "nodes": 3, "certified": True}
    assert oracle.check(_cli_job("torus-dist"), _cli_out("torus-dist", results)) is None
    results["distance"]["value"] = 0.4813
    assert oracle.check(_cli_job("torus-dist"), _cli_out("torus-dist", results)) is not None


def test_pinned_commands_compare_results_within_tolerance():
    job = _cli_job("growth-check")
    results = json.loads(json.dumps(oracle.PINNED["cli"]["growth-check"]))
    results["fit_residual"] = {"value": 3e-15, "exact": False, "tolerance": 1e-12}
    results["lower_bounds"][0]["value"] += 1e-13
    assert oracle.check(job, _cli_out("growth-check", results)) is None
    results["i_vertical"]["value"] = "3"
    assert oracle.check(job, _cli_out("growth-check", results)) == \
        "record differs from the pinned record"


def test_importtime_breakdown():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        20 |         20 |       numpy.linalg",
        "import time:        30 |         50 |     scipy.optimize",
        "import time:        40 |         90 |   scipy",
        "import time:        10 |         10 |   horoteich.torus",
        "import time:         5 |        255 | horoteich.cli",
    ])
    b = run.importtime_breakdown(stderr)
    assert b == {"cli.import_ms": 0.255, "cli.import_ms.scipy": 0.09,
                 "cli.import_ms.numpy": 0.15, "cli.import_ms.horoteich": 0.015}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", "torus-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
              cwd=str(tmp_path))
    assert p.returncode != 0 and p.stdout.strip() == ""
