"""Machine-speed reference used to normalize the timings of a run.

On a shared 2-core virtual machine the speed drifts by 20-30 % over tens
of seconds as other tenants load the cores, and the drift moves every
timing of a run together: raw run-to-run spreads of job_ms_p50 were 15-30 %.
A fixed reference workload (Fraction, heap and dict operations written
here, no package code) is timed between jobs all through a run.  A job's
wall time is divided by the local speed factor: the median of the
reference timings near it (``SpeedLog.factor_at``), over ``REF_S``, the
reference's time on the reference machine.

The reference runs in a sibling process that never imports the package
(``python3 speed.py``, driven over a pipe), while the worker waits for
it.  So it sees the machine's speed but none of the worker's own state: a
program that slows its own process (a big heap, a cache that crowds the
allocator) cannot slow the reference and divide its regression away.
Each timing runs on the CPU the worker last ran on, so that it describes
the CPU the jobs ran on rather than the other one.

Work in fresh processes (cold CLI calls, set-up imports) follows another
reference, which the in-process mix does not track: a fresh interpreter,
isolated from the environment and so from the package, importing a fixed
set of standard-library modules (``cold_reference``), timed whole, spawn
included, next to each cold job or set-up sample and scaled by
``COLD_REF_S``.
"""
from __future__ import annotations

import bisect
import gc
import heapq
import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REF_S = 0.0018  # reference() on the reference machine (2-core Xeon, CPython 3.11)
REF_EVERY_S = 0.1  # at most one reference timing per 100 ms of jobs
NEAREST = 7  # reference timings pooled for one job's factor

COLD_REF_S = 0.155  # cold_reference() on the reference machine
COLD_IMPORTS = ("import decimal, fractions, json, email.message, http.client, "
                "xml.etree.ElementTree, asyncio, unittest, argparse, logging, ssl, "
                "sqlite3, csv, zipfile, tarfile, pickle, statistics, inspect, "
                "dataclasses, typing, ctypes, lzma, bz2")
COLD_TIMEOUT_S = 60


def _mix():
    heap, acc, table = [], Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i, i + 7)
        heapq.heappush(heap, (i * 7919 % 1009, i))
        table[(i, i * i)] = math.sqrt(i + 0.5)
    while heap:
        heapq.heappop(heap)


def reference() -> float:
    """Seconds taken by a fixed mix of interpreter-bound work.

    The mix runs once untimed first, so the job that ran before it (and
    left the caches cold) does not change the timed pass.
    """
    gc.disable()
    try:
        _mix()
        t0 = time.perf_counter()
        _mix()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def cold_reference() -> float:
    """Seconds a fresh interpreter takes, from spawn to exit, to import
    ``COLD_IMPORTS``.  ``-I`` ignores PYTHONPATH and the user's site, so no
    module of the package can take part; ``-B`` writes no bytecode."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-B", "-c", COLD_IMPORTS], check=True,
                   capture_output=True, timeout=COLD_TIMEOUT_S)
    return time.perf_counter() - t


def current_cpu() -> int:
    """The CPU this process last ran on, or -1 where that is not known."""
    try:
        with open("/proc/self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return -1


class Reference:
    """The sibling process that times ``reference()`` on request."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def time(self) -> float:
        """One timing, on the CPU the calling process last ran on."""
        self.proc.stdin.write(f"{current_cpu()}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


class SpeedLog:
    """Reference timings of one run, as (time taken at, seconds), against
    ``ref_s``, the reference's time on the reference machine."""

    def __init__(self, samples=(), reference=None, ref_s=REF_S):
        self.samples = sorted(samples)
        self.reference = reference
        self.ref_s = ref_s
        self._last = -math.inf

    def sample(self):
        t = time.perf_counter()
        self.samples.append((t, self.reference.time()))
        self._last = time.perf_counter()

    def maybe_sample(self):
        if time.perf_counter() - self._last >= REF_EVERY_S:
            self.sample()

    def factor_at(self, start: float, end: float) -> float:
        """Slowdown against the reference machine (1 = same speed) over
        [start, end]: the median of the reference timings within one
        interval length either side of it, or of the NEAREST timings to its
        midpoint if those are fewer.  No timing falls inside a job, so a
        long job takes its factor from a stretch as long as itself."""
        span = end - start
        lo = bisect.bisect_left(self.samples, (start - span,))
        hi = bisect.bisect(self.samples, (end + span, math.inf))
        if hi - lo < NEAREST:
            i = bisect.bisect(self.samples, ((start + end) / 2, math.inf))
            lo = max(0, min(i - NEAREST // 2, len(self.samples) - NEAREST))
            hi = lo + NEAREST
        return statistics.median(d for _, d in self.samples[lo:hi]) / self.ref_s

    def median_factor(self) -> float:
        return statistics.median(d for _, d in self.samples) / self.ref_s

    def normalize_ms(self, start: float, ms: float) -> float:
        """A job's wall time in ms at reference speed."""
        return ms / self.factor_at(start, start + ms / 1e3)


def serve():
    """Sibling loop: one reference timing per input line (the CPU to run it
    on, or -1 for any), until EOF."""
    cpus = os.sched_getaffinity(0)
    for line in sys.stdin:
        cpu = int(line)
        try:
            os.sched_setaffinity(0, {cpu} if cpu in cpus else cpus)
        except OSError:
            pass  # timed wherever the scheduler puts it
        print(reference(), flush=True)


if __name__ == "__main__":
    serve()
