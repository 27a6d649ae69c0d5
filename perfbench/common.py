"""Plumbing shared by the benchmark workloads.

Nothing here imports :mod:`repro`; the workload modules do, and only
through the package's public functions.  A workload module exposes

* ``setup(ctx) -> state`` — everything a run needs before it is ready
  (timed by the parent as ``setup_s``, from process start);
* ``run(ctx, state) -> Outcome`` — whole rounds of its operation mix
  until ``ctx.seconds`` have elapsed, plus the correctness checks;
* ``teardown(state)`` — stop whatever ``setup`` started.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Root of the checkout the benchmark runs in (the parent of ``perfbench``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where every run keeps its state (ignored by git, removed per run).
STATE = os.path.join(ROOT, ".perfbench")

#: End-to-end metric names and units, printed by every workload.
E2E_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mib": "MiB",
}

#: Per-layer metric names and units, printed by every traced run; a layer
#: a workload does not exercise reads 0 there (see README.md for which
#: workload each one is measured on).  Layer times are milliseconds per
#: timed round unless the name says otherwise; counts are per round.
LAYER_UNITS = {
    "inputs.operands_ms": "ms",
    "model.window_profile_ms": "ms",
    "engine.kernels.swar_ms": "ms",
    "engine.chunk_ms": "ms",
    "engine.chunks": "count",
    "engine.checkpoint.publish_ms": "ms",
    "engine.checkpoint.fold_ms": "ms",
    "engine.checkpoint.overhead": "ratio",
    "engine.elab.build_ms": "ms",
    "netlist.compile.compile_ms": "ms",
    "netlist.compile.small.pack_ms": "ms",
    "netlist.compile.small.eval_ms": "ms",
    "netlist.compile.small.unpack_ms": "ms",
    "netlist.compile.large.pack_ms": "ms",
    "netlist.compile.large.eval_ms": "ms",
    "netlist.compile.large.unpack_ms": "ms",
    "netlist.sim.calls.compiled": "count",
    "netlist.sim.calls.vectorized": "count",
    "netlist.accel.loaded": "count",
    "netlist.faults.coverage_ms": "ms",
    "netlist.faults.graded": "count",
    "netlist.faults.detected": "count",
    "netlist.faults.faults_per_s": "1/s",
    "netlist.optimize.passes_ms": "ms",
    "netlist.equiv.cec_ms": "ms",
    "netlist.equiv.proofs.structural": "count",
    "netlist.equiv.proofs.sim": "count",
    "netlist.equiv.proofs.bdd": "count",
    "netlist.optimize.rollbacks": "count",
    "netlist.optimize.gates_removed": "count",
    "netlist.timing.sta_ms": "ms",
    "serve.client.errors_p50_ms": "ms",
    "serve.client.measure_p50_ms": "ms",
    "serve.client.sim_p50_ms": "ms",
    "serve.shard_busy_s": "s",
    "serve.overhead_ms": "ms",
    "serve.cache_hit_rate": "ratio",
    "serve.coalescing_factor": "ratio",
    "serve.rejected": "count",
    "serve.stderr_tracebacks": "count",
}

#: Planted wrong outputs, one per workload (see ``test_checks.py``).
PLANTS = ("sum_bit", "rate_7sigma", "nonequiv", "bad_body")


#: Calibration loop rounds timed at the start of every round (about 10 ms).
CALIBRATION_ROUNDS = 3


class CheckFailed(AssertionError):
    """A workload output that is not what the method must produce."""


@dataclass
class Context:
    """What one run of one workload is asked to do."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    run_dir: str
    plant: Optional[str] = None

    def path(self, *parts: str) -> str:
        """A path inside this run's private state directory."""
        return os.path.join(self.run_dir, *parts)


@dataclass
class Checker:
    """Runs correctness checks, keeping every failure instead of stopping."""

    checks: int = 0
    failures: List[str] = field(default_factory=list)

    def run(self, name: str, fn: Callable[..., object], *args, **kwargs):
        """Run one check; returns its value, or None when it failed."""
        self.checks += 1
        try:
            return fn(*args, **kwargs)
        except CheckFailed as exc:
            self.failures.append(f"{name}: {exc}" if len(self.failures) < 20 else name)
            return None

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class Outcome:
    """What a run hands back to the parent process."""

    attempted: int
    failed: int
    e2e: Dict[str, float]
    layers: Dict[str, float]
    checker: Checker
    info: Dict[str, object] = field(default_factory=dict)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of no values")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def class_report(ops: Sequence[Tuple[str, float]], qs: Sequence[float]) -> dict:
    """Where each reported percentile falls in a mix of operation classes.

    ``ops`` are ``(class, seconds)`` pairs.  For each percentile ``q`` the
    report names the class of the operation at that rank and the share of
    that class's operations lying beyond the rank on each side of it
    (``margin``: the smaller share; near 0 means the percentile sits on
    the boundary with a neighbouring class), and ``step``: the ratio of
    the operation times five percentile points above and below it (near
    1 means the sorted times are flat there, so the percentile is
    steady).  Also gives each class's share and median milliseconds.
    """
    order = sorted(ops, key=lambda op: op[1])
    n = len(order)
    classes: Dict[str, List[float]] = {}
    for label, seconds in ops:
        classes.setdefault(label, []).append(seconds)
    report: Dict[str, object] = {
        "classes": {
            label: {"share": round(len(v) / n, 4), "median_ms": round(percentile(v, 50) * 1e3, 3)}
            for label, v in sorted(classes.items())
        }
    }
    for q in qs:
        rank = min(n - 1, int(round(q / 100.0 * (n - 1))))
        label = order[rank][0]
        below = sum(1 for lab, _ in order[:rank] if lab == label)
        above = sum(1 for lab, _ in order[rank + 1 :] if lab == label)
        size = below + above + 1
        lo = order[max(0, rank - n // 20)][1]
        hi = order[min(n - 1, rank + n // 20)][1]
        report[f"p{q:g}"] = {
            "class": label,
            "margin": round(min(below, above) / size, 3),
            "step": round(hi / lo, 3),
        }
    return report


def peak_rss_mib() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_cpu_seconds(pid: int) -> float:
    """CPU seconds used so far by every thread of another process."""
    total_ns = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
            total_ns += int(handle.read().split()[0])
    return total_ns / 1e9


def cpu_stat() -> Tuple[float, float]:
    """Machine-wide ``(busy, steal)`` CPU seconds so far, from ``/proc/stat``:
    time this machine's CPUs ran anything, and time the host took them
    away while they had work."""
    with open("/proc/stat") as handle:
        ticks = [int(v) for v in handle.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = ticks
    hz = os.sysconf("SC_CLK_TCK")
    return (user + nice + system + irq + softirq) / hz, steal / hz


def pid_peak_rss_mib(pid: int) -> float:
    """Peak resident memory of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def _calibration_loop(rounds: int) -> int:
    """A fixed piece of interpreter work: list and dict lookups, integer
    arithmetic, calls.  Its table is small (4096 ints), so it does not
    move the process's peak memory."""
    table = list(range(1 << 12))
    seen: Dict[int, int] = {}
    acc = 7
    for _ in range(rounds):
        for i in range(4096):
            acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
            slot = table[acc & 0xFFF]
            seen[slot & 0x3FF] = seen.get(slot & 0x3FF, 0) + i
    return acc + len(seen)


class Tally:
    """Rounds, work, busy seconds and timed operations of one run."""

    def __init__(self) -> None:
        self.rounds = 0
        self.work = 0.0
        self.busy = 0.0
        self.ops: List[Tuple[str, float]] = []
        self.speeds: List[float] = []

    def new_round(self) -> None:
        """Start a round by timing the fixed calibration loop (outside
        every timed operation), so the run records how fast the host lets
        this machine's CPU run now."""
        self.rounds += 1
        start = cpu_clock()
        _calibration_loop(CALIBRATION_ROUNDS)
        self.speeds.append(CALIBRATION_ROUNDS / (cpu_clock() - start))

    def add(self, work: float, busy: float) -> None:
        self.work += work
        self.busy += busy

    def op(self, label: str, seconds: float) -> None:
        self.ops.append((label, seconds))

    def host_speed(self) -> float:
        """Median calibration loops per CPU second over the run's rounds.
        Shared hosts change it by half or more between runs; it explains
        swings in the CPU-timed figures, which are not scaled by it."""
        return statistics.median(self.speeds)

    def e2e(self, tail_q: float) -> Dict[str, float]:
        """Throughput, median and tail operation time (ms) of the run."""
        times = [seconds for _, seconds in self.ops]
        return {
            "work_per_s": self.work / self.busy,
            "p50_ms": percentile(times, 50) * 1e3,
            "tail_ms": percentile(times, tail_q) * 1e3,
        }


def cpu_clock() -> float:
    """CPU seconds of this process: the clock every in-process operation
    is timed with.  On a shared virtual machine the host takes the CPU
    away for stretches (steal) or pauses the guest; wall time counts
    those, CPU time does not.  The run length itself stays wall-clock
    (:class:`Deadline`)."""
    return time.process_time()


class Deadline:
    """Wall-clock budget for the timed rounds of one run."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.end = self.start + seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self.end


def span_totals_ms(spans) -> Dict[str, float]:
    """Summed duration (ms) of recorded obs spans, by span name."""
    totals: Dict[str, float] = {}
    for record in spans:
        totals[record.name] = totals.get(record.name, 0.0) + record.dur_us / 1e3
    return totals


def write_trace(ctx: Context) -> str:
    """Export the obs spans of a traced run as a Chrome trace."""
    from repro.obs.export import write_chrome_trace

    os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
    path = os.path.join(STATE, "traces", f"{ctx.workload}.json")
    write_chrome_trace(path)
    return path
