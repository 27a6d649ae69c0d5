"""``opt_sweep``: elaborate → prove-gated optimize → STA over the grid.

One round takes every architecture of the 17-design grid at n in
{8, 12, 16}, elaborates it fresh with ``build_design`` (no elaboration
cache), runs ``optimize(prove=True)`` and ``analyze_timing`` on the
result.  An operation is one design point (all three steps).  It runs no
Monte Carlo and almost no large simulation batches: the optimizations
aimed at those should leave it unchanged.

Points sort roughly by width: the median falls among the n=12 points
and the 96th percentile among the slowest n=16 points.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, Tuple

import checks
from common import Checker, Context, Deadline, Outcome, Tally, class_report, cpu_clock

WIDTHS = (8, 12, 16)
CHECK_VECTORS = 64

#: Percentile behind ``tail_ms``: a 15 s run times >= 255 points (five
#: rounds of 51; 357 to 510 here), so at least ten lie beyond it.
TAIL_Q = 96.0

#: ``(stage that settled a proof) -> per-layer metric suffix``.
_PROOF_KINDS = {"structural": "structural", "simulation": "sim", "bdd": "bdd"}


def setup(ctx: Context):
    from repro.engine import build_design
    from repro.engine.elab import grid_designs

    designs = grid_designs()
    # DesignWare's architecture selection is memoised for the life of the
    # process; pay it here, as every long-lived user of the program does.
    for width in WIDTHS:
        build_design("designware", width)
    return {"designs": designs}


def teardown(state) -> None:
    pass


def _timed_passes(totals: Dict[str, float]):
    """The default pass pipeline, each pass timed into ``totals``."""
    from repro.netlist.optimize import DEFAULT_PASSES

    def timed(pass_fn):
        @functools.wraps(pass_fn)
        def wrapper(circuit):
            start = cpu_clock()
            try:
                return pass_fn(circuit)
            finally:
                totals["passes"] = totals.get("passes", 0.0) + cpu_clock() - start

        return wrapper

    return [timed(p) for p in DEFAULT_PASSES]


def _check_point(checker: Checker, rng, arch, width, circuit, optimized) -> None:
    from repro.netlist import simulate_batch_reference

    a = [rng.getrandbits(width) for _ in range(CHECK_VECTORS)]
    b = [rng.getrandbits(width) for _ in range(CHECK_VECTORS)]
    before = simulate_batch_reference(circuit, {"a": a, "b": b})
    after = simulate_batch_reference(optimized, {"a": a, "b": b})
    what = f"{arch}@{width}"
    checker.run(
        "optimized == unoptimized (reference sim)", checks.same_outputs, after, before, what
    )
    if "sum_rec" in after:
        checker.run("sum_rec == a + b", checks.sums_exact, a, b, after["sum_rec"], what)
    elif arch not in ("scsa1", "scsa2"):
        checker.run("exact adder sum == a + b", checks.sums_exact, a, b, after["sum"], what)


def _planted_fault(circuit):
    """``circuit`` with its least significant sum bit stuck at 0."""
    from repro.netlist import Fault, apply_fault

    return apply_fault(circuit, Fault(net=circuit.output_buses["sum"][0], stuck_at=0))


def run(ctx: Context, state) -> Outcome:
    from repro.engine import build_design
    from repro.netlist import analyze_timing, optimize

    checker = Checker()
    rng = random.Random(f"{ctx.seed}-vectors")
    order = random.Random(ctx.seed)
    tally = Tally()
    totals: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    passes = _timed_passes(totals) if ctx.trace else None
    deadline = Deadline(ctx.seconds)
    while not deadline.expired():
        tally.new_round()
        points = [(arch, w) for w in WIDTHS for arch in state["designs"]]
        order.shuffle(points)
        delays: Dict[Tuple[str, int], float] = {}
        for arch, width in points:
            start = cpu_clock()
            circuit = build_design(arch, width)
            elaborated = cpu_clock()
            optimized, stats = optimize(circuit, passes=passes, prove=True)
            optimized_at = cpu_clock()
            report = analyze_timing(optimized)
            end = cpu_clock()
            tally.add(1, end - start)
            tally.op(f"n{width}", end - start)
            delays[(arch, width)] = report.critical_delay
            if ctx.trace:
                totals["build"] = totals.get("build", 0.0) + elaborated - start
                totals["optimize"] = totals.get("optimize", 0.0) + optimized_at - elaborated
                totals["sta"] = totals.get("sta", 0.0) + end - optimized_at
                for pass_record in stats.pass_records:
                    key = _PROOF_KINDS.get(pass_record.method)
                    if key:
                        counts[key] = counts.get(key, 0) + 1
                counts["rollbacks"] = counts.get("rollbacks", 0) + stats.rollbacks
                counts["removed"] = counts.get("removed", 0) + stats.removed
            if ctx.plant == "nonequiv" and arch == "ripple":
                optimized = _planted_fault(optimized)
                ctx.plant = None
            _check_point(checker, rng, arch, width, circuit, optimized)
        top = max(WIDTHS)
        checker.run(
            "STA ranks ripple slower than kogge_stone",
            checks.slower, delays[("ripple", top)], delays[("kogge_stone", top)],
            f"n={top}",
        )

    rounds, ops = tally.rounds, tally.ops
    outcome = Outcome(
        attempted=len(ops),
        failed=0,
        e2e=tally.e2e(TAIL_Q),
        layers={},
        checker=checker,
        info={"rounds": rounds, "points": len(ops), "tail_q": TAIL_Q,
              "host_speed": tally.host_speed(),
              "mix": class_report(ops, (50, TAIL_Q))},
    )
    if ctx.trace:
        per_round = 1e3 / rounds
        outcome.layers = {
            "engine.elab.build_ms": totals["build"] * per_round,
            "netlist.optimize.passes_ms": totals["passes"] * per_round,
            "netlist.equiv.cec_ms": (totals["optimize"] - totals["passes"]) * per_round,
            "netlist.timing.sta_ms": totals["sta"] * per_round,
            "netlist.equiv.proofs.structural": counts.get("structural", 0) / rounds,
            "netlist.equiv.proofs.sim": counts.get("sim", 0) / rounds,
            "netlist.equiv.proofs.bdd": counts.get("bdd", 0) / rounds,
            "netlist.optimize.rollbacks": counts["rollbacks"] / rounds,
            "netlist.optimize.gates_removed": counts["removed"] / rounds,
        }
    return outcome
