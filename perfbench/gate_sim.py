"""``gate_sim``: closed-loop gate-level simulation and stuck-at grading.

Set-up elaborates and compiles {scsa1, vlcsa1, vlcsa2, kogge_stone,
designware} at n in {64, 256}.  One round then makes, one after another,

* small calls (1-64 vectors, the size machine stepping and served
  ``sim`` requests use): 40 on VLCSA 1 and 10 on each other design at
  n=64, 2 on each design at n=256;
* large calls of 1024, 4096 and 16384 vectors on every design, which
  carry most of the vectors, plus two more 16384-vector calls on VLCSA 2
  at n=256;
* stuck-at grading with ``fault_coverage`` of a seeded 256-fault slice of
  each n=64 design over 64 vectors.

All simulation goes through ``simulate_batch(..., backend="auto")``.  An
operation for ``p50_ms``/``tail_ms`` is one simulation call.  Of the 122
calls of a round the middle ranks are small VLCSA 1 calls, so the median
is one of those, and the slowest kind (16384 vectors on VLCSA 2 at
n=256, three calls a round) holds the 99th percentile.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import checks
from common import (
    Checker,
    Context,
    Deadline,
    Outcome,
    class_report,
    Tally,
    cpu_clock,
)

DESIGNS = ("scsa1", "vlcsa1", "vlcsa2", "kogge_stone", "designware")
WIDTHS = (64, 256)
EXACT = ("kogge_stone", "designware")
#: Small calls per design and round.  VLCSA 1 at n=64 gets the most, so
#: the median call is one of them and not a boundary between designs.
SMALL_CALLS = {
    64: {"scsa1": 10, "vlcsa1": 40, "vlcsa2": 10, "kogge_stone": 10, "designware": 10},
    256: dict.fromkeys(DESIGNS, 2),
}
LARGE_SIZES = (1024, 4096, 16384)
#: The slowest kind of call, repeated so that it holds the whole tail.
TAIL_CALL = ("vlcsa2", 256, 16384)
TAIL_REPEAT = 3
FAULT_SLICE = 256
FAULT_VECTORS = 64
POOL = 1 << 15

#: Percentile behind ``tail_ms``: a 15 s run makes >= 1000 calls (2100 to
#: 2800 here), so at least ten lie beyond it.
TAIL_Q = 99.0


def setup(ctx: Context):
    from repro.engine import build_design
    from repro.netlist import compile_circuit, enumerate_faults, simulate_batch
    from repro.obs import span

    rng = random.Random(ctx.seed)
    pools = {
        n: ([rng.getrandbits(n) for _ in range(POOL)], [rng.getrandbits(n) for _ in range(POOL)])
        for n in WIDTHS
    }
    circuits = {}
    build_s = compile_s = 0.0
    for n in WIDTHS:
        for arch in DESIGNS:
            start = cpu_clock()
            with span("engine.elab.build", architecture=arch, width=n):
                circuit = build_design(arch, n)
            mid = cpu_clock()
            with span("netlist.compile.compile", architecture=arch, width=n):
                compile_circuit(circuit)
            compile_s += cpu_clock() - mid
            build_s += mid - start
            circuits[(arch, n)] = circuit
            # First calls on each backend finish the lazy per-circuit
            # set-up (vector plan, limb runner, I/O selectors).
            a, b = pools[n]
            for size in (8, LARGE_SIZES[0]):
                simulate_batch(circuit, {"a": a[:size], "b": b[:size]})
    faults = {
        arch: sorted(
            random.Random(f"{ctx.seed}-{arch}").sample(
                enumerate_faults(circuits[(arch, 64)]), FAULT_SLICE
            ),
            key=lambda f: (f.net, f.stuck_at),
        )
        for arch in DESIGNS
    }
    return {
        "pools": pools,
        "circuits": circuits,
        "faults": faults,
        "build_ms": build_s * 1e3,
        "compile_ms": compile_s * 1e3,
    }


def teardown(state) -> None:
    pass


def _round_calls(rng: random.Random) -> List[Tuple[str, int, int]]:
    calls = []
    for n in WIDTHS:
        for arch in DESIGNS:
            calls += [(arch, n, rng.randint(1, 64)) for _ in range(SMALL_CALLS[n][arch])]
            calls += [(arch, n, size) for size in LARGE_SIZES]
    calls += [TAIL_CALL] * (TAIL_REPEAT - 1)
    rng.shuffle(calls)
    return calls


def _check_outputs(checker: Checker, arch: str, n: int, a, b, out) -> None:
    what = f"{arch}@{n}"
    if arch in EXACT:
        checker.run("exact adder sum == a + b", checks.sums_exact, a, b, out["sum"], what)
    if "sum_rec" in out:
        checker.run("sum_rec == a + b", checks.sums_exact, a, b, out["sum_rec"], what)
        checker.run(
            "VLCSA sum == a + b where err = 0",
            checks.sums_exact_unless_flagged, a, b, out["sum"], out["err"], what,
        )


def _check_fault_reference(checker: Checker, seed: int) -> None:
    """Fault verdicts on a small instance against the one-pass-per-fault
    reference simulator."""
    from repro.engine import build_design
    from repro.netlist import fault_coverage, fault_coverage_reference

    rng = random.Random(seed)
    for arch in ("vlcsa1", "kogge_stone"):
        circuit = build_design(arch, 12)
        vectors = {
            "a": [rng.getrandbits(12) for _ in range(24)],
            "b": [rng.getrandbits(12) for _ in range(24)],
        }
        checker.run(
            "fault verdicts == fault_coverage_reference",
            checks.same_fault_verdicts,
            fault_coverage(circuit, vectors),
            fault_coverage_reference(circuit, vectors),
            f"{arch}@12",
        )


def _layer_metrics(spans, rounds: int) -> Dict[str, float]:
    """Per-round pack/eval/unpack time by batch size, from the program's
    own ``sim.*`` spans (fault-grading passes left out)."""
    by_id = {s.span_id: s for s in spans}
    layers: Dict[str, float] = {}
    stage = {"sim.pack": "pack", "sim.exec": "eval", "sim.unpack": "unpack"}
    for s in spans:
        if s.name == "faults.coverage":
            key = "netlist.faults.coverage_ms"
            layers[key] = layers.get(key, 0.0) + s.dur_us / 1e3 / rounds
        elif "faults.coverage" in s.path:
            continue
        elif s.name == "sim.batch":
            key = f"netlist.sim.calls.{s.args.get('backend')}"
            layers[key] = layers.get(key, 0.0) + 1.0 / rounds
        elif s.name in stage:
            parent = by_id.get(s.parent_id)
            small = parent is not None and parent.args.get("vectors", 0) <= 64
            size = "small" if small else "large"
            key = f"netlist.compile.{size}.{stage[s.name]}_ms"
            layers[key] = layers.get(key, 0.0) + s.dur_us / 1e3 / rounds
    return layers


def run(ctx: Context, state) -> Outcome:
    from repro.netlist import fault_coverage, simulate_batch
    from repro.obs import global_collector

    checker = Checker()
    pools, circuits, faults = state["pools"], state["circuits"], state["faults"]
    global_collector().clear()
    rng = random.Random(f"{ctx.seed}-calls")
    tally = Tally()
    fault_s = 0.0
    graded = detected = 0
    fault_calls = 0
    deadline = Deadline(ctx.seconds)
    while not deadline.expired():
        tally.new_round()
        rounds = tally.rounds
        for arch, n, size in _round_calls(rng):
            a_pool, b_pool = pools[n]
            offset = rng.randrange(POOL - size)
            a, b = a_pool[offset : offset + size], b_pool[offset : offset + size]
            start = cpu_clock()
            out = simulate_batch(circuits[(arch, n)], {"a": a, "b": b}, backend="auto")
            elapsed = cpu_clock() - start
            tally.add(size, elapsed)
            tally.op(f"{arch}@{n}/{'small' if size <= 64 else size}", elapsed)
            if ctx.plant == "sum_bit" and rounds == 1 and arch == "kogge_stone":
                out["sum"][0] ^= 1
                ctx.plant = None
            _check_outputs(checker, arch, n, a, b, out)
        for arch in DESIGNS:
            a_pool, b_pool = pools[64]
            offset = rng.randrange(POOL - FAULT_VECTORS)
            grading = {
                "a": a_pool[offset : offset + FAULT_VECTORS],
                "b": b_pool[offset : offset + FAULT_VECTORS],
            }
            start = cpu_clock()
            report = fault_coverage(circuits[(arch, 64)], grading, faults=faults[arch])
            fault_s += cpu_clock() - start
            fault_calls += 1
            graded += report.total
            detected += report.detected
    _check_fault_reference(checker, ctx.seed)

    rounds, ops = tally.rounds, tally.ops
    outcome = Outcome(
        attempted=len(ops) + fault_calls,
        failed=0,
        e2e=tally.e2e(TAIL_Q),
        layers={},
        checker=checker,
        info={
            "rounds": rounds,
            "sim_calls": len(ops),
            "fault_calls": fault_calls,
            "faults_per_s": graded / fault_s,
            "tail_q": TAIL_Q,
            "host_speed": tally.host_speed(),
            "mix": class_report(ops, (50, TAIL_Q)),
        },
    )
    if ctx.trace:
        layers = _layer_metrics(global_collector().spans, rounds)
        layers.update(
            {
                "engine.elab.build_ms": state["build_ms"],
                "netlist.compile.compile_ms": state["compile_ms"],
                "netlist.faults.graded": graded / rounds,
                "netlist.faults.detected": detected / rounds,
                "netlist.faults.faults_per_s": graded / fault_s,
            }
        )
        outcome.layers = layers
    return outcome
