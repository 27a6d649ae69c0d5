"""One benchmark process: set up a workload, say when it is ready, run it.

Started by ``run.py`` (never by hand): the ``PERFBENCH-READY`` line
carries the CPU seconds spent from process start to ready (``setup_s``),
the ``PERFBENCH-RESULT`` line the run's outcome.  With ``--setup-only``
the process stops after set-up; the parent uses such processes as extra
set-up samples.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

from common import LAYER_UNITS, PLANTS, Context, cpu_stat, peak_rss_mib, write_trace

WORKLOADS = ("mc_rates", "gate_sim", "opt_sweep", "serve_closed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--plant", choices=PLANTS, default=None)
    args = parser.parse_args(argv)

    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        run_dir=args.run_dir,
        plant=args.plant,
    )
    module = importlib.import_module(args.workload)
    if ctx.trace:
        from repro import obs

        obs.reset()
        obs.enable()
    state = module.setup(ctx)
    # Set-up cost: CPU seconds of this process since it started (the
    # interpreter and imports included), plus any server it started.
    setup_cpu = time.process_time() + state.get("child_cpu_s", 0.0)
    print(f"PERFBENCH-READY {setup_cpu!r}", flush=True)
    try:
        if args.setup_only:
            return 0
        _, steal = cpu_stat()
        outcome = module.run(ctx, state)
        outcome.info["steal_s"] = round(cpu_stat()[1] - steal, 3)
    finally:
        module.teardown(state)

    e2e = dict(outcome.e2e)
    e2e.setdefault("peak_rss_mib", peak_rss_mib())
    # Whether this process had the C bit-plane accelerator: with it,
    # ``auto`` sends 256-vector batches to the vectorized backend.
    from repro.netlist.simulate import resolve_backend

    accel_loaded = resolve_backend("auto", 256) == "vectorized"
    layers = {}
    if ctx.trace:
        layers = {name: float(outcome.layers.get(name, 0.0)) for name in LAYER_UNITS}
        layers["netlist.accel.loaded"] = float(accel_loaded)
        outcome.info["trace_file"] = write_trace(ctx)
    result = {
        "correct": outcome.checker.ok,
        "accel_loaded": accel_loaded,
        "checks": outcome.checker.checks,
        "failures": outcome.checker.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "e2e": e2e,
        "layers": layers,
        "info": outcome.info,
    }
    print("PERFBENCH-RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
