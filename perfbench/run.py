"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload mc_rates --seed 1 --seconds 10 --trace 0

runs one workload for ``--seconds`` seconds of whole rounds and prints,
as its last line, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics untraced (``--trace 0``), the per-layer metrics
traced (``--trace 1``, which also writes a Chrome trace under
``.perfbench/traces/``).

    python3 perfbench/run.py --workload gate_sim --steady 5 --seconds 10

runs the workload five times on seeds 1..5 and prints each end-to-end
metric's median, quartiles and spread next to its bound in
``BENCHMARK.json``.

Every run gets its own state directory under ``.perfbench/runs/`` (an
empty elaboration disk cache, fresh checkpoint directories, the server
socket and its stderr), removed when the run ends.  The C bit-plane
accelerator is built once into ``.perfbench/accel`` before any timed
process starts; a run whose timed process could not load it exits with
code 2 and prints no result.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from common import E2E_UNITS, LAYER_UNITS, PLANTS, ROOT, STATE

WORKLOADS = ("mc_rates", "gate_sim", "opt_sweep", "serve_closed")

#: Fresh worker processes whose set-up is timed for ``setup_s`` per run
#: (the last one also runs the workload); the reported value is their
#: median.
SETUP_SAMPLES = 3

#: Hard cap on one run, inside the 180 s every run must finish in.
RUN_TIMEOUT_S = 170.0

HERE = os.path.dirname(os.path.abspath(__file__))


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _environment(run_dir: str) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        REPRO_ACCEL_CACHE=os.path.join(STATE, "accel"),
        REPRO_ENGINE_CACHE=os.path.join(run_dir, "engine-cache"),
        XDG_CACHE_HOME=os.path.join(run_dir, "xdg-cache"),
        TMPDIR=os.path.join(run_dir, "tmp"),
        PYTHONHASHSEED="0",
    )
    env.pop("REPRO_ACCEL", None)
    return env


def _build_accelerator(env: dict) -> None:
    """Build the C accelerator (once per checkout) outside any timed
    process; whether it loads is recorded by the worker that is timed."""
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.netlist.simulate import resolve_backend;"
            "resolve_backend('auto', 256)",
        ],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import repro: {probe.stderr.strip()[-400:]}")


def _run_worker(args, env, run_dir: str, setup_only: bool, deadline: float):
    """Start one worker process; returns (set-up CPU seconds it reported,
    its result or None)."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--run-dir", run_dir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.plant:
        cmd += ["--plant", args.plant]
    # Its own process group, so a worker stopped at the deadline takes
    # any server it started down with it.
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill_group)
    timer.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("PERFBENCH-READY ") and ready is None:
                ready = float(line.split()[1])
            elif line.startswith("PERFBENCH-RESULT "):
                result = json.loads(line.split(" ", 1)[1])
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return ready, result


def run_once(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return _fail(f"no repro package under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    run_dir = os.path.join(STATE, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    for sub in ("tmp", "engine-cache", "xdg-cache"):
        os.makedirs(os.path.join(run_dir, sub))
    env = _environment(run_dir)
    try:
        _build_accelerator(env)
        setups = []
        result = None
        for i in range(SETUP_SAMPLES):
            last = i == SETUP_SAMPLES - 1
            seconds, result = _run_worker(args, env, run_dir, not last, deadline)
            setups.append(seconds)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if result is None:
        return _fail("the workload printed no result")

    if not result["accel_loaded"]:
        # Without the C transpose path ``auto`` routes batches differently
        # and every simulation figure moves: such a run is not comparable,
        # so it prints no result.
        return _fail("the C accelerator did not load in the timed process; "
                     "no result is reported")
    info = dict(result["info"], checks=result["checks"])
    for failure in result["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    if args.trace:
        metrics = {
            name: {"value": result["layers"][name], "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
        info["traced_e2e"] = result["e2e"]
    else:
        values = dict(result["e2e"], setup_s=statistics.median(setups))
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in E2E_UNITS.items()
        }
    info["setup_samples_s"] = setups
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


def _bounds() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def steady(args) -> int:
    """Run one workload ``--steady`` times on consecutive seeds and report
    each end-to-end metric's median, quartiles and spread (IQR / median)."""
    bounds = _bounds()
    values = {name: [] for name in E2E_UNITS}
    shares = set()
    for i in range(args.steady):
        seed = args.seed + i
        proc = subprocess.run(
            [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ],
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S + 10,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return _fail(f"seed {seed}: run failed")
        info = json.loads(lines[-2][2:])
        result = json.loads(lines[-1])
        shares.add((result["failed"], result["attempted"]))
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for name in values:
            values[name].append(row[name])
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} steal_s={info.get('steal_s')} "
            + (f"host_speed={info['host_speed']:.4g} " if "host_speed" in info else "")
            + " ".join(f"{k}={v:.5g}" for k, v in row.items()),
            flush=True,
        )
    print(f"\n{args.workload}: {len(values['setup_s'])} runs of {args.seconds} s")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread <= bound / 3 else "WIDE")
        print(f"{name:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}{bound!s:>8} {flag}")
    failed_shares = {f / a for f, a in shares}
    print(f"failed share per run: {sorted(failed_shares)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run N seeds untraced and report the spread")
    parser.add_argument("--plant", choices=PLANTS, default=None,
                        help="plant a wrong output (the checks must catch it)")
    args = parser.parse_args(argv)
    if args.steady:
        return steady(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
