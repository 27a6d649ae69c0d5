"""Every correctness check of the benchmark can fail.

Each test plants one wrong output — a flipped sum bit, a rate moved 7
sigma off the exact model, an optimized circuit that is not equivalent,
a malformed 200 body — and confirms the check rejects it; the ``run``
tests plant the same faults inside real benchmark runs and confirm the
run reports ``"correct": false``.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

import checks
from common import ROOT, CheckFailed

sys.path.insert(0, os.path.join(ROOT, "src"))

HERE = os.path.dirname(os.path.abspath(__file__))


def _vectors(width: int, count: int, seed: int = 7):
    rng = random.Random(seed)
    return [rng.getrandbits(width) for _ in range(count)], [
        rng.getrandbits(width) for _ in range(count)
    ]


def test_flipped_sum_bit_is_caught():
    from repro.engine import build_design
    from repro.netlist import simulate_batch

    a, b = _vectors(64, 32)
    out = simulate_batch(build_design("kogge_stone", 64), {"a": a, "b": b})
    checks.sums_exact(a, b, out["sum"], "kogge_stone")
    out["sum"][5] ^= 1 << 17
    with pytest.raises(CheckFailed):
        checks.sums_exact(a, b, out["sum"], "kogge_stone")


def test_wrong_sum_with_err_clear_is_caught():
    from repro.engine import build_design
    from repro.netlist import simulate_batch

    a, b = _vectors(64, 64)
    out = simulate_batch(build_design("vlcsa1", 64), {"a": a, "b": b})
    checks.sums_exact_unless_flagged(a, b, out["sum"], out["err"], "vlcsa1")
    clear = out["err"].index(0)
    out["sum"][clear] ^= 1
    with pytest.raises(CheckFailed):
        checks.sums_exact_unless_flagged(a, b, out["sum"], out["err"], "vlcsa1")


def test_rate_seven_sigma_off_is_caught():
    from repro.model.error_model import scsa_error_rate_exact

    p, n = scsa_error_rate_exact(64, 8), 1 << 17
    exact_count = round(p * n)
    checks.rate_within_sigma(exact_count, n, p)
    shift = math.ceil(7 * math.sqrt(p * (1 - p) * n))
    for moved in (exact_count + shift, exact_count - shift):
        with pytest.raises(CheckFailed):
            checks.rate_within_sigma(moved, n, p)


def test_counter_orderings_are_enforced():
    with pytest.raises(CheckFailed):
        checks.at_least(9, 10, "nominal >= errors")
    with pytest.raises(CheckFailed):
        checks.below(10, 10, "stalls < nominal")
    with pytest.raises(CheckFailed):
        checks.identical({"scsa1_errors": 3}, {"scsa1_errors": 4}, "engines")


def test_non_equivalent_optimized_circuit_is_caught():
    from repro.engine import build_design
    from repro.netlist import Fault, apply_fault, optimize, simulate_batch_reference

    circuit = build_design("ripple", 16)
    optimized, _ = optimize(circuit, prove=True)
    a, b = _vectors(16, 64)
    want = simulate_batch_reference(circuit, {"a": a, "b": b})
    checks.same_outputs(simulate_batch_reference(optimized, {"a": a, "b": b}), want, "ripple")
    broken = apply_fault(optimized, Fault(net=optimized.output_buses["sum"][0], stuck_at=0))
    with pytest.raises(CheckFailed):
        checks.same_outputs(simulate_batch_reference(broken, {"a": a, "b": b}), want, "ripple")


def test_sta_ranking_is_enforced():
    with pytest.raises(CheckFailed):
        checks.slower(1.0, 2.0, "ripple vs kogge_stone")


def test_malformed_200_body_is_caught():
    good = json.dumps({"ok": True, "kind": "sim", "result": {"digest": "x"}}).encode()
    assert checks.ok_body(200, good, "sim") == {"digest": "x"}
    for bad in (good[:-3], b"", json.dumps({"ok": True, "kind": "sim"}).encode()):
        with pytest.raises(CheckFailed):
            checks.ok_body(200, bad, "sim")
    with pytest.raises(CheckFailed):
        checks.ok_body(500, good, "sim")
    with pytest.raises(CheckFailed):
        checks.result_matches({"digest": "x"}, {"digest": "y"}, "sim")


def test_fault_verdict_mismatch_is_caught():
    from repro.engine import build_design
    from repro.netlist import fault_coverage, fault_coverage_reference

    circuit = build_design("vlcsa1", 8)
    a, b = _vectors(8, 16)
    fast = fault_coverage(circuit, {"a": a, "b": b})
    reference = fault_coverage_reference(circuit, {"a": a, "b": b})
    checks.same_fault_verdicts(fast, reference, "vlcsa1")
    fast.undetected = fast.undetected[1:]
    fast.detected += 1
    with pytest.raises(CheckFailed):
        checks.same_fault_verdicts(fast, reference, "vlcsa1")


def test_rejections_are_judged_on_status_and_body():
    body = json.dumps({"ok": False, "error": {"code": "bad-length"}}).encode()
    assert checks.well_formed_rejection(400, body)
    assert not checks.well_formed_rejection(500, body)
    assert not checks.well_formed_rejection(413, b"oops")


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


@pytest.mark.parametrize(
    "workload, plant",
    [
        ("gate_sim", "sum_bit"),
        ("mc_rates", "rate_7sigma"),
        ("opt_sweep", "nonequiv"),
        ("serve_closed", "bad_body"),
    ],
)
def test_planted_fault_fails_the_run(workload, plant):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--plant", plant)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert "check failed" in proc.stderr


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "mc_rates", "--seed", "1", "--seconds", "1",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
