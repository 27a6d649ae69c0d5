"""``mc_rates``: a serial Monte Carlo error/stall study.

One round runs eight :class:`MonteCarloErrorJob` s — n in {64, 256},
uniform and two's-complement Gaussian operands, the default four counters
(the per-window ``window_profile`` path) and ``scsa1`` only (the SWAR
kernel) — once through ``run_jobs(workers=0)`` and once through
``run_checkpointed`` into a fresh directory.  An operation is one chunk,
timed from the engines' ``progress`` callbacks.

The mix is sized so the reported percentiles sit inside one class of
chunk: 40 of the 56 chunks of a round are SWAR chunks (a few ms), so the
median is a SWAR chunk; the 8 slowest are n=64 four-counter chunks, so
the 98th percentile is one of those.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from dataclasses import replace
from typing import Dict, Tuple

import numpy as np

import checks
from common import (
    Checker,
    Context,
    Deadline,
    Outcome,
    class_report,
    Tally,
    cpu_clock,
    span_totals_ms,
)

FOUR = ("scsa1", "vlcsa1_nominal", "vlcsa2", "vlcsa2_stall")
SWAR = ("scsa1",)

#: (width, window, distribution, counters, chunk_size, chunks) per job.
JOBS: Tuple[Tuple[int, int, str, Tuple[str, ...], int, int], ...] = (
    (64, 8, "uniform", FOUR, 1 << 16, 2),
    (64, 8, "uniform", SWAR, 1 << 16, 5),
    (64, 8, "gaussian", FOUR, 1 << 16, 2),
    (64, 8, "gaussian", SWAR, 1 << 16, 5),
    (256, 10, "uniform", FOUR, 1 << 14, 2),
    (256, 10, "uniform", SWAR, 1 << 14, 5),
    (256, 10, "gaussian", FOUR, 1 << 14, 2),
    (256, 10, "gaussian", SWAR, 1 << 14, 5),
)

#: Percentile behind ``tail_ms``: a 15 s run times >= 500 chunks (about
#: 1000 here), so at least ten lie beyond it.
TAIL_Q = 98.0


def _job_seed(seed: int, round_index: int, job_index: int) -> int:
    return int(np.random.SeedSequence([seed, round_index, job_index]).generate_state(1)[0])


def make_jobs(seed: int, round_index: int):
    from repro.engine import MonteCarloErrorJob

    return [
        MonteCarloErrorJob(
            width=width,
            window=window,
            samples=chunk * chunks,
            distribution=dist,
            seed=_job_seed(seed, round_index, j),
            chunk_size=chunk,
            counters=counters,
        )
        for j, (width, window, dist, counters, chunk, chunks) in enumerate(JOBS)
    ]


def setup(ctx: Context):
    from repro.model.error_model import scsa_error_rate_exact

    exact = {
        (width, window): scsa_error_rate_exact(width, window)
        for width, window, *_ in JOBS
    }
    make_jobs(ctx.seed, 0)  # validates every job spec
    return {"exact": exact}


def teardown(state) -> None:
    pass


class _ChunkClock:
    """Turns ``progress`` callbacks into one timed operation per chunk."""

    def __init__(self, tally: Tally, label: str):
        self.tally = tally
        self.label = label
        self.done = 0
        self.last = cpu_clock()

    def __call__(self, done, total, aggregates) -> None:
        now = cpu_clock()
        if done > self.done:
            step = (now - self.last) / (done - self.done)
            for _ in range(done - self.done):
                self.tally.op(self.label, step)
        self.done = done
        self.last = now


#: ``(module, name, layer span)``: the functions the engine's Monte Carlo
#: chunk code looks up by name at call time.  Traced runs wrap each one
#: in an obs span, so the layer times come from the engine's own chunks.
#: A name the engine no longer has is left alone and its layer reads 0.
_LAYER_CALLS = (
    ("repro.inputs.generators", "uniform_operands", "inputs.operands"),
    ("repro.inputs.generators", "gaussian_operands", "inputs.operands"),
    ("repro.engine.jobs", "window_profile", "model.window_profile"),
    ("repro.engine.jobs", "err0_flags", "model.window_profile"),
    ("repro.engine.jobs", "err1_flags", "model.window_profile"),
    ("repro.engine.jobs", "scsa1_error_flags", "model.window_profile"),
    ("repro.engine.jobs", "scsa2_s1_error_flags", "model.window_profile"),
    ("repro.engine.jobs", "scsa1_error_count", "engine.kernels.swar"),
)


def _instrument() -> None:
    """Wrap the engine's layer calls in obs spans (traced runs only)."""
    from repro.obs import span

    for module_name, name, layer in _LAYER_CALLS:
        module = importlib.import_module(module_name)
        fn = getattr(module, name, None)
        if fn is None:
            continue

        @functools.wraps(fn)
        def wrapper(*args, _fn=fn, _layer=layer, **kwargs):
            with span(_layer):
                return _fn(*args, **kwargs)

        setattr(module, name, wrapper)


def _check_job(checker: Checker, job, plain: dict, durable: dict, exact: Dict) -> None:
    name = f"n={job.width} {job.distribution} {'+'.join(job.counters)}"
    checker.run("run_jobs == run_checkpointed", checks.identical, plain, durable, name)
    if job.distribution == "uniform":
        checker.run(
            "uniform scsa1 rate within 6 sigma of the exact model",
            checks.rate_within_sigma,
            plain["scsa1_errors"],
            plain["samples"],
            exact[(job.width, job.window)],
        )
    if "vlcsa1_nominal" in job.counters:
        checker.run(
            "ERR0 misses no error", checks.at_least,
            plain["vlcsa1_nominal"], plain["scsa1_errors"], name,
        )
        checker.run(
            "VLCSA 2 stalls cover its errors", checks.at_least,
            plain["vlcsa2_stalls"], plain["vlcsa2_errors"], name,
        )
        if job.distribution == "gaussian":
            checker.run(
                "VLCSA 2 stalls below VLCSA 1 detections on Gaussian inputs",
                checks.below, plain["vlcsa2_stalls"], plain["vlcsa1_nominal"], name,
            )


def run(ctx: Context, state) -> Outcome:
    from repro.engine import run_checkpointed, run_jobs
    from repro.obs import global_collector, span

    checker = Checker()
    exact = state["exact"]
    ckpt_root = ctx.path("checkpoints")
    if ctx.trace:
        _instrument()

    # Untimed warm-up: one chunk of every job kind, so lazy imports and
    # first-call allocations stay out of the timed rounds.
    for job in make_jobs(ctx.seed, 0):
        run_jobs([replace(job, samples=job.chunk_size)])
    global_collector().clear()

    tally = Tally()
    plain_s = 0.0
    publish_s = compute_s = fold_s = 0.0
    chunks = plain_chunks = 0
    deadline = Deadline(ctx.seconds)
    while not deadline.expired():
        tally.new_round()
        rounds = tally.rounds
        for j, job in enumerate(make_jobs(ctx.seed, rounds)):
            label = f"n{job.width}-{job.distribution}-{len(job.counters)}ctr"
            start = cpu_clock()
            with span("engine.run_jobs"):
                plain = run_jobs([job], workers=0, progress=_ChunkClock(tally, label))[0]
            mid = cpu_clock()
            wall_mid = time.perf_counter()
            directory = os.path.join(ckpt_root, f"r{rounds}-j{j}")
            with span("engine.run_checkpointed"):
                durable = run_checkpointed(
                    job, directory, progress=_ChunkClock(tally, label + "-ckpt")
                )
            end = cpu_clock()
            wall_end = time.perf_counter()
            tally.add(2 * job.samples, end - start)
            plain_s += mid - start

            plain_payload = plain.aggregate.to_payload()
            durable_payload = durable.aggregate.to_payload()
            if ctx.plant == "rate_7sigma" and rounds == 1 and j == 1:
                p = exact[(job.width, job.window)]
                shift = math.ceil(7 * math.sqrt(p * (1 - p) * job.samples))
                plain_payload["scsa1_errors"] += shift
                durable_payload["scsa1_errors"] += shift
            checker.run(
                "checkpointed run is complete",
                checks.identical,
                {"done": durable.done_chunks, "partial": durable.partial},
                {"done": durable.total_chunks, "partial": False},
                "run_checkpointed",
            )
            _check_job(checker, job, plain_payload, durable_payload, exact)

            if ctx.trace:
                chunk = durable.stats["chunk_s"].total
                publish = durable.stats["checkpoint_s"].total
                compute_s += chunk
                publish_s += publish
                fold_s += max(0.0, (wall_end - wall_mid) - chunk - publish)
                plain_chunks += plain.metrics.counters.get("chunks", 0)
                chunks += plain.metrics.counters.get("chunks", 0)
                chunks += durable.metrics.counters.get("chunks", 0)

    rounds = tally.rounds
    outcome = Outcome(
        attempted=len(tally.ops),
        failed=0,
        e2e=tally.e2e(TAIL_Q),
        layers={},
        checker=checker,
        info={"rounds": rounds, "samples": tally.work, "tail_q": TAIL_Q,
              "host_speed": tally.host_speed(),
              "mix": class_report(tally.ops, (50, TAIL_Q))},
    )
    if ctx.trace:
        totals = span_totals_ms(global_collector().spans)
        outcome.layers = {
            "inputs.operands_ms": totals.get("inputs.operands", 0.0) / rounds,
            "model.window_profile_ms": totals.get("model.window_profile", 0.0) / rounds,
            "engine.kernels.swar_ms": totals.get("engine.kernels.swar", 0.0) / rounds,
            "engine.chunk_ms": 1e3 * plain_s / plain_chunks,
            "engine.chunks": chunks / rounds,
            "engine.checkpoint.publish_ms": 1e3 * publish_s / rounds,
            "engine.checkpoint.fold_ms": 1e3 * fold_s / rounds,
            "engine.checkpoint.overhead": publish_s / compute_s,
        }
    return outcome
