"""Correctness checks on workload outputs.

Each check compares an output of the program with a computation made
apart from it (Python integer addition, the exact window-chain error
model, the reference netlist interpreter, an in-process rerun through
:mod:`repro.engine`) or with a property the method must have.  None
compares with a stored copy of earlier output.  Every check raises
:class:`CheckFailed` with a short reason; ``test_checks.py`` plants a
wrong output for each one.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Mapping, Sequence

from common import CheckFailed


def _first_mismatch(got: Sequence[int], want: Sequence[int], mask=None) -> int:
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w and (mask is None or not mask[i]):
            return i
    return -1


# -- Monte Carlo ------------------------------------------------------------


def rate_within_sigma(
    count: int, samples: int, exact: float, sigmas: float = 6.0
) -> None:
    """A binomial count lies within ``sigmas`` standard errors of ``exact``."""
    if samples <= 0:
        raise CheckFailed("no samples")
    se = math.sqrt(exact * (1.0 - exact) / samples)
    z = (count / samples - exact) / se if se > 0 else float(count != exact * samples)
    if abs(z) > sigmas:
        raise CheckFailed(
            f"rate {count}/{samples} is {z:+.2f} sigma from the exact {exact:.6g}"
        )


def at_least(big: int, small: int, what: str) -> None:
    """``big >= small`` (one counter must dominate another)."""
    if big < small:
        raise CheckFailed(f"{what}: {big} < {small}")


def below(small: int, big: int, what: str) -> None:
    """``small < big`` strictly."""
    if not small < big:
        raise CheckFailed(f"{what}: {small} >= {big}")


def identical(left: Mapping[str, Any], right: Mapping[str, Any], what: str) -> None:
    """Two aggregates are bit-identical."""
    if dict(left) != dict(right):
        keys = sorted(k for k in set(left) | set(right) if left.get(k) != right.get(k))
        raise CheckFailed(f"{what}: differ on {keys}")


# -- gate-level simulation --------------------------------------------------


def sums_exact(a: Sequence[int], b: Sequence[int], sums: Sequence[int], what: str) -> None:
    """Every ``sums[i] == a[i] + b[i]`` (Python integers)."""
    want = [x + y for x, y in zip(a, b)]
    if len(sums) != len(want):
        raise CheckFailed(f"{what}: {len(sums)} outputs for {len(want)} vectors")
    bad = _first_mismatch(sums, want)
    if bad >= 0:
        raise CheckFailed(f"{what}: vector {bad} gives {sums[bad]}, a + b = {want[bad]}")


def sums_exact_unless_flagged(
    a: Sequence[int],
    b: Sequence[int],
    sums: Sequence[int],
    flags: Sequence[int],
    what: str,
) -> None:
    """``sums[i] == a[i] + b[i]`` wherever the error flag is 0."""
    want = [x + y for x, y in zip(a, b)]
    bad = _first_mismatch(sums, want, flags)
    if bad >= 0:
        raise CheckFailed(
            f"{what}: vector {bad} gives {sums[bad]} with err=0, a + b = {want[bad]}"
        )


def same_fault_verdicts(fast, reference, what: str) -> None:
    """Two :class:`FaultReport` s give the same verdict for every fault."""
    got = (fast.total, fast.detected, sorted(map(repr, fast.undetected)))
    want = (reference.total, reference.detected, sorted(map(repr, reference.undetected)))
    if got != want:
        raise CheckFailed(
            f"{what}: {fast.detected}/{fast.total} detected, reference "
            f"{reference.detected}/{reference.total}"
        )


# -- optimizer sweep --------------------------------------------------------


def same_outputs(
    got: Mapping[str, Sequence[int]], want: Mapping[str, Sequence[int]], what: str
) -> None:
    """Two simulations agree on every output bus and vector."""
    if set(got) != set(want):
        raise CheckFailed(f"{what}: output buses {sorted(got)} vs {sorted(want)}")
    for name in sorted(want):
        bad = _first_mismatch(got[name], want[name])
        if bad >= 0 or len(got[name]) != len(want[name]):
            raise CheckFailed(f"{what}: bus {name!r} differs at vector {bad}")


def slower(slow: float, fast: float, what: str) -> None:
    """A timing report ranks one design strictly slower than another."""
    if not slow > fast:
        raise CheckFailed(f"{what}: {slow:.4g} is not slower than {fast:.4g}")


# -- service ----------------------------------------------------------------


def ok_body(status: int, body: bytes, kind: str) -> Dict[str, Any]:
    """A 200 answer is a well-formed success body; returns its result."""
    if status != 200:
        raise CheckFailed(f"{kind}: HTTP {status}")
    try:
        payload = json.loads(body)
    except ValueError:
        raise CheckFailed(f"{kind}: 200 body is not JSON: {body[:60]!r}") from None
    if not isinstance(payload, dict) or payload.get("ok") is not True:
        raise CheckFailed(f"{kind}: 200 body is not a success object")
    if payload.get("kind") != kind or not isinstance(payload.get("result"), dict):
        raise CheckFailed(f"{kind}: 200 body lacks kind/result")
    return payload["result"]


def result_matches(
    got: Mapping[str, Any], want: Mapping[str, Any], what: str
) -> None:
    """Every expected field of a served result equals the in-process one."""
    diff = sorted(k for k in want if got.get(k) != want[k])
    if diff:
        raise CheckFailed(
            f"{what}: served {[got.get(k) for k in diff]} != "
            f"in-process {[want[k] for k in diff]} on {diff}"
        )


def well_formed_rejection(status: int, body: bytes) -> bool:
    """A malformed request got a well-formed 4xx error body."""
    if not 400 <= status < 500:
        return False
    try:
        payload = json.loads(body)
    except ValueError:
        return False
    return (
        isinstance(payload, dict)
        and payload.get("ok") is False
        and isinstance(payload.get("error"), dict)
    )
