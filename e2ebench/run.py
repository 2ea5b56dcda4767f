"""Cold end-to-end ANMAT session benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed in a separate process,
then runs cold sessions -- each in a fresh process -- until ``S``
seconds have passed (at least ``MIN_ROUNDS``).  Every session's rules
and violations are checked against a from-scratch monolithic run.

``--trace 0`` reports the end-to-end metrics, medians over the rounds.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, with ``trace.overhead`` (traced
over untraced session time); the spans of each traced round stay in
``.e2ebench_work/traces/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

import paths  # noqa: E402  (fails fast outside a source checkout)

from layers import PER_LAYER_METRICS, layer_unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: untraced rounds per run at the least: medians of three
MIN_ROUNDS = 3
#: no round starts once this much of the run's wall time is gone
#: unless it is needed to reach ``MIN_ROUNDS``
WALL_BUDGET_S = 160.0
#: percentiles the latency rule may pick from
PERCENTILES = (50, 90, 95, 99, 99.9)

#: per-round values printed above the medians
ROUND_SUMMARY = ("setup_s", "profile_ready_s", "rules_ready_s", "violations_ready_s",
                 "recheck_s", "session_s", "session_raw_s", "probe_ms")

END_TO_END_UNITS = {
    "setup_s": "s",
    "profile_ready_s": "s",
    "rules_ready_s": "s",
    "violations_ready_s": "s",
    "first_edit_s": "s",
    "edit_p90_ms": "ms",
    "recheck_s": "s",
    "session_s": "s",
    "peak_rss_mb": "MB",
    "detect_f1": "ratio",
}


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile, interpolating between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_percentile(n_samples: int, candidates: Sequence[float] = PERCENTILES):
    """The highest candidate percentile with at least ten samples beyond
    it, or ``None`` when even the lowest has fewer."""
    allowed = [p for p in candidates if round(n_samples * (100 - p) / 100.0, 9) >= 10]
    return max(allowed) if allowed else None


def _child_env(work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["TMPDIR"] = str(work)
    return env


def _run_child(args: List[str], work: Path, timeout: float) -> str:
    """Run a benchmark script in a fresh interpreter; return its stdout."""
    completed = subprocess.run(
        [sys.executable, *args],
        cwd=paths.REPO_ROOT,
        env=_child_env(work),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{args[0]} exited {completed.returncode}:\n{completed.stderr[-2000:]}"
        )
    return completed.stdout


def _round(work: Path, deadline: float, trace: Path = None) -> Dict:
    """One cold session in a fresh process over the inputs in ``work``."""
    args = [str(paths.BENCH_DIR / "session_round.py"), "--inputs", str(work)]
    if trace is not None:
        args += ["--trace", str(trace)]
    try:
        out = _run_child(args, work, max(1.0, deadline - time.monotonic()))
        return json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as error:
        return {"attempted": 1, "failed": 1, "errors": [f"round: {error}"]}


def end_to_end(rounds: List[Dict]) -> Dict[str, float]:
    """Medians over a run's rounds; edit latencies pooled over rounds."""
    first = [s for r in rounds for s in r["first_edits"]]
    later = [s for r in rounds for s in r["later_edits"]]
    top = highest_percentile(len(later))
    if top is None or top < 90:
        raise ValueError(f"{len(later)} later edits cannot support a p90")
    metrics = {
        key: statistics.median(r[key] for r in rounds)
        for key in ("setup_s", "profile_ready_s", "rules_ready_s", "violations_ready_s",
                    "recheck_s", "session_s", "peak_rss_mb", "detect_f1")
    }
    metrics["first_edit_s"] = statistics.median(first)
    metrics["edit_p90_ms"] = percentile(later, 90) * 1000.0
    # the median edit is printed, not bounded: a round's edits run in one
    # burst of well under a second, so it flips with the host's speed at
    # that moment (run-to-run spread up to 0.4 on a shared 2-core VM)
    print(
        f"  edits: {len(first)} first, {len(later)} later; "
        f"p50 {percentile(later, 50) * 1000.0:.3f} ms, "
        f"p{top:g} {percentile(later, top) * 1000.0:.3f} ms"
    )
    return metrics


def per_layer(traced: List[Dict], untraced: List[Dict]) -> Dict[str, float]:
    """Medians of the traced rounds' layer metrics, plus the overhead."""
    metrics = {
        name: statistics.median(r["layer"][name] for r in traced)
        for name in PER_LAYER_METRICS
        if name != "trace.overhead"
    }
    # raw wall seconds on both sides: a traced round is not normalised
    metrics["trace.overhead"] = statistics.median(
        r["session_raw_s"] for r in traced
    ) / statistics.median(r["session_raw_s"] for r in untraced)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.monotonic()
    deadline = started + WALL_BUDGET_S
    work_root = paths.WORK_DIR
    work = work_root / f"{workload}-{seed}-{os.getpid()}"
    traces = work_root / "traces"
    work.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    try:
        _run_child(
            [str(paths.BENCH_DIR / "gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(work)],
            work,
            WALL_BUDGET_S,
        )
        measure_start = time.monotonic()
        rounds: List[Dict] = []
        traced: List[Dict] = []
        # a traced run measures untraced/traced pairs, at least one
        min_rounds = 1 if trace else MIN_ROUNDS
        last = 0.0
        while len(rounds) < min_rounds or (
            time.monotonic() - measure_start < seconds
            and time.monotonic() + last < deadline
        ):
            round_start = time.monotonic()
            rounds.append(_round(work, deadline))
            if trace:
                path = traces / f"{workload}-{seed}-{len(traced)}.jsonl"
                traced.append(_round(work, deadline, trace=path))
            last = time.monotonic() - round_start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everything = rounds + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    for r in everything:
        for error in r["errors"]:
            print(f"  FAILED {error}")
    correct = failed == 0
    print(f"{workload} seed {seed}: {len(rounds)} rounds, {attempted} operations, {failed} failed")
    for index, r in enumerate(rounds):
        if "session_s" in r:
            print(f"  round {index}: " + " ".join(
                f"{key}={r[key]:.4f}" for key in ROUND_SUMMARY))
    metrics: Dict[str, Dict] = {}
    if correct:
        if trace:
            values = per_layer(traced, rounds)
            units = {name: layer_unit(name) for name in values}
        else:
            values = end_to_end(rounds)
            units = END_TO_END_UNITS
        for name, value in values.items():
            print(f"  {name:34s} {value:14.4f} {units[name]}")
            metrics[name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
