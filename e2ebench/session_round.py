"""One cold session through the public ``AnmatSession`` API.

Run in a fresh process per round, so every cache starts cold::

    python3 e2ebench/session_round.py --inputs DIR [--trace SPANS.jsonl]

The session is upload -> profile -> discover -> ``confirm_all`` ->
detect -> edit batches, each followed by ``recheck`` -> ``close``.  The
round prints one JSON line: the timings of every operation, the outputs
check against the reference in ``DIR/inputs.json``, and, with
``--trace``, the per-layer metrics (the spans are written to the given
file when the session ends).

An untraced round samples the host's speed all through the session and
reports every time normalised by it (``calib.py``); a traced round
reports raw wall times, like its spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import paths  # noqa: E402  (puts the repo's src/ on sys.path)

from repro import perf  # noqa: E402
from repro.anmat.session import AnmatSession  # noqa: E402
from repro.dataset import csvio  # noqa: E402
from repro.discovery.config import DiscoveryConfig  # noqa: E402

import calib  # noqa: E402
import layers  # noqa: E402
from check import checkpoint, f1, mismatches  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class OperationFailed(Exception):
    """A session operation raised; the round cannot go on."""


class Ops:
    """Runs session operations, recording each one's wall interval and
    counting failures; returns the operation's index in ``intervals``."""

    def __init__(self, tracer: Optional[Tracer], sampler: Optional[calib.Sampler]) -> None:
        self.tracer = tracer
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.intervals: List[Tuple[float, float]] = []

    def __call__(self, name: str, fn, *args) -> int:
        """Run ``fn(*args)``."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            if self.tracer is None:
                fn(*args)
            else:
                self.tracer.span(layers.OP_PREFIX + name, fn, *args)
        except Exception as error:
            self.failed += 1
            self.errors.append(f"{name}: {type(error).__name__}: {error}")
            raise OperationFailed(name) from error
        self.intervals.append((started, time.perf_counter()))
        return len(self.intervals) - 1

    def short(self, name: str, fn, *args) -> int:
        """Run a short operation with no probe inside it."""
        if self.sampler is None:
            return self(name, fn, *args)
        with self.sampler.held():
            return self(name, fn, *args)


def _pattern_cache_lookups() -> List[int]:
    stats = perf.cache_stats()
    caches = [stats[name] for name in ("regex", "nfa", "constrained_regex")]
    return [sum(c["hits"] for c in caches), sum(c["misses"] for c in caches)]


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_session(inputs_dir: Path, tracer: Optional[Tracer]) -> Dict[str, object]:
    inputs = json.loads((inputs_dir / "inputs.json").read_text())
    workload = WORKLOADS[inputs["workload"]]
    csv_path = inputs_dir / "data.csv"
    spill_dir = inputs_dir / "spill"
    config = DiscoveryConfig(
        shard_rows=workload.shard_rows,
        store=workload.store or "memory",
        spill_dir=str(spill_dir) if workload.store == "spill" else None,
    )
    sampler = calib.Sampler() if tracer is None else None
    ops = Ops(tracer, sampler)
    edits: List[List[int]] = []
    rechecks: List[int] = []
    #: (rules, report) at each checkpoint, digested after the session
    outputs = []
    layer: Dict[str, float] = {}
    lookups_before = _pattern_cache_lookups()

    session = AnmatSession(dataset_name=workload.relation, config=config)
    if sampler is not None:
        sampler.start()
    try:
        if workload.store is not None:
            upload = ops("upload", session.upload_csv, csv_path, workload.shard_rows)
        else:
            upload = ops("upload", lambda: session.load_table(csvio.read_csv(csv_path)))
        if tracer is not None:
            store_bytes = _dir_bytes(spill_dir) if spill_dir.exists() else 0
            layer["sharding.store_bytes_written"] = store_bytes
            layer["sharding.store_bytes_ratio"] = store_bytes / inputs["csv_bytes"]
        views = [ops("profile", session.run_profiling), ops("discover", session.run_discovery)]
        views.append(ops("confirm", session.confirm_all))
        views.append(ops("detect", session.run_detection))
        outputs.append((session.discovered_pfds(), session.violations))
        for batch in inputs["batches"]:
            # the first edit seeds the incremental detector (50 ms to 1 s)
            # and is sampled like any long operation; the later ones take
            # milliseconds and run with no probe inside
            (row, column, value), *later = batch
            edits.append([ops("edit", session.edit_cell, row, column, value)])
            edits[-1].extend(
                ops.short("edit", session.edit_cell, row, column, value)
                for row, column, value in later
            )
            rechecks.append(ops("recheck", session.recheck))
            if session.violations is None:
                # no confirmed rule survived the recheck: confirm the new set
                ops("confirm", session.confirm_all)
                ops("detect", session.run_detection)
            outputs.append((session.discovered_pfds(), session.violations))
        ops("close", session.close)
    except OperationFailed:
        session.close()
        return {"attempted": ops.attempted, "failed": ops.failed, "errors": ops.errors}
    finally:
        if sampler is not None:
            sampler.stop()
        shutil.rmtree(spill_dir, ignore_errors=True)

    raw = [end - start for start, end in ops.intervals]
    if sampler is None:
        # a traced round reports raw times: its layers' spans are raw
        seconds, probes_s = raw, 0.0
    else:
        seconds = calib.normalise(ops.intervals, sampler.samples)
        probes_s = calib.probe_seconds_inside(ops.intervals, sampler.samples)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        layer.update(layers.layer_metrics(tracer, sum(raw)))
        hits, misses = (
            after - before
            for after, before in zip(_pattern_cache_lookups(), lookups_before)
        )
        layer["perf.pattern_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    # the untimed output check, one operation per checkpoint
    problems = mismatches(
        [checkpoint(pfds, report) for pfds, report in outputs], inputs["reference"]
    )
    ops.attempted += len(inputs["reference"])
    ops.failed += len({p.split(":")[0] for p in problems})
    final_report = outputs[-1][1]
    truth = [tuple(cell) for cell in inputs["error_cells"]]
    return {
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": problems,
        "setup_s": seconds[upload],
        # each view's time adds up the operations before it
        "profile_ready_s": sum(seconds[i] for i in (upload, views[0])),
        "rules_ready_s": sum(seconds[i] for i in (upload, *views[:2])),
        "violations_ready_s": sum(seconds[i] for i in (upload, *views)),
        "first_edits": [seconds[batch[0]] for batch in edits],
        "later_edits": [seconds[i] for batch in edits for i in batch[1:]],
        "recheck_s": sum(seconds[i] for i in rechecks),
        "session_s": sum(seconds),
        # wall seconds less the probes': what ``trace.overhead`` compares
        "session_raw_s": sum(raw) - probes_s,
        "probe_ms": 1000.0 * statistics.median(s[1] for s in sampler.samples) if sampler else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
        "detect_f1": f1(final_report.suspect_cells(), truth),
        "layer": layer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--trace", type=Path, default=None, help="write spans here")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace is not None:
        tracer = Tracer(run_id=args.trace.stem)
        layers.install(tracer)
    try:
        result = run_session(args.inputs, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
            tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
