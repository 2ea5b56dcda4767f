"""Which layer entry points the traced run wraps, and the per-layer
metrics it derives from their spans and counters.

Each entry names the program's public entry point and the span it is
recorded under; several entry points of one layer share a span name
(``encode_column`` and ``encode_chunks`` are both ``kernels.encode``).
README.md maps every metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import functools
import importlib
from typing import Dict, List, Tuple

from spans import Tracer, covered_length, layer_totals

#: (module, class or None, attribute, span name)
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.dataset.csvio", None, "iter_csv_chunks", "dataset.csv_parse"),
    ("repro.dataset.csvio", None, "read_csv", "dataset.csv_parse"),
    ("repro.dataset.profiling", None, "profile_table", "dataset.profile"),
    ("repro.dataset.profiling", None, "profile_sharded", "dataset.profile"),
    ("repro.kernels.encoder", None, "encode_column", "kernels.encode"),
    ("repro.kernels.encoder", None, "encode_chunks", "kernels.encode"),
    ("repro.kernels.tokenize", None, "batch_tokenize", "kernels.tokenize"),
    ("repro.kernels.match", None, "batch_verdicts", "kernels.match"),
    ("repro.kernels.mine", None, "mine_constant_kernel", "kernels.mine_constant"),
    ("repro.kernels.mine", None, "mine_variable_kernel", "kernels.mine_variable"),
    ("repro.kernels.groupby", None, "pair_groups_kernel", "kernels.pair_groups"),
    ("repro.sharding.stats", None, "tree_merge_pair_groups", "sharding.merge"),
    ("repro.sharding.stats", None, "tree_merge_tokenizations", "sharding.merge"),
    ("repro.sharding.stats", None, "merge_into_pair_groups", "sharding.merge"),
    ("repro.sharding.detection", "ShardedDetector", "warm_pair_groups", "sharding.warm_pair_groups"),
    ("repro.discovery.discoverer", "PfdDiscoverer", "discover", "discovery.discover"),
    ("repro.discovery.discoverer", "PfdDiscoverer", "discover_with_report", "discovery.discover"),
    ("repro.sharding.discovery", "ShardedDiscoverer", "discover", "discovery.discover"),
    ("repro.sharding.discovery", "ShardedDiscoverer", "discover_with_report", "discovery.discover"),
    ("repro.discovery.discoverer", "PfdDiscoverer", "remine_candidate", "discovery.remine"),
    ("repro.discovery.discoverer", "PfdDiscoverer", "remine_candidate_encoded", "discovery.remine"),
    ("repro.detection.incremental", "IncrementalDetector", "__init__", "detection.incremental_seed"),
    ("repro.detection.incremental", "IncrementalDetector", "set_cell", "detection.set_cell"),
    ("repro.detection.incremental", "IncrementalDetector", "report", "detection.report"),
    ("repro.sharding.overlay", "ShardOverlay", "set_cell", "sharding.overlay_write"),
    ("repro.sharding.overlay", "OverlayShardStore", "__init__", "sharding.overlay_seal"),
    ("repro.engine.executors", "SerialExecutor", "run_discovery", "engine.serial_run"),
    ("repro.engine.executors", "SerialExecutor", "run_detection", "engine.serial_run"),
    ("repro.engine.executors", "ShardedExecutor", "run_discovery", "engine.sharded_run"),
    ("repro.engine.executors", "ShardedExecutor", "run_detection", "engine.sharded_run"),
)

#: detection entry points: spanned, and their violations counted
DETECTORS = (
    ("repro.detection.detector", "ErrorDetector"),
    ("repro.sharding.detection", "ShardedDetector"),
)

#: per-layer metric → (span name, field of ``layer_totals``)
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "dataset.csv_parse_s": ("dataset.csv_parse", "seconds"),
    "dataset.profile_s": ("dataset.profile", "seconds"),
    "sharding.store_append_s": ("sharding.store_append", "seconds"),
    "sharding.store_get_calls": ("sharding.store_get", "calls"),
    "sharding.store_get_s": ("sharding.store_get", "seconds"),
    "kernels.encode_calls": ("kernels.encode", "calls"),
    "kernels.encode_s": ("kernels.encode", "seconds"),
    "kernels.tokenize_s": ("kernels.tokenize", "seconds"),
    "kernels.match_s": ("kernels.match", "seconds"),
    "kernels.mine_constant_s": ("kernels.mine_constant", "seconds"),
    "kernels.mine_variable_s": ("kernels.mine_variable", "seconds"),
    "kernels.pair_groups_s": ("kernels.pair_groups", "seconds"),
    "sharding.merge_s": ("sharding.merge", "seconds"),
    "sharding.warm_pair_groups_s": ("sharding.warm_pair_groups", "seconds"),
    "discovery.discover_s": ("discovery.discover", "seconds"),
    "discovery.maintain_s": ("discovery.maintain", "seconds"),
    "detection.detect_s": ("detection.detect", "seconds"),
    "detection.incremental_seed_s": ("detection.incremental_seed", "seconds"),
    "detection.set_cell_s": ("detection.set_cell", "seconds"),
    "sharding.overlay_write_s": ("sharding.overlay_write", "seconds"),
    "detection.report_s": ("detection.report", "seconds"),
    "sharding.overlay_seal_s": ("sharding.overlay_seal", "seconds"),
    "engine.serial_run_s": ("engine.serial_run", "seconds"),
    "engine.sharded_run_s": ("engine.sharded_run", "seconds"),
}

#: per-layer metrics read from the tracer's counters
COUNT_METRICS = (
    "perf.intern_calls",
    "discovery.maintain_fallbacks",
    "discovery.candidates_remined",
    "discovery.candidates_reused",
    "detection.violations_emitted",
)

#: metrics the round computes itself (see ``session_round``)
OTHER_METRICS = (
    "sharding.store_bytes_written",
    "sharding.store_bytes_ratio",
    "perf.pattern_cache_hit_ratio",
    "trace.coverage",
    "trace.overhead",
)

PER_LAYER_METRICS = tuple(SPAN_METRICS) + COUNT_METRICS + OTHER_METRICS

#: per-layer metrics where more is better; the rest are costs
HIGHER_IS_BETTER = frozenset(
    {"perf.pattern_cache_hit_ratio", "discovery.candidates_reused", "trace.coverage"}
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes_written"):
        return "bytes"
    if name.endswith(("_ratio", ".coverage", ".overhead")):
        return "ratio"
    return "count"


#: span names of the session operations the benchmark itself opens;
#: every other span is a layer span
OP_PREFIX = "session."


def _store_classes() -> List[type]:
    """``ShardStore`` and every subclass loaded, the overlay and object
    stores included."""
    importlib.import_module("repro.sharding.object_store")
    importlib.import_module("repro.sharding.overlay")
    from repro.sharding.store import ShardStore

    classes, pending = [], [ShardStore]
    while pending:
        cls = pending.pop()
        classes.append(cls)
        pending.extend(cls.__subclasses__())
    return classes


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; ``tracer.restore()`` undoes it."""
    for module_name, class_name, attribute, span in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        tracer.install(owner, attribute, functools.partial(tracer.timed, span))

    for cls in _store_classes():
        for attribute, span in (("append", "sharding.store_append"), ("get", "sharding.store_get")):
            method = vars(cls).get(attribute)
            if method is not None and not getattr(method, "__isabstractmethod__", False):
                tracer.install(cls, attribute, functools.partial(tracer.timed, span))

    def count_violations(_args, report) -> None:
        tracer.counts["detection.violations_emitted"] += len(report)

    for module_name, class_name in DETECTORS:
        cls = getattr(importlib.import_module(module_name), class_name)
        tracer.install(
            cls,
            "detect_all",
            lambda fn: tracer.timed("detection.detect", fn, on_result=count_violations),
        )

    from repro.perf.interning import InternPool

    tracer.install(InternPool, "intern", functools.partial(tracer.counted, "perf.intern_calls"))

    from repro.discovery.maintenance import RuleMaintainer

    tracer.install(RuleMaintainer, "maintain", lambda fn: _maintain_wrapper(tracer, fn))


def _maintain_wrapper(tracer: Tracer, maintain):
    """``RuleMaintainer.maintain`` spanned, counting fallbacks and, per
    maintained run, the candidate reports re-mined vs carried over from
    the baseline unchanged (the very same report objects)."""
    timed = tracer.timed("discovery.maintain", maintain)

    @functools.wraps(maintain)
    def wrapper(maintainer, *args, **kwargs):
        # held, not just their ids, so no id is recycled mid-call
        baseline = list(getattr(maintainer, "_reports", {}).values())
        result = timed(maintainer, *args, **kwargs)
        if result is None:
            tracer.counts["discovery.maintain_fallbacks"] += 1
            return result
        baseline_ids = {id(report) for report in baseline}
        reused = sum(id(report) in baseline_ids for report in result.reports)
        tracer.counts["discovery.candidates_reused"] += reused
        tracer.counts["discovery.candidates_remined"] += len(result.reports) - reused
        return result

    return wrapper


def layer_metrics(tracer: Tracer, operations_s: float) -> Dict[str, float]:
    """The span- and counter-derived per-layer metrics of one traced
    session, plus ``trace.coverage``: the share of the session
    operations' wall time (``operations_s``) covered by top-level layer
    spans (layer spans directly under a session operation)."""
    spans = tracer.spans
    totals = layer_totals(spans)
    metrics: Dict[str, float] = {}
    for metric, (span, field) in SPAN_METRICS.items():
        metrics[metric] = totals.get(span, {}).get(field, 0)
    for metric in COUNT_METRICS:
        metrics[metric] = tracer.counts.get(metric, 0)
    top_level = [
        (s.start, s.end)
        for s in spans
        if not s.name.startswith(OP_PREFIX)
        and (s.parent < 0 or spans[s.parent].name.startswith(OP_PREFIX))
    ]
    metrics["trace.coverage"] = covered_length(top_level) / operations_s
    return metrics
