"""The benchmark's own logic: the latency percentile rule, span
self-time arithmetic, host-speed normalisation, the output check, the
tracer's install/restore, and the seeded generator."""

import sys

import pytest

import calib
import gen
import layers
import run
from check import checkpoint, mismatches
from spans import Span, Tracer, covered_length, layer_totals, self_times
from workloads import Workload


class TestPercentileRule:
    @pytest.mark.parametrize(
        "n_samples,expected",
        [(19, None), (20, 50), (99, 50), (100, 90), (199, 90), (200, 95),
         (999, 95), (1000, 99), (9999, 99), (10000, 99.9)],
    )
    def test_highest_percentile_keeps_ten_samples_beyond(self, n_samples, expected):
        assert run.highest_percentile(n_samples) == expected

    def test_percentile_interpolates_between_ranks(self):
        values = list(range(1, 101))  # 1..100
        assert run.percentile(values, 50) == pytest.approx(50.5)
        assert run.percentile(values, 90) == pytest.approx(90.1)
        assert run.percentile([7.0], 90) == 7.0


def _span(name, start, end, parent):
    return Span(name, start, end, parent, "run")


class TestSelfTime:
    def test_self_time_subtracts_covered_children(self):
        spans = [
            _span("op", 0.0, 10.0, -1),
            _span("a", 1.0, 4.0, 0),
            _span("b", 2.0, 3.0, 1),
            _span("c", 5.0, 9.0, 0),
            _span("d", 6.0, 7.0, 3),
            _span("d", 6.5, 8.0, 3),  # overlaps its sibling: counted once
        ]
        assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])

    def test_recursive_spans_count_once(self):
        spans = [
            _span("discover", 0.0, 4.0, -1),
            _span("discover", 0.5, 3.5, 0),
            _span("encode", 1.0, 2.0, 1),
        ]
        totals = layer_totals(spans)
        assert totals["discover"]["calls"] == 1
        assert totals["discover"]["seconds"] == pytest.approx(4.0)
        assert totals["discover"]["self_s"] == pytest.approx(3.0)
        assert totals["encode"] == pytest.approx({"calls": 1, "seconds": 1.0, "self_s": 1.0})

    def test_covered_length_merges_overlaps(self):
        assert covered_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
        assert covered_length([]) == 0.0


@pytest.fixture(scope="module")
def geo_outputs():
    from repro.detection.detector import ErrorDetector
    from repro.discovery.discoverer import PfdDiscoverer

    table = gen.geo6(600, seed=3).table
    pfds = PfdDiscoverer().discover(table, relation="geo6")
    report = ErrorDetector(table).detect_all(pfds)
    assert len(report) > 1
    return pfds, report


class TestOutputCheck:
    def test_identical_outputs_pass(self, geo_outputs):
        pfds, report = geo_outputs
        reference = [checkpoint(pfds, report)]
        assert mismatches([checkpoint(list(pfds), report)], reference) == []

    def test_perturbed_violations_are_rejected(self, geo_outputs):
        from dataclasses import replace

        from repro.detection.violation import ViolationReport

        pfds, report = geo_outputs
        reference = [checkpoint(pfds, report)]
        dropped = ViolationReport(violations=list(report)[1:], n_rows=report.n_rows)
        first = list(report)[0]
        moved = ViolationReport(
            violations=[replace(first, observed_value=first.observed_value + "x")]
            + list(report)[1:],
            n_rows=report.n_rows,
        )
        for perturbed in (dropped, moved):
            problems = mismatches([checkpoint(pfds, perturbed)], reference)
            assert problems and "violations differ" in problems[0]

    def test_perturbed_rules_and_missing_checkpoints_are_rejected(self, geo_outputs):
        pfds, report = geo_outputs
        reference = [checkpoint(pfds, report), checkpoint(pfds, report)]
        problems = mismatches([checkpoint(pfds[1:], report)], reference)
        assert any("rules differ" in p for p in problems)
        assert any("checkpoints" in p for p in problems)


def _bindings():
    """Every global and class attribute of the loaded repro modules."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            snapshot[(name, attr)] = value
            if isinstance(value, type):
                for member, inner in vars(value).items():
                    snapshot[(name, attr, member)] = inner
    return snapshot


class TestWrappers:
    def test_install_binds_every_site_and_restore_puts_originals_back(self):
        import repro.anmat.session  # noqa: F401  (load every binding site)
        import repro.discovery.maintenance as maintenance
        import repro.kernels.encoder as encoder
        import repro.sharding.discovery as sharded_discovery

        before = _bindings()
        original = encoder.encode_chunks
        tracer = Tracer("test")
        layers.install(tracer)
        try:
            for module in (encoder, maintenance, sharded_discovery):
                assert module.encode_chunks is not original
                assert module.encode_chunks.__wrapped__ is original
            # a call through an importing module's binding is traced
            sharded_discovery.encode_chunks([["a", "b", "a"]])
            assert [s.name for s in tracer.spans] == ["kernels.encode"]
        finally:
            tracer.restore()
        after = _bindings()
        changed = [key for key in before if after.get(key) is not before[key]]
        assert changed == []
        assert encoder.encode_chunks is original

    def test_restore_reaches_modules_imported_while_installed(self):
        import types

        import repro.kernels.encoder as encoder

        original = encoder.encode_column
        tracer = Tracer("test")
        layers.install(tracer)
        late = types.ModuleType("late_importer")
        late.encode_column = encoder.encode_column  # a later `from ... import`
        sys.modules["late_importer"] = late
        try:
            assert late.encode_column is not original
            tracer.restore()
            assert late.encode_column is original
        finally:
            del sys.modules["late_importer"]

    def test_generator_entry_points_span_each_resume(self):
        tracer = Tracer("test")

        def chunks():
            yield 1
            yield 2

        wrapped = tracer.timed("csv", chunks)
        assert list(wrapped()) == [1, 2]
        assert [s.name for s in tracer.spans] == ["csv", "csv", "csv"]


class TestGenerator:
    def test_employee_ids_past_capacity_is_refused(self):
        assert gen.EMPLOYEE_ID_CAPACITY == 27_000
        with pytest.raises(ValueError, match="distinct ids"):
            gen.build_relation("employee_ids", 27_001, seed=1)

    def test_same_seed_same_inputs(self):
        workload = Workload(
            name="tiny", relation="geo6", n_rows=500, store="memory",
            shard_rows=100, edit_columns=("grade", "city"), edits_per_batch=5,
        )
        runs = []
        for _ in range(2):
            table = gen.build_relation("geo6", 500, seed=9).table
            runs.append((list(table.iter_rows()), gen.edit_script(table, workload, seed=9)))
        assert runs[0] == runs[1]
        batches = runs[0][1]
        assert [len(b) for b in batches] == [5, 5]
        assert {column for batch in batches for _row, column, _value in batch} == {"grade", "city"}


class TestNormalisation:
    # samples are (started, timed probe seconds, whole sample seconds)
    def test_scales_by_the_probes_inside_and_drops_their_time(self):
        samples = [(0.5 + i, 2.0, 0.1) for i in range(4)]  # probe twice the reference
        [seconds] = calib.normalise([(0.0, 4.0)], samples, reference_s=1.0, min_probes=4)
        # 4 s of wall, 0.4 s of it sampling; the host ran at half speed
        assert seconds == pytest.approx((4.0 - 0.4) / 2.0)

    def test_short_interval_borrows_the_nearest_probes(self):
        slow = [(0.1 * i, 3.0, 0.0) for i in range(1, 10)]  # inside (0, 1)
        fast = [(10.0 + 0.1 * i, 1.0, 0.0) for i in range(1, 10)]  # inside (10, 11)
        intervals = [(0.0, 1.0), (1.0, 1.01), (10.0, 11.0), (11.02, 11.03)]
        seconds = calib.normalise(intervals, slow + fast, reference_s=1.0, min_probes=3)
        assert seconds == pytest.approx([1.0 / 3.0, 0.01 / 3.0, 1.0, 0.01])

    def test_too_few_probes_during_the_session_is_an_error(self):
        with pytest.raises(ValueError):
            calib.normalise([(0.0, 1.0)], [(0.5, 1.0, 0.0)], min_probes=2)

    def test_sampler_probes_on_the_timer_and_restores_the_handler(self):
        import signal
        import time

        before = signal.getsignal(signal.SIGALRM)
        sampler = calib.Sampler()
        sampler.start()
        try:
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                pass
        finally:
            sampler.stop()
        assert len(sampler.samples) >= 2
        assert all(0 < probe < whole for _, probe, whole in sampler.samples)
        assert signal.getsignal(signal.SIGALRM) == before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_held_block_defers_the_probe_until_it_ends(self):
        import time

        sampler = calib.Sampler()
        sampler.start()
        try:
            with sampler.held():
                started = time.perf_counter()
                while time.perf_counter() < started + 0.2:
                    pass
                ended = time.perf_counter()
            time.sleep(0.01)
        finally:
            sampler.stop()
        assert sampler.samples
        assert all(not started <= at < ended for at, _, _ in sampler.samples)


class TestBenchmarkJson:
    def test_metrics_and_units_match_what_the_run_prints(self):
        import json

        import paths
        from workloads import WORKLOADS

        spec = json.loads((paths.REPO_ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
        per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        assert per_layer == {
            name: (
                layers.layer_unit(name),
                "higher" if name in layers.HIGHER_IS_BETTER else "lower",
            )
            for name in layers.PER_LAYER_METRICS
        }
