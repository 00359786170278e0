"""Unit + integration tests for the observability layer (repro.obs)."""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import CrimesConfig
from repro.core.crimes import PHASE_ORDER, Crimes
from repro.detectors.canary import CanaryScanModule
from repro.errors import ObservabilityError
from repro.guest.linux import LinuxGuest
from repro.obs import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_MS_BUCKETS,
    Histogram,
    MetricsRegistry,
    Observer,
    Tracer,
    bench_payload,
    export_jsonl,
    export_prometheus,
    write_bench_json,
)
from repro.sim.clock import VirtualClock
from repro.workloads.attacks import OverflowAttackProgram

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "prometheus")


def prometheus_fixture(name):
    with open(os.path.join(FIXTURES, name), "rb") as handle:
        return handle.read().decode("utf-8")


class TestRegistry:
    def test_counter_counts_and_stamps_virtual_time(self):
        clock = VirtualClock()
        registry = MetricsRegistry(clock)
        counter = registry.counter("c")
        counter.inc()
        clock.advance(25.0)
        counter.inc(4)
        assert counter.value == 5
        assert counter.updated_at_ms == 25.0

    def test_counter_rejects_decrease(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10.0)
        gauge.set(3.0)
        assert gauge.value == 3.0

    def test_instruments_are_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")

    def test_histogram_stats(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 2.0, 2.0, 50.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == 54.5
        assert hist.min == 0.5 and hist.max == 50.0
        assert hist.mean == pytest.approx(13.625)

    def test_histogram_percentiles_bounded_by_buckets(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0, 100.0))
        for _ in range(99):
            hist.observe(5.0)
        hist.observe(50.0)
        # p50 falls in the (1, 10] bucket; p99+ reaches the (10, 100] one.
        assert 1.0 <= hist.percentile(50) <= 10.0
        assert hist.percentile(99.9) > 10.0

    def test_histogram_overflow_uses_observed_max(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        hist.observe(500.0)
        assert hist.percentile(99) == 500.0

    def test_empty_histogram_percentile_is_none(self):
        assert MetricsRegistry().histogram("h").percentile(50) is None

    def test_histogram_value_on_a_bound_stays_in_that_bucket(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (1.0, 10.0, 100.0):
            hist.observe(value)
        assert hist.bucket_counts == [1, 1, 1, 0]

    def test_histogram_value_below_first_bound(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        hist.observe(-3.0)
        hist.observe(0.0)
        assert hist.bucket_counts == [2, 0, 0]

    def test_histogram_value_above_last_bound_overflows(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        hist.observe(10.000001)
        hist.observe(1e300)
        assert hist.bucket_counts == [0, 0, 2]

    def test_snapshot_shape(self):
        clock = VirtualClock()
        registry = MetricsRegistry(clock)
        registry.counter("c").inc()
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(2.0)
        snap = registry.snapshot()
        assert snap["virtual_time_ms"] == 0.0
        assert snap["counters"]["c"]["value"] == 1
        assert snap["gauges"]["g"]["value"] == 1.0
        assert snap["histograms"]["h"]["count"] == 1
        json.dumps(snap)  # must be plain data


class TestTracer:
    def test_span_records_virtual_duration(self):
        clock = VirtualClock()
        tracer = Tracer(clock)
        with tracer.span("work", tag="x"):
            clock.advance(30.0)
        (event,) = tracer.events
        assert event.name == "work"
        assert event.duration_ms == 30.0
        assert event.attrs == {"tag": "x"}
        assert event.wall_duration_s is None

    def test_nested_spans_link_parents(self):
        tracer = Tracer(VirtualClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.events
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_attribute_ms_extends_span(self):
        tracer = Tracer(VirtualClock())
        with tracer.span("charged") as span:
            span.attribute_ms(12.5)
        assert tracer.events[0].duration_ms == 12.5

    def test_wall_capture_optional(self):
        tracer = Tracer(VirtualClock(), capture_wall=True)
        with tracer.span("timed"):
            pass
        assert tracer.events[0].wall_duration_s >= 0.0

    def test_bounded_buffer_drops_not_grows(self):
        tracer = Tracer(VirtualClock(), max_events=2)
        for _ in range(5):
            tracer.event("tick")
        assert len(tracer.events) == 2
        assert tracer.dropped == 3
        assert tracer.summary()["dropped"] == 3

    def test_summary_rolls_up_by_name(self):
        clock = VirtualClock()
        tracer = Tracer(clock)
        for _ in range(3):
            with tracer.span("epoch"):
                clock.advance(10.0)
        summary = tracer.summary()
        assert summary["by_name"]["epoch"] == {
            "count": 3, "total_ms": pytest.approx(30.0),
        }


class TestSpanAndInstrumentContract:
    """What a span and an instrument do beyond what the goldens pin:
    entry order, exceptions, a span left open inside another, and
    histogram statistics over every kind of float."""

    def test_id_and_parent_are_drawn_at_enter(self):
        tracer = Tracer(VirtualClock())
        first = tracer.span("first")
        second = tracer.span("second")
        with second:
            with first:
                pass
        inner, outer = tracer.events
        assert (outer.name, outer.span_id, outer.parent_id) == \
            ("second", 1, None)
        assert (inner.name, inner.span_id, inner.parent_id) == \
            ("first", 2, 1)

    def test_exception_records_the_span_and_propagates(self):
        clock = VirtualClock()
        tracer = Tracer(clock)
        with pytest.raises(KeyError):
            with tracer.span("outer"):
                with tracer.span("failing", tag=1) as span:
                    span.attribute_ms(2.0)
                    clock.advance(3.0)
                    raise KeyError("scan blew up")
        failing, outer = tracer.events
        assert (failing.name, failing.parent_id, failing.duration_ms,
                failing.attrs) == ("failing", outer.span_id, 5.0, {"tag": 1})
        assert (outer.name, outer.duration_ms) == ("outer", 3.0)
        assert tracer.open_spans() == []
        assert tracer.current_span_id is None

    def test_exit_pops_whatever_is_on_top_of_the_stack(self):
        """A span entered and never exited inside another (the pattern
        of ``tests/test_fleet.py::SpanLeakingModule``)."""
        clock = VirtualClock()
        tracer = Tracer(clock)
        with pytest.raises(RuntimeError):
            with tracer.span("epoch"):
                with tracer.span("audit"):
                    leaked = tracer.span("leaked")
                    leaked.__enter__()
                    raise RuntimeError("scanner crashed mid-span")
        # "audit" popped the leaked span, and "epoch" popped "audit":
        # each recorded its own event, and "epoch" stays open.
        assert [(event.name, event.span_id, event.parent_id)
                for event in tracer.events] == [("audit", 2, 1),
                                                 ("epoch", 1, None)]
        assert [(span["name"], span["span_id"])
                for span in tracer.open_spans()] == [("epoch", 1)]
        clock.advance(4.0)
        assert tracer.abort_open("quarantine") == 1
        aborted = tracer.events[-1]
        assert (aborted.name, aborted.span_id, aborted.end_ms,
                aborted.attrs) == ("epoch", 1, 4.0,
                                   {"aborted": True,
                                    "abort_reason": "quarantine"})
        # Exiting the leaked span later finds an empty stack.
        assert not leaked.__exit__(None, None, None)
        late = tracer.events[-1]
        assert (late.name, late.span_id, late.parent_id, late.attrs) == \
            ("leaked", 3, 2, {})
        assert len(tracer.events) == 4

    def test_instruments_stamp_the_virtual_clock(self):
        clock = VirtualClock()
        registry = MetricsRegistry(clock)
        clock.advance(7.5)
        registry.gauge("g").set(3)
        registry.histogram("h").observe(1.0)
        assert registry.get("g").updated_at_ms == 7.5
        assert registry.get("h").updated_at_ms == 7.5
        unclocked = MetricsRegistry()
        unclocked.counter("c").inc()
        unclocked.histogram("h").observe(1.0)
        assert unclocked.get("c").updated_at_ms is None
        assert unclocked.get("h").updated_at_ms is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(),
        st.sampled_from([0.0, -0.0, float("nan"), float("inf"),
                         float("-inf")]),
        st.integers(-10 ** 6, 10 ** 6)), max_size=40),
        st.sampled_from([DEFAULT_MS_BUCKETS, DEFAULT_COUNT_BUCKETS,
                         (1.0,), (-1.0, 0.0, 1.0)]))
    def test_histogram_matches_a_min_max_reference(self, values, buckets):
        clock = VirtualClock()
        histogram = Histogram("h", buckets=buckets, clock=clock)
        bounds = sorted(float(bound) for bound in buckets)
        count, total, low, high = 0, 0.0, None, None
        counts = [0] * (len(bounds) + 1)
        for value in values:
            clock.advance(1.0)
            histogram.observe(value)
            value = float(value)
            count += 1
            total += value
            low = value if low is None else min(low, value)
            high = value if high is None else max(high, value)
            # The first bound >= value: the number of bounds below it
            # (none for NaN, which compares false to every bound).
            counts[sum(1 for bound in bounds if bound < value)] += 1
            assert histogram.updated_at_ms == clock.now
        # repr() tells -0.0 from 0.0 and lets NaN equal NaN.
        assert repr((histogram.count, histogram.sum, histogram.min,
                     histogram.max)) == repr((count, total, low, high))
        assert histogram.bucket_counts == counts


class TestExporters:
    def test_jsonl_roundtrip(self, tmp_path):
        clock = VirtualClock()
        tracer = Tracer(clock)
        with tracer.span("a", epoch=1):
            clock.advance(5.0)
        path = export_jsonl(tracer.events, str(tmp_path / "trace.jsonl"))
        lines = [json.loads(line) for line in open(path)]
        assert lines[0]["name"] == "a"
        assert lines[0]["duration_ms"] == 5.0
        assert lines[0]["attrs"] == {"epoch": 1}

    def test_prometheus_text(self):
        registry = MetricsRegistry(VirtualClock())
        registry.counter("epoch.committed", help="epochs ok").inc(3)
        registry.histogram("pause.total_ms", buckets=(1.0, 10.0)).observe(2.0)
        text = export_prometheus(registry)
        assert "# TYPE epoch_committed counter" in text
        assert "epoch_committed 3" in text
        assert 'pause_total_ms_bucket{le="10"} 1' in text
        assert "pause_total_ms_count 1" in text

    def test_bench_writer(self, tmp_path):
        registry = MetricsRegistry(VirtualClock())
        registry.counter("c").inc()
        payload = bench_payload("demo", registry, extra={"epochs": 7})
        path = write_bench_json(str(tmp_path), "demo", payload)
        assert path.endswith("BENCH_demo.json")
        data = json.load(open(path))
        assert data["bench"] == "demo"
        assert data["schema"] == "crimes-obs/1"
        assert data["epochs"] == 7
        assert data["metrics"]["counters"]["c"]["value"] == 1

    def test_bench_writer_rejects_bad_names(self, tmp_path):
        with pytest.raises(ObservabilityError):
            write_bench_json(str(tmp_path), "../escape", {})


def make_crimes(seed=91, **config):
    vm = LinuxGuest(name="obs-%d" % seed, memory_bytes=8 * 1024 * 1024,
                    seed=seed)
    crimes = Crimes(
        vm, CrimesConfig(epoch_interval_ms=50.0, seed=seed, **config)
    )
    return crimes


class TestCrimesIntegration:
    def test_observer_handle_and_pause_histograms(self):
        crimes = make_crimes()
        crimes.start()
        crimes.run(max_epochs=4)
        assert isinstance(crimes.observer, Observer)
        summary = crimes.observer.summary()
        hists = summary["metrics"]["histograms"]
        for phase in PHASE_ORDER:
            assert hists["epoch.pause.%s_ms" % phase]["count"] == 4
        assert hists["epoch.pause.total_ms"]["p50"] > 0
        assert summary["metrics"]["counters"]["epoch.committed"]["value"] == 4
        assert hists["checkpoint.copy_ms"]["count"] == 4
        assert hists["detector.scan_ms"]["count"] == 4

    def test_spans_cover_the_epoch_loop(self):
        crimes = make_crimes(seed=92)
        crimes.start()
        crimes.run(max_epochs=3)
        by_name = crimes.observer.tracer.summary()["by_name"]
        for name in ("epoch", "epoch.speculate", "epoch.checkpoint",
                     "epoch.audit", "epoch.commit"):
            assert by_name[name]["count"] == 3, name
        # The epoch span covers speculate + pause (interval dominates).
        assert by_name["epoch"]["total_ms"] > 3 * 50.0

    def test_attack_rolls_into_registry_and_trace(self):
        crimes = make_crimes(seed=93, auto_respond=False)
        crimes.install_module(CanaryScanModule())
        crimes.add_program(OverflowAttackProgram(trigger_epoch=2))
        crimes.start()
        crimes.run(max_epochs=5)
        counters = crimes.observer.summary()["metrics"]["counters"]
        assert counters["epoch.rolled_back"]["value"] == 1
        assert counters["detector.findings_critical"]["value"] >= 1
        assert counters["checkpoint.aborts"]["value"] == 1
        assert counters["netbuf.discarded_total"]["value"] >= 1
        module_cost = crimes.observer.registry.get(
            "detector.module.canary.cost_ms")
        assert module_cost.count == crimes.epochs_run
        assert crimes.observer.tracer.spans_named("epoch.attack")

    def test_detection_latency_gauge_tracks_audit(self):
        crimes = make_crimes(seed=94)
        crimes.start()
        record = crimes.run_epoch()
        gauge = crimes.observer.registry.get("epoch.detection_latency_ms")
        # Worst case: attack at the epoch's first instruction, verdict at
        # the end of the audit — the resume phase is past the verdict.
        assert gauge.value == pytest.approx(
            record.interval_ms + record.pause_ms
            - record.phase_ms["resume"]
        )

    def test_legacy_metrics_dict_shape_unchanged(self):
        crimes = make_crimes(seed=95)
        crimes.start()
        crimes.run(max_epochs=2)
        metrics = crimes.metrics()
        # The pre-obs monitoring surface must survive verbatim.
        assert {
            "epochs_run", "virtual_time_ms", "suspended", "honeypot_active",
            "mean_pause_ms", "mean_dirty_pages", "phase_breakdown_ms",
            "scans_run", "scan_cost_total_ms", "packets_released",
            "packets_discarded", "disk_writes_released",
            "disk_writes_discarded", "checkpoints_committed",
            "pages_copied_total", "async_jobs_started",
            "async_snapshots_skipped", "backup_memory_bytes",
        } <= set(metrics)
        assert metrics["epochs_run"] == 2

    def test_observer_exports(self, tmp_path):
        crimes = make_crimes(seed=96)
        crimes.start()
        crimes.run(max_epochs=2)
        trace_path = crimes.observer.write_trace_jsonl(
            str(tmp_path / "t.jsonl"))
        assert sum(1 for _ in open(trace_path)) == \
            len(crimes.observer.tracer.events)
        bench_path = crimes.observer.write_bench(str(tmp_path), "run")
        assert json.load(open(bench_path))["bench"] == "run"
        assert "epoch_pause_total_ms_count" in \
            crimes.observer.prometheus_text()


class TestCloudRollup:
    def test_per_tenant_rollup(self):
        from repro.core.cloud import CloudHost

        host = CloudHost("host-obs")
        for index in range(2):
            vm = LinuxGuest(name="tenant-%d" % index,
                            memory_bytes=8 * 1024 * 1024, seed=80 + index)
            host.admit(vm, CrimesConfig(epoch_interval_ms=50.0,
                                        seed=80 + index))
        host.run(rounds=3)
        rollup = host.observability_rollup()
        assert rollup["fleet"]["tenants"] == 2
        assert rollup["fleet"]["epochs_total"] == 6
        assert rollup["fleet"]["mean_pause_ms"] > 0
        for name in ("tenant-0", "tenant-1"):
            tenant = rollup["tenants"][name]
            assert tenant["metrics"]["counters"]["epoch.committed"][
                "value"] == 3
        json.dumps(rollup)


class TestMetricsCli:
    def test_metrics_json_summary(self, capsys):
        from repro.cli import main

        assert main(["metrics", "--epochs", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        hists = out["metrics"]["histograms"]
        assert hists["epoch.pause.vmi_ms"]["count"] == 3
        assert "detector.module.syscall-table.cost_ms" in hists

    def test_metrics_trace_and_bench_out(self, capsys, tmp_path):
        from repro.cli import main

        trace = str(tmp_path / "trace.jsonl")
        assert main(["metrics", "--epochs", "2", "--trace-out", trace,
                     "--bench-out", str(tmp_path)]) == 0
        assert json.loads(open(trace).readline())["name"]
        bench = json.load(open(str(tmp_path / "BENCH_metrics_cli.json")))
        assert bench["epochs"] == 2
        assert bench["legacy_metrics"]["epochs_run"] == 2

    def test_metrics_prometheus_output(self, capsys):
        from repro.cli import main

        assert main(["metrics", "--epochs", "2", "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE epoch_committed counter" in out


class TestPrometheusFixtures:
    """Exported instruments stay byte for byte what they were when these
    fixtures were generated, whichever component bumps them."""

    def test_metrics_cli_default_run(self, capsys):
        from repro.cli import main

        assert main(["metrics", "--prometheus"]) == 0
        assert capsys.readouterr().out == \
            prometheus_fixture("metrics_default.prom")

    def test_chaos_seed7_run(self, chaos_seed7):
        assert chaos_seed7["crimes"].observer.prometheus_text() == \
            prometheus_fixture("chaos_seed7.prom")


class TestTraceExportOpenSpans:
    def test_open_spans_exported_with_unfinished_marker(self, tmp_path):
        clock = VirtualClock()
        observer = Observer(clock, name="export")
        with observer.tracer.span("closed"):
            clock.advance(5.0)
        span = observer.tracer.span("in-flight", epoch=9)
        span.__enter__()
        clock.advance(7.0)
        path = observer.write_trace_jsonl(str(tmp_path / "trace.jsonl"))
        lines = [json.loads(line) for line in open(path)]
        assert [line["name"] for line in lines] == ["closed", "in-flight"]
        assert "unfinished" not in lines[0]
        assert lines[1]["unfinished"] is True
        assert lines[1]["duration_ms"] == 7.0
        assert lines[1]["attrs"] == {"epoch": 9}
        # The span keeps running and is recorded normally on close.
        clock.advance(3.0)
        span.__exit__(None, None, None)
        assert observer.tracer.events[-1].name == "in-flight"
        assert observer.tracer.events[-1].duration_ms == 10.0

    def test_nested_open_spans_export_outermost_first(self, tmp_path):
        clock = VirtualClock()
        tracer = Tracer(clock)
        outer = tracer.span("outer")
        outer.__enter__()
        inner = tracer.span("inner")
        inner.__enter__()
        dumped = tracer.open_spans()
        assert [entry["name"] for entry in dumped] == ["outer", "inner"]
        assert dumped[1]["parent_id"] == dumped[0]["span_id"]
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)


class TestPrometheusEscaping:
    def test_escape_label_value(self):
        from repro.obs import escape_label_value

        assert escape_label_value('pa\\th "x"\nend') == \
            'pa\\\\th \\"x\\"\\nend'
        assert escape_label_value(12.5) == "12.5"

    def test_format_sample_sorts_and_escapes(self):
        from repro.obs.exporters import format_sample

        line = format_sample("m", {"b": 'say "hi"', "a": "x\\y"}, 3)
        assert line == 'm{a="x\\\\y",b="say \\"hi\\""} 3'

    def test_help_text_escaped_in_exposition(self):
        registry = MetricsRegistry(VirtualClock())
        registry.counter("c", help="line one\nline two \\ done").inc()
        text = export_prometheus(registry)
        assert "# HELP c line one\\nline two \\\\ done" in text
        assert "\nline two" not in text  # no raw newline inside HELP


class TestPercentileRegressions:
    def test_single_observation_is_exact(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        hist.observe(3.7)
        for q in (0.0, 50.0, 99.0, 100.0):
            assert hist.percentile(q) == 3.7

    def test_p0_returns_observed_min(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for value in (2.0, 5.0, 8.0):
            hist.observe(value)
        assert hist.percentile(0.0) == 2.0

    def test_quantile_outside_range_rejected(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(1.0)
        for bad in (-0.1, 100.1, 1000.0):
            with pytest.raises(ValueError):
                hist.percentile(bad)


class TestRollbackSpanHygiene:
    """Spans opened inside an aborted epoch must not leak attribution
    into the epochs that follow the rollback."""

    def _attacked(self, seed, **config):
        crimes = make_crimes(seed=seed, **config)
        crimes.install_module(CanaryScanModule())
        crimes.add_program(OverflowAttackProgram(trigger_epoch=2))
        crimes.start()
        crimes.run(max_epochs=5)
        return crimes

    def test_no_open_spans_survive_a_responded_attack(self):
        crimes = self._attacked(seed=97)  # auto_respond: rollback + replay
        tracer = crimes.observer.tracer
        assert tracer.open_spans() == []
        assert tracer.current_span_id is None

    def test_no_open_spans_survive_suspension(self):
        crimes = self._attacked(seed=98, auto_respond=False)
        assert crimes.suspended
        assert crimes.observer.tracer.open_spans() == []

    def test_epochs_after_detection_not_parented_to_attacked_epoch(self):
        # Honeypot mode is the one path where the loop continues past a
        # detection; the resumed epochs must carry fresh span trees.
        from repro.analyzer.honeypot import HoneypotSession

        crimes = self._attacked(seed=99, auto_respond=False)
        events_before = len(crimes.observer.tracer.events)
        attacked_ids = {e.span_id for e in crimes.observer.tracer.events}
        HoneypotSession(crimes).engage().observe(epochs=2)
        events = crimes.observer.tracer.events
        late = events[events_before:]
        assert late, "honeypot observation must record new spans"
        for event in late:
            assert event.parent_id not in attacked_ids
        assert crimes.observer.tracer.open_spans() == []

    def test_replay_spans_attributed_to_attacked_epoch_only(self):
        crimes = self._attacked(seed=100)
        events = crimes.observer.tracer.events
        # The committed epochs after the rollback carry fresh span IDs
        # and keep their phase children under their own epoch span.
        for child in (e for e in events if e.name == "epoch.audit"):
            parent = next(e for e in events
                          if e.span_id == child.parent_id)
            assert parent.name == "epoch"
            assert parent.start_ms <= child.start_ms <= parent.end_ms
