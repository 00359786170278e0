"""Flight recorder + SLO watchdog unit tests (repro.obs.flight / .slo)."""

import json

import pytest

from repro.core.adaptive import AdaptiveIntervalController
from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.detectors import SyscallTableModule
from repro.errors import ConfigError, ObservabilityError
from repro.faults import FaultPlan, FaultPlane, FaultSchedule
from repro.faults.chaos import run_chaos
from repro.guest.linux import LinuxGuest
from repro.obs import MetricsRegistry, Observer
from repro.obs.flight import (
    GENESIS_HASH,
    FlightRecorder,
    verify_event_chain,
)
from repro.obs.slo import (
    SLOBudget,
    SLOPolicy,
    SLOWatchdog,
    attach_slo_watchdog,
)
from repro.sim.clock import VirtualClock
from repro.workloads.kvstore import KeyValueStoreProgram


class TestFlightRecorder:
    def test_events_stamp_virtual_time_and_causal_ids(self):
        clock = VirtualClock()
        recorder = FlightRecorder(clock, tenant="t0")
        clock.advance(12.5)
        event = recorder.record("epoch.begin", epoch=3, span_id=7, note="x")
        assert event.t_ms == 12.5
        assert event.tenant == "t0"
        assert event.epoch == 3
        assert event.span_id == 7
        assert event.attrs == {"note": "x"}
        json.dumps(event.to_dict())  # plain data

    def test_chain_links_and_verifies(self):
        recorder = FlightRecorder(VirtualClock())
        first = recorder.record("a")
        second = recorder.record("b")
        assert first.prev_hash == GENESIS_HASH
        assert second.prev_hash == first.hash
        assert recorder.head_hash == second.hash
        verdict = recorder.verify_chain()
        assert verdict["ok"] and verdict["checked"] == 2

    def test_tampering_breaks_verification(self):
        recorder = FlightRecorder(VirtualClock())
        recorder.record("a", detail="original")
        recorder.record("b")
        dumped = [event.to_dict() for event in recorder.events()]
        dumped[0]["attrs"]["detail"] = "doctored"
        verdict = verify_event_chain(dumped, head_hash=recorder.head_hash)
        assert not verdict["ok"]
        assert "hash mismatch" in verdict["error"]

    def test_dropping_a_middle_event_breaks_linkage(self):
        recorder = FlightRecorder(VirtualClock())
        for kind in ("a", "b", "c"):
            recorder.record(kind)
        dumped = [event.to_dict() for event in recorder.events()]
        del dumped[1]
        verdict = verify_event_chain(dumped)
        assert not verdict["ok"]
        assert "chain broken" in verdict["error"]

    def test_ring_is_bounded_and_still_verifies(self):
        recorder = FlightRecorder(VirtualClock(), capacity=4)
        for index in range(10):
            recorder.record("tick", index=index)
        assert len(recorder) == 4
        assert recorder.evicted == 6
        assert recorder.events_recorded == 10
        # The retained suffix anchors on the oldest survivor's prev_hash.
        assert recorder.verify_chain()["ok"]
        assert [event.attrs["index"] for event in recorder.events()] == \
            [6, 7, 8, 9]

    def test_identical_runs_produce_identical_chains(self):
        def run():
            clock = VirtualClock()
            recorder = FlightRecorder(clock, tenant="twin")
            for epoch in range(5):
                recorder.record("epoch.begin", epoch=epoch)
                clock.advance(50.0)
                recorder.record("epoch.commit", epoch=epoch, dirty=epoch * 3)
            return recorder.head_hash

        assert run() == run()

    def test_filters_and_last(self):
        recorder = FlightRecorder(VirtualClock())
        recorder.record("a", epoch=1)
        recorder.record("b", epoch=1)
        recorder.record("a", epoch=2)
        assert [e.epoch for e in recorder.events(kind="a")] == [1, 2]
        assert len(recorder.events(epoch=1)) == 2
        assert recorder.last("b").epoch == 1
        assert recorder.last().kind == "a"

    def test_overhead_accounting_reported(self):
        recorder = FlightRecorder(VirtualClock())
        for _ in range(50):
            recorder.record("tick")
        overhead = recorder.overhead()
        assert overhead["events_recorded"] == 50
        assert overhead["wall_s"] > 0.0
        # Wall time is accounting only: never part of the hashed payload.
        assert "wall" not in json.dumps(
            [event.to_dict() for event in recorder.events()]
        )

    def test_snapshot_is_plain_data(self):
        recorder = FlightRecorder(VirtualClock())
        recorder.record("a")
        snap = recorder.snapshot()
        json.dumps(snap)
        assert snap["verify"]["ok"]
        assert snap["events"][0]["kind"] == "a"

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(VirtualClock(), capacity=0)


class TestCountedKinds:
    def test_bound_counter_counts_its_kind_at_record_time(self):
        clock = VirtualClock()
        recorder = FlightRecorder(clock)
        counter = recorder.bind_counter(
            "epoch.commit", MetricsRegistry(clock).counter("commits"))
        recorder.record("epoch.commit", epoch=1)
        recorder.record("epoch.abort", epoch=2)
        clock.advance(5.0)
        recorder.record("epoch.commit", epoch=3)
        assert counter.value == 2
        assert counter.updated_at_ms == 5.0

    def test_binding_an_undeclared_kind_raises(self):
        recorder = FlightRecorder(VirtualClock())
        with pytest.raises(ObservabilityError, match="undeclared"):
            recorder.bind_counter("epoch.comit",
                                  MetricsRegistry().counter("commits"))

    def test_second_counter_for_a_kind_raises(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(VirtualClock())
        recorder.bind_counter("slo.alert", registry.counter("alerts"))
        with pytest.raises(ObservabilityError, match="already counted"):
            recorder.bind_counter("slo.alert", registry.counter("other"))

    def test_rebinding_the_same_counter_is_a_noop(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(VirtualClock())
        counter = registry.counter("alerts")
        assert recorder.bind_counter("slo.alert", counter) is counter
        assert recorder.bind_counter("slo.alert", counter) is counter
        recorder.record("slo.alert")
        assert counter.value == 1

    def test_components_sharing_an_observer_share_the_counter(self):
        observer = Observer(VirtualClock())
        first = SLOWatchdog(observer)
        second = SLOWatchdog(observer)
        observer.flight.record("slo.alert")
        assert first.alerts == second.alerts == 1


class TestSLOPolicy:
    def test_budget_rejects_nonpositive_limit(self):
        with pytest.raises(ConfigError):
            SLOBudget("pause_p99_ms", 0.0)

    def test_policy_rejects_unknown_budget(self):
        with pytest.raises(ConfigError):
            SLOPolicy([SLOBudget("made_up_metric", 1.0)])

    def test_from_dict_shorthand_and_verbose(self):
        policy = SLOPolicy.from_dict({
            "pause_p99_ms": 20.0,
            "epoch_overhead_pct": {"limit": 15.0, "unit": "%"},
        })
        assert policy.budgets["pause_p99_ms"].limit == 20.0
        assert policy.budgets["epoch_overhead_pct"].unit == "%"

    def test_default_policy_covers_known_budgets(self):
        assert set(SLOPolicy.default().budgets) == set(SLOPolicy.KNOWN)

    def test_budget_evaluate_handles_missing_data(self):
        result = SLOBudget("pause_p99_ms", 10.0).evaluate(None)
        assert result["value"] is None and not result["breached"]


def make_crimes(seed=71, **config):
    vm = LinuxGuest(name="slo-%d" % seed, memory_bytes=8 * 1024 * 1024,
                    seed=seed)
    return Crimes(vm, CrimesConfig(epoch_interval_ms=50.0, seed=seed,
                                   **config))


class TestSLOWatchdog:
    def test_default_watchdog_is_always_on(self):
        crimes = make_crimes()
        crimes.start()
        crimes.run(max_epochs=3)
        watchdog = crimes.slo_watchdog
        assert len(watchdog.evaluations) == 3
        counters = crimes.observer.summary()["metrics"]["counters"]
        assert counters["slo.evaluations"]["value"] == 3

    def test_breach_journals_alert_events(self):
        crimes = make_crimes(seed=72)
        attach_slo_watchdog(crimes, policy=SLOPolicy([
            SLOBudget("epoch_overhead_pct", 0.0001, unit="%"),
        ]))
        crimes.start()
        crimes.run(max_epochs=2)
        alerts = crimes.observer.flight.events(kind="slo.alert")
        assert len(alerts) == 2
        assert alerts[0].attrs["budget"] == "epoch_overhead_pct"
        assert crimes.slo_watchdog.alerts == 2
        counters = crimes.observer.summary()["metrics"]["counters"]
        assert counters["slo.alerts"]["value"] == 2

    def test_attach_reconfigures_in_place_no_double_evaluation(self):
        crimes = make_crimes(seed=73)
        before = crimes.slo_watchdog
        after = attach_slo_watchdog(crimes, policy=SLOPolicy.default())
        assert after is before
        crimes.start()
        crimes.run(max_epochs=2)
        assert len(after.evaluations) == 2

    def test_overhead_breach_nudges_interval_up(self):
        crimes = make_crimes(seed=74)
        controller = AdaptiveIntervalController(
            min_interval_ms=10.0, max_interval_ms=400.0)
        attach_slo_watchdog(
            crimes,
            policy=SLOPolicy([SLOBudget("epoch_overhead_pct", 0.0001,
                                        unit="%")]),
            controller=controller,
        )
        crimes.start()
        crimes.run(max_epochs=3)
        assert crimes.config.epoch_interval_ms > 50.0
        assert controller.nudges >= 1
        nudges = crimes.observer.flight.events(kind="slo.nudge")
        assert nudges and nudges[0].attrs["direction"] == 1

    def test_detection_latency_breach_nudges_interval_down(self):
        crimes = make_crimes(seed=75)
        controller = AdaptiveIntervalController(
            min_interval_ms=10.0, max_interval_ms=400.0)
        attach_slo_watchdog(
            crimes,
            policy=SLOPolicy([SLOBudget("detection_latency_ms", 1.0)]),
            controller=controller,
        )
        crimes.start()
        crimes.run(max_epochs=3)
        assert crimes.config.epoch_interval_ms < 50.0

    def test_observation_only_without_controller(self):
        crimes = make_crimes(seed=76)
        attach_slo_watchdog(crimes, policy=SLOPolicy([
            SLOBudget("epoch_overhead_pct", 0.0001, unit="%"),
        ]))
        crimes.start()
        crimes.run(max_epochs=2)
        assert crimes.config.epoch_interval_ms == 50.0

    def test_evaluation_trail_is_bounded(self):
        observer = Observer(VirtualClock(), name="bounded")
        watchdog = SLOWatchdog(observer, max_evaluations=3)
        for _ in range(5):
            watchdog.evaluate()
        assert len(watchdog.evaluations) == 3

    def test_snapshot_and_summary_are_plain_data(self):
        crimes = make_crimes(seed=77)
        crimes.start()
        crimes.run(max_epochs=2)
        json.dumps(crimes.slo_watchdog.snapshot())
        json.dumps(crimes.slo_watchdog.summary())


class TestAdaptiveNudge:
    def test_nudge_directions_and_clamping(self):
        controller = AdaptiveIntervalController(
            gain=0.5, min_interval_ms=10.0, max_interval_ms=100.0)
        up = controller.nudge(80.0, +1)
        assert up == pytest.approx(100.0)  # clamped to max
        down = controller.nudge(80.0, -1)
        assert down == pytest.approx(80.0 / 1.25)
        assert controller.nudges == 2

    def test_nudge_rejects_bad_direction(self):
        controller = AdaptiveIntervalController()
        with pytest.raises(ConfigError):
            controller.nudge(50.0, 0)


# ---------------------------------------------------------------------------
# Counters that count one journal kind agree with the journal
# ---------------------------------------------------------------------------

#: Journal kind -> the registry counter bumped when it is recorded.
COUNTED_KINDS = {
    "epoch.commit": "checkpoint.commits",
    "epoch.abort": "checkpoint.aborts",
    "async.dispatch": "async.jobs_started",
    "async.cancelled": "async.jobs_cancelled",
    "buffer.release_stale": "netbuf.stale_releases",
    "fault.injected": "faults.injected_total",
    "fault.recovered": "faults.recovered_total",
    "fault.escalated": "faults.escalated_total",
    "slo.alert": "slo.alerts",
    "slo.nudge": "slo.interval_nudges",
    "epoch.held": "epoch.held",
}

#: Journal kind -> the plain attribute that reads the same count.
MIRRORS = {
    "async.dispatch": lambda crimes: crimes.async_scanner.jobs_started,
    "async.cancelled": lambda crimes: crimes.async_scanner.jobs_cancelled,
    "fault.injected": lambda crimes: crimes.injector.injected_total,
    "fault.recovered": lambda crimes: crimes.injector.recovered_total,
    "fault.escalated": lambda crimes: crimes.injector.escalated_total,
    "slo.alert": lambda crimes: crimes.slo_watchdog.alerts,
    "epoch.held": lambda crimes: crimes.epochs_held,
    "epoch.rolled_back": lambda crimes: crimes.fault_rollbacks,
}


def assert_counts_match_journal(crimes, fired):
    """Every counter and mirror equals its kind's count in the journal."""
    flight = crimes.observer.flight
    registry = crimes.observer.registry
    assert flight.evicted == 0
    counts = {kind: len(flight.events(kind=kind))
              for kind in set(COUNTED_KINDS) | set(MIRRORS)}
    assert all(counts[kind] for kind in fired), counts
    for kind, name in COUNTED_KINDS.items():
        if name in registry:
            assert registry.get(name).value == counts[kind], kind
        else:  # the fault counters exist only with an injector
            assert counts[kind] == 0, kind
    for kind, mirror in MIRRORS.items():
        if crimes.injector is not None or not kind.startswith("fault."):
            assert mirror(crimes) == counts[kind], kind
    shed = flight.events(kind="degraded.shed")
    assert crimes.epochs_shed == sum(e.attrs["epochs_shed"] for e in shed)


class _SlowDeepScan:
    """An async deep-scan module that never finishes within the run."""

    name = "slow-deep-scan"

    def cost_ms(self, dump):
        return 10_000.0

    def scan(self, dump):
        return []


def counted_crimes(name, fault_plan=None, **config):
    vm = LinuxGuest(name=name, memory_bytes=4 * 1024 * 1024, seed=5)
    crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=20.0, seed=5,
                                     **config), fault_plan=fault_plan)
    crimes.install_module(SyscallTableModule())
    crimes.add_program(KeyValueStoreProgram(seed=5))
    return crimes


def async_scan_cut_short():
    """A deep scan still in flight when an audit fault rolls back."""
    plan = FaultPlan.single(FaultPlane.VMI_READ,
                            FaultSchedule.burst(start_epoch=3, duration=1),
                            seed=5)
    crimes = counted_crimes("counted-async", fault_plan=plan)
    crimes.install_async_module(_SlowDeepScan())
    crimes.start()
    crimes.run(max_epochs=5)
    return crimes


def stale_overlapped_release():
    """An overlapped epoch's outputs discarded before its verdict lands."""
    crimes = counted_crimes("counted-overlap", overlap_audit=True)
    crimes.start()
    crimes.run_epoch()
    assert crimes.overlap.queued == [1]
    crimes.buffer.discard()
    crimes.clock.advance(1000.0)
    assert crimes.overlap.drain() == (0, 0)
    return crimes


def slo_nudge():
    """An unmeetable overhead budget steering the interval up."""
    crimes = counted_crimes("counted-slo")
    attach_slo_watchdog(
        crimes,
        policy=SLOPolicy([SLOBudget("epoch_overhead_pct", 0.0001,
                                    unit="%")]),
        controller=AdaptiveIntervalController(min_interval_ms=10.0,
                                              max_interval_ms=400.0),
    )
    crimes.start()
    crimes.run(max_epochs=3)
    return crimes


def held_epochs():
    """A persistent backup-sync fault: epochs held, then shed."""
    plan = FaultPlan.single(FaultPlane.BACKUP_SYNC,
                            FaultSchedule.persistent(start_epoch=3), seed=0)
    return run_chaos(fault_plan=plan, seed=0, epochs=10,
                     max_hold_epochs=3)["crimes"]


#: Scenario -> the counted kinds it exists to fire.
SCENARIOS = {
    async_scan_cut_short: ("async.dispatch", "async.cancelled",
                           "epoch.abort"),
    stale_overlapped_release: ("buffer.release_stale", "epoch.commit"),
    slo_nudge: ("slo.alert", "slo.nudge"),
    held_epochs: ("epoch.held", "fault.injected", "fault.escalated"),
}

CHAOS_KINDS = ("epoch.commit", "epoch.abort", "fault.injected",
               "fault.recovered", "fault.escalated", "slo.alert")


class TestCountersAgreeWithJournal:
    def test_scenarios_fire_every_counted_kind(self):
        fired = set(CHAOS_KINDS)
        for kinds in SCENARIOS.values():
            fired.update(kinds)
        assert fired == set(COUNTED_KINDS)

    def test_chaos_run(self, chaos_seed7):
        assert_counts_match_journal(chaos_seed7["crimes"], CHAOS_KINDS)

    @pytest.mark.parametrize("scenario", list(SCENARIOS),
                             ids=lambda scenario: scenario.__name__)
    def test_scenario(self, scenario):
        assert_counts_match_journal(scenario(), SCENARIOS[scenario])
