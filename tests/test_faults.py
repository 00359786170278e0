"""Unit tests for the fault-injection plane (repro.faults).

The chaos matrix (tests/chaos/) exercises the planes end to end; these
tests pin down the building blocks in isolation — schedule semantics,
plan (de)serialization, the bounded-retry policy, and the injector's
arming/recovery accounting.
"""

import pytest

from repro.errors import FaultPlanError
from repro.faults import (
    ALL_PLANES,
    ActiveFault,
    FaultInjector,
    FaultPlan,
    FaultPlane,
    FaultSchedule,
    RetryPolicy,
    ScheduleKind,
)
from repro.obs import Observer
from repro.sim.clock import VirtualClock
from repro.sim.rng import SeededStream


class TestFaultSchedule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSchedule("meteor")

    @pytest.mark.parametrize("kwargs", [
        {"probability": 1.5},
        {"probability": -0.1},
        {"start_epoch": 0},
        {"duration": 0},
        {"fail_attempts": 0},
        {"magnitude_ms": -1.0},
        {"mode": "explode"},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(FaultPlanError):
            FaultSchedule(ScheduleKind.TRANSIENT, **kwargs)

    def test_transient_faulting_is_probabilistic_and_seeded(self):
        schedule = FaultSchedule.transient(probability=0.5)
        stream_a, stream_b = SeededStream(3, "p"), SeededStream(3, "p")
        draws_a = [schedule.faulting(stream_a, e) for e in range(1, 200)]
        draws_b = [schedule.faulting(stream_b, e) for e in range(1, 200)]
        assert draws_a == draws_b  # same stream label -> same decisions
        assert any(draws_a) and not all(draws_a)

    def test_transient_extremes(self):
        stream = SeededStream(0, "x")
        always = FaultSchedule.transient(probability=1.0)
        never = FaultSchedule.transient(probability=0.0)
        assert all(always.faulting(stream, e) for e in range(1, 20))
        assert not any(never.faulting(stream, e) for e in range(1, 20))

    def test_persistent_faults_every_epoch_from_start(self):
        schedule = FaultSchedule.persistent(start_epoch=4)
        stream = SeededStream(0, "x")
        assert [schedule.faulting(stream, e) for e in range(1, 8)] == [
            False, False, False, True, True, True, True]

    def test_persistent_consumes_no_randomness(self):
        # Adding a deterministic plane must not perturb other planes'
        # streams; persistent/burst decisions are pure functions of the
        # epoch number.
        stream = SeededStream(7, "x")
        before = stream.random()
        stream = SeededStream(7, "x")
        FaultSchedule.persistent(start_epoch=1).faulting(stream, 5)
        FaultSchedule.burst(start_epoch=1).faulting(stream, 5)
        assert stream.random() == before

    def test_burst_window(self):
        schedule = FaultSchedule.burst(start_epoch=3, duration=2)
        stream = SeededStream(0, "x")
        assert [schedule.faulting(stream, e) for e in range(1, 7)] == [
            False, False, True, True, False, False]

    def test_attempts_to_fail(self):
        assert FaultSchedule.transient(fail_attempts=3).attempts_to_fail() == 3
        assert FaultSchedule.burst(fail_attempts=2).attempts_to_fail() == 2
        assert FaultSchedule.persistent().attempts_to_fail() is None

    def test_roundtrip(self):
        schedule = FaultSchedule.burst(start_epoch=5, duration=3,
                                       fail_attempts=2, magnitude_ms=2.5,
                                       mode="latency")
        clone = FaultSchedule.from_dict(schedule.to_dict())
        assert clone.to_dict() == schedule.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        data = FaultSchedule.transient().to_dict()
        data["blast_radius"] = 9000
        with pytest.raises(FaultPlanError):
            FaultSchedule.from_dict(data)


class TestFaultPlan:
    def test_none_plan_is_unarmed(self):
        plan = FaultPlan.none(seed=5)
        assert not plan.armed
        assert plan.seed == 5
        assert plan.schedules == {}

    def test_single_and_uniform(self):
        single = FaultPlan.single(FaultPlane.VMI_READ,
                                  FaultSchedule.persistent())
        assert set(single.schedules) == {FaultPlane.VMI_READ}
        uniform = FaultPlan.uniform(FaultSchedule.transient, seed=2)
        assert set(uniform.schedules) == set(ALL_PLANES)
        # factory called per plane: schedules are distinct objects
        values = list(uniform.schedules.values())
        assert len(set(map(id, values))) == len(values)

    def test_type_validation(self):
        with pytest.raises(FaultPlanError):
            FaultPlan({"vmi_read": FaultSchedule.transient()})
        with pytest.raises(FaultPlanError):
            FaultPlan({FaultPlane.VMI_READ: "not-a-schedule"})

    def test_roundtrip(self):
        plan = FaultPlan({
            FaultPlane.CHECKPOINT_COPY: FaultSchedule.transient(
                probability=0.4),
            FaultPlane.BACKUP_SYNC: FaultSchedule.persistent(start_epoch=2),
        }, seed=9)
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.to_dict() == plan.to_dict()
        assert clone.seed == 9

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"seed": 0, "planes": {}, "extra": 1})


class TestActiveFault:
    def test_transient_clears_after_fail_attempts(self):
        fault = ActiveFault(FaultPlane.VMI_READ,
                            FaultSchedule.transient(fail_attempts=2), 1)
        assert fault.fires() and fault.fires()
        assert not fault.fires()
        assert not fault.fires()
        assert not fault.persistent

    def test_persistent_never_clears(self):
        fault = ActiveFault(FaultPlane.BACKUP_SYNC,
                            FaultSchedule.persistent(), 1)
        assert all(fault.fires() for _ in range(50))
        assert fault.persistent


class TestRetryPolicy:
    def test_parameter_validation(self):
        for kwargs in ({"base_ms": 0.0}, {"factor": 0.5},
                       {"cap_ms": 0.1}, {"max_attempts": 0},
                       {"jitter_frac": 1.5}):
            with pytest.raises(FaultPlanError):
                RetryPolicy(**kwargs)

    def test_delays_monotone_and_bounded(self):
        policy = RetryPolicy(base_ms=0.5, factor=2.0, cap_ms=8.0,
                             max_attempts=6, jitter_frac=0.25)
        for seed in range(20):
            delays = policy.delays(SeededStream(seed, "retry"))
            assert len(delays) == policy.max_attempts - 1
            assert all(b >= a for a, b in zip(delays, delays[1:]))
            assert all(0 < d <= policy.max_delay_ms for d in delays)

    def test_delays_without_jitter_are_pure_exponential(self):
        policy = RetryPolicy(base_ms=1.0, factor=2.0, cap_ms=8.0,
                             max_attempts=6, jitter_frac=0.0)
        delays = policy.delays(SeededStream(0, "retry"))
        assert delays == [1.0, 2.0, 4.0, 8.0, 8.0]

    def test_run_recovers_transient(self):
        policy = RetryPolicy(max_attempts=4, jitter_frac=0.0)
        fault = ActiveFault(FaultPlane.CHECKPOINT_COPY,
                            FaultSchedule.transient(fail_attempts=2), 1)
        outcome = policy.run(fault, SeededStream(0, "r"))
        assert outcome.success
        assert outcome.attempts == 3  # two failures + the clearing probe
        assert outcome.failed_attempts == 2
        assert len(outcome.delays_ms) == 2
        assert outcome.backoff_ms == sum(outcome.delays_ms)

    def test_run_exhausts_on_persistent(self):
        policy = RetryPolicy(max_attempts=4, jitter_frac=0.0)
        fault = ActiveFault(FaultPlane.BACKUP_SYNC,
                            FaultSchedule.persistent(), 1)
        outcome = policy.run(fault, SeededStream(0, "r"))
        assert not outcome.success
        assert outcome.attempts == policy.max_attempts
        assert outcome.failed_attempts == policy.max_attempts
        assert len(outcome.delays_ms) == policy.max_attempts - 1


class TestFaultInjector:
    def make_injector(self, plan):
        observer = Observer(VirtualClock())
        return FaultInjector(plan, observer=observer), \
            observer.registry, observer.flight

    def test_empty_plan_never_arms(self):
        injector, registry, flight = self.make_injector(FaultPlan.none())
        assert not injector.armed
        for epoch in range(1, 10):
            injector.begin_epoch(epoch)
            assert all(injector.check(p) is None for p in ALL_PLANES)
        assert injector.injected_total == 0
        assert not flight.events(kind="fault.injected")

    def test_begin_epoch_arms_and_journals(self):
        plan = FaultPlan.single(FaultPlane.VMI_READ,
                                FaultSchedule.persistent(start_epoch=2))
        injector, registry, flight = self.make_injector(plan)
        injector.begin_epoch(1)
        assert injector.check(FaultPlane.VMI_READ) is None
        injector.begin_epoch(2)
        fault = injector.check(FaultPlane.VMI_READ)
        assert fault is not None and fault.epoch == 2
        assert injector.check(FaultPlane.BACKUP_SYNC) is None
        assert injector.injected_total == 1
        (event,) = flight.events(kind="fault.injected")
        assert event.attrs["plane"] == "vmi_read"
        assert event.attrs["schedule"] == "persistent"
        assert registry.counter("faults.injected_total").value == 1
        assert registry.counter("faults.vmi_read.injected").value == 1

    def test_arming_is_reproducible(self):
        def build():
            plan = FaultPlan.uniform(
                lambda: FaultSchedule.transient(probability=0.5), seed=13)
            injector = FaultInjector(plan)
            armed = []
            for epoch in range(1, 30):
                injector.begin_epoch(epoch)
                armed.append(sorted(p.value for p in ALL_PLANES
                                    if injector.check(p) is not None))
            return armed

        assert build() == build()

    def test_retry_success_journals_recovery(self):
        plan = FaultPlan.single(
            FaultPlane.CHECKPOINT_COPY,
            FaultSchedule.transient(probability=1.0, fail_attempts=1))
        injector, registry, flight = self.make_injector(plan)
        injector.begin_epoch(1)
        fault = injector.check(FaultPlane.CHECKPOINT_COPY)
        outcome = injector.retry(fault, site="copy")
        assert outcome.success
        assert injector.recovered_total == 1
        assert injector.escalated_total == 0
        (event,) = flight.events(kind="fault.recovered")
        assert event.attrs["site"] == "copy"
        assert registry.counter("faults.recovered_total").value == 1
        assert not flight.events(kind="fault.escalated")

    def test_retry_exhaustion_escalates(self):
        plan = FaultPlan.single(FaultPlane.BACKUP_SYNC,
                                FaultSchedule.persistent())
        injector, registry, flight = self.make_injector(plan)
        injector.begin_epoch(1)
        fault = injector.check(FaultPlane.BACKUP_SYNC)
        outcome = injector.retry(fault, site="backup-sync")
        assert not outcome.success
        assert injector.escalated_total == 1
        assert injector.recovered_total == 0
        (event,) = flight.events(kind="fault.escalated")
        assert event.attrs["site"] == "backup-sync"
        assert event.attrs["attempts"] == outcome.attempts
        assert registry.counter("faults.escalated_total").value == 1

    def test_summary_shape(self):
        plan = FaultPlan.single(FaultPlane.CLOCK_SKEW,
                                FaultSchedule.burst(start_epoch=1))
        injector = FaultInjector(plan)
        injector.begin_epoch(1)
        summary = injector.summary()
        assert summary["plan"] == plan.to_dict()
        assert summary["injected_total"] == 1
        assert set(summary["retry_policy"]) == {
            "base_ms", "factor", "cap_ms", "max_attempts", "jitter_frac"}
