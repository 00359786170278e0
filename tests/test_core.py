"""Unit tests for CrimesConfig and the epoch loop."""

import pytest

from repro.checkpoint.checkpointer import CopyFidelity
from repro.checkpoint.costmodel import OptimizationLevel
from repro.core.config import CrimesConfig, SafetyMode
from repro.core.crimes import PHASE_ORDER, Crimes
from repro.detectors.canary import CanaryScanModule
from repro.errors import ConfigError, CrimesError
from repro.guest.devices import Packet
from repro.guest.linux import LinuxGuest
from repro.workloads.base import GuestProgram
from repro.workloads.attacks import OverflowAttackProgram


class ChattyProgram(GuestProgram):
    """Sends one packet and dirties one page per epoch."""

    name = "chatty"

    def __init__(self):
        super().__init__()
        self.steps = 0

    def step(self, start_ms, interval_ms):
        self.steps += 1
        self.vm.nic.send(Packet("10.0.0.1:80", "10.0.0.2:5000",
                                b"tick %d" % self.steps))
        self.vm.memory.touch_frame(self.vm.memory.frame_count - 1)
        return {"synthetic_dirty": 10}

    def state_dict(self):
        return {"steps": self.steps}

    def load_state_dict(self, state):
        self.steps = state["steps"]


def make_crimes(**kwargs):
    vm = LinuxGuest(name="core-test", memory_bytes=8 * 1024 * 1024, seed=21)
    kwargs.setdefault("epoch_interval_ms", 50.0)
    return Crimes(vm, CrimesConfig(**kwargs))


class TestConfig:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigError):
            CrimesConfig(epoch_interval_ms=0)

    def test_rejects_tiny_interval(self):
        with pytest.raises(ConfigError):
            CrimesConfig(epoch_interval_ms=1.0)

    def test_rejects_wrong_types(self):
        with pytest.raises(ConfigError):
            CrimesConfig(safety="synchronous")
        with pytest.raises(ConfigError):
            CrimesConfig(optimization="full")
        with pytest.raises(ConfigError):
            CrimesConfig(fidelity="full")

    def test_safety_maps_to_buffer_mode(self):
        from repro.netbuf.buffer import BufferMode

        assert SafetyMode.SYNCHRONOUS.buffer_mode is BufferMode.SYNCHRONOUS
        assert SafetyMode.BEST_EFFORT.buffer_mode is BufferMode.BEST_EFFORT


class TestEpochLoop:
    def test_epoch_before_start_rejected(self):
        crimes = make_crimes()
        with pytest.raises(CrimesError):
            crimes.run_epoch()

    def test_double_start_rejected(self):
        crimes = make_crimes()
        crimes.start()
        with pytest.raises(CrimesError):
            crimes.start()

    def test_clean_epoch_commits_and_releases(self):
        crimes = make_crimes()
        program = crimes.add_program(ChattyProgram())
        crimes.start()
        record = crimes.run_epoch()
        assert record.committed
        assert record.released_packets == 1
        assert len(crimes.external_sink.packets) == 1
        assert record.dirty_pages >= 11  # 1 real + 10 synthetic

    def test_outputs_held_during_epoch(self):
        crimes = make_crimes()
        crimes.add_program(ChattyProgram())
        crimes.start()
        # Before any epoch completes, nothing escapes.
        assert len(crimes.external_sink.packets) == 0

    def test_best_effort_releases_immediately(self):
        crimes = make_crimes(safety=SafetyMode.BEST_EFFORT)
        crimes.add_program(ChattyProgram())
        crimes.start()
        crimes.run_epoch()
        assert len(crimes.external_sink.packets) == 1

    def test_phase_breakdown_has_all_phases(self):
        crimes = make_crimes()
        crimes.add_program(ChattyProgram())
        crimes.start()
        record = crimes.run_epoch()
        assert set(record.phase_ms) == set(PHASE_ORDER)
        assert record.pause_ms > 0

    def test_clock_advances_by_interval_plus_pause(self):
        crimes = make_crimes()
        crimes.start()
        before = crimes.clock.now
        record = crimes.run_epoch()
        elapsed = crimes.clock.now - before
        assert elapsed == pytest.approx(50.0 + record.pause_ms)

    def test_scan_disabled_skips_vmi_phase(self):
        crimes = make_crimes(scan_enabled=False)
        crimes.start()
        record = crimes.run_epoch()
        assert record.phase_ms["vmi"] == 0.0

    def test_attack_epoch_discards_outputs_and_suspends(self):
        crimes = make_crimes(auto_respond=False)
        crimes.install_module(CanaryScanModule())
        crimes.add_program(ChattyProgram())
        crimes.add_program(
            OverflowAttackProgram(trigger_epoch=2, exfil_after_attack=True)
        )
        crimes.start()
        records = crimes.run(max_epochs=5)
        attacked = records[-1]
        assert not attacked.committed
        assert crimes.suspended
        # Epoch 1's packet was committed; epoch 2's was destroyed.
        assert len(crimes.external_sink.packets) == 1
        assert crimes.buffer.discarded_packets >= 1
        with pytest.raises(CrimesError):
            crimes.run_epoch()

    def test_auto_respond_produces_outcome(self):
        crimes = make_crimes()
        crimes.install_module(CanaryScanModule())
        crimes.add_program(OverflowAttackProgram(trigger_epoch=2))
        crimes.start()
        crimes.run(max_epochs=5)
        outcome = crimes.last_outcome
        assert outcome is not None
        assert outcome.finding.kind == "buffer-overflow"
        assert outcome.report is not None
        assert outcome.pinpoint is not None and outcome.pinpoint.matched

    def test_run_stops_when_programs_finish(self):
        from repro.workloads.parsec import ParsecWorkload

        crimes = make_crimes(fidelity=CopyFidelity.ACCOUNTING,
                             epoch_interval_ms=200.0)
        workload = crimes.add_program(
            ParsecWorkload("raytrace", native_runtime_ms=1000.0)
        )
        crimes.start()
        crimes.run()
        assert workload.finished
        assert crimes.epochs_run >= 5

    def test_run_until_ms(self):
        crimes = make_crimes()
        crimes.start()
        crimes.run(until_ms=500.0)
        assert crimes.clock.now >= 500.0

    def test_mean_statistics(self):
        crimes = make_crimes()
        crimes.add_program(ChattyProgram())
        crimes.start()
        crimes.run(max_epochs=3)
        assert crimes.mean_pause_ms() > 0
        assert crimes.mean_dirty_pages() >= 11
        breakdown = crimes.mean_phase_breakdown()
        assert set(breakdown) == set(PHASE_ORDER)

    def test_remus_mode_never_detects(self):
        from repro.baselines.remus_baseline import remus_config

        vm = LinuxGuest(name="remus", memory_bytes=8 * 1024 * 1024, seed=3)
        crimes = Crimes(vm, remus_config(epoch_interval_ms=50.0,
                                         fidelity=CopyFidelity.FULL))
        crimes.install_module(CanaryScanModule())
        crimes.add_program(OverflowAttackProgram(trigger_epoch=1))
        crimes.start()
        crimes.run(max_epochs=3)
        assert not crimes.suspended  # scans disabled: attack sails through


class TestMetricsAccounting:
    def test_checkpoints_committed_counts_commits_only(self):
        # An audit that times out from epoch 3 on rolls every later epoch
        # back: six checkpoints are staged, only the first two commit.
        from repro.faults import FaultPlan, FaultPlane, FaultSchedule
        from repro.faults.chaos import run_chaos

        plan = FaultPlan.single(FaultPlane.AUDIT_TIMEOUT,
                                FaultSchedule.persistent(start_epoch=3),
                                seed=1)
        result = run_chaos(fault_plan=plan, seed=1, epochs=6)
        crimes = result["crimes"]
        assert crimes.checkpointer.epoch == 6
        assert result["metrics"]["checkpoints_committed"] == 2
        assert len(crimes.observer.flight.events(kind="epoch.commit")) == 2

    @pytest.mark.parametrize("shared_store", [False, True])
    def test_backup_memory_is_what_the_checkpointer_retains(self,
                                                            shared_store):
        # The same definition CloudHost.memory_overhead_bytes() sums: a
        # flat tenant retains its backup image plus its history's undo
        # pages; a store-backed tenant's pages are counted by the store.
        from repro.checkpoint.store import PageStore
        from repro.core.cloud import CloudHost
        from repro.workloads.kvstore import KeyValueStoreProgram

        host = CloudHost(store=PageStore() if shared_store else None)
        crimes = host.admit(
            LinuxGuest(name="retained", memory_bytes=2 * 1024 * 1024,
                       seed=3),
            CrimesConfig(epoch_interval_ms=20.0, seed=3, history_capacity=4),
            programs=[KeyValueStoreProgram(seed=3)],
        )
        host.run(rounds=5)
        retained = crimes.checkpointer.retained_bytes()
        assert crimes.metrics()["backup_memory_bytes"] == retained
        if shared_store:
            assert retained == 0
        else:
            assert retained > crimes.vm.memory.size
            assert retained == host.memory_overhead_bytes()
