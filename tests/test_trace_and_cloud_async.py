"""Tests for trace rendering, CloudHost+async integration, and the
Windows deep scan."""

from repro.core.cloud import CloudHost
from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.detectors.canary import CanaryScanModule
from repro.detectors.deep import HiddenProcessDeepScan, SignatureSweepModule
from repro.faults import FaultPlan, FaultPlane, FaultSchedule
from repro.faults.chaos import run_chaos
from repro.forensics.dumps import MemoryDump
from repro.guest.linux import LinuxGuest
from repro.guest.windows import WindowsGuest
from repro.metrics.trace import render_epoch_trace, render_phase_bars
from repro.workloads.attacks import MemoryResidentMalware, \
    OverflowAttackProgram


class TestEpochTrace:
    def _records(self, attack=False):
        vm = LinuxGuest(name="trace", memory_bytes=8 * 1024 * 1024,
                        seed=150)
        crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=50.0, seed=150,
                                         auto_respond=False))
        crimes.install_module(CanaryScanModule())
        if attack:
            crimes.add_program(OverflowAttackProgram(trigger_epoch=3))
        crimes.start()
        crimes.run(max_epochs=4)
        return crimes.records

    def test_trace_shows_pass_rows(self):
        trace = render_epoch_trace(self._records())
        assert trace.count("pass") == 4
        assert "=" in trace and "#" in trace

    def test_trace_flags_failed_epoch(self):
        trace = render_epoch_trace(self._records(attack=True))
        assert "FAIL: buffer-overflow" in trace

    def test_trace_empty(self):
        assert render_epoch_trace([]) == "(no epochs)"

    @staticmethod
    def _verdicts(trace):
        return [line.split(None, 2)[2] for line in trace.splitlines()[1:]]

    def test_trace_labels_held_epoch_as_held(self):
        # The backup sync fails at epoch 3 only: that audited-clean epoch
        # is held, and epoch 4's commit releases both epochs' outputs.
        plan = FaultPlan.single(
            FaultPlane.BACKUP_SYNC,
            FaultSchedule.burst(start_epoch=3, duration=1, fail_attempts=5),
            seed=1)
        crimes = run_chaos(fault_plan=plan, seed=1, epochs=5)["crimes"]
        records = crimes.records
        assert [record.outcome for record in records][2] == "held"
        verdicts = self._verdicts(render_epoch_trace(records))
        assert verdicts[2] == "held"
        assert verdicts[3] == "pass (released 16p/8w)"
        assert not any(verdict.startswith("FAIL") for verdict in verdicts)

    def test_trace_labels_fault_rollback_as_rolled_back(self):
        plan = FaultPlan.single(FaultPlane.AUDIT_TIMEOUT,
                                FaultSchedule.persistent(start_epoch=3),
                                seed=1)
        crimes = run_chaos(fault_plan=plan, seed=1, epochs=6)["crimes"]
        records = crimes.records
        verdicts = self._verdicts(render_epoch_trace(records))
        assert verdicts[2:] == ["rolled back"] * 4
        assert all(verdict.startswith("pass") for verdict in verdicts[:2])

    def test_phase_bars_sum_to_100_percent(self):
        records = self._records()
        bars = render_phase_bars(records[0].phase_ms)
        assert "copy" in bars and "%" in bars

    def test_phase_bars_empty(self):
        assert render_phase_bars({}) == "(no pause)"


class TestCloudAsyncIntegration:
    def test_tenant_with_async_modules_detects_fileless_payload(self):
        host = CloudHost()
        host.admit(
            LinuxGuest(name="deep-tenant", memory_bytes=8 * 1024 * 1024,
                       seed=151),
            CrimesConfig(epoch_interval_ms=50.0, seed=151),
            async_modules=[SignatureSweepModule()],
            programs=[MemoryResidentMalware(trigger_epoch=2)],
        )
        host.admit(
            LinuxGuest(name="shallow-tenant",
                       memory_bytes=8 * 1024 * 1024, seed=152),
            CrimesConfig(epoch_interval_ms=50.0, seed=152),
            modules=[CanaryScanModule()],
        )
        incidents = host.run(rounds=30)
        assert incidents == ["deep-tenant"]
        verdict = host.tenant("deep-tenant").last_async_verdict
        assert verdict is not None and verdict.attack_detected


class TestWindowsDeepScan:
    def test_psxview_deep_scan_on_windows_dump(self):
        vm = WindowsGuest(name="win-deep", memory_bytes=8 * 1024 * 1024,
                          seed=153)
        pid = vm.create_process("implant.exe")
        vm.hide_process(pid)
        dump = MemoryDump.from_vm(vm)
        findings = HiddenProcessDeepScan(seed=153).scan(dump)
        assert any(f.details["name"] == "implant.exe" for f in findings)
