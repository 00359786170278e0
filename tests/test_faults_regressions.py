"""Regression tests for fault-path races and silent-unwind bugs.

Four formerly-latent behaviours, pinned down:

* ``OutputBuffer.release()`` for an epoch a rollback already discarded
  must be a counted no-op, never a late leak;
* an :class:`AsyncScanner` job whose snapshot was rolled back must be
  cancelled — its late verdict must never land;
* an audit that *raises* (``IntrospectionError``/``ForensicsError``)
  used to unwind the epoch loop silently; it must now be observed
  evidence (counter + journal) that escalates to a synchronous
  rollback, after which the VM keeps running;
* a hostile address in guest memory (a canary-table entry or a task
  pointer the introspection cannot translate or read) used to crash the
  epoch loop with a guest fault; an untranslatable canary is skipped,
  and an audit that faults escalates like any other audit error. A
  hostile freed-region ``size`` used to make the canary scan walk its
  span frame by frame, uncharged; the span check is now bounded.
"""

import time

import pytest

from repro.core.async_scan import AsyncScanner
from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.detectors import SyscallTableModule
from repro.detectors.canary import CanaryScanModule
from repro.detectors.malware import MalwareScanModule
from repro.errors import ForensicsError
from repro.faults import FaultPlan, FaultPlane, FaultSchedule
from repro.faults.chaos import run_chaos
from repro.guest.devices import DiskWrite, OutputSink, Packet
from repro.guest.heap import CANARY_ENTRY, CANARY_TABLE_HEADER, KIND_FREED
from repro.guest.linux import TASK_STRUCT, LinuxGuest
from repro.guest.memory import PAGE_SIZE
from repro.guest.pagetable import KERNEL_BASE, kernel_pa
from repro.netbuf.buffer import BufferMode, OutputBuffer
from repro.obs import Observer
from repro.sim.clock import VirtualClock
from repro.workloads.kvstore import KeyValueStoreProgram


def make_buffer():
    clock = VirtualClock()
    sink = OutputSink(clock)
    observer = Observer(clock)
    buffer = OutputBuffer(sink, mode=BufferMode.SYNCHRONOUS, clock=clock,
                          observer=observer)
    return buffer, sink, observer.registry, observer.flight


class TestStaleRelease:
    def test_release_after_discard_is_a_counted_noop(self):
        buffer, sink, registry, flight = make_buffer()
        buffer.begin_epoch(1)
        buffer.emit_packet(Packet("a", "b", b"speculative"))
        buffer.emit_disk_write(DiskWrite(0, b"speculative"))
        buffer.discard()  # rollback destroyed epoch 1's outputs

        assert buffer.release(1) == (0, 0)
        assert sink.packets == [] and sink.disk_writes == []
        assert registry.counter("netbuf.stale_releases").value == 1
        (event,) = flight.events(kind="buffer.release_stale")
        assert event.epoch == 1
        # and nothing was journaled as an actual release
        assert not flight.events(kind="buffer.release")

    def test_discard_marks_current_epoch_even_without_outputs(self):
        # Rollback of an epoch that never emitted anything must still
        # fence later release() calls for it.
        buffer, sink, registry, _flight = make_buffer()
        buffer.begin_epoch(4)
        buffer.discard()
        assert buffer.release(4) == (0, 0)
        assert registry.counter("netbuf.stale_releases").value == 1
        assert sink.packets == []

    def test_release_of_live_epoch_still_works_after_older_discard(self):
        buffer, sink, _registry, _flight = make_buffer()
        buffer.begin_epoch(1)
        buffer.emit_packet(Packet("a", "b", b"doomed"))
        buffer.discard()
        buffer.begin_epoch(2)
        buffer.emit_packet(Packet("a", "b", b"clean"))
        assert buffer.release(2) == (1, 0)
        assert [p.payload for p in sink.packets] == [b"clean"]


class FakeDeepScan:
    """A deep-scan module with a controllable (long) duration."""

    name = "fake-deep-scan"

    def __init__(self, cost_ms=1000.0):
        self._cost_ms = cost_ms
        self.scans = 0

    def cost_ms(self, dump):
        return self._cost_ms

    def scan(self, dump):
        self.scans += 1
        return []


class TestAsyncLateVerdictRace:
    def make_scanner(self, linux_domain):
        from repro.checkpoint.checkpointer import Checkpointer

        vm = linux_domain.vm
        clock = vm.clock
        observer = Observer(clock)
        checkpointer = Checkpointer(linux_domain)
        checkpointer.start()
        scanner = AsyncScanner(clock, observer=observer)
        scanner.install(FakeDeepScan(cost_ms=100.0))
        return (scanner, checkpointer, vm, clock, observer.registry,
                observer.flight)

    def test_cancelled_job_never_delivers_a_verdict(self, linux_domain):
        scanner, checkpointer, vm, clock, registry, flight = \
            self.make_scanner(linux_domain)
        job = scanner.offer_snapshot(vm, checkpointer.backup_snapshot(), 1)
        assert job is not None and scanner.busy

        cancelled = scanner.cancel(reason="rollback")
        assert cancelled is job and not scanner.busy

        # The race: virtual time passes the job's completion point.
        # Without the cancel this poll would deliver a verdict for a
        # snapshot whose epoch was rolled back.
        clock.advance(job.completes_at - clock.now + 1.0)
        assert scanner.poll() is None
        assert scanner.verdicts == []
        assert scanner.modules[0].scans == 0  # the dump was never scanned

        assert scanner.jobs_cancelled == 1
        assert registry.counter("async.jobs_cancelled").value == 1
        (event,) = flight.events(kind="async.cancelled")
        assert event.epoch == 1 and event.attrs["reason"] == "rollback"

    def test_counterfactual_poll_delivers_without_cancel(self, linux_domain):
        scanner, checkpointer, vm, clock, _registry, _flight = \
            self.make_scanner(linux_domain)
        job = scanner.offer_snapshot(vm, checkpointer.backup_snapshot(), 1)
        clock.advance(job.completes_at - clock.now + 1.0)
        assert scanner.poll() is not None  # the race is real

    def test_cancel_frees_the_scanning_core(self, linux_domain):
        scanner, checkpointer, vm, _clock, _registry, _flight = \
            self.make_scanner(linux_domain)
        scanner.offer_snapshot(vm, checkpointer.backup_snapshot(), 1)
        scanner.cancel()
        assert scanner.offer_snapshot(
            vm, checkpointer.backup_snapshot(), 2) is not None

    def test_cancel_while_idle_is_a_noop(self, linux_domain):
        scanner, _checkpointer, _vm, _clock, registry, flight = \
            self.make_scanner(linux_domain)
        assert scanner.cancel() is None
        assert scanner.jobs_cancelled == 0
        assert not flight.events(kind="async.cancelled")

    def test_fault_rollback_cancels_inflight_scan(self):
        # End to end: an audit fault rolls epoch 3 back while a deep
        # scan of epoch 1's checkpoint is still in flight; the scan is
        # cancelled, journaled, and never produces a verdict.
        plan = FaultPlan.single(
            FaultPlane.VMI_READ,
            FaultSchedule.burst(start_epoch=3, duration=1), seed=5)
        vm = LinuxGuest(name="race-test", memory_bytes=4 * 1024 * 1024,
                        seed=5)
        crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=20.0, seed=5),
                        fault_plan=plan)
        crimes.install_module(SyscallTableModule())
        deep = crimes.install_async_module(FakeDeepScan(cost_ms=10_000.0))
        crimes.add_program(KeyValueStoreProgram(seed=5))
        crimes.start()
        crimes.run(max_epochs=5)

        assert crimes.fault_rollbacks == 1
        assert crimes.async_scanner.jobs_cancelled == 1
        assert crimes.async_scanner.verdicts == []
        assert deep.scans == 0
        (event,) = crimes.observer.flight.events(kind="async.cancelled")
        assert event.attrs["reason"] == "audit-error"
        # the VM kept running after the rollback
        assert crimes.epochs_run == 5 and not crimes.suspended


class TestAuditErrorObservability:
    def test_injected_vmi_fault_is_observed_and_rolled_back(self):
        plan = FaultPlan.single(
            FaultPlane.VMI_READ,
            FaultSchedule.burst(start_epoch=3, duration=1), seed=9)
        result = run_chaos(fault_plan=plan, seed=9, epochs=6)
        crimes = result["crimes"]

        assert crimes.observer.registry.counter(
            "faults.audit_error").value == 1
        observed = [e for e in result["events"]
                    if e["kind"] == "fault.observed"
                    and e["attrs"].get("site") == "audit"]
        assert len(observed) == 1
        assert observed[0]["epoch"] == 3
        assert observed[0]["attrs"]["error"] == "IntrospectionError"

        (rollback,) = [e for e in result["events"]
                       if e["kind"] == "epoch.rolled_back"]
        assert rollback["epoch"] == 3
        record = crimes.records[2]
        assert record.outcome == "rolled-back" and not record.committed

        # The VM survived: later epochs committed, nothing escaped from
        # the unaudited epoch, and the safety invariant holds.
        assert crimes.epochs_run == 6 and not crimes.suspended
        assert crimes.records[-1].committed
        assert 3 not in result["safety"]["released_epochs"]
        assert result["safety"]["ok"], result["safety"]["violations"]

    def test_forensics_error_mid_audit_is_observed(self, monkeypatch):
        # Same contract when the *forensics* layer blows up: previously
        # this unwound run_epoch silently; now it is counted, journaled,
        # and escalated to a rollback — no fault plan required.
        vm = LinuxGuest(name="forensics-err", memory_bytes=4 * 1024 * 1024,
                        seed=3)
        crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=20.0, seed=3))
        crimes.install_module(SyscallTableModule())
        crimes.add_program(KeyValueStoreProgram(seed=3))
        crimes.start()

        real_scan = crimes.detector.scan
        calls = {"n": 0}

        def flaky_scan(**kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ForensicsError("symbol table vanished mid-walk")
            return real_scan(**kwargs)

        monkeypatch.setattr(crimes.detector, "scan", flaky_scan)
        crimes.run(max_epochs=4)

        assert crimes.observer.registry.counter(
            "faults.audit_error").value == 1
        (observed,) = crimes.observer.flight.events(kind="fault.observed")
        assert observed.attrs["error"] == "ForensicsError"
        assert "symbol table" in observed.attrs["detail"]
        assert crimes.records[1].outcome == "rolled-back"
        assert crimes.fault_rollbacks == 1
        assert crimes.epochs_run == 4 and crimes.records[-1].committed


class TestHostileGuestAddresses:
    """Addresses read from guest memory are attacker-controlled."""

    def make_crimes(self, module):
        vm = LinuxGuest(name="hostile", memory_bytes=4 * 1024 * 1024,
                        seed=11)
        crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=20.0, seed=11))
        crimes.install_module(module)
        crimes.add_program(KeyValueStoreProgram(seed=11))
        return crimes

    @pytest.mark.parametrize("rewrite", ["unmapped", "wrap"])
    @pytest.mark.parametrize("clobber", [False, True])
    def test_untranslatable_canary_entry_is_skipped(self, clobber, rewrite):
        crimes = self.make_crimes(CanaryScanModule())
        process = crimes.vm.create_process("victim")
        objects = [process.malloc(48) for _ in range(4)]
        crimes.start()
        assert crimes.run_epoch().committed

        table_va = process.heap.table_va
        _canary, addrs, _sizes, _kinds = crimes.vmi.read_canary_table_slab(
            process.pid, table_va)
        index = addrs.tolist().index(objects[1])
        entry_va = table_va + CANARY_TABLE_HEADER.size \
            + index * CANARY_ENTRY.size
        if rewrite == "unmapped":
            # Point one entry at a user page the process never mapped.
            process.write_u64(entry_va + CANARY_ENTRY.offset_of("addr"),
                              0x66600000)
        else:
            # addr + size passes 2^64 and wraps onto objects[3]'s canary:
            # past the address space, so nothing to check.
            process.write_u64(entry_va + CANARY_ENTRY.offset_of("addr"),
                              2 ** 63)
            process.write_u64(entry_va + CANARY_ENTRY.offset_of("size"),
                              2 ** 63 + objects[3] + 48)
        if clobber:
            # A real overflow elsewhere in the same table.
            process.write(objects[3] + 48, b"\xee" * 8)

        record = crimes.run_epoch()
        if not clobber:
            assert record.committed and record.outcome == "committed"
            return
        assert record.outcome == "attack"
        (finding,) = record.detection.critical_findings()
        assert finding.kind == "buffer-overflow"
        assert finding.details["object_addr"] == objects[3]

    @pytest.mark.parametrize("size", [2 ** 40, 2 ** 63, 2 ** 64 - 1])
    @pytest.mark.parametrize("dirty_in_span", [False, True])
    def test_hostile_freed_size_is_bounded(self, size, dirty_in_span):
        crimes = self.make_crimes(CanaryScanModule())
        process = crimes.vm.create_process("victim")
        objects = [process.malloc(48) for _ in range(4)]
        process.free(objects[1])
        crimes.start()
        assert crimes.run_epoch().committed

        table_va = process.heap.table_va
        _canary, addrs, _sizes, kinds = crimes.vmi.read_canary_table_slab(
            process.pid, table_va)
        index = addrs.tolist().index(objects[1])
        assert kinds[index] == KIND_FREED
        entry_va = (table_va + CANARY_TABLE_HEADER.size
                    + index * CANARY_ENTRY.size)
        if not dirty_in_span:
            # Probe the start of the process's clean page with the highest
            # frame: no dirty frame lies above it, so the whole span is
            # re-checked and nothing in it is dirty.
            pages = process.page_table
            top_vpn = max(pages.mapped_vpns(),
                          key=lambda vpn: pages.frame_of(vpn * PAGE_SIZE))
            process.write_u64(entry_va + CANARY_ENTRY.offset_of("addr"),
                              top_vpn * PAGE_SIZE)
        # Otherwise the heap probe's span covers the table page this very
        # write dirties, so the region is read, and the read faults.
        process.write_u64(entry_va + CANARY_ENTRY.offset_of("size"), size)

        started = time.perf_counter()
        record = crimes.run_epoch()
        elapsed_s = time.perf_counter() - started
        if not dirty_in_span:
            assert record.committed and record.outcome == "committed"
            assert elapsed_s < 1.0
            return
        assert record.outcome == "rolled-back" and not record.committed
        (rollback,) = crimes.observer.flight.events(kind="epoch.rolled_back")
        assert rollback.attrs["reason"] == "audit-error"

    @pytest.mark.parametrize("tasks_next, error", [
        (0x1000, "IntrospectionError"),
        (KERNEL_BASE + 2 ** 40, "PhysicalAccessError"),
    ])
    def test_wild_task_pointer_escalates_to_rollback(self, tasks_next,
                                                     error):
        crimes = self.make_crimes(MalwareScanModule())
        vm = crimes.vm
        crimes.start()
        assert crimes.run_epoch().committed

        # 0x1000 is below the kernel direct map; KERNEL_BASE + 2**40
        # translates to a frame far outside RAM.
        TASK_STRUCT.write_field(
            vm.memory, kernel_pa(vm.symbols.lookup("init_task")),
            "tasks_next", tasks_next,
        )
        record = crimes.run_epoch()

        assert record.outcome == "rolled-back" and not record.committed
        (rollback,) = crimes.observer.flight.events(kind="epoch.rolled_back")
        assert rollback.attrs["reason"] == "audit-error"
        (observed,) = crimes.observer.flight.events(kind="fault.observed")
        assert observed.attrs["site"] == "audit"
        assert observed.attrs["error"] == error
        # The rollback restored the clean task list; the VM runs on.
        assert crimes.run_epoch().committed
