"""Regression tests for the vectorized VMI hot paths.

Two formerly-latent behaviours, pinned down:

* a corrupted ``tasks_next`` pointer that forms a cycle *not* passing
  through the list head used to burn up to ``_MAX_LIST_LENGTH`` charged
  reads before the walk bound tripped — the walk must now detect the
  revisit immediately, journal a ``vmi.list_truncated`` flight event,
  and raise (a corrupted list must never read as a shorter clean list);
* a ``latency``-mode VMI_READ fault charges its magnitude once per
  *logical read* (one foreign mapping), not once per accounting charge —
  so batched slab reads don't make fault latency scale with batch size.
"""

import pytest

from repro.errors import IntrospectionError
from repro.faults import FaultPlan, FaultPlane, FaultSchedule
from repro.faults.injector import FaultInjector
from repro.guest.linux import TASK_STRUCT
from repro.obs import Observer
from repro.vmi.libvmi import VMIInstance


@pytest.fixture
def vmi(linux_domain):
    return VMIInstance(linux_domain, seed=1)


def _task_pa(vm, pid):
    return vm._task_slot_of_pid[pid]


class TestListWalkCycleDetection:
    def corrupt_into_cycle(self, vm):
        """Point the last task's next pointer back at the first child."""
        first = vm.create_process("first")
        vm.create_process("middle")
        last = vm.create_process("last")
        from repro.guest.pagetable import kernel_va

        TASK_STRUCT.write_field(
            vm.memory, _task_pa(vm, last.pid), "tasks_next",
            kernel_va(_task_pa(vm, first.pid)),
        )

    def test_cyclic_task_list_raises_promptly(self, vmi, linux_domain):
        vm = linux_domain.vm
        self.corrupt_into_cycle(vm)
        vmi.take_cost_ms()
        with pytest.raises(IntrospectionError, match="cycle"):
            vmi.list_processes()
        # The walk stopped at the revisit: it read each of the four list
        # nodes exactly once, not _MAX_LIST_LENGTH times. Everything it
        # charged (scan base + 4 node reads) is well under a millisecond.
        assert vmi.take_cost_ms() < 1.0

    def test_cycle_is_journaled_as_evidence(self, linux_domain):
        vm = linux_domain.vm
        observer = Observer(vm.clock)
        flight = observer.flight
        vmi = VMIInstance(linux_domain, seed=1, observer=observer)
        self.corrupt_into_cycle(vm)
        with pytest.raises(IntrospectionError):
            vmi.list_processes()
        (event,) = flight.events(kind="vmi.list_truncated")
        assert event.attrs["list"] == "task"
        assert event.attrs["reason"] == "cycle"
        assert event.attrs["nodes"] == 4  # init + three children

    def test_cyclic_module_list_raises(self, linux_domain):
        vm = linux_domain.vm
        observer = Observer(vm.clock)
        flight = observer.flight
        vmi = VMIInstance(linux_domain, seed=1, observer=observer)
        modules = vmi.list_modules()
        assert len(modules) >= 2
        # Rewrite the second module's next pointer back to the first.
        from repro.guest.pagetable import kernel_pa

        layout = vmi.profile.struct("module")
        layout.write_field(vm.memory, kernel_pa(modules[1].object_va),
                           "next", modules[0].object_va)
        with pytest.raises(IntrospectionError, match="cycle"):
            vmi.list_modules()
        (event,) = flight.events(kind="vmi.list_truncated")
        assert event.attrs["list"] == "module"

    def test_clean_walk_still_terminates_normally(self, vmi, linux_domain):
        linux_domain.vm.create_process("nginx")
        names = [p.name for p in vmi.list_processes()]
        assert names == ["swapper/0", "nginx"]


def _latency_injector(magnitude_ms):
    plan = FaultPlan.single(
        FaultPlane.VMI_READ,
        FaultSchedule.persistent(magnitude_ms=magnitude_ms, mode="latency"),
        seed=7,
    )
    injector = FaultInjector(plan)
    injector.begin_epoch(1)
    assert injector.check(FaultPlane.VMI_READ) is not None
    return injector


class TestLatencyFaultChargingUnit:
    """The charging unit is the logical read, not the struct field."""

    MAGNITUDE_MS = 5.0

    def charged(self, domain, with_fault, op):
        vmi = VMIInstance(domain, seed=3)
        if with_fault:
            vmi.attach_injector(_latency_injector(self.MAGNITUDE_MS))
        vmi.take_cost_ms()
        op(vmi)
        return vmi.take_cost_ms()

    def test_canary_table_pays_two_mapping_penalties(self, linux_domain):
        # Header read + one slab read = two logical reads, however many
        # entries the slab decodes to.
        vm = linux_domain.vm
        process = vm.create_process("heapy")
        for _ in range(64):
            process.malloc(32)
        (entry,) = [e for e in
                    VMIInstance(linux_domain, seed=3).canary_directory()
                    if e[0] == process.pid]
        pid, table_va = entry

        def op(vmi):
            _canary, addrs, _sizes, _kinds = vmi.read_canary_table_slab(
                pid, table_va)
            assert len(addrs) >= 64

        baseline = self.charged(linux_domain, False, op)
        faulted = self.charged(linux_domain, True, op)
        # Same seed => identical jitter stream; the difference is exactly
        # the per-mapping penalty, and it does not scale with the 64+
        # entries decoded from the slab.
        assert faulted - baseline == pytest.approx(2 * self.MAGNITUDE_MS)

    def test_task_walk_pays_per_node_read_not_per_charge(self, linux_domain):
        # Each list node is one logical read; the per-process accounting
        # charge must not add a second penalty per node.
        vm = linux_domain.vm
        vm.create_process("a")
        vm.create_process("b")

        def op(vmi):
            assert len(vmi.list_processes()) == 3

        baseline = self.charged(linux_domain, False, op)
        faulted = self.charged(linux_domain, True, op)
        assert faulted - baseline == pytest.approx(3 * self.MAGNITUDE_MS)

    def test_fail_mode_still_raises_on_first_read(self, linux_domain):
        plan = FaultPlan.single(
            FaultPlane.VMI_READ,
            FaultSchedule.persistent(mode="fail"), seed=7)
        injector = FaultInjector(plan)
        injector.begin_epoch(1)
        vmi = VMIInstance(linux_domain, seed=3)
        vmi.attach_injector(injector)
        with pytest.raises(IntrospectionError, match="fault injected"):
            vmi.list_processes()
