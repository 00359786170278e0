"""The guest-state isolation contract the checkpointer relies on.

``GuestVM.state_dict()`` returns fresh containers over immutable leaves
and ``load_state_dict()`` copies every container it keeps. That is what
lets the checkpointer keep one state dict as its backup, uncopied and
unpickled, and load it on every rollback.
"""

import hashlib
import pickle

import pytest

from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.detectors.syscall_table import SyscallTableModule
from repro.faults import FaultPlan, FaultPlane, FaultSchedule
from repro.guest.devices import Packet
from repro.guest.linux import LinuxGuest
from repro.guest.windows import WindowsGuest
from repro.workloads.base import GuestProgram


def digest(state):
    return hashlib.sha256(
        pickle.dumps(state, pickle.HIGHEST_PROTOCOL)).hexdigest()


def churn_shared(vm, step):
    """Mutate the state every guest has: CPU, NIC, disk, kernel bump."""
    vm.cpu["rax"] = step
    vm.cpu["rip"] += 0x10
    vm.nic.send(Packet("10.0.0.1:%d" % (1000 + step), "10.0.0.2:80",
                       b"step %d" % step))
    vm.disk.write(step % 4, b"block written at step %d" % step)
    vm.disk.write(8 + step, b"fresh block %d" % step)


class LinuxChurn:
    """Heap, stack-guard frames, processes and sockets of a Linux guest.

    Each step reads what it touches from the guest itself, so it keeps
    working after the guest is rolled back under it.
    """

    def __init__(self, vm):
        self.vm = vm
        main = vm.create_process("main", heap_pages=4, canary_capacity=64)
        self.main_pid = main.pid
        for _ in range(4):
            main.malloc(32)
        main.stack_guard.push_frame(48)
        vm.create_process("child", heap_pages=1, canary_capacity=16)

    def __call__(self, step):
        vm = self.vm
        main = vm.processes[self.main_pid]
        churn_shared(vm, step)
        main.free(min(main.heap.live_allocations()))
        main.malloc(24 + step)
        main.stack_guard.push_frame(16 + step)
        if main.stack_guard.depth > 2:
            main.stack_guard.pop_frame()
        vm.exit_process(max(pid for pid in vm.processes
                            if pid != self.main_pid))
        vm.create_process("child-%d" % step, heap_pages=1,
                          canary_capacity=16)
        vm.open_socket(main.pid, ("10.0.0.1", 2000 + step),
                       ("10.0.0.9", 443))


def churn_windows(vm, step):
    """Processes, sockets and registry keys of a Windows guest."""
    churn_shared(vm, step)
    pid = vm.create_process("worker%d.exe" % step)
    vm.open_socket(pid, ("10.0.0.1", 3000 + step), ("10.0.0.9", 443))
    vm.set_registry_key("HKLM\\SOFTWARE\\Step%d" % step, str(step))
    vm.terminate_process(pid)


def linux_guest():
    vm = LinuxGuest(name="contract-linux", memory_bytes=8 * 1024 * 1024,
                    seed=31)
    return vm, LinuxChurn(vm)


def windows_guest():
    vm = WindowsGuest(name="contract-windows",
                      memory_bytes=8 * 1024 * 1024, seed=32)
    return vm, lambda step: churn_windows(vm, step)


@pytest.fixture(params=[linux_guest, windows_guest],
                ids=["linux", "windows"])
def guest(request):
    vm, churn = request.param()
    churn(0)
    return vm, churn


class TestStateDictIsolation:
    def test_live_activity_never_reaches_a_taken_state(self, guest):
        vm, churn = guest
        state = vm.state_dict()
        before = digest(state)
        for step in range(1, 6):
            churn(step)
        assert vm.state_dict() != state
        assert digest(state) == before

    def test_a_state_loads_identically_any_number_of_times(self, guest):
        vm, churn = guest
        state = vm.state_dict()
        before = digest(state)
        churn(1)
        vm.load_state_dict(state)
        first = vm.state_dict()
        for step in range(2, 5):
            churn(step)
        vm.load_state_dict(state)
        second = vm.state_dict()
        assert first == second == state
        assert digest(first) == digest(second)
        assert digest(state) == before

    def test_snapshot_restore_roundtrip_is_repeatable(self, guest):
        vm, churn = guest
        snapshot = vm.snapshot()
        expected = vm.state_dict()
        for attempt in range(2):
            churn(10 + attempt)
            vm.restore(snapshot)
            assert vm.state_dict() == expected


class ChurnProgram(GuestProgram):
    """Drives :class:`LinuxChurn` one step per epoch, deterministically."""

    name = "churn"

    def __init__(self):
        super().__init__()
        self.churn = None
        self.step_no = 0

    def bind(self, vm):
        super().bind(vm)
        self.churn = LinuxChurn(vm)

    def step(self, start_ms, interval_ms):
        self.step_no += 1
        self.churn(self.step_no)
        return {"synthetic_dirty": 0}

    def state_dict(self):
        return {"step": self.step_no}

    def load_state_dict(self, state):
        self.step_no = state["step"]


def test_repeated_fault_rollbacks_restore_the_same_backup():
    """Two audit-timeout rollbacks in a row land on one backup state."""
    vm = LinuxGuest(name="contract-crimes", memory_bytes=8 * 1024 * 1024,
                    seed=33)
    plan = FaultPlan.single(FaultPlane.AUDIT_TIMEOUT,
                            FaultSchedule.burst(start_epoch=3, duration=2))
    crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=20.0, seed=33),
                    fault_plan=plan)
    crimes.install_module(SyscallTableModule())
    crimes.add_program(ChurnProgram())
    crimes.start()
    for _ in range(2):
        assert crimes.run_epoch().outcome == "committed"
    clean_state = vm.state_dict()
    clean_digest = digest(clean_state)
    clean_ram = vm.memory.snapshot_bytes()

    restored = []
    for _ in range(2):
        assert crimes.run_epoch().outcome == "rolled-back"
        restored.append((vm.state_dict(), vm.memory.snapshot_bytes()))

    (first, first_ram), (second, second_ram) = restored
    assert first == second == clean_state
    assert digest(first) == digest(second) == clean_digest
    assert first_ram == second_ram == clean_ram
    # The loop carries on from the restored state.
    assert crimes.run_epoch().outcome == "committed"
    assert vm.state_dict() != clean_state
