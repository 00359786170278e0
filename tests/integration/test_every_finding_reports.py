"""Every critical finding ends in a forensic report and an incident bundle.

Under the default configuration (``auto_respond=True``) the Analyzer
answers a failed audit with a post-mortem. The report is chosen by what
the finding carries, so kernel-integrity, hidden-process, canary-table
and connection findings on either guest OS must each yield a report, a
bundle that validates, and a case the vault stores — never an exception
out of ``run_epoch``.
"""

import pytest

from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.detectors import (
    CanaryScanModule,
    ConnectionPolicyModule,
    KernelModuleModule,
    MalwareScanModule,
    SyscallTableModule,
)
from repro.guest.heap import CANARY_TABLE_HEADER
from repro.guest.linux import TASK_STRUCT, LinuxGuest
from repro.guest.pagetable import kernel_pa
from repro.guest.process import CANARY_TABLE_BASE
from repro.guest.windows import WindowsGuest
from repro.obs.incident import validate_incident_bundle
from repro.service.vault import CaseVault
from repro.workloads import RootkitProgram
from repro.workloads.attacks import MalwareProgram, OverflowAttackProgram
from repro.workloads.base import GuestProgram


class CanaryTableWipe(GuestProgram):
    """Zeroes one process's canary-table header to blind the scan."""

    name = "canary-table-wipe"

    def __init__(self, trigger_epoch=2):
        super().__init__()
        self.trigger_epoch = trigger_epoch
        self._epoch = 0
        self._pid = None

    def bind(self, vm):
        super().bind(vm)
        self._pid = vm.create_process("victimd").pid

    def step(self, start_ms, interval_ms):
        self._epoch += 1
        if self._epoch == self.trigger_epoch:
            self.vm.processes[self._pid].write(
                CANARY_TABLE_BASE, b"\x00" * CANARY_TABLE_HEADER.size)
        return {"synthetic_dirty": 0}

    def state_dict(self):
        return {"epoch": self._epoch, "pid": self._pid}

    def load_state_dict(self, state):
        self._epoch = state["epoch"]
        self._pid = state["pid"]


class HostileTaskList(GuestProgram):
    """Hijacks a syscall slot, then points init_task's task link below
    the kernel direct map, so no process list can be walked."""

    name = "hostile-task-list"

    def __init__(self, trigger_epoch=3):
        super().__init__()
        self.trigger_epoch = trigger_epoch
        self._epoch = 0

    def step(self, start_ms, interval_ms):
        self._epoch += 1
        if self._epoch == self.trigger_epoch:
            self.vm.hijack_syscall(5, 0xFFFFFFFFA0100000)
            TASK_STRUCT.write_field(
                self.vm.memory,
                kernel_pa(self.vm.symbols.lookup("init_task")),
                "tasks_next", 0x4141)
        return {"synthetic_dirty": 0}

    def state_dict(self):
        return {"epoch": self._epoch}

    def load_state_dict(self, state):
        self._epoch = state["epoch"]


CASES = {
    "syscall-hijack": (LinuxGuest, SyscallTableModule, RootkitProgram),
    "unknown-module": (LinuxGuest, KernelModuleModule, RootkitProgram),
    "linux-hidden-process": (
        LinuxGuest, lambda: MalwareScanModule(blacklist=set()),
        RootkitProgram),
    "table-corrupt": (LinuxGuest, CanaryScanModule, CanaryTableWipe),
    "linux-connection": (
        LinuxGuest, ConnectionPolicyModule,
        lambda: OverflowAttackProgram(trigger_epoch=2)),
    "windows-connection": (
        WindowsGuest, ConnectionPolicyModule, MalwareProgram),
}

KINDS = {
    "syscall-hijack": "syscall-hijack",
    "unknown-module": "unknown-module",
    "linux-hidden-process": "hidden-process",
    "table-corrupt": "table-corrupt",
    "linux-connection": "unauthorized-connection",
    "windows-connection": "unauthorized-connection",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_default_config_reports_and_bundles(case, tmp_path):
    guest, module, program = CASES[case]
    vm = guest(name="report-%s" % case, memory_bytes=8 * 1024 * 1024,
               seed=61)
    crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=50.0, seed=61))
    crimes.install_module(module())
    crimes.add_program(program())
    crimes.start()
    crimes.run(max_epochs=5)

    record = crimes.records[-1]
    assert record.outcome == "attack"
    assert record.detection.critical_findings()[0].kind == KINDS[case]
    report = crimes.last_outcome.report
    assert report.render().startswith("=" * 64)
    bundle = crimes.last_incident
    assert bundle is not None
    validate_incident_bundle(bundle)
    vault = CaseVault(str(tmp_path / "vault"))
    stored = vault.ingest(bundle)
    assert vault.case_ids() == [stored["case_id"]]


def test_unreadable_task_list_still_ends_in_a_bundle(tmp_path):
    # The post-mortem meets a task list it cannot walk: the report says
    # so, and the incident is still bundled and stored.
    vm = LinuxGuest(name="hostile", memory_bytes=4 * 1024 * 1024, seed=3)
    crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=50.0, seed=3))
    crimes.install_module(SyscallTableModule())
    crimes.add_program(HostileTaskList())
    crimes.start()
    crimes.run(max_epochs=5)

    record = crimes.records[-1]
    assert (record.epoch, record.outcome) == (3, "attack")
    assert record.detection.critical_findings()[0].kind == "syscall-hijack"
    sections = dict(crimes.last_outcome.report.sections)
    assert "0x4141" in \
        sections["Unreadable: linux_psxview over the audit-failed dump"]
    assert "0xffffffffa0100000" in \
        sections["System-call slots changed during the attacked epoch"]
    bundle = crimes.last_incident
    assert bundle is not None
    validate_incident_bundle(bundle)
    vault = CaseVault(str(tmp_path / "vault"))
    stored = vault.ingest(bundle)
    assert vault.case_ids() == [stored["case_id"]]
