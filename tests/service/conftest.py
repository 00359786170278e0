"""Shared fixtures: two tenants' worth of real incident evidence.

Session-scoped on purpose — driving a CRIMES guest through an attack is
the expensive part of these tests, and the resulting bundles are plain
data the tests only ever copy, never mutate.
"""

import copy

import pytest

from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.detectors.canary import CanaryScanModule
from repro.detectors.syscall_table import SyscallTableModule
from repro.forensics.dumps import MemoryDump
from repro.guest.linux import LinuxGuest
from repro.service.vault import CaseVault
from repro.workloads.attacks import OverflowAttackProgram, RootkitProgram
from repro.workloads.webserver import WebServerWorkload


def _attacked_crimes(name, seed, module, program, memory_mib=4, epochs=8):
    vm = LinuxGuest(name=name, memory_bytes=memory_mib * 1024 * 1024,
                    seed=seed)
    crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=50.0, seed=seed,
                                     auto_respond=False,
                                     history_capacity=4))
    crimes.install_module(module)
    crimes.add_program(WebServerWorkload("light", seed=seed))
    crimes.add_program(program)
    crimes.start()
    crimes.run(max_epochs=epochs)
    assert crimes.last_incident is not None
    return crimes


@pytest.fixture(scope="session")
def rootkit_crimes():
    """Tenant A: a kernel rootkit caught by the syscall-table module."""
    return _attacked_crimes("tenant-rk", 41, SyscallTableModule(),
                            RootkitProgram(trigger_epoch=3))


@pytest.fixture(scope="session")
def overflow_crimes():
    """Tenant B: a heap overflow caught by the canary scan."""
    return _attacked_crimes("tenant-ov", 42, CanaryScanModule(),
                            OverflowAttackProgram(trigger_epoch=4))


@pytest.fixture(scope="session")
def small_bundles():
    """Eight distinct incident bundles, built like the benchmark's
    prefill: a 2 MiB guest, a rootkit (even seed) or a heap overflow
    (odd seed), 6 epochs."""
    bundles = []
    for seed in range(8):
        if seed % 2 == 0:
            module, program = SyscallTableModule(), RootkitProgram(
                trigger_epoch=2)
        else:
            module, program = CanaryScanModule(), OverflowAttackProgram(
                trigger_epoch=3)
        crimes = _attacked_crimes("small-%d" % seed, seed, module, program,
                                  memory_mib=2, epochs=6)
        bundles.append(crimes.last_incident)
    return bundles


@pytest.fixture()
def rootkit_bundle(rootkit_crimes):
    return copy.deepcopy(rootkit_crimes.last_incident)


@pytest.fixture()
def overflow_bundle(overflow_crimes):
    return copy.deepcopy(overflow_crimes.last_incident)


@pytest.fixture()
def rootkit_dump(rootkit_crimes):
    return MemoryDump.from_vm(rootkit_crimes.vm, label="incident")


@pytest.fixture()
def vault(tmp_path):
    return CaseVault(tmp_path / "vault")
