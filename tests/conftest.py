"""Shared fixtures for the test suite."""

import pytest

from repro.faults import ALL_PLANES, FaultPlan, FaultSchedule
from repro.faults.chaos import run_chaos
from repro.guest.linux import LinuxGuest
from repro.guest.windows import WindowsGuest
from repro.hypervisor.xen import Hypervisor


@pytest.fixture
def linux_vm():
    """A small booted Linux guest."""
    return LinuxGuest(name="test-linux", memory_bytes=8 * 1024 * 1024, seed=11)


@pytest.fixture
def windows_vm():
    """A small booted Windows guest."""
    return WindowsGuest(name="test-windows", memory_bytes=8 * 1024 * 1024,
                        seed=12)


@pytest.fixture
def linux_domain(linux_vm):
    hypervisor = Hypervisor(clock=linux_vm.clock)
    return hypervisor.create_domain(linux_vm)


@pytest.fixture
def windows_domain(windows_vm):
    hypervisor = Hypervisor(clock=windows_vm.clock)
    return hypervisor.create_domain(windows_vm)


@pytest.fixture
def chaos_seed7():
    """The run of ``repro chaos --seed 7 --epochs 20 --interval-ms 20``.

    Every fault plane armed with the CLI's default transient schedule
    (probability 0.25, magnitude 1 ms); returns :func:`run_chaos`'s
    evidence dict.
    """
    plan = FaultPlan.uniform(
        lambda: FaultSchedule.transient(probability=0.25, magnitude_ms=1.0),
        planes=list(ALL_PLANES), seed=7)
    return run_chaos(fault_plan=plan, seed=7, epochs=20, interval_ms=20.0)
