"""Failure injection: corrupted guest structures must fail loudly.

A compromised guest can scribble over its own kernel structures; the
introspection stack must surface that as an IntrospectionError /
ForensicsError — never hang on a cycle, chase a wild pointer out of RAM,
or silently return garbage.
"""

import struct
import time

import pytest

from repro.errors import (
    ForensicsError,
    IntrospectionError,
    PhysicalAccessError,
)
from repro.forensics.dumps import MemoryDump
from repro.forensics.volatility import VolatilityFramework
from repro.guest.heap import CANARY_TABLE_HEADER
from repro.guest.linux import KMEM_CACHE, TASK_STRUCT, LinuxGuest
from repro.guest.pagetable import kernel_pa
from repro.vmi.libvmi import VMIInstance


@pytest.fixture
def vmi(linux_domain):
    return VMIInstance(linux_domain, seed=3)


def test_null_tasks_next_detected(vmi, linux_domain):
    vm = linux_domain.vm
    process = vm.create_process("victim")
    TASK_STRUCT.write_field(
        vm.memory, kernel_pa(vm.task_va_of_pid(process.pid)),
        "tasks_next", 0,
    )
    with pytest.raises(IntrospectionError, match="NULL"):
        vmi.list_processes()


def test_task_list_cycle_detected_in_dump(linux_vm):
    process = linux_vm.create_process("victim")
    # Point the new task's next at itself: a cycle that skips the head.
    task_pa = kernel_pa(linux_vm.task_va_of_pid(process.pid))
    TASK_STRUCT.write_field(
        linux_vm.memory, task_pa, "tasks_next",
        linux_vm.task_va_of_pid(process.pid),
    )
    dump = MemoryDump.from_vm(linux_vm)
    volatility = VolatilityFramework()
    with pytest.raises(ForensicsError, match="corrupt task list"):
        volatility.run("linux_pslist", dump)


def test_wild_task_pointer_faults_cleanly(vmi, linux_domain):
    vm = linux_domain.vm
    process = vm.create_process("victim")
    task_pa = kernel_pa(vm.task_va_of_pid(process.pid))
    # Point far outside installed RAM (but inside the kernel direct map).
    TASK_STRUCT.write_field(
        vm.memory, task_pa, "tasks_next", 0xFFFF_8800_FFFF_0000
    )
    with pytest.raises((IntrospectionError, PhysicalAccessError)):
        vmi.list_processes()


def test_corrupt_canary_table_magic_is_critical(vmi, linux_domain):
    from repro.detectors.base import Detector
    from repro.detectors.canary import CanaryScanModule

    vm = linux_domain.vm
    process = vm.create_process("victim")
    # Attacker wipes the canary-table header to blind the scanner.
    process.write(0x70000000, b"\x00" * CANARY_TABLE_HEADER.size)
    detector = Detector(vmi)
    detector.install(CanaryScanModule(scan_all_pages=True))
    result = detector.scan()
    assert result.attack_detected
    assert result.critical_findings()[0].kind == "table-corrupt"


def test_vmi_read_outside_ram_rejected(vmi):
    with pytest.raises(PhysicalAccessError):
        vmi.read_pa(10**12, 8)


def test_broken_module_list_terminates(vmi, linux_domain):
    vm = linux_domain.vm
    head_pa = kernel_pa(vm.symbols.lookup("modules"))
    first_va = struct.unpack("<Q", vm.memory.read(head_pa, 8))[0]
    from repro.guest.linux import MODULE

    # Self-loop in the module chain; the walker must bail out.
    MODULE.write_field(vm.memory, kernel_pa(first_va), "next", first_va)
    with pytest.raises(IntrospectionError, match="terminate"):
        vmi.list_modules()


def test_pid_hash_cycle_detected_in_dump(linux_vm):
    process = linux_vm.create_process("victim")
    task_pa = kernel_pa(linux_vm.task_va_of_pid(process.pid))
    TASK_STRUCT.write_field(
        linux_vm.memory, task_pa, "pid_chain",
        linux_vm.task_va_of_pid(process.pid),
    )
    dump = MemoryDump.from_vm(linux_vm)
    with pytest.raises(ForensicsError, match="terminate"):
        VolatilityFramework().run("linux_pidhashtable", dump)


def test_malfind_plugin_finds_injected_payload(linux_vm):
    process = linux_vm.create_process("clean_host")
    addr = process.malloc(64)
    process.write(addr, b"METERPRETER_STAGE2" + b"\x00" * 14)
    dump = MemoryDump.from_vm(linux_vm)
    rows = VolatilityFramework().run("linux_malfind", dump)
    assert any(
        row["signature"] == "meterpreter" and row["pid"] == process.pid
        for row in rows
    )


def test_malfind_clean_guest_empty(linux_vm):
    linux_vm.create_process("innocent")
    dump = MemoryDump.from_vm(linux_vm)
    assert VolatilityFramework().run("linux_malfind", dump) == []


def _slab_guest():
    vm = LinuxGuest(name="slab", memory_bytes=4 * 1024 * 1024, seed=71)
    vm.create_process("nginx", heap_pages=2)
    gone = vm.create_process("gone", heap_pages=2)
    hidden = vm.create_process("hidden", heap_pages=2)
    vm.exit_process(gone.pid)
    vm.hide_process(hidden.pid)
    return vm


@pytest.mark.parametrize("plugin", ["linux_psscan", "linux_psxview"])
@pytest.mark.parametrize("header", [
    {"slot_size": 0, "slot_count": 2**32 - 1},
    {"slot_count": 2**32 - 1},
], ids=["zero-slot-size", "slab-past-image"])
def test_hostile_task_slab_header_fails_fast(plugin, header):
    # Swept as given, a slot_size of 0 re-reads one slot slot_count
    # times (~4e9 rows, hours); the header must be refused up front.
    vm = _slab_guest()
    cache_pa = kernel_pa(vm.symbols.lookup("kmem_cache_task"))
    for field, value in header.items():
        KMEM_CACHE.write_field(vm.memory, cache_pa, field, value)
    dump = MemoryDump.from_vm(vm)
    started = time.perf_counter()
    with pytest.raises(ForensicsError, match="task slab"):
        VolatilityFramework().run(plugin, dump)
    assert time.perf_counter() - started < 1.0


def test_clean_task_slab_rows_unchanged():
    dump = MemoryDump.from_vm(_slab_guest())
    volatility = VolatilityFramework()
    assert [(row["pid"], row["name"], hex(row["task_va"]), row["in_use"])
            for row in volatility.run("linux_psscan", dump)] == [
        (0, "swapper/0", "0xffff880000001000", True),
        (1, "nginx", "0xffff880000001080", True),
        (2, "gone", "0xffff880000001100", False),
        (3, "hidden", "0xffff880000001180", True),
    ]
    assert [(row["pid"], row["in_pslist"], row["in_pid_hash"],
             row["suspicious"])
            for row in volatility.run("linux_psxview", dump)] == [
        (0, True, False, False),
        (1, True, True, False),
        (2, False, False, False),
        (3, False, True, True),
    ]
