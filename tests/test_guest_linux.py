"""Unit tests for the Linux guest kernel object graph."""

import gc
import struct
import weakref

import pytest

from repro.errors import GuestFault
from repro.guest.linux import (
    FLAG_SLAB_IN_USE,
    SYSCALL_COUNT,
    TASK_MAGIC,
    TASK_STRUCT,
    LinuxGuest,
)
from repro.guest.pagetable import kernel_pa


def walk_task_list(vm):
    head = vm.symbols.lookup("init_task")
    names = []
    current = head
    while True:
        record = TASK_STRUCT.read(vm.memory, kernel_pa(current))
        names.append(record["comm"].split(b"\x00")[0].decode())
        current = record["tasks_next"]
        if current == head:
            return names


def test_boot_publishes_core_symbols(linux_vm):
    for symbol in ("init_task", "sys_call_table", "pid_hash", "modules",
                   "kmem_cache_task", "crimes_canary_directory"):
        assert symbol in linux_vm.symbols


def test_boot_task_list_has_swapper(linux_vm):
    assert walk_task_list(linux_vm) == ["swapper/0"]


def test_create_process_links_into_task_list(linux_vm):
    linux_vm.create_process("nginx")
    linux_vm.create_process("redis")
    assert walk_task_list(linux_vm) == ["swapper/0", "nginx", "redis"]


def test_create_process_assigns_unique_pids(linux_vm):
    a = linux_vm.create_process("a")
    b = linux_vm.create_process("b")
    assert a.pid != b.pid


def test_exit_process_unlinks_but_leaves_slab_ghost(linux_vm):
    process = linux_vm.create_process("ephemeral")
    task_pa = linux_vm._task_pa(process.pid)
    linux_vm.exit_process(process.pid)
    assert "ephemeral" not in walk_task_list(linux_vm)
    # Ghost record still scannable in the slab, marked not-in-use.
    record = TASK_STRUCT.read(linux_vm.memory, task_pa)
    assert record["magic"] == TASK_MAGIC
    assert not record["flags"] & FLAG_SLAB_IN_USE


def test_hide_process_removes_from_task_list_only(linux_vm):
    process = linux_vm.create_process("rootkit_worker")
    linux_vm.hide_process(process.pid)
    assert "rootkit_worker" not in walk_task_list(linux_vm)
    # Still present in the pid hash.
    bucket_pa = kernel_pa(linux_vm.symbols.lookup("pid_hash")) + (
        process.pid % 64
    ) * 8
    head = struct.unpack("<Q", linux_vm.memory.read(bucket_pa, 8))[0]
    assert head != 0


def test_rename_process_updates_comm(linux_vm):
    process = linux_vm.create_process("old")
    linux_vm.rename_process(process.pid, "new")
    assert "new" in walk_task_list(linux_vm)


def test_syscall_table_boots_clean_and_hijack_mutates(linux_vm):
    table_pa = kernel_pa(linux_vm.symbols.lookup("sys_call_table"))
    before = linux_vm.memory.read(table_pa, SYSCALL_COUNT * 8)
    linux_vm.hijack_syscall(7, 0xFFFFFFFFA0000000)
    after = linux_vm.memory.read(table_pa, SYSCALL_COUNT * 8)
    assert before != after
    entry = struct.unpack("<Q", after[7 * 8 : 8 * 8])[0]
    assert entry == 0xFFFFFFFFA0000000


def test_hijack_out_of_range_rejected(linux_vm):
    with pytest.raises(GuestFault):
        linux_vm.hijack_syscall(SYSCALL_COUNT, 0x1)


def test_load_module_prepends_to_list(linux_vm):
    head_pa = kernel_pa(linux_vm.symbols.lookup("modules"))
    before = struct.unpack("<Q", linux_vm.memory.read(head_pa, 8))[0]
    linux_vm.load_module("evilmod", 0x1000)
    after = struct.unpack("<Q", linux_vm.memory.read(head_pa, 8))[0]
    assert after != before


def test_canary_directory_tracks_protected_processes(linux_vm):
    process = linux_vm.create_process("guarded")
    entries = linux_vm._directory_entries()
    assert any(entry["pid"] == process.pid for entry in entries)
    linux_vm.exit_process(process.pid)
    entries = linux_vm._directory_entries()
    assert not any(entry["pid"] == process.pid for entry in entries)


def test_unprotected_process_not_in_directory(linux_vm):
    process = linux_vm.create_process("bare", canaries_enabled=False)
    entries = linux_vm._directory_entries()
    assert not any(entry["pid"] == process.pid for entry in entries)


def test_exit_releases_frames_for_reuse(linux_vm):
    before = linux_vm.user_frames.frames_in_use()
    process = linux_vm.create_process("short-lived")
    assert linux_vm.user_frames.frames_in_use() > before
    linux_vm.exit_process(process.pid)
    assert linux_vm.user_frames.frames_in_use() == before


def test_snapshot_restore_roundtrip_processes(linux_vm):
    keeper = linux_vm.create_process("keeper")
    keeper_addr = keeper.malloc(50)
    snapshot = linux_vm.snapshot()

    intruder = linux_vm.create_process("intruder")
    keeper.write(keeper_addr, b"mutated!")
    linux_vm.restore(snapshot)

    assert sorted(linux_vm.processes) == [keeper.pid]
    assert walk_task_list(linux_vm) == ["swapper/0", "keeper"]
    restored = linux_vm.processes[keeper.pid]
    assert restored.read(keeper_addr, 8) == b"\x00" * 8


def test_restore_resurrects_exited_process(linux_vm):
    victim = linux_vm.create_process("victim")
    addr = victim.malloc(10)
    snapshot = linux_vm.snapshot()
    linux_vm.exit_process(victim.pid)
    linux_vm.restore(snapshot)
    resurrected = linux_vm.processes[victim.pid]
    assert resurrected.heap.allocation_size(addr) == 10


def test_kernel_threads_have_no_mm(linux_vm):
    pid = linux_vm.create_process("kworker/0:1", kernel_thread=True)
    task_pa = linux_vm._task_pa(pid)
    record = TASK_STRUCT.read(linux_vm.memory, task_pa)
    assert record["mm"] == 0


def test_a_dropped_guest_with_processes_is_freed_without_the_collector():
    # Processes, their heaps and stack guards point back at what holds
    # them only weakly, so dropping the guest frees it and its RAM at
    # once, resurrected processes included.
    collecting = gc.isenabled()
    gc.disable()
    try:
        vm = LinuxGuest(name="dropped", memory_bytes=2 * 1024 * 1024, seed=5)
        process = vm.create_process("resident")
        process.free(process.malloc(64))
        process.stack_guard.push_frame(32)
        snapshot = vm.snapshot()
        vm.exit_process(vm.create_process("short-lived").pid)
        vm.exit_process(process.pid)
        vm.restore(snapshot)
        assert vm.processes[process.pid].vm is vm
        guest, memory = weakref.ref(vm), weakref.ref(vm.memory)
        del vm, process, snapshot
        assert guest() is None
        assert memory() is None
    finally:
        if collecting:
            gc.enable()
