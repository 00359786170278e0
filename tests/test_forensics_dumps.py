"""Unit tests for memory dumps and dump diffing."""

import pytest

from repro.errors import ForensicsError, GuestFault
from repro.forensics.dumps import MemoryDump, diff_rows
from repro.guest.pagetable import kernel_va


def test_from_vm_captures_image_and_symbols(linux_vm):
    linux_vm.memory.write(0x1234, b"evidence")
    dump = MemoryDump.from_vm(linux_vm, label="test")
    assert dump.read_pa(0x1234, 8) == b"evidence"
    assert dump.lookup_symbol("init_task") == \
        linux_vm.symbols.lookup("init_task")
    assert dump.label == "test"


def test_dump_is_immutable_copy(linux_vm):
    dump = MemoryDump.from_vm(linux_vm)
    original = dump.read_pa(0x1000, 12)
    linux_vm.memory.write(0x1000, b"later-change")
    assert dump.read_pa(0x1000, 12) == original
    assert linux_vm.memory.read(0x1000, 12) == b"later-change"


def test_from_snapshot(linux_vm):
    linux_vm.memory.write(0x2000, b"at-snapshot")
    snapshot = linux_vm.snapshot()
    linux_vm.memory.write(0x2000, b"overwritten")
    dump = MemoryDump.from_snapshot(linux_vm, snapshot, label="clean")
    assert dump.read_pa(0x2000, 11) == b"at-snapshot"


def test_read_out_of_range_rejected(linux_vm):
    dump = MemoryDump.from_vm(linux_vm)
    with pytest.raises(ForensicsError):
        dump.read_pa(dump.size, 1)


def test_kernel_translation(linux_vm):
    dump = MemoryDump.from_vm(linux_vm)
    assert dump.translate(kernel_va(0x3000)) == 0x3000


def test_user_translation_via_stored_page_tables(linux_vm):
    process = linux_vm.create_process("dumpee")
    addr = process.malloc(32)
    process.write(addr, b"user-bytes")
    dump = MemoryDump.from_vm(linux_vm)
    assert dump.read_va(addr, 10, pid=process.pid) == b"user-bytes"


def test_user_translation_unknown_pid_rejected(linux_vm):
    dump = MemoryDump.from_vm(linux_vm)
    with pytest.raises(ForensicsError):
        dump.translate(0x10000000, pid=999)


def test_user_translation_unmapped_page_faults(linux_vm):
    # The dump refuses an unmapped page as live VMI does: with its own
    # error, never a guest fault.
    process = linux_vm.create_process("sparse")
    dump = MemoryDump.from_vm(linux_vm)
    with pytest.raises(ForensicsError) as caught:
        dump.translate(0x66660000, pid=process.pid)
    assert not isinstance(caught.value, GuestFault)
    with pytest.raises(ForensicsError):
        dump.read_va(0x66660000, 8, pid=process.pid)


def test_process_pids_listed(linux_vm):
    process = linux_vm.create_process("listed")
    dump = MemoryDump.from_vm(linux_vm)
    assert process.pid in dump.process_pids()


def test_missing_symbol_rejected(linux_vm):
    dump = MemoryDump.from_vm(linux_vm)
    with pytest.raises(ForensicsError):
        dump.lookup_symbol("PsActiveProcessHead")


class TestDiffRows:
    def test_added_and_removed(self):
        before = [{"id": 1}, {"id": 2}]
        after = [{"id": 2}, {"id": 3}]
        added, removed = diff_rows(before, after, key=lambda r: r["id"])
        assert added == [{"id": 3}]
        assert removed == [{"id": 1}]

    def test_identical_sets(self):
        rows = [{"id": 1}]
        assert diff_rows(rows, rows, key=lambda r: r["id"]) == ([], [])

    def test_empty_before(self):
        added, removed = diff_rows([], [{"id": 9}], key=lambda r: r["id"])
        assert added == [{"id": 9}] and removed == []
