"""Unit + property tests for the canary heap allocator."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError, GuestFault
from repro.guest.heap import CANARY_ENTRY, CANARY_TABLE_HEADER, CanaryHeap
from repro.guest.linux import LinuxGuest


@pytest.fixture
def process():
    vm = LinuxGuest(name="heap-test", memory_bytes=8 * 1024 * 1024, seed=5)
    return vm.create_process("heapster", heap_pages=32)


def read_table_count(process):
    raw = process.read(process.heap.table_va, CANARY_TABLE_HEADER.size)
    return CANARY_TABLE_HEADER.decode(raw)["count"]


def test_malloc_returns_aligned_addresses(process):
    for _ in range(10):
        assert process.malloc(33) % 16 == 0


def test_canary_written_after_object(process):
    addr = process.malloc(64)
    canary = struct.unpack("<Q", process.read(addr + 64, 8))[0]
    assert canary == process.heap.canary_value


def test_table_count_tracks_allocations(process):
    process.malloc(8)
    process.malloc(8)
    assert read_table_count(process) == 2
    # the process starts with zero allocations in a fresh heap


def test_free_converts_entry_to_freed_tripwire(process):
    from repro.guest.heap import FREED_FILL_BYTE, KIND_FREED

    a = process.malloc(16)
    b = process.malloc(16)
    process.free(a)
    # One live canary (b) plus one freed-region tripwire (a).
    assert read_table_count(process) == 2
    heap = process.heap
    assert b in heap._table_index
    assert a in heap._table_index
    # The freed region is poison-filled.
    assert process.read(a, 16) == bytes([FREED_FILL_BYTE]) * 16


def test_free_unknown_address_raises(process):
    with pytest.raises(GuestFault):
        process.free(0xDEAD0000)


def test_double_free_raises(process):
    addr = process.malloc(8)
    process.free(addr)
    with pytest.raises(GuestFault):
        process.free(addr)


def test_free_of_a_stack_guard_canary_raises(process):
    # A stack frame's tripwire shares the heap's table but is no object.
    locals_base = process.stack_guard.push_frame(32)
    assert locals_base in process.heap._table_index
    with pytest.raises(GuestFault, match="unallocated"):
        process.free(locals_base)
    with pytest.raises(GuestFault):
        process.heap.allocation_size(locals_base)
    assert locals_base not in process.heap.live_allocations()
    process.stack_guard.pop_frame()


def test_free_detects_corrupted_canary(process):
    addr = process.malloc(32)
    process.write(addr, b"A" * 40)  # overflow clobbers the canary
    with pytest.raises(GuestFault, match="heap corruption"):
        process.free(addr)


def test_malloc_zero_rejected(process):
    with pytest.raises(AllocationError):
        process.malloc(0)


def test_heap_exhaustion_raises(process):
    with pytest.raises(AllocationError):
        process.malloc(64 * 1024 * 1024)


def test_allocation_size_lookup(process):
    addr = process.malloc(100)
    assert process.heap.allocation_size(addr) == 100


def test_state_roundtrip_preserves_bookkeeping(process):
    a = process.malloc(24)
    state = process.heap.state_dict()
    process.malloc(24)
    process.heap.load_state_dict(state)
    assert process.heap.allocation_size(a) == 24
    assert len(process.heap.live_allocations()) == 1


def test_failed_malloc_leaves_the_heap_unchanged():
    vm = LinuxGuest(name="heap-full", memory_bytes=8 * 1024 * 1024, seed=5)
    process = vm.create_process("full", canary_capacity=4)
    heap = process.heap
    objects = [process.malloc(32) for _ in range(4)]
    used = heap.bytes_used()
    table = process.read(heap.table_va,
                         CANARY_TABLE_HEADER.size + 4 * CANARY_ENTRY.size)
    with pytest.raises(AllocationError, match="canary table full"):
        process.malloc(32)
    # No ghost object: the cursor, the live set and the table are as
    # they were, and the four objects still free cleanly.
    assert heap.live_allocations() == dict.fromkeys(objects, 32)
    assert heap.bytes_used() == used
    assert process.read(heap.table_va, len(table)) == table
    for addr in objects:
        process.free(addr)


def _table_slots(heap):
    return sorted(heap._table_index.values())


def _bookkeeping(process):
    heap = process.heap
    count = len(heap._table_index)
    return (heap.live_allocations(), dict(heap._table_index),
            heap.bytes_used(),
            process.read(heap.table_va,
                         CANARY_TABLE_HEADER.size + count * CANARY_ENTRY.size))


def test_bookkeeping_survives_a_rollback():
    vm = LinuxGuest(name="heap-rollback", memory_bytes=8 * 1024 * 1024,
                    seed=5)
    process = vm.create_process("rollback", canary_capacity=64)
    heap = process.heap
    objects = [process.malloc(24 + 8 * i) for i in range(8)]
    # Each free swaps the last entry into the freed object's slot, then
    # appends the freed-region entry.
    process.free(objects[2])
    process.free(objects[5])
    process.stack_guard.push_frame(48)
    process.stack_guard.push_frame(16)
    # A removal that nothing replaces: the table shrinks by one.
    process.stack_guard.push_frame(32)
    process.stack_guard.pop_frame()
    sizes = {addr: heap.allocation_size(addr)
             for addr in heap.live_allocations()}
    snapshot = vm.snapshot()
    taken = _bookkeeping(process)
    assert len(taken[0]) == 6 and len(taken[1]) == 10

    def next_pair():
        addr = process.malloc(40)
        process.free(objects[0])
        return addr, _bookkeeping(process)

    expected = next_pair()
    vm.restore(snapshot)
    assert _bookkeeping(process) == taken
    for step in range(5):
        process.malloc(16 + step)
    process.free(objects[1])
    process.free(objects[7])
    process.stack_guard.pop_frame()
    process.stack_guard.push_frame(80)
    vm.restore(snapshot)

    assert _bookkeeping(process) == taken
    for addr, size in sizes.items():
        assert heap.allocation_size(addr) == size
    assert _table_slots(heap) == list(range(10))
    assert next_pair() == expected


def test_guest_store_to_the_table_cannot_steer_the_heap_index():
    vm = LinuxGuest(name="heap-hostile", memory_bytes=8 * 1024 * 1024,
                    seed=5)
    process = vm.create_process("hostile", canary_capacity=64)
    heap = process.heap
    objects = [process.malloc(32) for _ in range(6)]
    last_entry_va = (heap.table_va + CANARY_TABLE_HEADER.size
                     + 5 * CANARY_ENTRY.size)
    # The guest rewrites the table's last entry to name a live object.
    process.write_u64(last_entry_va + CANARY_ENTRY.offset_of("addr"),
                      objects[1])
    process.free(objects[3])
    assert _table_slots(heap) == list(range(len(heap._table_index)))
    assert sorted(heap._table_index) == sorted(objects)
    assert heap.live_allocations() == dict.fromkeys(
        objects[:3] + objects[4:], 32)


def _python_objects(value):
    """How many Python objects ``value`` holds, itself included."""
    if isinstance(value, dict):
        return 1 + sum(_python_objects(key) + _python_objects(item)
                       for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return 1 + sum(_python_objects(item) for item in value)
    return 1


def test_canary_heap_snapshot_does_not_grow_with_live_objects():
    counts = []
    for live in (10, 10_000):
        vm = LinuxGuest(name="heap-snapshot", memory_bytes=16 * 1024 * 1024,
                        seed=5)
        process = vm.create_process("many", heap_pages=80,
                                    canary_capacity=10_000)
        for _ in range(live):
            process.malloc(16)
        counts.append(_python_objects(process.heap.state_dict()))
    assert counts[0] == counts[1]


def test_canaries_disabled_mode():
    vm = LinuxGuest(name="nocanary", memory_bytes=8 * 1024 * 1024, seed=5)
    process = vm.create_process("plain", canaries_enabled=False)
    addr = process.malloc(16)
    process.free(addr)  # no canary check, no table entries


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=256), min_size=1,
                      max_size=40))
def test_property_allocations_never_overlap(sizes):
    vm = LinuxGuest(name="prop-heap", memory_bytes=8 * 1024 * 1024, seed=5)
    process = vm.create_process("prop", heap_pages=64)
    spans = []
    for size in sizes:
        addr = process.malloc(size)
        footprint = size + 8  # object + canary
        for other_start, other_end in spans:
            assert addr + footprint <= other_start or addr >= other_end
        spans.append((addr, addr + footprint))


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["malloc", "free"]),
                  st.integers(min_value=1, max_value=128)),
        max_size=60,
    )
)
def test_property_table_count_matches_live_set(ops):
    vm = LinuxGuest(name="prop-heap2", memory_bytes=8 * 1024 * 1024, seed=5)
    process = vm.create_process("prop2", heap_pages=64)
    live = []
    for op, size in ops:
        if op == "malloc":
            live.append(process.malloc(size))
        elif live:
            process.free(live.pop(size % len(live)))
    frees = len([1 for op, _ in ops if op == "free"])
    freed_recorded = read_table_count(process) - len(live)
    assert freed_recorded >= 0
    assert freed_recorded <= frees
    # Every live object's canary must still validate through real memory.
    for addr in live:
        size = process.heap.allocation_size(addr)
        canary = struct.unpack("<Q", process.read(addr + size, 8))[0]
        assert canary == process.heap.canary_value
