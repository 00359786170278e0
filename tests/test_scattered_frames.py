"""Guest-virtual reads over pages whose frames are not adjacent.

``FrameAllocator`` hands released frames out again last-in first-out, so
a process created after another one exits maps its consecutive pages to
descending frames. Every read through a process's address space — the
canary table, a canary that crosses a page, a freed region — must look
each page up, and a freed region is selected by the frames its pages
really map to.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.detectors.base import ScanContext
from repro.detectors.canary import CanaryScanModule
from repro.errors import ForensicsError, IntrospectionError, \
    PhysicalAccessError
from repro.forensics.dumps import MemoryDump
from repro.guest.linux import LinuxGuest
from repro.guest.memory import PAGE_SIZE, PhysicalMemory
from repro.guest.pagetable import KERNEL_BASE, PageTable
from repro.hypervisor.xen import Hypervisor
from repro.vmi.costmodel import VmiCostModel
from repro.vmi.libvmi import VMIInstance


def _guest(respawn):
    """An 8 MiB guest whose subject runs after another process exited."""
    vm = LinuxGuest(name="respawn", memory_bytes=8 * 1024 * 1024, seed=4)
    domain = Hypervisor(clock=vm.clock).create_domain(vm)
    if respawn:
        vm.exit_process(vm.create_process("first").pid)
    return domain, vm.create_process("subject")


def _scan(domain, module, dirty=None):
    return module.scan(ScanContext(VMIInstance(domain, seed=1),
                                   dirty_pfns=dirty))


def test_a_respawned_process_maps_pages_to_descending_frames():
    _domain, process = _guest(respawn=True)
    table = process.heap.table_va
    frames = [process.page_table.frame_of(table + page * PAGE_SIZE)
              for page in range(3)]
    assert frames == [frames[0], frames[0] - 1, frames[0] - 2]


@pytest.mark.parametrize("respawn", [False, True])
def test_overflow_past_the_first_table_page_is_found(respawn):
    domain, process = _guest(respawn)
    # 400 entries: a table of three pages.
    objects = [process.malloc(48) for _ in range(400)]
    process.write(objects[-1] + 48, b"\xee" * 8)
    (finding,) = _scan(domain, CanaryScanModule(scan_all_pages=True))
    assert finding.kind == "buffer-overflow"
    assert finding.details["object_addr"] == objects[-1]
    vmi = VMIInstance(domain, seed=1)
    _canary, addrs, _sizes, _kinds = vmi.read_canary_table_slab(
        process.pid, process.heap.table_va)
    assert addrs.tolist() == objects


@pytest.mark.parametrize("respawn", [False, True])
def test_intact_freed_region_across_pages_is_clean(respawn):
    domain, process = _guest(respawn)
    objects = [process.malloc(4000) for _ in range(3)]
    process.free(objects[1])
    assert _scan(domain, CanaryScanModule(scan_all_pages=True)) == []


def test_freed_region_is_selected_by_the_frame_of_its_second_page():
    domain, process = _guest(respawn=True)
    objects = [process.malloc(4000) for _ in range(3)]
    process.free(objects[1])
    second_page = (objects[1] // PAGE_SIZE + 1) * PAGE_SIZE
    process.write(second_page + 8, b"!")
    probe = process.page_table.frame_of(objects[1])
    second = process.page_table.frame_of(second_page)
    assert second != probe + 1
    (finding,) = _scan(domain, CanaryScanModule(), dirty={second})
    assert finding.kind == "use-after-free"
    assert finding.details["object_addr"] == objects[1]
    assert finding.details["write_offset"] == second_page + 8 - objects[1]
    assert finding.details["canary_pa"] == second * PAGE_SIZE + 8


def test_canary_across_non_adjacent_frames_is_read_page_by_page():
    domain, process = _guest(respawn=True)
    # The canary of a 4090-byte object at the heap base straddles the
    # heap's first two pages, which sit on descending frames.
    addr = process.malloc(4090)
    assert addr % PAGE_SIZE == 0
    module = CanaryScanModule()
    dirty = {process.page_table.frame_of(addr + 4090)}
    assert _scan(domain, module, dirty) == []
    assert module.canaries_checked == 1
    process.write(addr + PAGE_SIZE + 1, b"\xee")
    (finding,) = _scan(domain, module, dirty)
    assert finding.kind == "buffer-overflow"


def test_read_va_reads_each_page_through_its_own_frame():
    domain, process = _guest(respawn=True)
    addr = process.malloc(3 * PAGE_SIZE)
    data = bytes(range(256)) * (3 * PAGE_SIZE // 256)
    process.write(addr, data)
    vmi = VMIInstance(domain, seed=1,
                      cost_model=VmiCostModel(JITTER=0.0))
    vmi.take_cost_ms()
    assert vmi.read_va(addr + 100, 2 * PAGE_SIZE, pid=process.pid) == \
        data[100:100 + 2 * PAGE_SIZE]
    # One logical read: charged as one read_pa of the same length.
    charged = vmi.take_cost_ms()
    vmi.read_pa(0, 2 * PAGE_SIZE)
    assert charged == vmi.take_cost_ms()


def test_read_va_refuses_an_unmapped_page_before_charging():
    domain, process = _guest(respawn=False)
    _base, end = process.region_range("heap")
    vmi = VMIInstance(domain, seed=1)
    vmi.take_cost_ms()
    with pytest.raises(IntrospectionError):
        vmi.read_va(end - 16, 32, pid=process.pid)
    assert vmi.take_cost_ms() == 0.0
    assert len(vmi.read_va(end - 16, 16, pid=process.pid)) == 16


def test_read_frames_joins_pages_in_order():
    memory = PhysicalMemory(8 * PAGE_SIZE)
    for pfn in range(8):
        memory.write(pfn * PAGE_SIZE, bytes([pfn]) * PAGE_SIZE)
    data = memory.read_frames(np.array([5, 2, 7]), PAGE_SIZE - 3,
                              3 + PAGE_SIZE + 2)
    assert data == b"\x05" * 3 + b"\x02" * PAGE_SIZE + b"\x07" * 2
    assert memory.read_frames(np.array([3, 4]), 10, PAGE_SIZE) == \
        memory.read(3 * PAGE_SIZE + 10, PAGE_SIZE)


def test_page_table_generation_and_ranges():
    table = PageTable()
    generations = [table.generation]
    for vpn, pfn in ((10, 3), (11, 4), (12, 9), (13, 10), (20, 5)):
        table.map(vpn, pfn)
        generations.append(table.generation)
    saved = table.state_dict()
    # Loading the mapping the table holds changes nothing.
    table.load_state_dict(table.state_dict())
    assert table.generation == generations[-1]
    table.unmap(13)
    generations.append(table.generation)
    table.load_state_dict(saved)
    generations.append(table.generation)
    assert generations == sorted(set(generations))
    firsts = np.array([10, 10, 12, 13, 0, 20, 21])
    lasts = np.array([11, 12, 13, 20, 9, 20, 99])
    below, above, contiguous = table.ranges(firsts, lasts)
    assert below.tolist() == [0, 0, 2, 3, 0, 4, 5]
    assert above.tolist() == [2, 3, 4, 5, 0, 5, 5]
    assert contiguous.tolist() == [True, False, True, False, False, True,
                                   False]
    vpns = np.array([0, 10, 11, 12, 13, 14, 20, 21])
    assert table.frames_of(vpns).tolist() == [-1, 3, 4, 9, 10, -1, 5, -1]
    assert table.mapped_frames().tolist() == [3, 4, 9, 10, 5]


def _ranges_each(vmi, pid, first, last):
    """``translate_ranges`` for one range, page by page through
    ``translate``: the probe frame, whether the range is flat, and the
    frames its pages map to."""
    kernel_vpn = KERNEL_BASE // PAGE_SIZE
    frame_count = vmi.vm.memory.frame_count
    frames = []
    for vpn in range(first, last + 1):
        try:
            frames.append(vmi.translate(vpn * PAGE_SIZE, pid) // PAGE_SIZE)
        except IntrospectionError:
            frames.append(-1)
    flat = frames == list(range(frames[0], frames[0] + len(frames))) \
        and frames[0] >= 0 and frames[-1] < frame_count
    if first >= kernel_vpn:
        reached = [pfn for pfn in frames if pfn < frame_count]
    else:
        reached = [pfn for vpn, pfn in zip(range(first, last + 1), frames)
                   if pfn >= 0 and vpn < kernel_vpn]
    return frames[0], flat, reached


@settings(max_examples=30, deadline=None)
@given(ranges=st.lists(st.tuples(st.integers(-3, 40), st.integers(0, 12),
                                 st.booleans()), min_size=1, max_size=8),
       remap=st.integers(0, 30))
def test_translate_ranges_matches_translate(ranges, remap):
    domain, process = _guest(respawn=True)
    vm = process.vm
    heap, heap_end = process.region_range("heap")
    base = heap // PAGE_SIZE
    # One heap page moved to a frame out of line with its neighbours.
    process.page_table.map(base + remap, vm.user_frames.allocate_one())
    process.write(heap, bytes(range(251)) * ((heap_end - heap) // 251))
    kernel_vpn = KERNEL_BASE // PAGE_SIZE
    last_frame = vm.memory.frame_count - 1
    firsts, lasts = [], []
    for start, pages, kernel in ranges:
        first = kernel_vpn + last_frame - 6 + start if kernel \
            else base + start
        firsts.append(first)
        lasts.append(first + pages)
    vmi = VMIInstance(domain, seed=1)
    dump = MemoryDump.from_vm(vm)
    frames, flat, lo, hi = vmi.translate_ranges(np.array(firsts),
                                                np.array(lasts), process.pid)
    slots = vmi.slot_frames(process.pid)
    for i, (first, last) in enumerate(zip(firsts, lasts)):
        probe, is_flat, reached = _ranges_each(vmi, process.pid, first,
                                               last)
        assert (frames[i], flat[i]) == (probe, is_flat), (first, last)
        assert slots[lo[i]:hi[i]].tolist() == reached, (first, last)
        # The dump reads the range as live VMI does, or both refuse it.
        vaddr = first * PAGE_SIZE + 100
        length = (last - first + 1) * PAGE_SIZE - 150
        assert _read_or_refuse(dump, vaddr, length, process.pid) == \
            _read_or_refuse(vmi, vaddr, length, process.pid), (first, last)


def _read_or_refuse(space, vaddr, length, pid):
    """The bytes ``space.read_va`` returns, or None where it refuses."""
    try:
        return space.read_va(vaddr, length, pid=pid)
    except (IntrospectionError, ForensicsError, PhysicalAccessError):
        return None


def test_mapping_token_follows_the_page_table():
    domain, process = _guest(respawn=False)
    vmi = VMIInstance(domain, seed=1)
    token = vmi.mapping_token(process.pid)
    assert token == vmi.mapping_token(process.pid)
    snapshot = process.vm.snapshot()
    process.vm.restore(snapshot)
    assert vmi.mapping_token(process.pid) == token
    heap = process.region_range("heap")[0]
    process.page_table.map(heap // PAGE_SIZE,
                           process.page_table.frame_of(heap))
    assert vmi.mapping_token(process.pid) != token
    assert vmi.mapping_token(0) is None
    assert vmi.mapping_token(424242) is None
