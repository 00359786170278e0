"""Unit tests for simulated physical memory."""

import numpy as np
import pytest

from repro.errors import PhysicalAccessError
from repro.guest.memory import PAGE_SIZE, PhysicalMemory
from repro.hypervisor.dirty import DirtyBitmap


def _attach_log(memory):
    """Attach a fresh log-dirty bitmap to ``memory`` and return it."""
    memory.dirty_log = DirtyBitmap(memory.frame_count)
    return memory.dirty_log


def _marked(bitmap):
    return bitmap.scan_by_words()[0]


def test_size_must_be_page_multiple():
    with pytest.raises(PhysicalAccessError):
        PhysicalMemory(PAGE_SIZE + 1)


def test_size_must_be_positive():
    with pytest.raises(PhysicalAccessError):
        PhysicalMemory(0)


def test_read_write_roundtrip():
    memory = PhysicalMemory(PAGE_SIZE * 4)
    memory.write(100, b"hello")
    assert memory.read(100, 5) == b"hello"


def test_write_across_page_boundary():
    memory = PhysicalMemory(PAGE_SIZE * 4)
    memory.write(PAGE_SIZE - 2, b"abcd")
    assert memory.read(PAGE_SIZE - 2, 4) == b"abcd"


def test_out_of_range_read_rejected():
    memory = PhysicalMemory(PAGE_SIZE)
    with pytest.raises(PhysicalAccessError):
        memory.read(PAGE_SIZE - 1, 2)


def test_out_of_range_write_rejected():
    memory = PhysicalMemory(PAGE_SIZE)
    with pytest.raises(PhysicalAccessError):
        memory.write(PAGE_SIZE, b"x")


def test_dirty_observer_fires_per_touched_frame():
    memory = PhysicalMemory(PAGE_SIZE * 4)
    bitmap = _attach_log(memory)
    memory.write(PAGE_SIZE - 1, b"ab")  # spans frames 0 and 1
    assert _marked(bitmap) == [0, 1]
    assert bitmap.count() == 2


def test_removed_observer_stops_firing():
    memory = PhysicalMemory(PAGE_SIZE * 2)
    bitmap = _attach_log(memory)
    memory.dirty_log = None
    memory.write(0, b"x")
    assert _marked(bitmap) == []


def test_write_observer_gets_address_and_data():
    memory = PhysicalMemory(PAGE_SIZE * 2)
    events = []
    memory.add_write_observer(lambda paddr, data: events.append((paddr, data)))
    memory.write(123, b"zap")
    assert events == [(123, b"zap")]


def test_touch_frame_dirties_one_frame():
    memory = PhysicalMemory(PAGE_SIZE * 4)
    bitmap = _attach_log(memory)
    memory.touch_frame(2)
    assert _marked(bitmap) == [2]
    assert memory.read(2 * PAGE_SIZE, 1) != b"\x00"


def test_read_write_frame_roundtrip():
    memory = PhysicalMemory(PAGE_SIZE * 2)
    payload = bytes(range(256)) * 16
    memory.write_frame(1, payload)
    assert memory.read_frame(1) == payload


def test_write_frame_requires_exact_size():
    memory = PhysicalMemory(PAGE_SIZE * 2)
    with pytest.raises(PhysicalAccessError):
        memory.write_frame(0, b"short")


def test_snapshot_and_load_roundtrip():
    memory = PhysicalMemory(PAGE_SIZE * 2)
    memory.write(10, b"state")
    image = memory.snapshot_bytes()
    memory.write(10, b"zzzzz")
    memory.load_bytes(image)
    assert memory.read(10, 5) == b"state"


def test_load_bytes_rejects_wrong_size():
    memory = PhysicalMemory(PAGE_SIZE * 2)
    with pytest.raises(PhysicalAccessError):
        memory.load_bytes(b"\x00" * PAGE_SIZE)


def test_load_bytes_does_not_notify_by_default():
    memory = PhysicalMemory(PAGE_SIZE * 2)
    image = memory.snapshot_bytes()
    bitmap = _attach_log(memory)
    memory.load_bytes(image)
    assert _marked(bitmap) == []
    memory.load_bytes(image, notify=True)
    assert _marked(bitmap) == [0, 1]


def test_view_is_read_only():
    memory = PhysicalMemory(PAGE_SIZE)
    view = memory.view()
    with pytest.raises((TypeError, ValueError)):
        view[0] = 1


class _CallLog(DirtyBitmap):
    """A bitmap that records which marking call each store made."""

    def __init__(self, frame_count):
        super().__init__(frame_count)
        self.calls = []

    def set(self, pfn):
        self.calls.append(("set", pfn))
        super().set(pfn)

    def set_range(self, first_pfn, last_pfn):
        self.calls.append(("set_range", first_pfn, last_pfn))
        super().set_range(first_pfn, last_pfn)


def test_range_observer_called_once_per_multiframe_store():
    memory = PhysicalMemory(8 * PAGE_SIZE)
    bitmap = memory.dirty_log = _CallLog(memory.frame_count)
    memory.write(PAGE_SIZE - 4, b"\x01" * (2 * PAGE_SIZE))  # spans frames 0-2
    assert bitmap.calls == [("set_range", 0, 2)]
    assert _marked(bitmap) == [0, 1, 2]
    memory.touch_frame(5)
    assert bitmap.calls == [("set_range", 0, 2), ("set", 5)]
    assert _marked(bitmap) == [0, 1, 2, 5]


def test_range_and_per_pfn_observers_see_same_frames():
    """One two-frame store and two one-frame stores mark the same bits."""
    ranged = PhysicalMemory(8 * PAGE_SIZE)
    per_pfn = PhysicalMemory(8 * PAGE_SIZE)
    ranged_log = _attach_log(ranged)
    per_pfn_log = _attach_log(per_pfn)
    ranged.write(3 * PAGE_SIZE, b"\x02" * PAGE_SIZE * 2)
    per_pfn.write(3 * PAGE_SIZE, b"\x02" * PAGE_SIZE)
    per_pfn.write(4 * PAGE_SIZE, b"\x02" * PAGE_SIZE)
    assert _marked(ranged_log) == _marked(per_pfn_log) == [3, 4]
    assert ranged_log.count() == per_pfn_log.count() == 2


def test_removed_range_observer_stops_firing():
    memory = PhysicalMemory(4 * PAGE_SIZE)
    bitmap = _attach_log(memory)
    memory.dirty_log = None
    memory.write(PAGE_SIZE - 2, b"data")  # a multi-frame store
    memory.write_frame(2, b"\x03" * PAGE_SIZE)
    assert _marked(bitmap) == []


def test_untracked_loads_generation_counter():
    memory = PhysicalMemory(4 * PAGE_SIZE)
    assert memory.untracked_loads == 0
    memory.write_frame(1, b"\x07" * PAGE_SIZE)  # notifying: not untracked
    assert memory.untracked_loads == 0
    memory.write_frame(1, b"\x08" * PAGE_SIZE, notify=False)
    assert memory.untracked_loads == 1
    memory.load_bytes(bytes(4 * PAGE_SIZE))
    assert memory.untracked_loads == 2
    memory.load_bytes(bytes(4 * PAGE_SIZE), notify=True)
    assert memory.untracked_loads == 2


def test_write_frame_accepts_memoryview():
    memory = PhysicalMemory(4 * PAGE_SIZE)
    source = memoryview(bytes([9]) * PAGE_SIZE)
    memory.write_frame(2, source)
    assert memory.read_frame(2) == bytes([9]) * PAGE_SIZE


def test_load_frames_scatters_untracked():
    memory = PhysicalMemory(4 * PAGE_SIZE)
    bitmap = _attach_log(memory)
    rows = np.full((2, PAGE_SIZE // 8), 0x0101010101010101, dtype=np.uint64)
    memory.load_frames(np.array([3, 1]), rows)
    assert memory.read_frame(1) == memory.read_frame(3) == b"\x01" * PAGE_SIZE
    assert memory.read_frame(0) == bytes(PAGE_SIZE)
    assert memory.untracked_loads == 2  # one per frame, like write_frame
    assert _marked(bitmap) == []


@pytest.mark.parametrize("pfns, frames", [
    ([4], 1),      # past the last frame
    ([-1], 1),     # would wrap around in numpy
    ([0, 1], 1),   # fewer rows than frames
])
def test_load_frames_rejects_bad_input(pfns, frames):
    memory = PhysicalMemory(4 * PAGE_SIZE)
    rows = np.zeros((frames, PAGE_SIZE // 8), dtype=np.uint64)
    with pytest.raises(PhysicalAccessError):
        memory.load_frames(np.array(pfns), rows)
    assert memory.untracked_loads == 0
