"""Property test: the log-dirty store path against a per-frame model.

A guest store marks the attached log-dirty bitmap
(``PhysicalMemory.dirty_log``) directly: ``set`` for one frame,
``set_range`` for a span. ``UserProcess.write`` translates a store that
stays inside one page once and stores it once. This suite drives random
op sequences through that path and through a per-frame reference model:
every store marks each frame it touches, one frame at a time, and a
user store is split into one physical store per page, each translated
on its own.

After every op both sides must agree on the bitmap's dirty set and
``count()``, the RAM bytes, the write-observer events, ``untracked_loads``
and the exception raised, if any. The ops cover physical stores of
length 0, inside a page, page-crossing and multi-page (in range and
not), ``touch_frame``, ``write_frame`` and ``load_bytes`` with and
without ``notify``, ``load_frames``, user stores (including empty ones
at unmapped addresses), and detaching and re-attaching log-dirty.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import PageFault, PhysicalAccessError
from repro.guest.memory import PAGE_SIZE, PhysicalMemory
from repro.guest.process import UserProcess
from repro.hypervisor.dirty import DirtyBitmap

pytestmark = pytest.mark.property

FRAMES = 8
SIZE = FRAMES * PAGE_SIZE
#: The process's page table: VPN -> PFN, scattered, with VPN 19 unmapped.
MAPPING = {16: 5, 17: 2, 18: 7, 20: 0, 21: 3}
UNMAPPED_VPN = 19


def _fill(value, length):
    """``length`` copies of the byte ``value`` (each op draws its own)."""
    return bytes([value]) * length


class _Reference:
    """Marks one frame, and translates one page, at a time.

    Each op method takes the same arguments as :class:`_Real`'s.
    """

    def __init__(self, observed):
        self.ram = bytearray(SIZE)
        self.attached = True
        self.dirty = set()
        self.events = [] if observed else None
        self.untracked = 0

    def _mark(self, first, last):
        if self.attached:
            for pfn in range(first, last + 1):
                self.dirty.add(pfn)

    def _store(self, paddr, data):
        if paddr < 0 or paddr + len(data) > SIZE:
            raise PhysicalAccessError("outside RAM")
        self.ram[paddr:paddr + len(data)] = data
        if data:
            self._mark(paddr // PAGE_SIZE, (paddr + len(data) - 1) // PAGE_SIZE)
            if self.events is not None:
                self.events.append((paddr, bytes(data)))

    def _replace_frame(self, pfn, value, notify):
        if not 0 <= pfn < FRAMES:
            raise PhysicalAccessError("frame %d outside RAM" % pfn)
        self.ram[pfn * PAGE_SIZE:(pfn + 1) * PAGE_SIZE] = _fill(value, PAGE_SIZE)
        if notify:
            self._mark(pfn, pfn)
        else:
            self.untracked += 1

    def write(self, paddr, length, value):
        self._store(paddr, _fill(value, length))

    def user_write(self, vaddr, length, value):
        data = _fill(value, length)
        offset = 0
        while offset < length:
            vpn, page_offset = divmod(vaddr + offset, PAGE_SIZE)
            if vpn not in MAPPING:
                raise PageFault(vaddr + offset)
            chunk = min(PAGE_SIZE - page_offset, length - offset)
            self._store(MAPPING[vpn] * PAGE_SIZE + page_offset,
                        data[offset:offset + chunk])
            offset += chunk

    def touch(self, pfn, value):
        if not 0 <= pfn < FRAMES:
            raise PhysicalAccessError("frame %d outside RAM" % pfn)
        self.ram[pfn * PAGE_SIZE] = value
        self._mark(pfn, pfn)
        if self.events is not None:
            self.events.append((pfn * PAGE_SIZE, bytes([value])))

    def write_frame(self, pfn, value, notify):
        self._replace_frame(pfn, value, notify)

    def load_bytes(self, value, notify):
        self.ram[:] = _fill(value, SIZE)
        if notify:
            self._mark(0, FRAMES - 1)
        else:
            self.untracked += 1

    def load_frames(self, pfns, value):
        for pfn in pfns:
            self._replace_frame(pfn, value, notify=False)

    def attach(self, attached):
        self.attached = attached


class _Real:
    """The shipped path: RAM with one attached bitmap, and a process."""

    def __init__(self, observed):
        self.memory = PhysicalMemory(SIZE)
        self.bitmap = DirtyBitmap(FRAMES)
        self.memory.dirty_log = self.bitmap
        self.events = None
        if observed:
            self.events = []
            self.memory.add_write_observer(
                lambda paddr, data: self.events.append((paddr, data)))
        # The harness stands in for the guest: all a process needs of it
        # is ``memory``.
        self.process = UserProcess(self, pid=1, name="prop")
        for vpn, pfn in MAPPING.items():
            self.process.page_table.map(vpn, pfn)

    def write(self, paddr, length, value):
        self.memory.write(paddr, _fill(value, length))

    def user_write(self, vaddr, length, value):
        self.process.write(vaddr, _fill(value, length))

    def touch(self, pfn, value):
        self.memory.touch_frame(pfn, value)

    def write_frame(self, pfn, value, notify):
        self.memory.write_frame(pfn, _fill(value, PAGE_SIZE), notify=notify)

    def load_bytes(self, value, notify):
        self.memory.load_bytes(_fill(value, SIZE), notify=notify)

    def load_frames(self, pfns, value):
        data = _fill(value, len(pfns) * PAGE_SIZE)
        rows = np.frombuffer(data, dtype=np.uint64).reshape(
            len(pfns), PAGE_SIZE // 8)
        self.memory.load_frames(np.asarray(pfns, dtype=np.intp), rows)

    def attach(self, attached):
        self.memory.dirty_log = self.bitmap if attached else None


def _outcome(side, op):
    """Apply ``op`` to ``side``; the exception type it raised, or None."""
    kind, *args = op
    try:
        getattr(side, kind)(*args)
    except (PhysicalAccessError, PageFault) as error:
        return type(error)
    return None


_BYTE = st.integers(0, 255)
# Lengths: empty, inside a page, around one page, and several pages.
_LENGTH = st.one_of(
    st.just(0),
    st.integers(1, 64),
    st.integers(PAGE_SIZE - 64, PAGE_SIZE + 64),
    st.integers(2 * PAGE_SIZE, 3 * PAGE_SIZE + 100),
)
_OFFSET = st.one_of(st.sampled_from([0, 1, PAGE_SIZE - 64, PAGE_SIZE - 1]),
                    st.integers(0, PAGE_SIZE - 1))
_PADDR = st.one_of(
    st.builds(lambda frame, offset: frame * PAGE_SIZE + offset,
              st.integers(0, FRAMES), _OFFSET),
    st.integers(-2, 2),
    st.integers(SIZE - 2, SIZE + 2),
)
_VADDR = st.builds(lambda vpn, offset: vpn * PAGE_SIZE + offset,
                   st.integers(min(MAPPING) - 1, max(MAPPING) + 1), _OFFSET)
_PFN = st.integers(-1, FRAMES)

_OP = st.one_of(
    st.tuples(st.just("write"), _PADDR, _LENGTH, _BYTE),
    st.tuples(st.just("user_write"), _VADDR, _LENGTH, _BYTE),
    st.tuples(st.just("touch"), _PFN, _BYTE),
    st.tuples(st.just("write_frame"), _PFN, _BYTE, st.booleans()),
    st.tuples(st.just("load_bytes"), _BYTE, st.booleans()),
    st.tuples(st.just("load_frames"),
              st.lists(st.integers(0, FRAMES - 1), unique=True,
                       max_size=FRAMES),
              _BYTE),
    st.tuples(st.just("attach"), st.booleans()),
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_OP, min_size=1, max_size=25), observed=st.booleans())
# An empty store at an unmapped VA translates nothing, so cannot fault.
@example(ops=[("user_write", UNMAPPED_VPN * PAGE_SIZE + 8, 0, 1)],
         observed=True)
# A store that ends exactly on a page boundary marks only its own frame,
# physical or virtual; the next page's frame stays clean.
@example(ops=[("write", PAGE_SIZE + 100, PAGE_SIZE - 100, 2),
              ("user_write", 17 * PAGE_SIZE + 96, PAGE_SIZE - 96, 3)],
         observed=True)
# Empty stores at and past the end of RAM: the first is legal, the
# second raises, neither marks anything.
@example(ops=[("write", SIZE, 0, 4), ("write", SIZE + 1, 0, 5)],
         observed=False)
def test_store_path_matches_per_frame_fanout(ops, observed):
    real = _Real(observed)
    reference = _Reference(observed)
    for op in ops:
        assert _outcome(real, op) == _outcome(reference, op), op
        assert real.bitmap.scan_by_words()[0] == sorted(reference.dirty), op
        assert real.bitmap.count() == len(reference.dirty), op
        assert bytes(real.memory.view()) == reference.ram, op
        assert real.events == reference.events, op
        assert real.memory.untracked_loads == reference.untracked, op
