"""Canary-placing heap allocator (the paper's malloc wrapper).

CRIMES's guest-aided buffer-overflow module relies on a malloc wrapper that
(a) places an 8-byte random canary immediately after every allocated object
and (b) maintains a lookup table of canary locations *in guest memory* that
the hypervisor-level scanner can read (§4.2).

This allocator does exactly that: the table lives at a fixed virtual
address inside the protected process, with a header carrying the canary
value and entry count, followed by packed ``(addr, size)`` records. The
canary itself is written as real bytes after each object — an out-of-bounds
store through the ordinary write path clobbers it, leaving the evidence the
Detector looks for.
"""

import struct
import weakref

import numpy as _np

from repro.errors import AllocationError, GuestFault
from repro.guest.layout import StructDef

CANARY_TABLE_MAGIC = 0x59524E43  # 'CNRY'
CANARY_SIZE = 8
_ALIGNMENT = 16

#: Tripwire kinds recorded in the table.
KIND_CANARY = 0        # live object: 8 canary bytes follow [addr, addr+size)
KIND_FREED = 1         # freed object: [addr, addr+size) is poison-filled

#: DoubleTake-style fill byte for freed objects: any deviation from it in
#: a freed region is evidence of a use-after-free write.
FREED_FILL_BYTE = 0x5A

CANARY_TABLE_HEADER = StructDef(
    "canary_table_header",
    [
        ("magic", "u32"),
        ("count", "u32"),
        ("canary", "u64"),
        ("capacity", "u32"),
        ("pad", "u32"),
    ],
)

CANARY_ENTRY = StructDef(
    "canary_entry",
    [
        ("addr", "u64"),
        ("size", "u64"),
        ("kind", "u32"),
        ("pad", "u32"),
    ],
)


class CanaryHeap:
    """Bump allocator over a process heap region, with canary bookkeeping."""

    def __init__(self, process, base_va, size_bytes, table_va, table_capacity,
                 canary_value, canaries_enabled=True):
        # The process holds its heap: the heap's reference back is weak.
        self._process = weakref.ref(process)
        self.base_va = base_va
        self.size = size_bytes
        self.table_va = table_va
        self.table_capacity = table_capacity
        self.canary_value = canary_value
        self.canaries_enabled = canaries_enabled
        self._cursor = base_va
        #: addr -> size of the live objects, with canaries disabled only:
        #: a canary heap reads them off its table mirror (a live object
        #: is a canary entry inside the heap range).
        self._live = None if canaries_enabled else {}
        self._table_index = {} # addr -> slot in the guest-memory table
        #: The table entries exactly as this heap wrote them to guest
        #: memory, slot by slot. With canaries enabled the snapshot is
        #: this mirror, and the index above is derived from it.
        self._table = bytearray()
        self._write_header()

    # -- guest-memory table maintenance ----------------------------------

    def _write_header(self):
        self._process().write(
            self.table_va,
            CANARY_TABLE_HEADER.encode(
                {
                    "magic": CANARY_TABLE_MAGIC,
                    "count": len(self._table_index),
                    "canary": self.canary_value,
                    "capacity": self.table_capacity,
                    "pad": 0,
                }
            ),
        )

    def _entry_va(self, index):
        return self.table_va + CANARY_TABLE_HEADER.size + index * CANARY_ENTRY.size

    def _write_entry(self, index, addr, size, kind=KIND_CANARY):
        entry = CANARY_ENTRY.encode(
            {"addr": addr, "size": size, "kind": kind, "pad": 0})
        offset = index * CANARY_ENTRY.size
        # Overwrites slot ``index``, or appends when it is the next slot.
        self._table[offset : offset + CANARY_ENTRY.size] = entry
        self._process().write(self._entry_va(index), entry)

    def _entry(self, index):
        """``(addr, size, kind)`` of table slot ``index``, from the mirror.

        Never read back from guest memory: the guest can store to its
        table, and the heap's own index must not follow such a store.
        """
        addr, size, kind, _pad = CANARY_ENTRY.unpack(
            self._table, index * CANARY_ENTRY.size)
        return addr, size, kind

    def _set_count(self, count):
        self._process().write(
            self.table_va + CANARY_TABLE_HEADER.offset_of("count"),
            struct.pack("<I", count),
        )

    # -- canary registry (shared with the stack guard) --------------------

    def register_canary(self, addr, size, kind=KIND_CANARY):
        """Record a tripwire over ``[addr, addr+size)``.

        ``KIND_CANARY`` plants 8 canary bytes after the range (used by
        :meth:`malloc` and :class:`~repro.guest.stack.StackGuard`);
        ``KIND_FREED`` records an already-poisoned freed region.
        """
        if addr in self._table_index:
            # A stale tripwire at the same address (e.g. an abandoned
            # stack frame whose slot is being reused): replace it rather
            # than corrupt the index with a duplicate.
            _addr, stale_size, _kind = self._entry(self._table_index[addr])
            self.unregister_canary(addr, stale_size, validate=False)
        if len(self._table_index) >= self.table_capacity:
            raise AllocationError(
                "canary table full (%d entries)" % self.table_capacity
            )
        index = len(self._table_index)
        if kind == KIND_CANARY:
            self._process().write(
                addr + size, struct.pack("<Q", self.canary_value)
            )
        self._write_entry(index, addr, size, kind=kind)
        self._table_index[addr] = index
        self._set_count(len(self._table_index))

    def unregister_canary(self, addr, size, validate=True):
        """Remove a tripwire from the table, optionally validating it."""
        stored = struct.unpack(
            "<Q", self._process().read(addr + size, CANARY_SIZE)
        )[0]
        index = self._table_index.pop(addr)
        # Swap-with-last keeps the guest-memory table densely packed.
        last_index = len(self._table_index)
        if index != last_index:
            moved_addr, moved_size, moved_kind = self._entry(last_index)
            self._write_entry(index, moved_addr, moved_size, kind=moved_kind)
            self._table_index[moved_addr] = index
        del self._table[last_index * CANARY_ENTRY.size :]
        self._set_count(len(self._table_index))
        if validate and stored != self.canary_value:
            raise GuestFault(
                "canary corruption detected at 0x%x: %016x != %016x"
                % (addr, stored, self.canary_value)
            )

    # -- allocation API ---------------------------------------------------

    def malloc(self, size):
        """Allocate ``size`` bytes; returns the object's virtual address."""
        if size <= 0:
            raise AllocationError("malloc size must be positive, got %r" % size)
        start = (self._cursor + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
        footprint = size + (CANARY_SIZE if self.canaries_enabled else 0)
        if start + footprint > self.base_va + self.size:
            raise AllocationError(
                "heap exhausted: %d-byte allocation does not fit" % size
            )
        if self.canaries_enabled:
            # First, so a full table leaves the heap as it was.
            self.register_canary(start, size)
        else:
            self._live[start] = size
        self._cursor = start + footprint
        return start

    def free(self, addr):
        """Release an object: validate its canary, then poison it.

        The freed region is filled with :data:`FREED_FILL_BYTE` and
        re-registered as a ``KIND_FREED`` tripwire (DoubleTake's
        use-after-free evidence): any later write through a dangling
        pointer disturbs the fill pattern and the end-of-epoch scan sees
        it.
        """
        size = self._live_size(addr)
        if size is None:
            raise GuestFault("free of unallocated address 0x%x" % addr)
        if not self.canaries_enabled:
            del self._live[addr]
            return
        try:
            self.unregister_canary(addr, size)
        except GuestFault:
            raise GuestFault(
                "heap corruption detected on free(0x%x)" % addr
            ) from None
        self._process().write(addr, bytes([FREED_FILL_BYTE]) * size)
        self.register_canary(addr, size, kind=KIND_FREED)

    def _live_size(self, addr):
        """The size of live object ``addr``, or None: never allocated,
        already freed, or a stack-guard canary sharing the table."""
        if not self.canaries_enabled:
            return self._live.get(addr)
        index = self._table_index.get(addr)
        if index is None or not self.base_va <= addr < self.base_va + self.size:
            return None
        _addr, size, kind = self._entry(index)
        return size if kind == KIND_CANARY else None

    def allocation_size(self, addr):
        """Size of a live allocation (used by the ASan baseline's checker)."""
        size = self._live_size(addr)
        if size is None:
            raise GuestFault("0x%x is not a live allocation" % addr)
        return size

    def live_allocations(self):
        """``{addr: size}`` of every live object."""
        if not self.canaries_enabled:
            return dict(self._live)
        records = self._records()
        addrs = records["addr"]
        live = ((records["kind"] == KIND_CANARY) & (addrs >= self.base_va)
                & (addrs < self.base_va + self.size))
        return dict(zip(addrs[live].tolist(), records["size"][live].tolist()))

    def _records(self):
        """The table mirror decoded, one numpy record per slot."""
        return _np.frombuffer(bytes(self._table),
                              dtype=CANARY_ENTRY.numpy_dtype())

    def bytes_used(self):
        return self._cursor - self.base_va

    # -- snapshot ---------------------------------------------------------

    def state_dict(self):
        """The heap's scalars plus its bookkeeping as immutable leaves.

        With canaries enabled that bookkeeping is the table mirror, one
        ``bytes`` copy however many objects are live; without them it is
        the ``addr -> size`` map of live objects.
        """
        state = {
            "base_va": self.base_va,
            "size": self.size,
            "table_va": self.table_va,
            "table_capacity": self.table_capacity,
            "canary_value": self.canary_value,
            "canaries_enabled": self.canaries_enabled,
            "cursor": self._cursor,
        }
        if self.canaries_enabled:
            state["table"] = bytes(self._table)
        else:
            state["live"] = self._live.copy()
        return state

    def load_state_dict(self, state):
        self.base_va = state["base_va"]
        self.size = state["size"]
        self.table_va = state["table_va"]
        self.table_capacity = state["table_capacity"]
        self.canary_value = state["canary_value"]
        self.canaries_enabled = state["canaries_enabled"]
        self._cursor = state["cursor"]
        if not self.canaries_enabled:
            self._table = bytearray()
            self._table_index = {}
            self._live = state["live"].copy()
            return
        self._table = bytearray(state["table"])
        self._live = None
        addrs = self._records()["addr"]
        self._table_index = dict(zip(addrs.tolist(), range(len(addrs))))

    @classmethod
    def from_state(cls, process, state):
        """Rebuild a heap object from a snapshot, without touching memory.

        Used when a rollback resurrects a process that had exited after the
        checkpoint; guest memory already holds the table bytes.
        """
        heap = cls.__new__(cls)
        heap._process = weakref.ref(process)
        heap.load_state_dict(state)
        return heap
