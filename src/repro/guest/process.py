"""User processes inside a simulated guest.

A :class:`UserProcess` owns a sparse page table over guest physical frames
and exposes read/write through virtual addresses (splitting accesses across
page boundaries, since physical frames are not contiguous). The heap region
is managed by :class:`~repro.guest.heap.CanaryHeap`.
"""

import struct
import weakref

from repro.guest.memory import PAGE_SIZE
from repro.guest.pagetable import PageTable

#: Canonical user-space layout (per-process, matching a classic ELF layout).
CODE_BASE = 0x0000_0000_0040_0000
HEAP_BASE = 0x0000_0000_1000_0000
CANARY_TABLE_BASE = 0x0000_0000_7000_0000
STACK_TOP = 0x0000_7FFF_FF00_0000


class UserProcess:
    """A guest user process: address space + heap + simple I/O helpers."""

    def __init__(self, vm, pid, name, uid=1000):
        #: The guest's RAM, which every access goes through.
        self.memory = vm.memory
        # The guest holds its processes, so a strong reference back would
        # make every guest with a process a cycle only the collector frees.
        self._vm = weakref.ref(vm)
        self.pid = pid
        self.name = name
        self.uid = uid
        self.page_table = PageTable()
        self.regions = {}  # name -> (base_va, page_count)
        self.heap = None
        self.stack_guard = None
        self.alive = True

    @property
    def vm(self):
        """The guest this process runs in (None once it is freed)."""
        return self._vm()

    # -- address-space construction ---------------------------------------

    def map_region(self, region, base_va, page_count):
        """Allocate physical frames and map them at ``base_va``."""
        frames = self.vm.user_frames.allocate(page_count)
        first_vpn = base_va // PAGE_SIZE
        for index, pfn in enumerate(frames):
            self.page_table.map(first_vpn + index, pfn)
        self.regions[region] = (base_va, page_count)
        return base_va

    def region_range(self, region):
        base, pages = self.regions[region]
        return base, base + pages * PAGE_SIZE

    def release_frames(self):
        """Return all mapped frames to the VM (process teardown)."""
        frames = [pfn for _vpn, pfn in self.page_table.entries()]
        self.vm.user_frames.release(frames)
        self.page_table = PageTable()
        self.alive = False

    # -- virtual-address access --------------------------------------------

    def write(self, vaddr, data):
        """Store bytes at a virtual address (may span pages)."""
        remaining = len(data)
        if 0 < remaining <= PAGE_SIZE - vaddr % PAGE_SIZE:
            # Within one page: one translation, one store, no slicing.
            self.memory.write(self.page_table.translate(vaddr), data)
            return
        offset = 0
        while remaining > 0:
            paddr = self.page_table.translate(vaddr + offset)
            room = PAGE_SIZE - (paddr % PAGE_SIZE)
            chunk = min(room, remaining)
            self.memory.write(paddr, data[offset : offset + chunk])
            offset += chunk
            remaining -= chunk

    def read(self, vaddr, length):
        """Load bytes from a virtual address (may span pages)."""
        parts = []
        offset = 0
        while offset < length:
            paddr = self.page_table.translate(vaddr + offset)
            room = PAGE_SIZE - (paddr % PAGE_SIZE)
            chunk = min(room, length - offset)
            parts.append(self.memory.read(paddr, chunk))
            offset += chunk
        return b"".join(parts)

    def write_u64(self, vaddr, value):
        self.write(vaddr, struct.pack("<Q", value))

    def read_u64(self, vaddr):
        return struct.unpack("<Q", self.read(vaddr, 8))[0]

    # -- heap convenience ----------------------------------------------------

    def malloc(self, size):
        return self.heap.malloc(size)

    def free(self, addr):
        self.heap.free(addr)

    # -- snapshot -------------------------------------------------------------

    def state_dict(self):
        state = {
            "pid": self.pid,
            "name": self.name,
            "uid": self.uid,
            "alive": self.alive,
            "page_table": self.page_table.state_dict(),
            "regions": self.regions.copy(),
        }
        if self.heap is not None:
            state["heap"] = self.heap.state_dict()
        if self.stack_guard is not None:
            state["stack_guard"] = self.stack_guard.state_dict()
        return state

    def load_state_dict(self, state):
        self.pid = state["pid"]
        self.name = state["name"]
        self.uid = state["uid"]
        self.alive = state["alive"]
        self.page_table.load_state_dict(state["page_table"])
        self.regions = state["regions"].copy()
        if self.heap is not None and "heap" in state:
            self.heap.load_state_dict(state["heap"])
        if self.stack_guard is not None and "stack_guard" in state:
            self.stack_guard.load_state_dict(state["stack_guard"])

    def __repr__(self):
        return "UserProcess(pid=%d, name=%r)" % (self.pid, self.name)
