"""Memory dumps: immutable full-RAM images with translation metadata.

A dump carries everything an offline analyzer legitimately has: the raw
bytes, the guest's System.map symbols, the OS name, and the page-table
contents needed to translate user-space addresses (a real tool would walk
the page tables *inside* the image; we persist the same mapping data
explicitly).
"""

from repro.errors import ForensicsError, PageFault
from repro.guest.memory import PAGE_SIZE
from repro.guest.pagetable import KERNEL_BASE, kernel_pa


class MemoryDump:
    """One captured RAM image plus the metadata needed to interpret it.

    A dump is an address space for the walkers of :mod:`repro.vmi.walk`,
    like a live VMI instance, but reads are free (Volatility prices a
    whole plugin run instead) and a walker's checks raise
    :class:`ForensicsError`.
    """

    #: The error a walker raises for malformed guest memory.
    error = ForensicsError

    def __init__(self, image, os_name, symbols, guest_state, taken_at=0.0,
                 label=""):
        # bytes() is the single defensive copy that makes the dump
        # immutable; passing ``bytes`` (no copy) or a zero-copy
        # ``memoryview``/``bytearray`` (one bulk copy, never per-frame)
        # are both fine.
        self.image = bytes(image)
        self.os_name = os_name
        self.symbols = dict(symbols)
        self.guest_state = guest_state
        self.taken_at = taken_at
        self.label = label

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_vm(cls, vm, label="live"):
        """Capture the VM's current state (the 'bad' end-of-epoch dump)."""
        return cls(
            image=vm.memory.snapshot_bytes(),
            os_name=vm.os_name,
            symbols={name: vm.symbols.lookup(name) for name in vm.symbols.names()},
            guest_state=vm.state_dict(),
            taken_at=vm.clock.now,
            label=label,
        )

    @classmethod
    def from_snapshot(cls, vm, snapshot, label="checkpoint"):
        """Wrap a :class:`GuestSnapshot` (e.g. the clean backup) as a dump."""
        return cls(
            image=snapshot.memory_image,
            os_name=vm.os_name,
            symbols={name: vm.symbols.lookup(name) for name in vm.symbols.names()},
            guest_state=snapshot.state,
            taken_at=snapshot.taken_at,
            label=label,
        )

    # -- reading ----------------------------------------------------------

    @property
    def size(self):
        return len(self.image)

    def read_pa(self, paddr, length):
        if paddr < 0 or paddr + length > len(self.image):
            raise ForensicsError(
                "dump read [0x%x, +%d) outside %d-byte image"
                % (paddr, length, len(self.image))
            )
        return self.image[paddr : paddr + length]

    def lookup_symbol(self, name):
        try:
            return self.symbols[name]
        except KeyError:
            raise ForensicsError("symbol %r not in dump" % name) from None

    def _user_page_table(self, pid):
        os_state = self.guest_state.get(self.os_name, {})
        processes = os_state.get("processes", {})
        process = processes.get(pid)
        if process is None:
            raise ForensicsError("dump has no page table for pid %d" % pid)
        return process["page_table"]["entries"]

    def translate(self, vaddr, pid=0):
        """VA -> PA inside the dump (kernel direct map or user page table)."""
        if pid == 0 or vaddr >= KERNEL_BASE:
            return kernel_pa(vaddr)
        entries = self._user_page_table(pid)
        vpn, offset = divmod(vaddr, PAGE_SIZE)
        entry = entries.get(vpn)
        if entry is None:
            raise PageFault(vaddr)
        return entry[0] * PAGE_SIZE + offset

    def read_va(self, vaddr, length, pid=0):
        """Read a virtual range, stitching across non-contiguous frames."""
        parts = []
        offset = 0
        while offset < length:
            paddr = self.translate(vaddr + offset, pid)
            room = PAGE_SIZE - (paddr % PAGE_SIZE)
            chunk = min(room, length - offset)
            parts.append(self.read_pa(paddr, chunk))
            offset += chunk
        return b"".join(parts)

    def pool_regions(self):
        """A dump's pool sweep covers its whole image, uncopied."""
        yield 0, self.image

    def abort_walk(self, what, node_va, nodes, reason):
        """A walk over the image did not terminate cleanly."""
        raise ForensicsError(
            "corrupt %s list in dump: does not terminate (%s at 0x%x after "
            "%d nodes)" % (what, reason, node_va, nodes)
        )

    def process_pids(self):
        """Pids whose user address spaces this dump can translate."""
        os_state = self.guest_state.get(self.os_name, {})
        return sorted(os_state.get("processes", {}))

    def __repr__(self):
        return "MemoryDump(label=%r, %d MiB, t=%.2fms)" % (
            self.label,
            len(self.image) // (1024 * 1024),
            self.taken_at,
        )


def diff_rows(before, after, key):
    """Diff two lists of dict rows by ``key(row)``: (added, removed).

    The §5.6 post-mortem compares plugin output on the checkpoint-start
    and checkpoint-end dumps; what's *added* is what the attack did.
    """
    before_keys = {key(row) for row in before}
    after_keys = {key(row) for row in after}
    added = [row for row in after if key(row) not in before_keys]
    removed = [row for row in before if key(row) not in after_keys]
    return added, removed
