"""Memory dumps: immutable full-RAM images with translation metadata.

A dump carries everything an offline analyzer legitimately has: the raw
bytes, the guest's System.map symbols, the OS name, and the page-table
contents needed to translate user-space addresses (a real tool would walk
the page tables *inside* the image; we persist the same mapping data
explicitly).

A dump is the offline guest address space of :mod:`repro.vmi.space`:
it follows the rule live introspection follows, reading from the image,
free of charge (Volatility prices whole plugin runs), and refusing with
:class:`ForensicsError`, so every plugin failure on a dump is one.
"""

from repro.errors import ForensicsError
from repro.guest.memory import PAGE_SIZE
from repro.guest.pagetable import PageTable
from repro.vmi.space import GuestAddressSpace


class MemoryDump(GuestAddressSpace):
    """One captured RAM image plus the metadata needed to interpret it:
    an address space for the walkers of :mod:`repro.vmi.walk`."""

    #: The error a refusal, or a walker's check, raises.
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
        self.frame_count = len(self.image) // PAGE_SIZE
        #: pid -> PageTable, built from the stored state on first use.
        self._page_tables = {}

    # -- constructors ----------------------------------------------------

    @classmethod
    def of_guest(cls, vm, image, guest_state, taken_at, label):
        """A dump of ``vm``'s OS and symbols over a captured image."""
        symbols = {name: vm.symbols.lookup(name)
                   for name in vm.symbols.names()}
        return cls(image, vm.os_name, symbols, guest_state, taken_at, label)

    @classmethod
    def from_vm(cls, vm, label="live"):
        """Capture the VM's current state (the 'bad' end-of-epoch dump)."""
        return cls.of_guest(vm, vm.memory.snapshot_bytes(), vm.state_dict(),
                            vm.clock.now, label)

    @classmethod
    def from_snapshot(cls, vm, snapshot, label="checkpoint"):
        """Wrap a :class:`GuestSnapshot` (e.g. the clean backup) as a dump."""
        return cls.of_guest(vm, snapshot.memory_image, snapshot.state,
                            snapshot.taken_at, label)

    # -- the offline address space (repro.vmi.space) ----------------------

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

    def _read_frames(self, frames, offset, length):
        pages = b"".join(self.read_pa(pfn * PAGE_SIZE, PAGE_SIZE)
                         for pfn in frames.tolist())
        return pages[offset:offset + length]

    def _charge_read(self, length):
        """Free: Volatility prices whole plugin runs, not reads."""

    def _processes(self):
        return self.guest_state.get(self.os_name, {}).get("processes", {})

    def _page_table_of(self, pid):
        """The page table of ``pid`` as the dump stored it, or None."""
        page_table = self._page_tables.get(pid)
        if page_table is None:
            process = self._processes().get(pid)
            if process is None:
                return None
            page_table = self._page_tables[pid] = PageTable()
            page_table.load_state_dict(process["page_table"])
        return page_table

    def lookup_symbol(self, name):
        try:
            return self.symbols[name]
        except KeyError:
            raise ForensicsError("symbol %r not in dump" % name) from None

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
        return sorted(self._processes())

    def __repr__(self):
        return "MemoryDump(label=%r, %d MiB, t=%.2fms)" % (
            self.label, len(self.image) // (1024 * 1024), self.taken_at)


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
