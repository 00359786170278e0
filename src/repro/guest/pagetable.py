"""Per-address-space page tables.

A page table maps virtual page numbers to physical frame numbers. The
kernel owns a linear direct map (VA = PA + KERNEL_BASE); user processes own
sparse tables built as their regions are allocated. Introspection performs
the same translations from outside the guest.
"""

from repro.errors import PageFault
from repro.guest.memory import PAGE_SIZE

#: Base of the kernel's direct physical map, in the style of x86-64 Linux.
KERNEL_BASE = 0xFFFF_8800_0000_0000


class PageTable:
    """Sparse VPN -> PFN mapping for one address space."""

    def __init__(self):
        self._entries = {}

    def map(self, vpn, pfn, writable=True):
        self._entries[vpn] = (pfn, writable)

    def unmap(self, vpn):
        self._entries.pop(vpn, None)

    def translate(self, vaddr):
        """Translate a virtual address to a physical address."""
        vpn, offset = divmod(vaddr, PAGE_SIZE)
        entry = self._entries.get(vpn)
        if entry is None:
            raise PageFault(vaddr)
        pfn, _writable = entry
        return pfn * PAGE_SIZE + offset

    def is_mapped(self, vaddr):
        return (vaddr // PAGE_SIZE) in self._entries

    def mapped_vpns(self):
        return sorted(self._entries)

    def entries(self):
        """Iterate ``(vpn, pfn)`` pairs in VPN order."""
        for vpn in sorted(self._entries):
            yield vpn, self._entries[vpn][0]

    def frame_of(self, vaddr):
        """The physical frame backing ``vaddr``."""
        return self.translate(vaddr) // PAGE_SIZE

    def state_dict(self):
        return {"entries": self._entries.copy()}

    def load_state_dict(self, state):
        self._entries = state["entries"].copy()


def kernel_va(paddr):
    """Kernel direct-map virtual address of a physical address."""
    return KERNEL_BASE + paddr


def kernel_pa(vaddr):
    """Physical address behind a kernel direct-map virtual address."""
    if vaddr < KERNEL_BASE:
        raise PageFault(vaddr, "not a kernel direct-map address: 0x%x" % vaddr)
    return vaddr - KERNEL_BASE
