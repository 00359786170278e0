"""Per-address-space page tables.

A page table maps virtual page numbers to physical frame numbers. The
kernel owns a linear direct map (VA = PA + KERNEL_BASE); user processes own
sparse tables built as their regions are allocated. Introspection performs
the same translations from outside the guest.
"""

import numpy as _np

from repro.errors import PageFault
from repro.guest.memory import PAGE_SIZE

#: Base of the kernel's direct physical map, in the style of x86-64 Linux.
KERNEL_BASE = 0xFFFF_8800_0000_0000


class PageTable:
    """Sparse VPN -> PFN mapping for one address space."""

    def __init__(self):
        self._entries = {}
        #: ``(vpns, pfns)`` as VPN-sorted int64 arrays for bulk lookups:
        #: derived from ``_entries``, dropped by every change to it and
        #: never part of :meth:`state_dict`.
        self._arrays = None

    def map(self, vpn, pfn, writable=True):
        self._entries[vpn] = (pfn, writable)
        self._arrays = None

    def unmap(self, vpn):
        self._entries.pop(vpn, None)
        self._arrays = None

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

    def frames_of(self, vpns):
        """The frame behind each VPN of the int64 array ``vpns``.

        One ``searchsorted`` over the cached sorted arrays; -1 marks a
        VPN with no mapping.
        """
        if self._arrays is None:
            count = len(self._entries)
            keys = _np.fromiter(self._entries, dtype=_np.int64, count=count)
            frames = _np.fromiter((pfn for pfn, _ in self._entries.values()),
                                  dtype=_np.int64, count=count)
            order = _np.argsort(keys)
            self._arrays = (keys[order], frames[order])
        keys, frames = self._arrays
        if not len(keys):
            return _np.full(len(vpns), -1, dtype=_np.int64)
        slots = _np.minimum(_np.searchsorted(keys, vpns), len(keys) - 1)
        return _np.where(keys[slots] == vpns, frames[slots], -1)

    def state_dict(self):
        return {"entries": self._entries.copy()}

    def load_state_dict(self, state):
        self._entries = state["entries"].copy()
        self._arrays = None


def kernel_va(paddr):
    """Kernel direct-map virtual address of a physical address."""
    return KERNEL_BASE + paddr


def kernel_pa(vaddr):
    """Physical address behind a kernel direct-map virtual address."""
    if vaddr < KERNEL_BASE:
        raise PageFault(vaddr, "not a kernel direct-map address: 0x%x" % vaddr)
    return vaddr - KERNEL_BASE
