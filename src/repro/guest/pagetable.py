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
        #: The maximal runs of consecutive mapped VPNs, for bulk lookups
        #: (see :meth:`_build_runs`): derived from ``_entries``, dropped
        #: by every change to it and never part of :meth:`state_dict`.
        self._runs = None

    def map(self, vpn, pfn, writable=True):
        self._entries[vpn] = (pfn, writable)
        self._runs = None

    def unmap(self, vpn):
        self._entries.pop(vpn, None)
        self._runs = None

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

        One ``searchsorted`` over the start VPNs of the table's runs of
        consecutive pages, so the cost per VPN follows the number of runs
        (a handful per address space), not of mapped pages; -1 marks a
        VPN with no mapping.
        """
        if self._runs is None:
            self._runs = self._build_runs()
        starts, ends, shifts, frames = self._runs
        run = _np.searchsorted(starts, vpns, "right") - 1
        slot = _np.where(vpns < ends[run], vpns + shifts[run], -1)
        return frames[slot]

    def _build_runs(self):
        """``(starts, ends, shifts, frames)`` over the runs of this table.

        Run ``r`` maps VPNs ``[starts[r], ends[r])`` to
        ``frames[vpn + shifts[r]]``. Run 0 is an empty sentinel below
        every VPN, so each VPN lands in some run, and ``frames`` ends in
        a -1 that unmapped VPNs index.
        """
        count = len(self._entries)
        vpns = _np.fromiter(self._entries, dtype=_np.int64, count=count)
        pfns = _np.fromiter((pfn for pfn, _ in self._entries.values()),
                            dtype=_np.int64, count=count)
        order = _np.argsort(vpns)
        vpns, pfns = vpns[order], pfns[order]
        # Positions (in VPN order) of the first and the last page of each
        # run: where the step from the previous / to the next VPN is not 1.
        firsts = _np.flatnonzero(_np.diff(vpns, prepend=vpns[:1] - 2) != 1)
        lasts = _np.flatnonzero(_np.diff(vpns, append=vpns[-1:] + 2) != 1)
        sentinel = _np.iinfo(_np.int64).min
        starts = _np.concatenate(([sentinel], vpns[firsts]))
        ends = _np.concatenate(([sentinel], vpns[lasts] + 1))
        shifts = _np.concatenate(([0], firsts - vpns[firsts]))
        return starts, ends, shifts, _np.append(pfns, -1)

    def state_dict(self):
        return {"entries": self._entries.copy()}

    def load_state_dict(self, state):
        self._entries = state["entries"].copy()
        self._runs = None


def kernel_va(paddr):
    """Kernel direct-map virtual address of a physical address."""
    return KERNEL_BASE + paddr


def kernel_pa(vaddr):
    """Physical address behind a kernel direct-map virtual address."""
    if vaddr < KERNEL_BASE:
        raise PageFault(vaddr, "not a kernel direct-map address: 0x%x" % vaddr)
    return vaddr - KERNEL_BASE
