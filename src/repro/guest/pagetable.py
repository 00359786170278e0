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
        #: The maximal runs of consecutive VPNs on adjacent frames, for
        #: bulk lookups (see :meth:`_build_runs`): derived from
        #: ``_entries``, dropped by every change to it and never part of
        #: :meth:`state_dict`.
        self._runs = None
        #: Bumped by every change to the mapping (``map``, ``unmap``, and
        #: a ``load_state_dict`` of another mapping): a consumer that
        #: derived something from this table compares generations to know
        #: it is still current.
        self.generation = 0

    def _changed(self):
        self._runs = None
        self.generation += 1

    def map(self, vpn, pfn, writable=True):
        self._entries[vpn] = (pfn, writable)
        self._changed()

    def unmap(self, vpn):
        self._entries.pop(vpn, None)
        self._changed()

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

        One ``searchsorted`` over the start VPNs of the table's runs, so
        the cost per VPN follows the number of runs (a handful per address
        space whose frames were handed out in order), not of mapped pages;
        -1 marks a VPN with no mapping.
        """
        starts, ends, shifts, frames = self._lookup()
        run = _np.searchsorted(starts, vpns, "right") - 1
        slot = _np.where(vpns < ends[run], vpns + shifts[run], -1)
        return frames[slot]

    def ranges(self, firsts, lasts):
        """Where each range of pages ``[firsts[i], lasts[i]]`` lies, over
        int64 arrays with ``lasts >= firsts``, with two lookups like the
        one of :meth:`frames_of`.

        Returns ``(below, above, contiguous)``: the mapped pages of a
        range are those of ranks ``[below, above)`` in VPN order, so
        their frames are ``mapped_frames()[below:above]`` and the range
        is mapped throughout exactly when ``above - below`` is its page
        count; ``contiguous`` is True where every page of the range is
        mapped, onto ascending adjacent frames (one run).
        """
        starts, ends, shifts, _frames = self._lookup()
        run = _np.searchsorted(starts, firsts, "right") - 1
        below = _np.where(run > 0, _np.minimum(firsts, ends[run])
                          + shifts[run], 0)
        after = lasts + 1
        run_after = _np.searchsorted(starts, after, "right") - 1
        above = _np.where(run_after > 0, _np.minimum(after, ends[run_after])
                          + shifts[run_after], 0)
        return below, above, lasts < ends[run]

    def mapped_frames(self):
        """The frame of every mapped page, in VPN order (read-only)."""
        return self._lookup()[3][:-1]

    def _lookup(self):
        if self._runs is None:
            self._runs = self._build_runs()
        return self._runs

    def _build_runs(self):
        """``(starts, ends, shifts, frames)`` over the runs of this table:
        its maximal ranges of consecutive VPNs mapped onto adjacent
        frames, ascending.

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
        # Page i + 1 goes on with page i's run when it is the next VPN on
        # the next frame; the positions (in VPN order) of the first and
        # the last page of each run are where it does not.
        split = (_np.diff(vpns) != 1) | (_np.diff(pfns) != 1)
        firsts = _np.flatnonzero(_np.concatenate(([count > 0], split)))
        lasts = _np.flatnonzero(_np.concatenate((split, [count > 0])))
        sentinel = _np.iinfo(_np.int64).min
        starts = _np.concatenate(([sentinel], vpns[firsts]))
        ends = _np.concatenate(([sentinel], vpns[lasts] + 1))
        shifts = _np.concatenate(([0], firsts - vpns[firsts]))
        frames = _np.append(pfns, -1)
        frames.flags.writeable = False
        return starts, ends, shifts, frames

    def state_dict(self):
        return {"entries": self._entries.copy()}

    def load_state_dict(self, state):
        # A rollback mostly loads the mapping the table already holds:
        # then what was derived from it stays current.
        if state["entries"] != self._entries:
            self._entries = state["entries"].copy()
            self._changed()


def kernel_va(paddr):
    """Kernel direct-map virtual address of a physical address."""
    return KERNEL_BASE + paddr


def kernel_pa(vaddr):
    """Physical address behind a kernel direct-map virtual address."""
    if vaddr < KERNEL_BASE:
        raise PageFault(vaddr, "not a kernel direct-map address: 0x%x" % vaddr)
    return vaddr - KERNEL_BASE
