"""One guest address space: which guest addresses translate, and how a
range of guest-virtual bytes is read.

Live introspection (:class:`~repro.vmi.libvmi.VMIInstance`) and offline
forensics (:class:`~repro.forensics.dumps.MemoryDump`) read the same
attacker-controlled memory, so both follow the rule written here once
(:meth:`GuestAddressSpace.translate`). A space supplies six things, and
nothing else differs between the two:

* ``error`` — what a refusal raises (``IntrospectionError`` live,
  ``ForensicsError`` on a dump), never a guest fault;
* ``_page_table_of(pid)`` — ``pid``'s :class:`PageTable`, or None;
* ``frame_count`` — frames of guest-physical memory;
* ``read_pa(paddr, length)``;
* ``_read_frames(frames, offset, length)`` — the gather of a range whose
  pages sit on ``frames``, one page each;
* ``_charge_read(length)`` — the price of one logical read.
"""

import numpy as _np

from repro.errors import PageFault
from repro.guest.memory import PAGE_SIZE
from repro.guest.pagetable import KERNEL_BASE, kernel_pa

#: First page of the kernel direct map.
_KERNEL_VPN = KERNEL_BASE // PAGE_SIZE

#: The end of the 64-bit address space: no VA at or above it translates.
_VA_LIMIT = 1 << 64


class GuestAddressSpace:
    """Translation and reads of guest-virtual addresses."""

    def translate(self, vaddr, pid=0):
        """VA -> PA. ``pid=0`` means kernel address space.

        ``pid=0`` or an address at or above ``KERNEL_BASE`` goes through
        the kernel direct map; anything else through ``pid``'s page
        table. An address with no translation — at or past 2^64 (a guest
        ``addr + size`` that overflowed), below the direct map in kernel
        space, unmapped, or of an unknown pid — raises :attr:`error`
        (LibVMI's ``VMI_FAILURE``): such addresses come from guest
        memory, so a reader must see a failed read, not a guest fault.
        """
        if vaddr >= _VA_LIMIT:
            raise self.error(
                "address 0x%x is past the 64-bit address space" % vaddr)
        try:
            if pid == 0 or vaddr >= KERNEL_BASE:
                return kernel_pa(vaddr)
            page_table = self._page_table_of(pid)
            if page_table is None:
                raise self.error(
                    "cannot translate user address for unknown pid %d" % pid
                )
            return page_table.translate(vaddr)
        except PageFault as err:
            raise self.error(str(err)) from err

    def translate_pages(self, vpns, pid=0):
        """Frame number of each page of ``vpns`` under :meth:`translate`.

        The bulk form of ``translate(vpn * PAGE_SIZE, pid) // PAGE_SIZE``
        over an integer array, with its address rules; -1 marks a page
        that ``translate`` would refuse. Uncharged, like ``translate``.
        """
        vpns = _np.asarray(vpns, dtype=_np.int64)
        kernel = vpns >= _KERNEL_VPN
        page_table = None if pid == 0 else self._page_table_of(pid)
        user = _np.full(len(vpns), -1, dtype=_np.int64) \
            if page_table is None else page_table.frames_of(vpns)
        return _np.where(kernel, vpns - _KERNEL_VPN, user)

    def translate_ranges(self, first, last, pid=0):
        """Where the pages of each range ``[first[i], last[i]]`` lie:
        the rule every read of guest-virtual bytes follows, in bulk over
        int64 VPN arrays with ``last >= first``. Uncharged, like
        :meth:`translate`.

        Returns ``(frames, flat, lo, hi)``:

        * ``frames`` — the frame of page ``first``
          (:meth:`translate_pages`, -1 where it is refused);
        * ``flat`` — every page translates, onto adjacent frames that all
          lie in RAM, so the range is one slice of RAM from ``frames``;
        * ``lo``, ``hi`` — the frames the range's pages map to, as the
          slots ``[lo, hi)`` of :meth:`slot_frames`: for a kernel range
          its direct-map frames in RAM, for a user range its mapped pages
          below the direct map (no process maps pages up to it).
        """
        first = _np.asarray(first, dtype=_np.int64)
        last = _np.asarray(last, dtype=_np.int64)
        frame_count = self.frame_count
        frames = self.translate_pages(first, pid)
        kernel = first >= _KERNEL_VPN
        page_table = None if pid == 0 else self._page_table_of(pid)
        if page_table is None:
            below = above = _np.zeros(len(first), dtype=_np.int64)
            contiguous = _np.zeros(len(first), dtype=bool)
        else:
            # User pages lie below the direct map; kernel rows, which the
            # direct map answers below, look up a placeholder range.
            top = _np.minimum(last, _KERNEL_VPN - 1)
            below, above, contiguous = page_table.ranges(
                _np.minimum(first, top), top)
            contiguous &= last == top
        flat = _np.where(kernel, last - _KERNEL_VPN < frame_count,
                         contiguous & (frames + (last - first) < frame_count))
        lo = _np.where(kernel, _np.minimum(first - _KERNEL_VPN, frame_count),
                       frame_count + below)
        hi = _np.where(kernel, _np.minimum(last - _KERNEL_VPN + 1, frame_count),
                       frame_count + above)
        return frames, flat, lo, hi

    def slot_frames(self, pid=0):
        """The frame behind each slot of :meth:`translate_ranges`' bounds.

        Slots ``[0, frame_count)`` are the frames of RAM themselves, as
        the direct map reaches them; slot ``frame_count + r`` is the
        frame of ``pid``'s mapped user page of rank ``r`` (in VPN order),
        which may lie past RAM. So a range's frames are one run of slots
        even where its pages sit on frames that are not adjacent.
        """
        page_table = None if pid == 0 else self._page_table_of(pid)
        user = _np.empty(0, dtype=_np.int64) if page_table is None \
            else page_table.mapped_frames()
        return _np.concatenate((_np.arange(self.frame_count), user))

    def read_va(self, vaddr, length, pid=0):
        """Read ``length`` bytes at ``vaddr``, each page through its own
        translation.

        A process's consecutive pages need not sit on adjacent frames
        (frames freed by an exited process are handed out again in
        reverse), so a user read that crosses a page boundary follows
        :meth:`translate_ranges`. Every page is translated first, with
        :meth:`translate`'s rules, so an untranslatable page raises
        :attr:`error` before anything is read or charged. The read is
        then one logical read, priced as one :meth:`read_pa` of
        ``length`` bytes — which it is when the range is flat; a
        scattered user range is gathered from each page's own frame.
        """
        paddr = self.translate(vaddr, pid)
        offset = paddr % PAGE_SIZE
        if offset + length <= PAGE_SIZE:
            return self.read_pa(paddr, length)
        if vaddr + length > _VA_LIMIT:
            raise self.error(
                "read of %d bytes at 0x%x runs past the 64-bit address space"
                % (length, vaddr))
        if pid == 0 or vaddr >= KERNEL_BASE:
            # The direct map is linear: every page translates in line.
            return self.read_pa(paddr, length)
        first = vaddr // PAGE_SIZE
        last = (vaddr + length - 1) // PAGE_SIZE
        _frames, flat, lo, hi = (int(column[0]) for column in
                                 self.translate_ranges([first], [last], pid))
        if flat:
            return self.read_pa(paddr, length)
        if hi - lo != last - first + 1:
            raise self.error(
                "user range [0x%x, +%d) of pid %d is not mapped throughout"
                % (vaddr, length, pid))
        self._charge_read(length)
        return self._read_frames(self.slot_frames(pid)[lo:hi], offset,
                                 length)
