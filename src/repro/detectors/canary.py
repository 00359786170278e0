"""Guest-aided memory-error detection via heap tripwires (§4.2, §5.5).

The guest's malloc wrapper (``repro.guest.heap``) plants two kinds of
evidence, both published through a per-process lookup table the
hypervisor can read:

* an 8-byte random canary after every live object — a linear overflow
  clobbers it (the paper's buffer-overflow module);
* a DoubleTake-style poison fill over every freed object — a write
  through a dangling pointer disturbs it (use-after-free detection,
  from the DoubleTake lineage the paper builds on).

At the end of each epoch this module validates the tripwires whose pages
were dirtied during the epoch — the dirty-page filter is what makes the
scan cheap (§5.5: ≈90,000 canaries validated per millisecond). Every
table, however small, goes through one columnar pass: one bulk page
translation, the dirty filter over numpy arrays, one bulk charge for
every selected canary and freed region in table order, then one gather
of the canary values and one slice per freed region. An entry whose
address does not translate (the table is guest memory, so it may be
hostile) is skipped, like an unmapped page.
"""

import numpy as _np

from repro.detectors.base import Finding, ScanModule, Severity
from repro.errors import IntrospectionError
from repro.guest.heap import FREED_FILL_BYTE, KIND_CANARY, KIND_FREED
from repro.guest.memory import PAGE_SIZE

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1


class CanaryScanModule(ScanModule):
    """Validate heap/stack canaries and freed-region poison fills."""

    name = "canary"
    guest_aided = True

    def __init__(self, scan_all_pages=False, check_freed=True):
        #: When True, ignore the dirty filter and validate everything
        #: (used by tests and by replay-time verification).
        self.scan_all_pages = scan_all_pages
        #: Use-after-free checking can be disabled to measure its cost.
        self.check_freed = check_freed
        self.canaries_checked = 0
        self.freed_regions_checked = 0

    def scan(self, context):
        vmi = context.vmi
        findings = []
        try:
            directory = vmi.canary_directory()
        except IntrospectionError:
            return findings
        for pid, table_va in directory:
            try:
                expected, addrs, sizes, kinds = \
                    vmi.read_canary_table_slab(pid, table_va)
            except IntrospectionError:
                findings.append(
                    Finding(
                        self.name,
                        "table-corrupt",
                        Severity.CRITICAL,
                        "canary table of pid %d unreadable or corrupt" % pid,
                        {"pid": pid, "table_va": table_va},
                    )
                )
                continue
            self._scan_table_slab(context, pid, expected, addrs, sizes,
                                  kinds, findings)
        return findings

    # -- slab-driven filtering ---------------------------------------------

    def _scan_table_slab(self, context, pid, expected, addrs, sizes, kinds,
                         findings):
        """Filter one table's entries against the dirty set in bulk.

        The filter is uncharged host work: one
        :meth:`~repro.vmi.libvmi.VMIInstance.translate_pages` call maps
        every entry's probe page to its frame (-1 where ``translate``
        would refuse it: an unmapped or hostile address, whose entry is
        skipped; so is a canary whose ``addr + size`` wrapped past 2^64,
        which ``translate`` refuses too), and the dirty test runs over
        the frame array. So it cannot move virtual time; the charge then
        covers exactly the entries — in exactly the table order — a
        per-entry ``translate`` + read loop would have read, with the
        same read and check terms, fault probes and raise point.
        """
        vmi = context.vmi
        is_canary = kinds == KIND_CANARY
        is_freed = kinds == KIND_FREED
        # The probe address whose page gates the check: the canary byte
        # for live objects, the region start for freed objects (the same
        # VA a per-entry check translates first).
        probe_va = _np.where(is_canary, addrs + sizes, addrs)
        pfns = vmi.translate_pages(
            (probe_va >> _PAGE_SHIFT).astype(_np.int64), pid)
        checked = (is_canary | is_freed) if self.check_freed \
            else is_canary.copy()
        checked &= (pfns >= 0) & (probe_va >= addrs)
        if not self.scan_all_pages:
            # A freed region is checked when a frame of its physical range
            # [probe frame, last frame] is dirty: none for an empty region
            # at a page start, several for one that crosses a page
            # boundary. The guest writes ``size``; no frame past RAM can
            # be dirty, so clamping it to the RAM size keeps the selection
            # and the int64 math.
            offsets = (probe_va & (PAGE_SIZE - 1)).astype(_np.int64)
            spans_bytes = _np.minimum(sizes, vmi.vm.memory.size)
            last_pfns = pfns + ((offsets + spans_bytes.astype(_np.int64)
                                 - 1) >> _PAGE_SHIFT)
            checked &= ~is_freed | (last_pfns >= pfns)
        if not self.scan_all_pages and context.dirty_pfns is not None:
            dirty = context.dirty_pfns
            dirty_arr = _np.fromiter(dirty, dtype=_np.int64,
                                     count=len(dirty))
            hit = _np.isin(pfns, dirty_arr)
            # Re-check the freed misses whose range covers more than the
            # probe frame.
            spans = checked & is_freed & ~hit & (last_pfns > pfns)
            if spans.any():
                # Dirty frames in (probe frame, last frame] of each span.
                dirty_arr.sort()
                hit[spans] = (
                    _np.searchsorted(dirty_arr, last_pfns[spans], "right")
                    > _np.searchsorted(dirty_arr, pfns[spans], "right"))
            checked &= hit
        sel = _np.nonzero(checked)[0]
        if not len(sel):
            return
        # The physical address each selected entry's check starts at, and
        # the bytes it reads there: a canary's 8, a freed region's size.
        sel_pas = (pfns[sel] * PAGE_SIZE
                   + (probe_va[sel].astype(_np.int64) & (PAGE_SIZE - 1)))
        can_mask = is_canary[sel]
        sel_sizes = sizes[sel]
        lengths = _np.where(can_mask, 8, sel_sizes)
        memory = vmi.vm.memory
        # Clamped to one past RAM: still past its end, and int64-safe.
        ends = sel_pas + _np.minimum(lengths, memory.size + 1).astype(
            _np.int64)
        if int(ends.max()) > memory.size:
            # Degenerate table (a canary or freed region runs past the end
            # of RAM): really read entry by entry, so the failing read
            # raises at exactly its turn.
            for pos, i in enumerate(sel.tolist()):
                addr, size, pa = int(addrs[i]), int(sizes[i]), \
                    int(sel_pas[pos])
                if can_mask[pos]:
                    finding = self._validate_canary(context, pid, addr, size,
                                                    expected, pa)
                else:
                    finding = self._validate_freed(context, pid, addr, size,
                                                   pa)
                if finding is not None:
                    findings.append(finding)
            return
        # One charge for every selected entry, in table order. A faulted
        # read raises after the checks before it were charged; those
        # still count as checked.
        try:
            vmi.charge_canary_reads(sel_sizes, ~can_mask)
        except IntrospectionError as err:
            self._count_checked(can_mask[:err.reads_done])
            raise
        self._count_checked(can_mask)
        # The domain stays paused for the whole audit, so the bytes the
        # charge stands for are read straight from RAM afterwards: every
        # canary in one vectorized gather, each freed region as one slice.
        found = []  # (position in sel, finding): sorted to table order
        view = memory.view()
        freed = _np.flatnonzero(~can_mask)
        for pos, addr, size, pa in zip(freed.tolist(),
                                       addrs[sel[freed]].tolist(),
                                       sel_sizes[freed].tolist(),
                                       sel_pas[freed].tolist()):
            data = view[pa:pa + size].tobytes()
            if data.count(FREED_FILL_BYTE) != size:
                found.append((pos, self._freed_finding(pid, addr, size, pa,
                                                       data)))
        pas = sel_pas[can_mask]
        ram = _np.frombuffer(view, dtype=_np.uint8)
        values = (ram[pas[:, None] + _np.arange(8)]
                  .copy().view("<u8").ravel())
        bad = values != expected
        for pos, value in zip(_np.flatnonzero(can_mask)[bad].tolist(),
                              values[bad].tolist()):
            i = sel[pos]
            found.append((pos, self._canary_finding(
                pid, int(addrs[i]), int(sizes[i]), expected, value,
                int(sel_pas[pos]))))
        found.sort(key=lambda item: item[0])
        findings.extend(finding for _pos, finding in found)

    def _count_checked(self, can_mask):
        """Count the canaries and freed regions of checked entries."""
        canaries = int(can_mask.sum())
        self.canaries_checked += canaries
        self.freed_regions_checked += len(can_mask) - canaries

    # -- live-object canaries ----------------------------------------------

    def _validate_canary(self, context, pid, addr, size, expected, canary_pa):
        """The charged read + comparison for one dirty-page canary."""
        value = context.vmi.read_canary_value(pid, addr, size)
        self.canaries_checked += 1
        if value == expected:
            return None
        return self._canary_finding(pid, addr, size, expected, value,
                                    canary_pa)

    def _canary_finding(self, pid, addr, size, expected, value, canary_pa):
        return Finding(
            self.name,
            "buffer-overflow",
            Severity.CRITICAL,
            "canary after object 0x%x (pid %d) clobbered: %016x != %016x"
            % (addr, pid, value, expected),
            {
                "pid": pid,
                "object_addr": addr,
                "object_size": size,
                "canary_va": addr + size,
                "canary_pa": canary_pa,
                "expected": expected,
                "observed": value,
            },
        )

    # -- freed-region poison fills -------------------------------------------

    def _validate_freed(self, context, pid, addr, size, region_pa):
        """The charged read + poison check for one dirty freed region."""
        data = context.vmi.read_freed_region(pid, addr, size)
        self.freed_regions_checked += 1
        # Fast accept: bytes.count scans at C speed, so the (overwhelmingly
        # common) intact region never pays the per-byte search.
        if data.count(FREED_FILL_BYTE) == len(data):
            return None
        return self._freed_finding(pid, addr, size, region_pa, data)

    def _freed_finding(self, pid, addr, size, region_pa, data):
        """The finding for a freed region whose bytes ``data`` are not
        all :data:`FREED_FILL_BYTE`: it names the first written byte."""
        offset = next(offset for offset, value in enumerate(data)
                      if value != FREED_FILL_BYTE)
        value = data[offset]
        return Finding(
            self.name,
            "use-after-free",
            Severity.CRITICAL,
            "freed object 0x%x (pid %d) written after free: "
            "offset %d holds 0x%02x"
            % (addr, pid, offset, value),
            {
                "pid": pid,
                "object_addr": addr,
                "object_size": size,
                "write_offset": offset,
                "observed_byte": value,
                "canary_pa": region_pa + offset,
                "expected": None,
            },
        )

    def replay_targets(self, finding):
        """Physical address to write-trap when replaying this finding."""
        if finding.kind not in ("buffer-overflow", "use-after-free"):
            return []
        return [finding.details["canary_pa"]]
