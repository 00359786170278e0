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
translation, the dirty filter over numpy arrays, one gather of the
canary values, and one bulk charge per run of canaries between two
freed-region checks. An entry whose address does not translate (the
table is guest memory, so it may be hostile) is skipped, like an
unmapped page.
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
        the frame array. So it cannot move virtual time; the charged
        reads then run for exactly the entries — in exactly the table
        order — a per-entry ``translate`` + read loop would have read.
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
        if not self.scan_all_pages and context.dirty_pfns is not None:
            dirty = context.dirty_pfns
            dirty_arr = _np.fromiter(dirty, dtype=_np.int64,
                                     count=len(dirty))
            hit = _np.isin(pfns, dirty_arr)
            # A freed region can span pages: re-check the misses whose
            # physical range covers more than the probe page. The guest
            # writes ``size``; no frame past RAM can be dirty, so clamping
            # it to the RAM size keeps the selection and the int64 math.
            offsets = (probe_va & (PAGE_SIZE - 1)).astype(_np.int64)
            spans_bytes = _np.minimum(sizes, vmi.vm.memory.size)
            last_pfns = pfns + ((offsets + spans_bytes.astype(_np.int64)
                                 - 1) >> _PAGE_SHIFT)
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
        # The physical address each selected entry's check starts at.
        sel_pas = (pfns[sel] * PAGE_SIZE
                   + (probe_va[sel].astype(_np.int64) & (PAGE_SIZE - 1)))
        can_mask = is_canary[sel]
        pas = sel_pas[can_mask]
        memory = vmi.vm.memory
        if len(pas) and int(pas.max()) + 8 > memory.size:
            # Degenerate gather (a canary hangs off the end of RAM):
            # really read entry by entry, so the failing read raises at
            # exactly its turn.
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
        # Gather every checked live-object canary in one vectorized read
        # up front: the domain stays paused for the whole audit, so the
        # bytes cannot change before each entry's turn in the charge
        # order below. Each run of canaries between two freed-region
        # checks is then one bulk charge, so the loop visits the (much
        # rarer) freed checks only and the charges keep the table order.
        ram = _np.frombuffer(memory.view(), dtype=_np.uint8)
        values = (ram[pas[:, None] + _np.arange(8)]
                  .copy().view("<u8").ravel())
        found = []  # (position in sel, finding): sorted to table order
        start = 0
        for pos in _np.flatnonzero(~can_mask).tolist():
            if pos > start:
                self._charge_canaries(vmi, pos - start)
            start = pos + 1
            i = sel[pos]
            finding = self._validate_freed(context, pid, int(addrs[i]),
                                           int(sizes[i]), int(sel_pas[pos]))
            if finding is not None:
                found.append((pos, finding))
        if len(sel) > start:
            self._charge_canaries(vmi, len(sel) - start)
        bad = values != expected
        for pos, value in zip(_np.flatnonzero(can_mask)[bad].tolist(),
                              values[bad].tolist()):
            i = sel[pos]
            found.append((pos, self._canary_finding(
                pid, int(addrs[i]), int(sizes[i]), expected, value,
                int(sel_pas[pos]))))
        found.sort(key=lambda item: item[0])
        findings.extend(finding for _pos, finding in found)

    def _charge_canaries(self, vmi, count):
        """Charge ``count`` canary validations and count them.

        A faulted read raises after the validations before it were
        charged; those still count as checked.
        """
        try:
            vmi.charge_canary_reads(count)
        except IntrospectionError as err:
            self.canaries_checked += err.reads_done
            raise
        self.canaries_checked += count

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
        # common) intact region never pays the per-byte Python loop below.
        if data.count(FREED_FILL_BYTE) == len(data):
            return None
        for offset, value in enumerate(data):
            if value != FREED_FILL_BYTE:
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
        return None

    def replay_targets(self, finding):
        """Physical address to write-trap when replaying this finding."""
        if finding.kind not in ("buffer-overflow", "use-after-free"):
            return []
        return [finding.details["canary_pa"]]
