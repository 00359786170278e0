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
table, however small, goes through one columnar pass: the dirty filter
over numpy arrays, one bulk charge for every selected canary and freed
region in table order, then one gather of the canary values and one
read per freed region. What the filter needs of each entry — where its
bytes are and which frames gate it — is derived once and kept across
epochs (:class:`_TableColumns`), refreshed only for the entries whose
bytes changed. An entry whose address does not translate (the table is
guest memory, so it may be hostile) is skipped, like an unmapped page.
"""

import numpy as _np

from repro.detectors.base import Finding, ScanModule, Severity
from repro.errors import IntrospectionError
from repro.guest.heap import FREED_FILL_BYTE, KIND_CANARY, KIND_FREED
from repro.guest.memory import PAGE_SIZE

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
#: One past the last page of the 64-bit address space.
_VPN_LIMIT = 1 << (64 - _PAGE_SHIFT)

# What checking an entry takes (the ``role`` column). The order makes a
# scan's eligibility one comparison, ``role < limit`` (see _limit).
_CANARY = 0        # a live object's canary, gated by its probe frame
_FREED = 1         # a freed region gated by its probe frame alone
_FREED_SPAN = 2    # a freed region whose pages reach more than one frame
_FREED_EMPTY = 3   # a size-0 freed region at a page start: no frame
_NOTHING = 4       # untranslatable probe, wrapped canary or unknown kind


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
        #: ``(vm, pid, table_va) -> _TableColumns`` for the directory rows
        #: of the last scan.
        self._tables = {}

    def scan(self, context):
        vmi = context.vmi
        findings = []
        try:
            directory = vmi.canary_directory()
        except IntrospectionError:
            return findings
        mask = None
        if not self.scan_all_pages and context.dirty_pfns is not None:
            mask = _frame_mask(vmi.vm.memory.frame_count, context.dirty_pfns)
        # Rows not seen in this scan are dropped, and with them the page
        # tables their mapping tokens hold.
        previous, self._tables = self._tables, {}
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
            key = (vmi.vm, pid, table_va)
            columns = previous.get(key)
            if columns is None or \
                    columns.mapping != vmi.mapping_token(pid):
                columns = _TableColumns(vmi, pid)
            columns.refresh(vmi, pid, addrs, sizes, kinds)
            self._tables[key] = columns
            self._scan_table_slab(context, pid, expected, addrs, sizes,
                                  kinds, columns, mask, findings)
        return findings

    # -- slab-driven filtering ---------------------------------------------

    def _limit(self):
        """The roles this scan checks are those below the limit."""
        if not self.check_freed:
            return _FREED
        return _NOTHING if self.scan_all_pages else _FREED_EMPTY

    def _scan_table_slab(self, context, pid, expected, addrs, sizes, kinds,
                         columns, mask, findings):
        """Filter one table's entries against the dirty set in bulk.

        The filter is uncharged host work over ``columns``: the role of
        each entry picks what this scan checks, one gather from the
        epoch's frame ``mask`` keeps the entries whose probe frame is
        dirty, and a binary search over the dirty slots keeps each wider
        freed region with a dirty frame among its pages. So it cannot move
        virtual time; the charge then covers exactly the entries — in
        exactly the table order — a per-entry ``translate`` + read loop
        would have read, with the same read and check terms, fault
        probes and raise point.
        """
        vmi = context.vmi
        n = len(addrs)
        role = columns.role[:n]
        checked = role < self._limit()
        if mask is not None:
            hit = mask[columns.gate[:n]]
            if self.check_freed:
                # A freed region whose probe frame is clean is still
                # checked when a frame of another of its pages is dirty.
                spans = _np.flatnonzero((role == _FREED_SPAN) & ~hit)
                if len(spans):
                    dirty = columns.dirty_slots(mask)
                    hit[spans] = (
                        _np.searchsorted(dirty, columns.hi[spans])
                        > _np.searchsorted(dirty, columns.lo[spans]))
            checked &= hit
        sel = _np.flatnonzero(checked)
        if not len(sel):
            return
        # The physical address each selected entry's check starts at.
        sel_pas = columns.pa[sel]
        can_mask = kinds[sel] == KIND_CANARY
        sel_sizes = sizes[sel]
        if not columns.flat[sel].all():
            # Degenerate table (some selected entry's bytes do not lie in
            # one slice of RAM: a page does not translate, the pages sit
            # on frames that are not adjacent, or the bytes run past the
            # end of RAM): really read entry by entry, each page through
            # its own translation, so a failing read raises at exactly
            # its turn.
            for pos, i in enumerate(sel.tolist()):
                addr, size, pa = int(addrs[i]), int(sizes[i]), \
                    int(sel_pas[pos])
                if can_mask[pos]:
                    finding = self._validate_canary(context, pid, addr, size,
                                                    expected, pa)
                else:
                    finding = self._validate_freed(context, pid, addr, size)
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
        view = vmi.vm.memory.view()
        freed = _np.flatnonzero(~can_mask)
        for pos, addr, size, pa in zip(freed.tolist(),
                                       addrs[sel[freed]].tolist(),
                                       sel_sizes[freed].tolist(),
                                       sel_pas[freed].tolist()):
            data = view[pa:pa + size].tobytes()
            if data.count(FREED_FILL_BYTE) != size:
                found.append((pos, self._freed_finding(vmi, pid, addr, size,
                                                       data)))
        # A canary is the little-endian join of the two RAM words it
        # overlaps: two gathers, not eight byte gathers per canary.
        words = _np.frombuffer(view, dtype="<u8")
        pas = sel_pas[can_mask]
        shift = ((pas & 7) << 3).astype(_np.uint64)
        low = words[pas >> 3] >> shift
        high = words[_np.minimum((pas >> 3) + 1, len(words) - 1)] \
            << (_np.uint64(64) - shift)
        values = _np.where(shift == 0, low, low | high)
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

    def _validate_freed(self, context, pid, addr, size):
        """The charged read + poison check for one dirty freed region."""
        data = context.vmi.read_freed_region(pid, addr, size)
        self.freed_regions_checked += 1
        # Fast accept: bytes.count scans at C speed, so the (overwhelmingly
        # common) intact region never pays the per-byte search.
        if data.count(FREED_FILL_BYTE) == len(data):
            return None
        return self._freed_finding(context.vmi, pid, addr, size, data)

    def _freed_finding(self, vmi, pid, addr, size, data):
        """The finding for a freed region whose bytes ``data`` are not
        all :data:`FREED_FILL_BYTE`: it names the first written byte, and
        its physical address through that byte's own page."""
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
                "canary_pa": vmi.translate(addr + offset, pid),
                "expected": None,
            },
        )

    def replay_targets(self, finding):
        """Physical address to write-trap when replaying this finding."""
        if finding.kind not in ("buffer-overflow", "use-after-free"):
            return []
        return [finding.details["canary_pa"]]


def _frame_mask(frame_count, dirty_pfns):
    """A boolean mask over the frames of RAM, True where dirty.

    One slot past RAM stays False: the gate of an entry whose probe
    frame is untranslatable or past RAM, which no dirty set can hold.
    """
    mask = _np.zeros(frame_count + 1, dtype=bool)
    frames = _np.fromiter(dirty_pfns, dtype=_np.int64, count=len(dirty_pfns))
    mask[frames[(frames >= 0) & (frames < frame_count)]] = True
    return mask


class _TableColumns:
    """What the filter needs of each entry of one table, kept across
    scans.

    Entry i's columns depend only on its ``(addr, size, kind)``, on how
    the process's user pages map (kernel pages go through the direct map)
    and on the RAM size. So :meth:`refresh` compares the entries each
    scan has just read with the ones the columns were derived from and
    derives again only those that changed or were appended; a guest
    store to the table, a rollback, a replay or a skipped epoch cannot
    leave a stale row, and nothing relies on the dirty log. The columns
    keep the VMI's mapping token they were derived under
    (:meth:`~repro.vmi.libvmi.VMIInstance.mapping_token`); once the
    process's token differs (a respawned or resurrected process, a page
    mapped or unmapped, a rollback to another mapping), the scan derives
    every entry again.

    The columns, per entry, from
    :meth:`~repro.vmi.libvmi.VMIInstance.translate_ranges` over the pages
    its check reads:

    * ``role`` — what checking it takes (``_CANARY`` ... ``_NOTHING``);
    * ``gate`` — its probe frame, the one the epoch's dirty mask is
      gathered at (the frame count where untranslatable or past RAM);
    * ``pa`` — the physical address its check starts at;
    * ``flat`` — whether the bytes it reads lie in one slice of RAM;
    * ``lo``, ``hi`` — the slots of the frames its pages map to.
    """

    _DERIVED = (("role", _np.int8), ("gate", _np.int64), ("pa", _np.int64),
                ("flat", bool), ("lo", _np.int64), ("hi", _np.int64))

    def __init__(self, vmi, pid):
        self.frame_count = vmi.vm.memory.frame_count
        #: The process's mapping token when the columns were derived.
        self.mapping = vmi.mapping_token(pid)
        #: Where the dirty mask is gathered for each slot (frames past
        #: RAM at the frame count, which no dirty set holds).
        self._slot_gates = _np.minimum(vmi.slot_frames(pid),
                                       self.frame_count)
        #: The entry columns as last read (views of that read's bytes).
        self.entries = None
        for name, dtype in self._DERIVED:
            setattr(self, name, _np.empty(0, dtype=dtype))

    def refresh(self, vmi, pid, addrs, sizes, kinds):
        """Bring the columns up to this scan's read of the table."""
        n = len(addrs)
        if self.entries is None:
            changed = slice(0, n)  # every row, without n indices
        else:
            old_addrs, old_sizes, old_kinds = self.entries
            common = min(n, len(old_addrs))
            diff = addrs[:common] != old_addrs[:common]
            diff |= sizes[:common] != old_sizes[:common]
            diff |= kinds[:common] != old_kinds[:common]
            changed = _np.flatnonzero(diff)
            if n > common:
                changed = _np.concatenate((changed, _np.arange(common, n)))
        if n > len(self.role):
            # Grow geometrically: a table gains a few entries an epoch.
            capacity = max(n, 2 * len(self.role))
            for name, dtype in self._DERIVED:
                grown = _np.empty(capacity, dtype=dtype)
                old = getattr(self, name)
                grown[:len(old)] = old
                setattr(self, name, grown)
        changed_addrs = addrs[changed]
        if len(changed_addrs):
            derived = self._derive(vmi, pid, changed_addrs, sizes[changed],
                                   kinds[changed])
            for (name, _dtype), values in zip(self._DERIVED, derived):
                getattr(self, name)[changed] = values
        self.entries = (addrs, sizes, kinds)

    def _derive(self, vmi, pid, addrs, sizes, kinds):
        """The derived columns of the entries ``(addrs, sizes, kinds)``."""
        frame_count = self.frame_count
        is_canary = kinds == KIND_CANARY
        is_freed = kinds == KIND_FREED
        # The probe address whose page gates the check: the canary byte
        # for live objects, the region start for freed objects (the same
        # VA a per-entry check translates first); then the pages of the
        # bytes read there, [first, last]. A read of 0 bytes still
        # translates its first page.
        probe = _np.where(is_canary, addrs + sizes, addrs)
        extent = _np.where(is_canary, _np.uint64(7),
                           _np.maximum(sizes, _np.uint64(1)) - _np.uint64(1))
        first = (probe >> _np.uint64(_PAGE_SHIFT)).astype(_np.int64)
        last = ((probe + extent) >> _np.uint64(_PAGE_SHIFT)).astype(_np.int64)
        last[extent > ~probe] = _VPN_LIMIT - 1  # the bytes run past 2^64
        offsets = (probe & _np.uint64(PAGE_SIZE - 1)).astype(_np.int64)
        pfns, flat, lo, hi = vmi.translate_ranges(first, last, pid)
        role = _np.full(len(first), _NOTHING, dtype=_np.int8)
        role[is_canary & (probe >= addrs) & (pfns >= 0)] = _CANARY
        freed = is_freed & (pfns >= 0)
        role[freed] = _FREED
        role[freed & (hi - lo > 1)] = _FREED_SPAN
        # A freed region covers the pages of [addr, addr + size - 1]:
        # none for a size-0 region at a page start.
        role[freed & (sizes == 0) & (offsets == 0)] = _FREED_EMPTY
        gate = _np.where((pfns >= 0) & (pfns < frame_count), pfns,
                         frame_count)
        pa = _np.where(pfns >= 0, pfns * PAGE_SIZE + offsets, -1)
        return role, gate, pa, flat, lo, hi

    def dirty_slots(self, mask):
        """The slots whose frame is dirty in ``mask``, in order."""
        return _np.flatnonzero(mask[self._slot_gates])
