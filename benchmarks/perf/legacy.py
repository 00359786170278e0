"""Seed-revision reference implementations for the wall-clock suite.

These reproduce the pre-optimization hot paths the delta-checkpoint /
zero-copy PR replaced:

* ``LegacyCheckpointer`` — the backup is its own seed-format bytearray
  (``SeedBackup``); commit() propagates staged pages into it with a
  per-page Python loop and, when history is enabled, appends a full
  ``bytes`` RAM image plus a deepcopy per committed epoch to its own
  bounded deque (``seed_history``); rollback()
  diffs every frame of RAM against the backup in a Python loop; staging
  copies each dirty frame with ``read_frame`` and deep-copies the guest
  state dict (the seed's per-epoch snapshot).
* ``LegacyWordBitmap`` — the seed's list-of-ints dirty bitmap with the
  per-word Python-loop scan and the tail filter.
* ``decode_scalar`` — the seed's field-at-a-time struct decoder, the
  reference the fused and columnar decoders are checked against.
* ``read_canary_table`` — the seed's dict canary-table reader: the same
  two logical reads as ``VMIInstance.read_canary_table_slab``, decoded one
  entry at a time with ``decode_scalar``.
* ``LegacyVMIInstance`` — VMI with the seed's per-field task-list walk.
* ``LegacyCanaryScanModule`` — the seed's per-entry canary scan: its own
  ``_check_canary``/``_check_freed`` translate, dirty-filter and read
  one entry at a time (one ``read_canary_value`` per canary).
* ``LegacyCrimes`` — the seed's deepcopy program snapshots.

The wall-clock benchmarks time these against the live implementations so
``BENCH_wallclock_substrate.json`` records a true before/after on the
same host. Virtual-time outputs are identical on both sides by
construction; only host time differs.
"""

import copy
from collections import deque

from repro.checkpoint.checkpointer import Checkpointer, CopyFidelity
from repro.checkpoint.snapshot import Checkpoint
from repro.errors import CheckpointError
from repro.guest.memory import PAGE_SIZE
from repro.hypervisor.dirty import ScanStats, WORD_BITS


class SeedBackup:
    """The seed's backup: one bytearray copy of RAM, written in place.

    ``LegacyCheckpointer`` reads and writes ``image`` itself; the methods
    are the few backup calls the shared epoch pipeline makes (staging,
    dropping references, export), so the reference never depends on the
    live backup's format.
    """

    def __init__(self, view):
        self.image = bytearray(view)

    def stage(self, view, pfns, held, phase_ms, injector):
        return None

    def drop(self, refs):
        pass

    def release(self):
        pass

    def materialize(self):
        return bytes(self.image)

    def retained_bytes(self):
        return len(self.image)


class LegacyCheckpointer(Checkpointer):
    """Checkpointer with the seed revision's O(RAM) commit/rollback.

    Its backup is a :class:`SeedBackup` built in ``start()``, which
    ``backup_snapshot()`` exports. A moving reference all the same: its
    staging deep-copies today's ``vm.state_dict()``, so its cost follows
    the current guest-state format, not the seed revision's. When the
    canary heap's state became one ``bytes`` mirror, its harvest+stage in
    the epoch-phases bench fell from 44.5-46.9 to 8.5-10.3 ms per epoch.
    A speedup against it is read beside each side's own samples in the
    BENCH files.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: The seed's history: eager full-image checkpoints, newest last.
        self.seed_history = deque(maxlen=self.history.capacity)

    def start(self):
        super().start()
        if self.fidelity is CopyFidelity.FULL:
            view = self.domain.vm.memory.view()
            try:
                self._backup = SeedBackup(view)
            finally:
                view.release()
            # The seed kept the backup guest state as a live deepcopy,
            # not a frozen blob.
            self._backup_state = copy.deepcopy(self.domain.vm.state_dict())

    def run_checkpoint(self, interval_ms, synthetic_dirty=0):
        # Re-stage with per-frame byte copies and a deepcopy of the
        # guest state (the seed's staging path).
        report = super().run_checkpoint(interval_ms,
                                        synthetic_dirty=synthetic_dirty)
        if self._pending is not None and self._pending["pfns"] is not None:
            memory = self.domain.vm.memory
            self._pending["pages"] = [
                (pfn, memory.read_frame(pfn))
                for pfn in self._pending["pfns"]
            ]
            self._pending["state"] = copy.deepcopy(
                self.domain.vm.state_dict()
            )
        return report

    def commit(self):
        if self._pending is None:
            raise CheckpointError("no staged checkpoint to commit")
        sync = {"backoff_ms": 0.0, "retries": 0}
        self.last_sync_backoff_ms = 0.0
        pending, self._pending = self._pending, None
        self._pending_held = False
        self._flight.record("epoch.commit", epoch=self.epoch,
                            dirty_pages=pending["dirty"])
        if self.fidelity is CopyFidelity.FULL:
            image = self._backup.image
            for pfn, data in pending["pages"]:
                start = pfn * PAGE_SIZE
                image[start : start + PAGE_SIZE] = data
            self._backup_state = pending["state"]
            self._backup_taken_at = pending["taken_at"]
            if self.history.capacity:
                self.seed_history.append(
                    Checkpoint(
                        epoch=self.epoch,
                        taken_at=pending["taken_at"],
                        memory_image=bytes(image),
                        guest_state=copy.deepcopy(self._backup_state),
                        dirty_pages=pending["dirty"],
                        label="epoch-%d" % self.epoch,
                    )
                )
        return sync

    def rollback(self):
        vm = self.domain.vm
        differing = 0
        image = self._backup.image
        for pfn in range(vm.memory.frame_count):
            start = pfn * PAGE_SIZE
            if vm.memory.read_frame(pfn) != bytes(
                    image[start : start + PAGE_SIZE]):
                differing += 1
        vm.memory.load_bytes(bytes(image))
        vm.load_state_dict(copy.deepcopy(self._backup_state))
        self.domain.dirty_bitmap.clear()
        self._pending = None
        self._dirty_since_backup = set()
        self._untracked_seen = vm.memory.untracked_loads
        return self.costs.rollback_ms(differing)


class LegacyWordBitmap:
    """The seed's dirty bitmap: a Python list of 64-bit words."""

    def __init__(self, frame_count):
        self.frame_count = frame_count
        self.word_count = (frame_count + WORD_BITS - 1) // WORD_BITS
        self._words = [0] * self.word_count
        self._dirty_count = 0

    def set(self, pfn):
        word, bit = divmod(pfn, WORD_BITS)
        mask = 1 << bit
        if not self._words[word] & mask:
            self._words[word] |= mask
            self._dirty_count += 1

    def set_many(self, pfns):
        for pfn in pfns:
            self.set(pfn)

    def clear(self):
        self._words = [0] * self.word_count
        self._dirty_count = 0

    def scan_by_words(self):
        dirty = []
        bits_visited = 0
        for word_index, word in enumerate(self._words):
            if word == 0:
                continue
            base = word_index * WORD_BITS
            bits_visited += WORD_BITS
            while word:
                low = word & -word
                dirty.append(base + low.bit_length() - 1)
                word ^= low
        dirty = [pfn for pfn in dirty if pfn < self.frame_count]
        stats = ScanStats(
            words_visited=self.word_count,
            bits_visited=bits_visited,
            dirty_found=len(dirty),
        )
        return dirty, stats

    def harvest(self, optimized=True):
        dirty, stats = self.scan_by_words()
        self.clear()
        return dirty, stats


# -- seed-revision epoch-pipeline references (phase-attribution bench) ----

from repro.core.crimes import Crimes  # noqa: E402
from repro.detectors.base import Finding, Severity  # noqa: E402
from repro.detectors.canary import CanaryScanModule, KIND_CANARY, \
    KIND_FREED  # noqa: E402
from repro.errors import IntrospectionError  # noqa: E402
from repro.guest.heap import CANARY_ENTRY, CANARY_TABLE_HEADER, \
    CANARY_TABLE_MAGIC  # noqa: E402
from repro.guest.layout import cstring  # noqa: E402
from repro.guest.pagetable import KERNEL_BASE  # noqa: E402
from repro.vmi.libvmi import VMIInstance, ProcessInfo  # noqa: E402
from repro.vmi.walk import MAX_NODES  # noqa: E402


def decode_scalar(layout, data, base=0):
    """Field-at-a-time decode of one ``layout`` record into a dict.

    The seed's ``StructDef.decode``: one ``unpack_from`` per field.
    """
    if len(data) - base < layout.size:
        raise IntrospectionError(
            "buffer too small for struct %s: need %d bytes, have %d"
            % (layout.name, layout.size, len(data) - base)
        )
    return {field.name: field.unpack_from(data, base)
            for field in layout.fields}


def read_canary_table(vmi, pid, table_va):
    """The seed's dict canary-table reader.

    Returns ``{"canary": value, "entries": [(addr, size, kind), ...]}``.
    Charges the same two logical reads as ``vmi.read_canary_table_slab``.
    """
    header = decode_scalar(
        CANARY_TABLE_HEADER,
        vmi.read_va(table_va, CANARY_TABLE_HEADER.size, pid=pid),
    )
    if header["magic"] != CANARY_TABLE_MAGIC:
        raise IntrospectionError(
            "bad canary-table magic for pid %d: 0x%x"
            % (pid, header["magic"])
        )
    entries = []
    cursor = table_va + CANARY_TABLE_HEADER.size
    raw = vmi.read_va(cursor, header["count"] * CANARY_ENTRY.size, pid=pid)
    for index in range(header["count"]):
        record = decode_scalar(CANARY_ENTRY, raw, index * CANARY_ENTRY.size)
        entries.append((record["addr"], record["size"], record["kind"]))
    return {"canary": header["canary"], "entries": entries}


class LegacyVMIInstance(VMIInstance):
    """VMI with the seed revision's per-field task-list walk.

    The seed's ``StructDef.decode`` was a per-field ``unpack_from`` loop
    (:func:`decode_scalar`); the override below replays the seed's exact
    call pattern so a timed scan pays the seed's host cost while
    charging the identical virtual time.
    """

    def _linux_task_list(self):
        layout = self.profile.struct("task_struct")
        head_va = self.lookup_symbol(self.profile.root_symbol("process_list"))
        processes = []
        current = head_va
        for _ in range(MAX_NODES):
            record = decode_scalar(layout, self.read_va(current, layout.size))
            self._charge_us(self.costs.PER_PROCESS_US)
            processes.append(
                ProcessInfo(
                    pid=record["pid"],
                    name=cstring(record["comm"]),
                    object_va=current,
                    uid=record["uid"],
                    state=record["state"],
                    start_time=record["start_time"],
                    kernel_thread=bool(record["flags"] & 0x2),
                )
            )
            current = record["tasks_next"]
            if current == head_va:
                return processes
            if current == 0:
                raise IntrospectionError("task list broken: NULL tasks_next")
        raise IntrospectionError("task list does not terminate")


class LegacyCanaryScanModule(CanaryScanModule):
    """The seed's canary scan: a per-entry Python filter, no slab pass."""

    def scan(self, context):
        vmi = context.vmi
        findings = []
        try:
            directory = vmi.canary_directory()
        except IntrospectionError:
            return findings
        for pid, table_va in directory:
            try:
                table = read_canary_table(vmi, pid, table_va)
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
            expected = table["canary"]
            for addr, size, kind in table["entries"]:
                if kind == KIND_CANARY:
                    finding = self._check_canary(
                        context, pid, addr, size, expected
                    )
                elif kind == KIND_FREED and self.check_freed:
                    finding = self._check_freed(context, pid, addr, size)
                else:
                    finding = None
                if finding is not None:
                    findings.append(finding)
        return findings

    def _check_canary(self, context, pid, addr, size, expected):
        vmi = context.vmi
        try:
            canary_pa = vmi.translate(addr + size, pid=pid)
        except IntrospectionError:
            return None
        if not self.scan_all_pages and not context.page_is_dirty(
            canary_pa // PAGE_SIZE
        ):
            return None
        return self._validate_canary(context, pid, addr, size, expected,
                                     canary_pa)

    def _check_freed(self, context, pid, addr, size):
        vmi = context.vmi
        try:
            vmi.translate(addr, pid=pid)
        except IntrospectionError:
            return None
        if not self.scan_all_pages:
            # Skip unless a frame the region's pages map to was dirtied
            # this epoch.
            if not any(context.page_is_dirty(pfn)
                       for pfn in _region_frames(vmi, pid, addr, size)):
                return None
        return self._validate_freed(context, pid, addr, size)


def _region_frames(vmi, pid, addr, size):
    """The frames the pages of ``[addr, addr + size - 1]`` map to.

    For a user region, those of its pages mapped below the kernel direct
    map, in page order; for a kernel region, its direct-map frames up to
    the end of RAM, at least the first (no frame past RAM is ever
    dirty, so none further can select it).
    """
    first = addr // PAGE_SIZE
    last = (addr + size - 1) // PAGE_SIZE
    if addr >= KERNEL_BASE:
        frame = first - KERNEL_BASE // PAGE_SIZE
        if last < first:
            return []
        stop = min(last - KERNEL_BASE // PAGE_SIZE + 1,
                   vmi.vm.memory.frame_count)
        return range(frame, max(stop, frame + 1))
    pages = vmi.vm.processes[pid].page_table
    top = min(last, KERNEL_BASE // PAGE_SIZE - 1)
    if top - first < 64:
        vpns = range(first, top + 1)
    else:
        # A wide (hostile) range: walk the mapped pages instead.
        vpns = [vpn for vpn in pages.mapped_vpns() if first <= vpn <= top]
    return [pages.frame_of(vpn * PAGE_SIZE) for vpn in vpns
            if pages.is_mapped(vpn * PAGE_SIZE)]


class LegacyCrimes(Crimes):
    """Crimes with the seed revision's deepcopy program snapshots."""

    def _snapshot_program_states(self):
        self._clean_program_states = [
            copy.deepcopy(program.state_dict()) for program in self.programs
        ]
