"""The checkpointer: Remus's pipeline with CRIMES's optimizations.

Per epoch it (1) harvests the dirty bitmap, (2) maps the dirty frames into
its Dom0 address space, (3) propagates their contents into the backup VM
image, and (4) reports the virtual-time cost of each phase. The backup is
only advanced when the caller *commits* — i.e. after the security audit
passes — so it is always the most recent known-clean state.

The backup has two formats, chosen once in ``start()``: a private slab of
page rows behind a frame->slot index (:class:`_FlatBackup`) or one key
per frame in a shared, deduplicating
:class:`~repro.checkpoint.store.PageStore` (:class:`_StoreBackup`). Both
stage, commit, restore and hand the checkpoint history its undo records
(see :mod:`repro.checkpoint.snapshot`) behind the same methods, so the
checkpointer itself never branches on the format. An undo record has one
shape in both: ``(pfns, refs)``, where a ref is a slab slot or a store
key that still holds the frame's previous contents.

Two fidelity modes:

* ``FULL`` — dirty page bytes are really copied; rollback restores them.
  Used by the framework, case studies, and all functional tests.
* ``ACCOUNTING`` — only virtual-time costs are computed (the backup image
  is not maintained). Used by the large parameter-sweep benchmarks where
  the workload reports a synthetic dirty-page count instead of touching
  simulated RAM.
"""

import enum
import mmap

import numpy as _np

from repro.errors import CheckpointError, StoreIOError
from repro.faults.planes import FaultPlane
from repro.checkpoint.costmodel import (
    CheckpointCostModel,
    NOMINAL_FRAME_COUNT,
    OptimizationLevel,
)
from repro.checkpoint.snapshot import CheckpointHistory
from repro.guest.memory import PAGE_SIZE, frame_rows
from repro.guest.vm import GuestSnapshot, copy_state
from repro.obs.observer import Observer
from repro.obs.registry import DEFAULT_COUNT_BUCKETS


class CopyFidelity(enum.Enum):
    FULL = "full"
    ACCOUNTING = "accounting"


#: Frames a flat backup copies, diffs or gathers per block: 1 MiB of
#: rows on each side, so each block stays in cache and the block
#: buffers stay small whatever the frame count.
BLOCK_FRAMES = 256

#: One 4 KiB page as a single numpy element: comparing two row blocks
#: viewed as this compares whole pages, with no per-word temporary.
_PAGE = _np.dtype((_np.void, PAGE_SIZE))


class _FlatBackup:
    """The backup as a slab of page rows behind a frame->slot index.

    §2's second copy of RAM, with room for the history's undo pages: one
    private anonymous mapping reserves ``frames x (history capacity +
    1)`` rows, and only rows that were ever written become resident.
    ``_index[pfn]`` is the slot that holds frame ``pfn`` of the backup;
    the live image starts in the first ``frames`` slots, the only range
    advised for huge pages.

    Staging copies nothing (commit reads the paused guest's RAM view).
    Without a history, commit overwrites each dirty frame's slot in
    place. With one, it copies each dirty frame once into a free slot
    and re-points the index: the undo record is ``(pfns, slots)``, the
    slots the commit superseded, which still hold the previous image's
    rows. Dropping a record pushes its slots onto a LIFO free stack,
    and a commit takes slots from that stack before it touches a new
    row, so the touched rows are the most slots ever in use at once:
    RAM, the ring's undo pages and the epoch being committed.
    """

    def __init__(self, view, history_capacity):
        frames = len(view) // PAGE_SIZE
        image_bytes = frames * PAGE_SIZE
        # MAP_PRIVATE: a forked fleet worker copies the rows it writes
        # (the default anonymous mapping is shared). CPython adds
        # MAP_ANONYMOUS itself for fd -1.
        self._slab = mmap.mmap(-1, image_bytes * (history_capacity + 1),
                               flags=mmap.MAP_PRIVATE)
        if hasattr(mmap, "MADV_HUGEPAGE"):
            try:
                self._slab.madvise(mmap.MADV_HUGEPAGE, 0, image_bytes)
            except OSError:
                pass  # a kernel without transparent huge pages
        self._rows = frame_rows(self._slab)
        self._rows[:frames] = frame_rows(view)
        self._index = _np.arange(frames, dtype=_np.intp)
        # The free stack is _free[:_free_top]; no slot at or above _high
        # was ever written.
        self._free = _np.empty(frames * history_capacity, dtype=_np.intp)
        self._free_top = 0
        self._high = frames
        # Without a history every commit writes in place, so the index
        # stays the identity and the image is the slab's first rows.
        self._in_place = not history_capacity
        # Block buffers for commit's copy and restore's compare, kept for
        # the backup's life and touched only as far as a call needs them:
        # allocating them per call made the allocator trim and re-fault
        # them on every call.
        block = (min(frames, BLOCK_FRAMES), PAGE_SIZE // 8)
        self._gathered = _np.empty(block, dtype=_np.uint64)
        self._live = _np.empty(block, dtype=_np.uint64)

    def stage(self, view, pfns, held, phase_ms, injector):
        return None

    def _take(self, count):
        """``count`` free slots: the stack's top first, then fresh rows."""
        top = self._free_top
        reused = min(count, top)
        fresh = count - reused
        if self._high + fresh > len(self._rows):
            raise CheckpointError(
                "backup slab exhausted: %d slot(s) wanted, %d free, %d of "
                "%d rows touched" % (count, top, self._high, len(self._rows)))
        slots = _np.empty(count, dtype=_np.intp)
        slots[:reused] = self._free[top - reused:top]
        slots[reused:] = _np.arange(self._high, self._high + fresh)
        self._free_top = top - reused
        self._high += fresh
        return slots

    def _copy_in(self, slots, ram, pfns):
        """``rows[slots] = ram[pfns]``, one cache-sized block at a time.

        Each block is gathered into a buffer that stays in cache and
        scattered from there, so each page crosses memory once each way.
        ``pfns`` are harvested dirty frames, always in range, so the
        gather skips numpy's bounds-checked mode, which buffers its
        output.
        """
        for start in range(0, len(pfns), BLOCK_FRAMES):
            block = pfns[start:start + BLOCK_FRAMES]
            rows = self._gathered[:len(block)]
            _np.take(ram, block, axis=0, out=rows, mode="clip")
            self._rows[slots[start:start + BLOCK_FRAMES]] = rows

    def commit(self, pfns, view, staged, keep_undo):
        """Copy the staged frames into the backup; returns the undo."""
        if not pfns:
            return None
        idx = _np.asarray(pfns, dtype=_np.intp)
        ram = frame_rows(view)
        if not keep_undo:
            self._copy_in(self._index[idx], ram, idx)
            return None
        slots = self._take(len(idx))
        self._copy_in(slots, ram, idx)
        superseded = self._index[idx]
        self._index[idx] = slots
        return idx, superseded

    def apply_undo(self, image, undo):
        pfns, slots = undo
        frame_rows(image)[pfns] = self._rows[slots]

    def drop(self, slots):
        """Return an undo record's slots to the free stack."""
        if slots is not None:
            top = self._free_top
            self._free[top:top + len(slots)] = slots
            self._free_top = top + len(slots)

    def release(self):
        pass  # no shared references: the slab goes with the backup

    def restore(self, candidates, ram_view, memory):
        """Write back the candidate frames that differ; returns how many.

        The candidates are walked in blocks of ``BLOCK_FRAMES``: each
        block gathers its backup rows through the index and its RAM rows
        into the block buffers, compares them page by page, and scatters
        the differing backup rows back with one untracked
        ``load_frames`` call. The candidates are frames of RAM, so the
        gathers skip the checked mode as commit's do. The numpy view of
        ``ram_view`` is dropped before returning, so the caller may
        release it.
        """
        idx = _np.fromiter(candidates, dtype=_np.intp, count=len(candidates))
        slots = self._index[idx]
        ram = frame_rows(ram_view)
        differing = 0
        try:
            for start in range(0, len(idx), BLOCK_FRAMES):
                block = idx[start:start + BLOCK_FRAMES]
                count = len(block)
                rows = self._gathered[:count]
                live = self._live[:count]
                _np.take(self._rows, slots[start:start + BLOCK_FRAMES],
                         axis=0, out=rows, mode="clip")
                _np.take(ram, block, axis=0, out=live, mode="clip")
                changed = live.view(_PAGE).ravel() != rows.view(_PAGE).ravel()
                changes = int(_np.count_nonzero(changed))
                if changes:
                    memory.load_frames(block[changed], rows[changed])
                    differing += changes
        finally:
            del ram
        return differing

    def materialize(self):
        """The backup image as bytes, joined from per-block gathers."""
        index = self._index
        if self._in_place:
            return self._slab[:len(index) * PAGE_SIZE]
        return b"".join(
            self._rows[index[start:start + BLOCK_FRAMES]]
            for start in range(0, len(index), BLOCK_FRAMES))

    def retained_bytes(self):
        """The slab's touched rows: the live image, undo and free slots."""
        return self._high * PAGE_SIZE


class _StoreBackup:
    """The backup as one :class:`PageStore` key per frame, deduped.

    §2's 2x-memory cost becomes the store's deduped (and budgeted)
    resident set. Every key of the backup, of its staged epoch (a key
    list parallel to the staged pfns) and of its undo records (``(pfns,
    keys)``) is one store reference owned by ``owner``.
    """

    def __init__(self, store, owner, view):
        self._store = store
        self._owner = owner
        self._keys = [key for _pfn, key in store.ingest_frames(
            view, range(len(view) // PAGE_SIZE), owner)]

    def stage(self, view, pfns, held, phase_ms, injector):
        """Hash the staged frames into the store (one ref each).

        Backoff charged by a faulted spill op lands on the ``copy``
        phase. A held predecessor's keys are superseded by the merged
        restage (which re-hashed the pfn union at current contents) and
        are released whether or not it succeeds; a :class:`StoreIOError`
        (the disk tier failed dedup verification) leaves no reference of
        this stage behind either.
        """
        store = self._store
        try:
            return [key for _pfn, key in store.ingest_frames(
                view, pfns, self._owner, injector=injector)]
        finally:
            phase_ms["copy"] += store.take_backoff_ms()
            self.drop(held)

    def commit(self, pfns, view, staged, keep_undo):
        """Move each staging reference into the backup.

        The superseded references move into the undo record (or are
        released when nothing keeps it): a fault-free commit neither
        copies page bytes nor retains a page.
        """
        keys = self._keys
        superseded = [keys[pfn] for pfn in pfns]
        for pfn, key in zip(pfns, staged):
            keys[pfn] = key
        if keep_undo:
            return (pfns, superseded)
        self.drop(superseded)
        return None

    def apply_undo(self, image, undo):
        store = self._store
        for pfn, key in zip(*undo):
            start = pfn * PAGE_SIZE
            image[start:start + PAGE_SIZE] = store.get(key, promote=False)

    def drop(self, keys):
        if keys:
            self._store.release_many(keys, self._owner)

    def release(self):
        """Return the backup's references (after its undo records)."""
        self.drop(self._keys)
        self._keys = None

    def restore(self, candidates, ram_view, memory):
        """Write back the candidate frames that differ; returns how many.

        No LRU promotion and no fault probes — rollback *is* the
        escalation path, so the seam it recovers from must not be able
        to block it.
        """
        store = self._store
        keys = self._keys
        differing = 0
        for pfn in candidates:
            start = pfn * PAGE_SIZE
            backup_page = store.get(keys[pfn], promote=False)
            if ram_view[start:start + PAGE_SIZE] != backup_page:
                differing += 1
                memory.write_frame(pfn, backup_page, notify=False)
        return differing

    def materialize(self):
        return self._store.materialize(self._keys)

    def retained_bytes(self):
        """0: the pages live in the host's shared store, counted there."""
        return 0


class CheckpointReport:
    """Per-epoch result: dirty counts and per-phase virtual-time costs."""

    __slots__ = ("epoch", "real_dirty", "synthetic_dirty", "phase_ms",
                 "scan_stats")

    def __init__(self, epoch, real_dirty, synthetic_dirty, phase_ms, scan_stats):
        self.epoch = epoch
        self.real_dirty = real_dirty
        self.synthetic_dirty = synthetic_dirty
        self.phase_ms = phase_ms
        self.scan_stats = scan_stats

    @property
    def dirty_pages(self):
        return self.real_dirty + self.synthetic_dirty

    @property
    def total_ms(self):
        return sum(self.phase_ms.values())

    def __repr__(self):
        return "CheckpointReport(epoch=%d, dirty=%d, total=%.3fms)" % (
            self.epoch,
            self.dirty_pages,
            self.total_ms,
        )


class Checkpointer:
    """Continuous checkpointing for one domain."""

    def __init__(self, domain, level=OptimizationLevel.FULL, cost_model=None,
                 fidelity=CopyFidelity.FULL, remote=False,
                 nominal_frames=NOMINAL_FRAME_COUNT, history_capacity=0,
                 observer=None, injector=None, store=None, owner=None):
        self.domain = domain
        if observer is None:
            observer = Observer(domain.vm.clock)
        self._flight = observer.flight
        self._injector = injector
        self.level = level
        self.costs = cost_model if cost_model is not None else CheckpointCostModel()
        self.fidelity = fidelity
        self.remote = remote
        self.nominal_frames = max(nominal_frames, domain.vm.memory.frame_count)
        self.mapping = domain.new_mapping_table()
        #: Optional content-addressed page store (usually shared by every
        #: tenant on a CloudHost). When set, the backup and the history's
        #: undo records hold refcounted page keys instead of flat byte
        #: copies — same semantics, deduped bytes.
        self.store = store
        self.owner = owner if owner is not None else domain.vm.name
        self.history = CheckpointHistory(history_capacity)
        registry = observer.registry
        self._phase_hists = {
            phase: registry.histogram(
                "checkpoint.%s_ms" % phase,
                help="per-epoch %s phase cost" % phase)
            for phase in ("bitscan", "map", "copy")
        }
        self._dirty_hist = registry.histogram(
            "checkpoint.dirty_pages", buckets=DEFAULT_COUNT_BUCKETS,
            help="dirty pages staged per epoch")
        self._flight.bind_counter("epoch.commit", registry.counter(
            "checkpoint.commits", help="staged epochs committed"))
        self._flight.bind_counter("epoch.abort", registry.counter(
            "checkpoint.aborts", help="staged epochs dropped on attack"))
        self._pages_copied = registry.counter(
            "checkpoint.pages_copied", help="real dirty pages staged")
        self._copy_retries = registry.counter(
            "checkpoint.copy_retries",
            help="staging memcpy attempts redone after a copy fault")
        self._sync_retries = registry.counter(
            "checkpoint.sync_retries",
            help="backup synchronizations retried after a sync fault")

        self.epoch = 0
        self.started = False
        self.init_cost_ms = 0.0
        #: Backoff charged by the most recent commit()'s sync retries —
        #: readable even when commit() raised (the caller still owes the
        #: virtual time the failed retries consumed).
        self.last_sync_backoff_ms = 0.0

        # The backup image: a _FlatBackup or _StoreBackup from start(),
        # None in ACCOUNTING fidelity.
        self._backup = None
        # The backup's guest state: the ``vm.state_dict()`` staged with
        # it, kept as is — that dict shares nothing mutable with the
        # live guest (see GuestVM.state_dict). Rollback loads it, which
        # copies; it is copied only where it leaves the checkpointer.
        self._backup_state = None
        self._backup_taken_at = None
        self._pending = None  # staged epoch awaiting commit/abort
        # True when a staged epoch survived a failed backup sync: the
        # next run_checkpoint() merges into it instead of raising, and
        # commit() retries the whole accumulated delta.
        self._pending_held = False
        # Frames whose RAM content may differ from the backup: harvested
        # dirty sets that were aborted instead of committed. Together
        # with the live bitmap (and any staged pages) this bounds what a
        # rollback has to diff/restore — O(dirty) instead of O(RAM).
        self._dirty_since_backup = set()
        # Generation of untracked bulk loads at the last backup sync; if
        # it moves, incremental tracking is stale and rollback falls back
        # to a full-image diff.
        self._untracked_seen = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Enable log-dirty mode, build initial backup, pre-map if configured."""
        if self.started:
            raise CheckpointError("checkpointer already started")
        vm = self.domain.vm
        self.domain.enable_log_dirty()
        if self.level.use_premap:
            # Optimization 2: one global PFN->MFN mapping at start-up.
            self.mapping.map_all()
            self.init_cost_ms += self.costs.premap_init_ms(self.nominal_frames)
        if self.fidelity is CopyFidelity.FULL:
            view = vm.memory.view()
            try:
                # No injector here: fault planes arm per epoch, and no
                # epoch exists yet.
                if self.store is not None:
                    self._backup = _StoreBackup(self.store, self.owner, view)
                else:
                    self._backup = _FlatBackup(view, self.history.capacity)
            finally:
                view.release()
            self._backup_state = vm.state_dict()
            self._backup_taken_at = vm.clock.now
            # Initial full synchronization is a whole-VM copy.
            self.init_cost_ms += self.costs.copy_ms(
                vm.memory.frame_count, self.level, remote=self.remote
            )
        self.domain.dirty_bitmap.clear()
        self._dirty_since_backup = set()
        self._untracked_seen = vm.memory.untracked_loads
        self.started = True

    def stop(self):
        self.domain.disable_log_dirty()
        self.started = False

    # -- the per-epoch pipeline -------------------------------------------------

    def run_checkpoint(self, interval_ms, synthetic_dirty=0):
        """Execute bitscan/map/copy for the ending epoch; stage the result.

        The backup is *not* advanced yet: call :meth:`commit` once the
        security audit passes, or :meth:`abort` (before a rollback) if it
        fails. Returns a :class:`CheckpointReport` whose ``phase_ms`` has
        ``bitscan``, ``map`` and ``copy`` entries; the caller adds the
        suspend/vmi/resume phases it controls.
        """
        if not self.started:
            raise CheckpointError("checkpointer not started")
        held = None
        if self._pending is not None:
            if not self._pending_held:
                raise CheckpointError(
                    "epoch %d is still staged; commit() or abort() it first"
                    % self.epoch
                )
            # Degraded mode: a staged epoch survived a failed backup
            # sync. Merge it into this epoch's delta — the VM is paused
            # and both stage sets view the same live RAM, so the union
            # of pfns at current contents is exactly the state the
            # (eventually successful) sync must propagate.
            held, self._pending = self._pending, None
            self._pending_held = False
        self.epoch += 1

        injector = self._injector
        fault = (injector.check(FaultPlane.BITMAP_HARVEST)
                 if injector is not None else None)
        dirty_pfns, stats, harvest_backoff_ms = self.domain.harvest_dirty(
            self.level.use_wordscan, fault=fault, injector=injector
        )
        total_dirty = len(dirty_pfns) + synthetic_dirty

        phase_ms = {
            "bitscan": harvest_backoff_ms + self.costs.bitscan_ms(
                total_dirty, self.level, self.nominal_frames
            ),
            "map": self.costs.map_ms(total_dirty, self.level),
            "copy": self.costs.copy_ms(total_dirty, self.level, remote=self.remote),
        }
        if injector is not None:
            fault = injector.check(FaultPlane.CHECKPOINT_COPY)
            if fault is not None:
                outcome = injector.retry(fault, site="checkpoint-copy")
                if not outcome.success:
                    # The harvested frames never reached a staged copy;
                    # remember them so rollback still knows what to diff.
                    # A held epoch dies with this one: drop its refs.
                    self._dirty_since_backup.update(dirty_pfns)
                    if held is not None and held["pfns"] is not None:
                        self._dirty_since_backup.update(held["pfns"])
                        self._backup.drop(held["staged"])
                    self._copy_retries.inc(outcome.failed_attempts)
                    raise CheckpointError(
                        "checkpoint copy failed after %d attempt(s)"
                        % outcome.attempts
                    )
                # Each failed attempt redid the memcpy after a backoff.
                phase_ms["copy"] += outcome.backoff_ms + (
                    outcome.failed_attempts * phase_ms["copy"]
                )
                if outcome.failed_attempts:
                    self._copy_retries.inc(outcome.failed_attempts)

        if not self.level.use_premap:
            self.mapping.map_pages(dirty_pfns)
        staged_pfns = None
        staged_view = None
        staged = None
        if self.fidelity is CopyFidelity.FULL:
            # Fused harvest+stage: the harvest already walked the bitmap
            # once and produced the sorted dirty-frame list, so staging
            # is just that list plus one read-only view of RAM — no
            # per-frame slicing or copying at all. The domain stays
            # paused from here until commit()/abort(), so the view is
            # stable for the staging window. A store-backed backup hashes
            # the frames into the store here; a flat one copies nothing
            # until commit().
            if held is not None and held["pfns"] is not None:
                staged_pfns = sorted(set(dirty_pfns).union(held["pfns"]))
            else:
                staged_pfns = list(dirty_pfns)
            staged_view = self.domain.vm.memory.view()
            total_dirty = len(staged_pfns) + synthetic_dirty
            try:
                staged = self._backup.stage(
                    staged_view, staged_pfns,
                    held["staged"] if held is not None else None,
                    phase_ms, self._injector)
            except StoreIOError:
                # The disk tier failed dedup verification: the stage
                # aborts like an exhausted CHECKPOINT_COPY retry, and
                # the epoch loop escalates to a synchronous rollback.
                self._dirty_since_backup.update(staged_pfns)
                raise
        if not self.level.use_premap:
            self.mapping.unmap_pages(dirty_pfns)

        self._pending = {
            "pfns": staged_pfns,
            "view": staged_view,
            "staged": staged,
            "state": self.domain.vm.state_dict()
            if self.fidelity is CopyFidelity.FULL
            else None,
            "taken_at": self.domain.vm.clock.now,
            "dirty": total_dirty,
        }
        self._flight.record(
            "checkpoint.harvest", epoch=self.epoch,
            real_dirty=len(dirty_pfns), synthetic_dirty=synthetic_dirty,
        )
        for phase, hist in self._phase_hists.items():
            hist.observe(phase_ms[phase])
        self._dirty_hist.observe(total_dirty)
        self._pages_copied.inc(len(dirty_pfns))
        return CheckpointReport(
            self.epoch, len(dirty_pfns), synthetic_dirty, phase_ms, stats
        )

    def commit(self):
        """Advance the backup to the just-audited state (audit passed).

        Returns ``{"backoff_ms": ..., "retries": ...}`` describing any
        backup-sync retry work (zero in the fault-free path); the caller
        charges the backoff to virtual time. If a BACKUP_SYNC fault
        exhausts the retry budget, the staged epoch is *kept* (marked
        held, for the next ``run_checkpoint`` to merge into) and a
        :class:`CheckpointError` is raised — the epoch's outputs must
        stay in the buffer until a later sync lands the delta.
        """
        if self._pending is None:
            raise CheckpointError("no staged checkpoint to commit")
        sync = {"backoff_ms": 0.0, "retries": 0}
        self.last_sync_backoff_ms = 0.0
        injector = self._injector
        if injector is not None:
            fault = injector.check(FaultPlane.BACKUP_SYNC)
            if fault is not None:
                outcome = injector.retry(fault, site="backup-sync")
                sync["backoff_ms"] = outcome.backoff_ms
                sync["retries"] = outcome.failed_attempts
                self.last_sync_backoff_ms = outcome.backoff_ms
                if outcome.failed_attempts:
                    self._sync_retries.inc(outcome.failed_attempts)
                if not outcome.success:
                    self._pending_held = True
                    self._flight.record(
                        "checkpoint.sync_lost", epoch=self.epoch,
                        dirty_pages=self._pending["dirty"],
                        attempts=outcome.attempts,
                    )
                    raise CheckpointError(
                        "backup sync lost after %d attempt(s); epoch %d "
                        "held" % (outcome.attempts, self.epoch)
                    )
        pending, self._pending = self._pending, None
        self._pending_held = False
        self._flight.record("epoch.commit", epoch=self.epoch,
                            dirty_pages=pending["dirty"])
        if self.fidelity is CopyFidelity.FULL:
            pfns = pending["pfns"]
            self._backup_state = pending["state"]
            self._backup_taken_at = pending["taken_at"]
            history = self.history
            undo = self._backup.commit(pfns, pending["view"],
                                       pending["staged"], history.capacity)
            if history.capacity:
                # O(dirty) record: the previous entry keeps the undo
                # record, and a full image is reconstructed only if
                # forensics ever reads it.
                history.record(
                    self._backup, undo,
                    epoch=self.epoch,
                    taken_at=pending["taken_at"],
                    guest_state=self._backup_state,
                    dirty_pages=pending["dirty"],
                    label="epoch-%d" % self.epoch,
                )
            # The staged frames now match the backup again; anything
            # re-dirtied after staging is still in the live bitmap.
            if self._dirty_since_backup:
                self._dirty_since_backup.difference_update(pfns)
        return sync

    def abort(self):
        """Drop the staged epoch (audit failed); backup stays clean."""
        if self._pending is not None:
            self._flight.record("epoch.abort", epoch=self.epoch,
                                dirty_pages=self._pending["dirty"])
            staged = self._pending["pfns"]
            if staged is not None:
                # Those frames were harvested out of the bitmap but never
                # reached the backup: remember them for rollback's diff.
                self._dirty_since_backup.update(staged)
        self.release_staged_refs()
        self._pending = None
        self._pending_held = False

    # -- rollback and export -------------------------------------------------------

    def backup_snapshot(self):
        """The backup as a :class:`GuestSnapshot` (for dumps/forensics)."""
        if self.fidelity is not CopyFidelity.FULL:
            raise CheckpointError("no backup image in ACCOUNTING fidelity")
        return GuestSnapshot(
            memory_image=self._backup.materialize(),
            state=copy_state(self._backup_state),
            taken_at=self._backup_taken_at,
        )

    def _rollback_candidates(self):
        """Frames that could differ from the backup (reverse delta set).

        Every guest store since the last backup sync either sits in the
        live bitmap, was harvested into a staged-then-aborted epoch
        (``_dirty_since_backup``), or is currently staged. If log-dirty
        tracking was off at any point, or RAM took an untracked bulk load
        (e.g. ``vm.restore``), the incremental view is stale and the
        whole address space must be diffed, exactly as before.
        """
        memory = self.domain.vm.memory
        if (not self.domain.log_dirty_enabled
                or memory.untracked_loads != self._untracked_seen):
            return range(memory.frame_count)
        candidates = set(self._dirty_since_backup)
        live_dirty, _stats = self.domain.dirty_bitmap.scan_by_words()
        candidates.update(live_dirty)
        if self._pending is not None and self._pending["pfns"] is not None:
            candidates.update(self._pending["pfns"])
        return sorted(candidates)

    def rollback(self):
        """Restore the primary VM from the backup; returns the time cost.

        Only the frames written since the last commit are diffed and
        restored — the dirty sets harvested each epoch already name them
        — so rollback is O(dirty), not O(RAM). The ``differing`` count
        fed to the cost model is unchanged: frames outside the candidate
        set provably match the backup byte-for-byte.
        """
        if self.fidelity is not CopyFidelity.FULL:
            raise CheckpointError("cannot roll back in ACCOUNTING fidelity")
        vm = self.domain.vm
        memory = vm.memory
        candidates = self._rollback_candidates()
        # Count how many frames actually differ (that is what a real
        # restore would copy; also what the cost model prices).
        ram_view = memory.view()
        try:
            differing = self._backup.restore(candidates, ram_view, memory)
        finally:
            ram_view.release()
        # load_state_dict copies what it keeps: the backup state stays
        # intact for the next rollback.
        vm.load_state_dict(self._backup_state)
        self.domain.dirty_bitmap.clear()
        self.release_staged_refs()
        self._pending = None
        self._pending_held = False
        self._dirty_since_backup = set()
        self._untracked_seen = memory.untracked_loads
        self._flight.record("rollback", epoch=self.epoch,
                            restored_pages=differing,
                            backup_taken_at_ms=self._backup_taken_at)
        return self.costs.rollback_ms(differing)

    @property
    def backup_taken_at(self):
        return self._backup_taken_at

    #: Real dirty pages staged so far (the ``checkpoint.pages_copied``
    #: counter).
    total_pages_copied = property(lambda self: self._pages_copied.value)

    @property
    def staged_pfns(self):
        """Frames of the staged epoch (empty if none, or in ACCOUNTING)."""
        pending = self._pending
        if pending is None or pending["pfns"] is None:
            return ()
        return pending["pfns"]

    # -- store reference lifecycle ------------------------------------------

    def release_staged_refs(self):
        """Drop the store references held by a staged, uncommitted epoch.

        Idempotent — abort, rollback, quarantine and eviction can race
        to clean up the same staged epoch; the references drop once.
        """
        if self._pending is not None and self._pending["staged"]:
            self._backup.drop(self._pending["staged"])
            self._pending["staged"] = None

    def release_store_refs(self):
        """Return every store reference this tenant holds (eviction path).

        Order matters for another tenant's safety not at all — the
        store refcounts — but releasing staged refs first keeps the
        debug counters monotone: undo records and the backup follow. A
        flat tenant holds no store references; its undo records' slots
        go back to its slab's free stack.
        """
        self.release_staged_refs()
        if self._backup is not None:
            self.history.clear()
            self._backup.release()

    # -- accounting ----------------------------------------------------------

    def retained_bytes(self):
        """Bytes the checkpoint tier actually retains for this tenant.

        The single accounting definition ``memory_overhead_bytes()`` is
        built on: ACCOUNTING fidelity retains nothing (there is no
        backup image to count); a flat FULL tenant retains its slab's
        touched rows — the backup image, its history's undo pages and
        the free slots between them; a store-backed tenant's pages live
        in the host's shared store and are counted (deduped) there —
        reporting 0 here avoids double counting.
        """
        if self._backup is None:
            return 0
        return self._backup.retained_bytes()

    def history_stats(self):
        """Plain-data checkpoint-history state (for incident bundles)."""
        return {
            "epoch": self.epoch,
            "backup_taken_at_ms": self._backup_taken_at,
            "total_pages_copied": self.total_pages_copied,
            "fidelity": self.fidelity.value,
            "history": {
                "capacity": self.history.capacity,
                "entries": len(self.history),
                "total_recorded": self.history.total_recorded,
                "delta_pages_retained":
                    self.history.delta_pages_retained(),
                "epochs": [checkpoint.epoch
                           for checkpoint in self.history.all()],
            },
        }
