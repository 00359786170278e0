"""Checkpoint objects and the (optional) checkpoint history.

The base system keeps exactly one backup — the most recent clean state —
doubling the VM's memory cost, as the paper notes. §3.1 suggests a history
of checkpoints as an extension to aid forensics; :class:`CheckpointHistory`
implements that extension with a bounded ring.

The ring stores *deltas*, not full images: each committed epoch records
only its ``(pfn, page)`` dirty pages against the previous entry, over one
base image seeded when checkpointing starts. Recording a checkpoint is
therefore O(dirty pages) in time and space — the same trick the
checkpointer itself plays on the backup — and a full ``memory_image`` is
reconstructed lazily (and cached) only when a forensic consumer actually
reads it. Evicting the oldest entry folds its deltas into the base in
O(dirty) as well, so a full ring advances without ever copying RAM.
"""

from collections import deque

from repro.errors import CheckpointError, StoreError
from repro.guest.memory import PAGE_SIZE
from repro.guest.vm import copy_state


class Checkpoint:
    """One immutable checkpoint: epoch metadata + full guest state.

    ``memory_image`` is either the full image bytes handed to the
    constructor, or — for delta-recorded history entries — reconstructed
    on first access through the owning history's resolver and cached.
    The guest state is held by reference (the checkpointer's committed
    backup state, which nothing mutates) and copied on every read.
    """

    __slots__ = ("epoch", "taken_at", "_guest_state", "dirty_pages", "label",
                 "_image", "_resolver")

    def __init__(self, epoch, taken_at, memory_image, guest_state,
                 dirty_pages=0, label="", resolver=None):
        self.epoch = epoch
        self.taken_at = taken_at
        self._image = memory_image
        self._resolver = resolver
        self._guest_state = guest_state
        self.dirty_pages = dirty_pages
        self.label = label

    @property
    def guest_state(self):
        """A fresh copy of the guest state, free to mutate or load."""
        return copy_state(self._guest_state)

    @property
    def memory_image(self):
        if self._image is None and self._resolver is not None:
            self._image = self._resolver(self)
        return self._image

    @property
    def materialized(self):
        """Whether the full image is resident (False for lazy deltas)."""
        return self._image is not None

    @property
    def size_bytes(self):
        image = self.memory_image
        return len(image) if image is not None else 0

    def __repr__(self):
        return "Checkpoint(epoch=%d, t=%.2fms, label=%r)" % (
            self.epoch,
            self.taken_at,
            self.label,
        )


def _evicted_resolver(checkpoint):
    raise CheckpointError(
        "checkpoint %r was evicted from the history before its image was "
        "materialized; it can no longer be reconstructed" % (checkpoint,)
    )


class CheckpointHistory:
    """A bounded ring of past checkpoints (newest last), delta-encoded."""

    def __init__(self, capacity=1):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        # Entries are [checkpoint, deltas]; ``deltas`` is a list of
        # (pfn, page_bytes) against the previous entry, or None for a
        # full-image record (whose checkpoint carries its own image).
        self._entries = deque()
        self._base_image = None
        self.total_recorded = 0

    # -- recording ---------------------------------------------------------

    def set_base(self, image):
        """Seed the delta chain with the full image deltas apply against.

        The checkpointer calls this once at start-up with the initial
        backup image; every later :meth:`record_delta` is O(dirty).
        """
        self._base_image = bytearray(image)

    def record(self, checkpoint):
        """Record a full (self-contained) checkpoint."""
        if self.capacity == 0:
            return
        self._append([checkpoint, None])

    def record_delta(self, epoch, taken_at, deltas, guest_state,
                     dirty_pages=0, label=""):
        """Record one committed epoch as its dirty-page delta.

        ``deltas`` is an iterable of ``(pfn, page)`` pairs (page buffers
        are copied here, so zero-copy staging views are safe to pass).
        Returns the lazy :class:`Checkpoint`, or None when disabled.
        """
        if self.capacity == 0:
            return None
        if self._base_image is None and not self._entries:
            raise CheckpointError(
                "delta history has no base image; call set_base() first "
                "or record() a full checkpoint"
            )
        checkpoint = Checkpoint(
            epoch=epoch,
            taken_at=taken_at,
            memory_image=None,
            guest_state=guest_state,
            dirty_pages=dirty_pages,
            label=label,
            resolver=self._materialize,
        )
        pages = [(pfn, bytes(page)) for pfn, page in deltas]
        self._append([checkpoint, pages])
        return checkpoint

    def _append(self, entry):
        self._entries.append(entry)
        self.total_recorded += 1
        while len(self._entries) > self.capacity:
            self._evict()

    def _evict(self):
        """Drop the oldest entry, folding its delta into the base image."""
        checkpoint, deltas = self._entries.popleft()
        if deltas is None:
            # A full record is its own base for whatever follows it.
            self._base_image = bytearray(checkpoint.memory_image)
        elif self._base_image is not None:
            base = self._base_image
            for pfn, page in deltas:
                start = pfn * PAGE_SIZE
                base[start : start + PAGE_SIZE] = page
        if not checkpoint.materialized:
            checkpoint._resolver = _evicted_resolver

    # -- reconstruction ----------------------------------------------------

    def _materialize(self, checkpoint):
        """Rebuild one entry's full image: nearest snapshot + deltas."""
        entries = list(self._entries)
        target = None
        for index, (candidate, _deltas) in enumerate(entries):
            if candidate is checkpoint:
                target = index
                break
        if target is None:
            raise CheckpointError(
                "checkpoint %r is no longer in the history" % (checkpoint,)
            )
        # Walk back to the nearest materialized image at or before the
        # target; everything between replays forward as O(dirty) deltas.
        start = -1
        image = None
        for index in range(target, -1, -1):
            candidate, _deltas = entries[index]
            if candidate.materialized:
                image = bytearray(candidate.memory_image)
                start = index
                break
        if image is None:
            if self._base_image is None:
                raise CheckpointError(
                    "history has no base image to reconstruct from"
                )
            image = bytearray(self._base_image)
        for index in range(start + 1, target + 1):
            _candidate, deltas = entries[index]
            if deltas is None:
                continue
            for pfn, page in deltas:
                offset = pfn * PAGE_SIZE
                image[offset : offset + PAGE_SIZE] = page
        return bytes(image)

    # -- access ------------------------------------------------------------

    def latest(self):
        return self._entries[-1][0] if self._entries else None

    def all(self):
        return [entry[0] for entry in self._entries]

    def delta_pages_retained(self):
        """Total dirty pages stored as deltas (the ring's real footprint)."""
        return sum(
            len(entry[1]) for entry in self._entries if entry[1] is not None
        )

    def retained_bytes(self):
        """Private bytes the ring holds: base image + deltas + full records.

        Part of the single checkpoint-tier accounting definition: this
        is what the ring *itself* keeps resident, so a host can sum it
        with the backup images. (The store-backed subclass reports 0 —
        its pages live in the shared store and are attributed there.)
        """
        total = len(self._base_image) if self._base_image is not None else 0
        total += self.delta_pages_retained() * PAGE_SIZE
        for checkpoint, deltas in self._entries:
            if deltas is None and checkpoint.materialized:
                total += checkpoint.size_bytes
        return total

    def __len__(self):
        return len(self._entries)


class StoreBackedHistory(CheckpointHistory):
    """A delta ring whose pages live in a content-addressed store.

    Same shape as the parent — bounded ring, O(dirty) records, lazy
    materialization, fold-on-evict — but the base image and every delta
    hold *refcounted keys* into a shared
    :class:`~repro.checkpoint.store.PageStore` instead of private byte
    copies, so identical pages dedup across epochs and across every
    tenant on the host. Reference discipline: :meth:`set_base_keys` and
    :meth:`record_delta_keys` absorb one reference per key from the
    caller; folding an evicted delta transfers its reference into the
    base (releasing the superseded base page); :meth:`release_all`
    returns everything on tenant eviction.
    """

    def __init__(self, capacity, store, owner):
        super().__init__(capacity)
        self._store = store
        self._owner = owner
        self._base_keys = None

    # -- recording ---------------------------------------------------------

    def set_base(self, image):
        raise StoreError(
            "a store-backed history takes page keys, not images; use "
            "set_base_keys()"
        )

    def set_base_keys(self, keys):
        """Seed the chain with per-frame store keys (refs absorbed)."""
        self._base_keys = list(keys)

    def record_delta(self, epoch, taken_at, deltas, guest_state,
                     dirty_pages=0, label=""):
        raise StoreError(
            "a store-backed history takes page keys, not page bytes; use "
            "record_delta_keys()"
        )

    def record_delta_keys(self, epoch, taken_at, delta_keys, guest_state,
                          dirty_pages=0, label=""):
        """Record one committed epoch as ``[(pfn, key), ...]``.

        The caller's staging references are absorbed — on any return
        path (including capacity 0, where they are released outright)
        the caller no longer holds them.
        """
        delta_keys = list(delta_keys)
        if self.capacity == 0:
            self._store.release_many(
                [key for _pfn, key in delta_keys], self._owner)
            return None
        if self._base_keys is None and not self._entries:
            raise CheckpointError(
                "delta history has no base; call set_base_keys() first"
            )
        checkpoint = Checkpoint(
            epoch=epoch,
            taken_at=taken_at,
            memory_image=None,
            guest_state=guest_state,
            dirty_pages=dirty_pages,
            label=label,
            resolver=self._materialize,
        )
        self._append([checkpoint, delta_keys])
        return checkpoint

    def _evict(self):
        """Fold the oldest entry's keys into the base (refs transfer)."""
        checkpoint, deltas = self._entries.popleft()
        store = self._store
        if deltas is None:
            # A full record becomes the new base: ingest its image (the
            # pages are almost certainly dedup hits) and return every
            # old base reference.
            image = checkpoint.memory_image
            new_keys = [
                key for _pfn, key in store.ingest_frames(
                    memoryview(image), range(len(image) // PAGE_SIZE),
                    self._owner)
            ]
            if self._base_keys is not None:
                store.release_many(self._base_keys, self._owner)
            self._base_keys = new_keys
        elif self._base_keys is not None:
            base = self._base_keys
            for pfn, key in deltas:
                superseded = base[pfn]
                base[pfn] = key
                store.release(superseded, self._owner)
        if not checkpoint.materialized:
            checkpoint._resolver = _evicted_resolver

    # -- reconstruction ----------------------------------------------------

    def _materialize(self, checkpoint):
        """Rebuild one entry's image: nearest snapshot + store reads."""
        entries = list(self._entries)
        target = None
        for index, (candidate, _deltas) in enumerate(entries):
            if candidate is checkpoint:
                target = index
                break
        if target is None:
            raise CheckpointError(
                "checkpoint %r is no longer in the history" % (checkpoint,)
            )
        start = -1
        image = None
        for index in range(target, -1, -1):
            candidate, _deltas = entries[index]
            if candidate.materialized:
                image = bytearray(candidate.memory_image)
                start = index
                break
        store = self._store
        if image is None:
            if self._base_keys is None:
                raise CheckpointError(
                    "history has no base image to reconstruct from"
                )
            image = bytearray(store.materialize(self._base_keys))
        for index in range(start + 1, target + 1):
            _candidate, deltas = entries[index]
            if deltas is None:
                continue
            for pfn, key in deltas:
                offset = pfn * PAGE_SIZE
                image[offset:offset + PAGE_SIZE] = store.get(
                    key, promote=False)
        return bytes(image)

    # -- accounting / teardown ---------------------------------------------

    def retained_bytes(self):
        """0 by definition: the pages live in the shared store."""
        return 0

    def release_all(self):
        """Return every reference the ring holds (tenant eviction)."""
        store = self._store
        while self._entries:
            checkpoint, deltas = self._entries.popleft()
            if deltas is not None:
                store.release_many(
                    [key for _pfn, key in deltas], self._owner)
            if not checkpoint.materialized:
                checkpoint._resolver = _evicted_resolver
        if self._base_keys is not None:
            store.release_many(self._base_keys, self._owner)
            self._base_keys = None
