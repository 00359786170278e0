"""Checkpoint objects and the (optional) checkpoint history.

The base system keeps exactly one backup — the most recent clean state —
doubling the VM's memory cost, as the paper notes. §3.1 suggests a history
of checkpoints as an extension to aid forensics; :class:`CheckpointHistory`
implements that extension with a bounded ring.

The ring keeps no image of its own: it is anchored on the checkpointer's
live backup. Each commit hands it an *undo record* — ``(pfns, refs)``,
the backup's references (slab slots or store keys) to the pre-commit
contents of the frames the commit replaced — which it attaches to the
previous entry. The newest entry's image is the live
backup; an older entry's image is the live backup with the newer
entries' undo records applied, newest first. Recording a checkpoint is
therefore O(dirty pages) in time and space, a full ``memory_image`` is
reconstructed lazily (and cached) only when a forensic consumer actually
reads it, and evicting the oldest entry just drops its undo record. The
backup owns the page format and counts the pages (slab slots or
page-store keys); the ring only orders the records and asks the backup
to apply or drop them.
"""

import weakref
from collections import deque

from repro.errors import CheckpointError
from repro.guest.vm import copy_state


class Checkpoint:
    """One immutable checkpoint: epoch metadata + full guest state.

    ``memory_image`` is either the full image bytes handed to the
    constructor, or — for history entries — reconstructed on first
    access by the owning history and cached. ``history`` is the weak
    reference the history shares among its entries, so the ring is no
    reference cycle. The guest state is held by reference (the checkpointer's committed
    backup state, which nothing mutates) and copied on every read.
    """

    __slots__ = ("epoch", "taken_at", "_guest_state", "dirty_pages", "label",
                 "_image", "_history")

    def __init__(self, epoch, taken_at, memory_image, guest_state,
                 dirty_pages=0, label="", history=None):
        self.epoch = epoch
        self.taken_at = taken_at
        self._image = memory_image
        self._history = history
        self._guest_state = guest_state
        self.dirty_pages = dirty_pages
        self.label = label

    @property
    def guest_state(self):
        """A fresh copy of the guest state, free to mutate or load."""
        return copy_state(self._guest_state)

    @property
    def memory_image(self):
        if self._image is None and self._history is not None:
            history = self._history()
            if history is None:
                raise CheckpointError(
                    "checkpoint %r outlived its history before its image "
                    "was materialized" % (self,))
            self._image = history._materialize(self)
        return self._image

    @property
    def materialized(self):
        """Whether the full image is resident (history entries: once read)."""
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


class CheckpointHistory:
    """A bounded ring of past checkpoints (newest last), undo-encoded."""

    def __init__(self, capacity=1):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        # Entries are [checkpoint, undo]; ``undo`` turns the next entry's
        # image into this one's (None on the newest entry, or when the
        # next commit changed no frame).
        self._entries = deque()
        # The live backup the newest entry's image equals; it owns the
        # page format of every undo record.
        self._backup = None
        self.total_recorded = 0
        # Every entry's way back here, for lazy materialization: one weak
        # reference, so the ring (and the backup it holds) is no cycle.
        self._ref = weakref.ref(self)

    # -- recording ---------------------------------------------------------

    def record(self, backup, undo, epoch, taken_at, guest_state,
               dirty_pages=0, label=""):
        """Record the committed epoch whose image ``backup`` now holds.

        ``undo`` is that commit's undo record (None if it wrote no
        frame); it restores the previous entry's image, so it is
        attached there. Returns the lazy :class:`Checkpoint`.
        """
        self._backup = backup
        if self._entries:
            self._entries[-1][1] = undo
        elif undo is not None:
            backup.drop(undo[1])
        checkpoint = Checkpoint(
            epoch=epoch, taken_at=taken_at, memory_image=None,
            guest_state=guest_state, dirty_pages=dirty_pages, label=label,
            history=self._ref,
        )
        self._entries.append([checkpoint, None])
        self.total_recorded += 1
        while len(self._entries) > self.capacity:
            self._evict_oldest()
        return checkpoint

    def _evict_oldest(self):
        _checkpoint, undo = self._entries.popleft()
        if undo is not None:
            self._backup.drop(undo[1])

    def clear(self):
        """Drop every entry and its undo record (tenant eviction)."""
        while self._entries:
            self._evict_oldest()

    # -- reconstruction ----------------------------------------------------

    def _materialize(self, checkpoint):
        """Rebuild one entry's image: the live backup, undone newest first."""
        entries = list(self._entries)
        for target, (candidate, _undo) in enumerate(entries):
            if candidate is checkpoint:
                break
        else:
            raise CheckpointError(
                "checkpoint %r was evicted from the history before its "
                "image was materialized; it can no longer be reconstructed"
                % (checkpoint,)
            )
        image = bytearray(self._backup.materialize())
        for _candidate, undo in reversed(entries[target:-1]):
            if undo is not None:
                self._backup.apply_undo(image, undo)
        return bytes(image)

    # -- access ------------------------------------------------------------

    def latest(self):
        return self._entries[-1][0] if self._entries else None

    def all(self):
        return [entry[0] for entry in self._entries]

    def delta_pages_retained(self):
        """Total pages held in undo records (the ring's real footprint)."""
        return sum(
            len(entry[1][0]) for entry in self._entries
            if entry[1] is not None
        )

    def __len__(self):
        return len(self._entries)
