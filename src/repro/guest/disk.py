"""Guest-local disk image (the §3.1 disk-snapshot extension).

The base paper checkpoints CPU and memory and notes the design "can
easily be extended to include disk snapshots as well". This module adds
a block store whose contents participate in the guest's state_dict —
so checkpoints capture it and rollback reverts attacker tampering with
on-disk data, not just memory.

Writes still flow through the device's output sink as before (the
buffered "external write" the paper holds back); the image is the
guest-visible view.
"""

from repro.errors import GuestFault

BLOCK_SIZE = 4096


class BlockStore:
    """A sparse block device image."""

    def __init__(self, block_count):
        if block_count <= 0:
            raise GuestFault("disk must have at least one block")
        self.block_count = block_count
        self._blocks = {}  # index -> bytes (missing = zero block)

    def _check(self, index):
        if not 0 <= index < self.block_count:
            raise GuestFault(
                "block %d outside disk of %d blocks" % (index, self.block_count)
            )

    def read_block(self, index):
        self._check(index)
        return self._blocks.get(index, b"\x00" * BLOCK_SIZE)

    def write_block(self, index, data):
        self._check(index)
        if len(data) > BLOCK_SIZE:
            raise GuestFault(
                "block write of %d bytes exceeds block size %d"
                % (len(data), BLOCK_SIZE)
            )
        self._blocks[index] = bytes(data).ljust(BLOCK_SIZE, b"\x00")

    def blocks_in_use(self):
        return len(self._blocks)

    def state_dict(self):
        # Blocks are immutable ``bytes``: a snapshot shares them and
        # copies only the index map.
        return {"block_count": self.block_count,
                "blocks": self._blocks.copy()}

    def load_state_dict(self, state):
        self.block_count = state["block_count"]
        self._blocks = state["blocks"].copy()
