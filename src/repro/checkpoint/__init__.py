"""Continuous checkpointing (Remus baseline + CRIMES optimizations).

The checkpointer maintains a *backup VM image* on the local host: after
each passed audit, the epoch's dirty pages are propagated primary→backup,
making the backup the most recent known-clean state (§4). Rollback restores
the primary from it. Four optimization levels reproduce the paper's
No-opt / Memcpy / Pre-map / Full comparison (§4.1, Figures 3 and 4).
"""

from repro.checkpoint.costmodel import CheckpointCostModel, OptimizationLevel
from repro.checkpoint.checkpointer import (
    Checkpointer,
    CheckpointReport,
    CopyFidelity,
)
from repro.checkpoint.snapshot import Checkpoint, CheckpointHistory
from repro.checkpoint.store import PageStore

__all__ = [
    "CheckpointCostModel",
    "OptimizationLevel",
    "Checkpointer",
    "CheckpointReport",
    "CopyFidelity",
    "Checkpoint",
    "CheckpointHistory",
    "PageStore",
]
