"""Frozen snapshots of guest-program state.

Guest programs (``repro.workloads``) are third-party code: their
``state_dict()`` may alias live containers, and their
``load_state_dict()`` may keep what it is given. The epoch loop therefore
*freezes* each program's state to a pickle blob once per committed epoch
and *thaws* a fresh object only when rollback or replay loads it.
(Guest-VM state needs no freezing: ``GuestVM.state_dict()`` is already
an independent snapshot.)

States that refuse to pickle (a test double holding an open handle, say)
silently fall back to ``deepcopy`` so the contract stays "any state
deepcopy accepted before is still accepted".
"""

import copy
import pickle

_PROTOCOL = pickle.HIGHEST_PROTOCOL


def freeze_state(state):
    """Snapshot ``state`` into an opaque frozen form (cheap, immutable)."""
    try:
        return pickle.dumps(state, _PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError):
        return state if state is None else copy.deepcopy(state)


def thaw_state(frozen):
    """Materialize a fresh, independently mutable object from a freeze."""
    if isinstance(frozen, (bytes, bytearray)):
        return pickle.loads(frozen)
    return frozen if frozen is None else copy.deepcopy(frozen)
