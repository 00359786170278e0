"""Stack-frame canaries (StackGuard-style tripwires, §3.2).

The paper's guest-aided modules "place canaries after objects in the
stack or heap". :class:`StackGuard` manages a descending stack of frames,
planting a canary at the top of each frame's local-variable area — the
classic StackGuard position between the locals and the saved return
address. Frame canaries are recorded in the *same* hypervisor-readable
table as heap canaries, so the existing
:class:`~repro.detectors.canary.CanaryScanModule` covers stack smashes
with no changes.

Unlike compiler-inserted stack protection, which only checks the canary
in the function epilogue, the hypervisor scan catches the smash at the
next epoch boundary even if the attacked function never returns.
"""

from repro.errors import AllocationError, GuestFault
from repro.guest.heap import CANARY_SIZE

_FRAME_ALIGNMENT = 16


class StackGuard:
    """Descending-stack frame manager with per-frame canaries."""

    def __init__(self, stack_base, stack_top, registry):
        self.stack_base = stack_base    # lowest valid address
        self.stack_top = stack_top      # initial stack pointer
        self.registry = registry        # the process's CanaryHeap table
        self._sp = stack_top
        self._frames = []               # (locals_base, locals_size)

    @property
    def stack_pointer(self):
        return self._sp

    @property
    def depth(self):
        return len(self._frames)

    def push_frame(self, locals_size):
        """Enter a function: reserve locals + canary; returns locals base.

        Layout (descending): ... | canary | locals | <- new sp
        The canary sits immediately *above* the locals, where a linear
        overflow of a local buffer hits it before the return address.
        """
        if locals_size <= 0:
            raise AllocationError("frame size must be positive")
        footprint = locals_size + CANARY_SIZE
        footprint = (footprint + _FRAME_ALIGNMENT - 1) // _FRAME_ALIGNMENT \
            * _FRAME_ALIGNMENT
        new_sp = self._sp - footprint
        if new_sp < self.stack_base:
            raise AllocationError(
                "stack overflow: frame of %d bytes does not fit" % locals_size
            )
        locals_base = new_sp
        self.registry.register_canary(locals_base, locals_size)
        self._sp = new_sp
        self._frames.append((locals_base, locals_size, footprint))
        return locals_base

    def pop_frame(self):
        """Leave a function: epilogue canary check, then release."""
        if not self._frames:
            raise GuestFault("pop_frame on an empty stack")
        locals_base, locals_size, footprint = self._frames.pop()
        self._sp += footprint
        try:
            self.registry.unregister_canary(locals_base, locals_size)
        except GuestFault:
            raise GuestFault(
                "stack smashing detected in frame at 0x%x" % locals_base
            ) from None

    def abandon_frame(self):
        """Pop bookkeeping without the epilogue check (exploited path).

        Models control flow that never executes the instrumented
        epilogue — the case where only the hypervisor scan catches the
        smash. The canary stays registered (and corrupted) in the table.
        """
        if not self._frames:
            raise GuestFault("abandon_frame on an empty stack")
        _base, _size, footprint = self._frames.pop()
        self._sp += footprint

    def state_dict(self):
        return {"sp": self._sp, "frames": list(self._frames)}

    def load_state_dict(self, state):
        self._sp = state["sp"]
        self._frames = [tuple(frame) for frame in state["frames"]]
