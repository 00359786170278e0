"""Base class for guest programs driven by the epoch loop."""

from repro.errors import CrimesError


class GuestProgram:
    """Something executing inside a guest VM, one epoch at a time.

    Lifecycle: :meth:`bind` attaches the program to a VM; the epoch loop
    calls :meth:`step` during each speculative interval and
    :meth:`on_epoch_end` after each committed epoch. Programs must be
    *deterministic given their state*: replay restores ``state_dict()``
    from the clean checkpoint and calls :meth:`step` again, expecting the
    identical stores.
    """

    name = "program"

    def __init__(self):
        self.vm = None

    def bind(self, vm):
        self.vm = vm

    def _require_bound(self):
        if self.vm is None:
            raise CrimesError("program %r not bound to a VM" % self.name)

    def step(self, start_ms, interval_ms):
        """Run one speculative interval.

        Returns a report dict; recognized keys:

        * ``synthetic_dirty`` — dirty pages modeled but not physically
          written (bulk benchmark traffic).
        """
        raise NotImplementedError

    def on_epoch_end(self, record):
        """Called after a committed epoch with its :class:`EpochRecord`."""

    @property
    def finished(self):
        """True when the program has no more work (benchmarks terminate)."""
        return False

    def state_dict(self):
        """Plain data capturing everything :meth:`step` depends on.

        The framework never holds the returned object: it freezes it
        (one pickle; ``deepcopy`` if it will not pickle) after every
        committed epoch, so it may alias live containers, and on
        rollback or replay it thaws a fresh copy for
        :meth:`load_state_dict`, which may keep it as is.
        """
        return {}

    def load_state_dict(self, state):
        pass
