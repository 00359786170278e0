"""Time-travel forensics over the checkpoint history (§3.1).

"CRIMES could be extended to include a history of checkpoints that would
facilitate forensic analysis." With a :class:`CheckpointHistory` ring
populated (``CrimesConfig(history_capacity=N)``), an investigator can ask
*when* an indicator first appeared: this module runs a predicate over the
retained checkpoints — linear sweep or bisection — and returns the first
compromised one, bounding the compromise instant between two checkpoints.
"""

from repro.errors import ForensicsError
from repro.forensics.dumps import MemoryDump


class CompromiseWindow:
    """Result of an indicator search over the history."""

    __slots__ = ("first_bad", "last_clean", "checkpoints_examined")

    def __init__(self, first_bad, last_clean, checkpoints_examined):
        self.first_bad = first_bad
        self.last_clean = last_clean
        self.checkpoints_examined = checkpoints_examined

    @property
    def bounded(self):
        return self.first_bad is not None and self.last_clean is not None

    def window_ms(self):
        """Width of the interval the compromise is pinned into."""
        if not self.bounded:
            raise ForensicsError("compromise window is not bounded")
        return self.first_bad.taken_at - self.last_clean.taken_at

    def __repr__(self):
        if self.first_bad is None:
            return "CompromiseWindow(clean history)"
        if self.last_clean is None:
            return "CompromiseWindow(compromised before history begins)"
        return "CompromiseWindow(%.1f ms between epochs %d and %d)" % (
            self.window_ms(),
            self.last_clean.epoch,
            self.first_bad.epoch,
        )


class TimeTravelInvestigator:
    """Search a checkpoint history for the first compromised state."""

    def __init__(self, vm, history):
        self.vm = vm
        self.history = history

    def _dump(self, checkpoint):
        return MemoryDump.of_guest(self.vm, checkpoint.memory_image,
                                   checkpoint.guest_state,
                                   checkpoint.taken_at, checkpoint.label)

    def find_first_compromised(self, indicator, bisect=True):
        """Locate the earliest retained checkpoint where ``indicator``
        holds.

        ``indicator(dump) -> bool`` is any predicate over a memory dump
        (typically wrapping a Volatility plugin). With ``bisect=True``
        the indicator is assumed monotonic (once compromised, stays
        compromised) and the search costs O(log n) dump analyses.
        """
        checkpoints = self.history.all()
        if not checkpoints:
            raise ForensicsError("checkpoint history is empty")
        examined = 0

        if not bisect:
            last_clean = None
            for checkpoint in checkpoints:
                examined += 1
                if indicator(self._dump(checkpoint)):
                    return CompromiseWindow(checkpoint, last_clean, examined)
                last_clean = checkpoint
            return CompromiseWindow(None, last_clean, examined)

        low, high = 0, len(checkpoints) - 1
        examined += 1
        if not indicator(self._dump(checkpoints[high])):
            return CompromiseWindow(None, checkpoints[high], examined)
        examined += 1
        if indicator(self._dump(checkpoints[low])):
            # Compromised at the oldest retained checkpoint already.
            return CompromiseWindow(checkpoints[low], None, examined)
        while high - low > 1:
            middle = (low + high) // 2
            examined += 1
            if indicator(self._dump(checkpoints[middle])):
                high = middle
            else:
                low = middle
        return CompromiseWindow(checkpoints[high], checkpoints[low],
                                examined)
