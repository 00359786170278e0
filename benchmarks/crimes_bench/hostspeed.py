"""Host speed, sampled right next to the work it normalizes.

The host this benchmark was calibrated on shares its CPUs with other
tenants: the same Python code runs up to 1.7x slower for stretches of
seconds to minutes. The workloads therefore time a fixed kernel next to
the work — after every epoch or fleet round, before and after the case
service's load — and report each time scaled by
``REFERENCE_S / kernel time`` around it: the time the work would have
taken with the host at its reference speed. Raw wall times are reported
next to the scaled ones.

The kernel is an interpreter loop plus an allocation-heavy pickle round
trip: of the candidates tried on the calibration host (numpy arithmetic,
random gathers, byte copies, sha256 as well), that pair tracked the
epoch loop's slowdowns most closely. It runs with the garbage collector
paused and frees everything it allocates, so it leaves the collector's
state as it found it.
"""

import gc
import pickle
import time

#: Median kernel time on the calibration host (2 vCPUs, Python 3.11).
REFERENCE_S = 0.0015

#: Samples on each side of an operation that its speed estimate uses.
WINDOW = 4

_RECORDS = {index: (index, str(index)) for index in range(2000)}
_PICKLED = pickle.dumps(_RECORDS)


def kernel():
    """Run the fixed kernel once; returns its wall time in seconds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        acc = 0
        for value in range(6000):
            acc = (acc * 31 + value) & 0xFFFFFFFF
        pickle.loads(_PICKLED)
        pickle.dumps(_RECORDS)
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class SpeedTrace:
    """Kernel times, sampled once per operation (or around a phase)."""

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.append(kernel())

    def factors(self):
        """Per-sample ``REFERENCE_S / local kernel time`` (running median)."""
        samples = self.samples
        out = []
        for index in range(len(samples)):
            window = sorted(samples[max(0, index - WINDOW):index + WINDOW + 1])
            out.append(REFERENCE_S / window[len(window) // 2])
        return out

    def normalize(self, durations):
        """``durations[i]`` (seconds) scaled to the reference host speed."""
        return [duration * factor
                for duration, factor in zip(durations, self.factors())]

    def scale(self):
        """One ``REFERENCE_S / median kernel time`` for the whole trace."""
        ordered = sorted(self.samples)
        return REFERENCE_S / ordered[len(ordered) // 2]

    def summary(self):
        """Median and extremes of the kernel time, in milliseconds."""
        ordered = sorted(self.samples)
        return {"kernel_p50_ms": ordered[len(ordered) // 2] * 1000.0,
                "kernel_min_ms": ordered[0] * 1000.0,
                "kernel_max_ms": ordered[-1] * 1000.0}


def factor_now(samples=3):
    """``REFERENCE_S / kernel time`` from a few samples taken now."""
    times = sorted(kernel() for _ in range(samples))
    return REFERENCE_S / times[len(times) // 2]
