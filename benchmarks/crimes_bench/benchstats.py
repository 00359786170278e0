"""Order statistics the benchmark reports."""

import math


def percentile(samples, p):
    """The ``p``-th percentile (0..100) by linear interpolation.

    Matches ``statistics.median`` at p=50 and numpy's default method.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile %r outside [0, 100]" % p)
    ordered = sorted(samples)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def samples_beyond(count, p):
    """How many of ``count`` samples lie above the ``p``-th percentile."""
    return count - math.ceil(count * p / 100.0)


def percentile_supported(count, p):
    """True when ``count`` samples leave at least ten above ``p``.

    A tail percentile is only reported as such when at least ten samples
    lie beyond it; with fewer it is an anecdote about the largest few.
    """
    return samples_beyond(count, p) >= 10
