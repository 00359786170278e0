"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Every instrument is keyed on the *virtual* clock — the registry stamps
each update with ``clock.now`` so exported samples line up with the
simulated timeline rather than host wall time. Instruments are created
lazily and idempotently (``registry.counter("x")`` returns the same
object every call), which lets the epoch loop, checkpointer, detector,
and output buffer all write into one shared registry without any wiring
ceremony.

Histograms use fixed bucket upper bounds (Prometheus-style cumulative
buckets) so percentile estimates are cheap, mergeable, and bounded in
memory no matter how many epochs a run covers.
"""

import bisect
import math

from repro.errors import ObservabilityError

#: Default bucket upper bounds for millisecond-valued histograms. Spans
#: the microsecond-level phase costs (Table 3) up to multi-second pauses.
DEFAULT_MS_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)

#: Default bucket upper bounds for page/packet count histograms.
DEFAULT_COUNT_BUCKETS = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000,
)


class _Instrument:
    """Shared bookkeeping: name, help text, last-update virtual time."""

    kind = "abstract"

    def __init__(self, name, clock=None, help=""):
        self.name = name
        self.help = help
        self._clock = clock
        self.updated_at_ms = None


class Counter(_Instrument):
    """A monotonically increasing count (commits, findings, packets...)."""

    kind = "counter"

    def __init__(self, name, clock=None, help=""):
        super().__init__(name, clock=clock, help=help)
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ObservabilityError(
                "counter %r cannot decrease (inc by %r)" % (self.name, amount)
            )
        self.value += amount
        if self._clock is not None:
            self.updated_at_ms = self._clock.now
        return self.value

    def snapshot(self):
        return {"value": self.value, "updated_at_ms": self.updated_at_ms}


class Gauge(_Instrument):
    """A point-in-time value that can move both ways (detection lag...)."""

    kind = "gauge"

    def __init__(self, name, clock=None, help=""):
        super().__init__(name, clock=clock, help=help)
        self.value = None

    def set(self, value):
        self.value = value
        if self._clock is not None:
            self.updated_at_ms = self._clock.now
        return value

    def snapshot(self):
        return {"value": self.value, "updated_at_ms": self.updated_at_ms}


class Histogram(_Instrument):
    """Fixed-bucket histogram with percentile estimation.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``
    (non-cumulative storage; :meth:`percentile` accumulates). Anything
    above the last bound lands in the overflow bucket. NaN compares
    false against every bound, so it would land in the first bucket;
    no instrument observes NaN.
    """

    kind = "histogram"

    def __init__(self, name, buckets=DEFAULT_MS_BUCKETS, clock=None, help=""):
        super().__init__(name, clock=clock, help=help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ObservabilityError("histogram %r needs >= 1 bucket" % name)
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 overflow
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        value = float(value)
        self.count += 1
        self.sum += value
        # What min()/max() pick, NaN included: the bound moves only for
        # a value strictly past it.
        if self.min is None:
            self.min = self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        # The first bound >= value; len(buckets) is the overflow bucket.
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        if self._clock is not None:
            self.updated_at_ms = self._clock.now

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p):
        """Estimate the p-th percentile (0 <= p <= 100) from the buckets.

        Linear interpolation inside the winning bucket; observations in
        the overflow bucket report the observed maximum (the best bound
        we have). Degenerate cases are exact: an empty histogram returns
        None, a single-observation histogram returns that observation,
        p=0 returns the observed minimum. Out-of-range quantiles raise
        ValueError — a clamped estimate would silently misreport tails.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile %r outside [0, 100]" % p)
        if self.count == 0:
            return None
        if self.count == 1:
            return self.min
        if p == 0.0:
            return self.min
        rank = math.ceil(self.count * p / 100.0)
        seen = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                if index >= len(self.buckets):
                    return self.max
                hi = self.buckets[index]
                lo = self.buckets[index - 1] if index > 0 else min(
                    self.min if self.min is not None else 0.0, hi
                )
                fraction = (rank - seen) / float(bucket_count)
                return lo + (hi - lo) * fraction
            seen += bucket_count
        return self.max

    def snapshot(self):
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "buckets": {
                "le": list(self.buckets),
                "counts": list(self.bucket_counts),
            },
            "updated_at_ms": self.updated_at_ms,
        }


class MetricsRegistry:
    """One namespace of instruments, stamped on a shared virtual clock."""

    def __init__(self, clock=None):
        self.clock = clock
        self._instruments = {}

    def _get_or_create(self, cls, name, **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ObservabilityError(
                    "metric %r already registered as a %s, not a %s"
                    % (name, existing.kind, cls.kind)
                )
            return existing
        instrument = cls(name, clock=self.clock, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name, help=""):
        return self._get_or_create(Counter, name, help=help)

    def gauge(self, name, help=""):
        return self._get_or_create(Gauge, name, help=help)

    def histogram(self, name, buckets=DEFAULT_MS_BUCKETS, help=""):
        return self._get_or_create(Histogram, name, buckets=buckets,
                                   help=help)

    def get(self, name):
        try:
            return self._instruments[name]
        except KeyError:
            raise ObservabilityError("no metric named %r" % name) from None

    def __contains__(self, name):
        return name in self._instruments

    def __iter__(self):
        return iter(sorted(self._instruments.values(),
                           key=lambda inst: inst.name))

    def snapshot(self):
        """Plain-data export of every instrument, grouped by kind."""
        out = {"counters": {}, "gauges": {}, "histograms": {}}
        if self.clock is not None:
            out["virtual_time_ms"] = self.clock.now
        for instrument in self:
            out[instrument.kind + "s"][instrument.name] = \
                instrument.snapshot()
        return out
