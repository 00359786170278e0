"""The fault injector: one deterministic decision point per seam.

The injector is armed once per epoch (``begin_epoch``) from the plan's
schedules; consumers probe their plane with :meth:`check` on the hot
path. With an empty plan the probe is a dict lookup that always misses —
cheap enough to leave compiled into the epoch loop (the
``BENCH_faults_overhead`` benchmark holds the hooks under 2% of epoch
wall time).

Every injection decision derives from ``SeededStream(plan.seed,
"faults/<plane>")``, so planes are independent and runs are replayable;
every armed fault and every recovery is journaled to the flight
recorder, which counts it in the metrics registry, so incident bundles
and chaos artifacts capture the full story.
"""

from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.obs.observer import Observer
from repro.sim.clock import VirtualClock
from repro.sim.rng import SeededStream


class ActiveFault:
    """One plane's fault for the current epoch.

    ``fires()`` consumes one failure per probe: a transient fault stops
    firing after ``fail_attempts`` probes (a retry loop recovers), a
    persistent fault never stops (the retry budget exhausts and the
    consumer escalates).
    """

    __slots__ = ("plane", "schedule", "epoch", "_remaining")

    def __init__(self, plane, schedule, epoch):
        self.plane = plane
        self.schedule = schedule
        self.epoch = epoch
        self._remaining = schedule.attempts_to_fail()

    @property
    def persistent(self):
        return self._remaining is None

    @property
    def magnitude_ms(self):
        return self.schedule.magnitude_ms

    @property
    def mode(self):
        return self.schedule.mode

    def fires(self):
        """Probe the fault; True while it is still failing."""
        if self._remaining is None:
            return True
        if self._remaining > 0:
            self._remaining -= 1
            return True
        return False

    def __repr__(self):
        return "ActiveFault(%s, epoch=%d, remaining=%s)" % (
            self.plane.value, self.epoch,
            "inf" if self._remaining is None else self._remaining,
        )


class FaultInjector:
    """Per-epoch fault arming + recovery accounting for one tenant."""

    def __init__(self, plan=None, observer=None, retry_policy=None):
        self.plan = plan if plan is not None else FaultPlan.none()
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy())
        if observer is None:
            observer = Observer(VirtualClock())
        self._flight = flight = observer.flight
        self._streams = {
            plane: SeededStream(self.plan.seed, "faults/%s" % plane.value)
            for plane in self.plan.schedules
        }
        #: plane -> ActiveFault for the epoch being executed. Empty for
        #: an unarmed plan: ``check`` is then a guaranteed-miss lookup.
        self._active = {}
        self.epoch = 0
        registry = observer.registry
        self._injected_counter = flight.bind_counter(
            "fault.injected", registry.counter(
                "faults.injected_total",
                help="fault-plane activations across all planes"))
        self._recovered_counter = flight.bind_counter(
            "fault.recovered", registry.counter(
                "faults.recovered_total",
                help="faults cleared by retry/backoff"))
        self._escalated_counter = flight.bind_counter(
            "fault.escalated", registry.counter(
                "faults.escalated_total",
                help="faults that exhausted recovery and escalated"))
        self._backoff_hist = registry.histogram(
            "faults.retry_backoff_ms",
            help="total backoff charged per recovery episode")
        self._plane_counters = {
            plane: registry.counter(
                "faults.%s.injected" % plane.value,
                help="activations of the %s plane" % plane.value)
            for plane in self.plan.schedules
        }

    @property
    def armed(self):
        return bool(self.plan.schedules)

    # Read-only views of the counters the journal bumps per fault.* event.
    injected_total = property(lambda self: self._injected_counter.value)
    recovered_total = property(lambda self: self._recovered_counter.value)
    escalated_total = property(lambda self: self._escalated_counter.value)

    # -- per-epoch arming ----------------------------------------------------

    def begin_epoch(self, epoch):
        """Decide, deterministically, which planes fault this epoch."""
        self.epoch = epoch
        if not self.plan.schedules:
            return
        active = {}
        for plane, schedule in self.plan.schedules.items():
            if not schedule.faulting(self._streams[plane], epoch):
                continue
            active[plane] = ActiveFault(plane, schedule, epoch)
            self._plane_counters[plane].inc()
            self._flight.record(
                "fault.injected", epoch=epoch, plane=plane.value,
                schedule=schedule.kind, mode=schedule.mode,
                magnitude_ms=schedule.magnitude_ms,
            )
        self._active = active

    # -- hot-path probes -----------------------------------------------------

    def check(self, plane):
        """The plane's :class:`ActiveFault` this epoch, or None."""
        return self._active.get(plane)

    def stream(self, plane):
        """The plane's private stream (retry jitter draws from it)."""
        return self._streams[plane]

    # -- recovery accounting (consumers report what they did) ---------------

    def retry(self, fault, site):
        """Run the bounded-retry policy against ``fault``; journal it.

        Returns the :class:`~repro.faults.retry.RetryOutcome`. The
        caller charges ``outcome.backoff_ms`` (plus any redo cost) to
        virtual time and escalates if the outcome failed.
        """
        outcome = self.retry_policy.run(fault, self._streams[fault.plane])
        if outcome.success:
            self._backoff_hist.observe(outcome.backoff_ms)
            self._flight.record(
                "fault.recovered", epoch=fault.epoch,
                plane=fault.plane.value, site=site,
                attempts=outcome.attempts,
                backoff_ms=outcome.backoff_ms,
            )
        else:
            self.escalated(fault.plane, fault.epoch, site,
                           attempts=outcome.attempts,
                           backoff_ms=outcome.backoff_ms)
        return outcome

    def escalated(self, plane, epoch, site, **attrs):
        """Record that a fault exhausted its recovery at ``site``."""
        self._flight.record(
            "fault.escalated", epoch=epoch, plane=plane.value,
            site=site, **attrs,
        )

    # -- export --------------------------------------------------------------

    def summary(self):
        """Plain-data rollup (chaos CLI artifact / incident bundles)."""
        return {
            "plan": self.plan.to_dict(),
            "injected_total": self.injected_total,
            "recovered_total": self.recovered_total,
            "escalated_total": self.escalated_total,
            "retry_policy": {
                "base_ms": self.retry_policy.base_ms,
                "factor": self.retry_policy.factor,
                "cap_ms": self.retry_policy.cap_ms,
                "max_attempts": self.retry_policy.max_attempts,
                "jitter_frac": self.retry_policy.jitter_frac,
            },
        }
