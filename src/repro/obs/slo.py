"""SLO watchdog: declarative latency budgets evaluated on the virtual clock.

The paper's usability argument hinges on epoch pauses staying inside a
tight budget (5-50 checkpoints/s); a provider running CRIMES as a
service needs that budget *declared* and *watched*, not rediscovered in
a postmortem. An :class:`SLOPolicy` names the budgets (pause p99,
detection lag, buffer residency, epoch overhead %); the
:class:`SLOWatchdog` evaluates them after every epoch, journals alerts
into the flight recorder, counts them in the registry, and — when an
:class:`~repro.core.adaptive.AdaptiveIntervalController` is attached —
nudges the epoch interval back toward compliance (longer epochs amortize
pause overhead; shorter epochs cut detection lag).
"""

from repro.errors import ConfigError


class SLOBudget:
    """One declarative budget: a named value that must stay under a limit."""

    __slots__ = ("name", "limit", "unit", "description")

    def __init__(self, name, limit, unit="ms", description=""):
        if limit <= 0:
            raise ConfigError("SLO budget %r needs a positive limit" % name)
        self.name = name
        self.limit = float(limit)
        self.unit = unit
        self.description = description

    def evaluate(self, value):
        """One evaluation record (value may be None = no data yet)."""
        breached = value is not None and value > self.limit
        return {
            "budget": self.name,
            "limit": self.limit,
            "unit": self.unit,
            "value": value,
            "breached": breached,
        }

    def to_dict(self):
        return {"name": self.name, "limit": self.limit, "unit": self.unit,
                "description": self.description}


class SLOPolicy:
    """The budget set a tenant (or the provider) declares for one VM."""

    #: Budget names the watchdog knows how to measure.
    KNOWN = ("pause_p99_ms", "detection_latency_ms",
             "buffer_residency_p99_ms", "epoch_overhead_pct")

    def __init__(self, budgets):
        self.budgets = {}
        for budget in budgets:
            if budget.name not in self.KNOWN:
                raise ConfigError(
                    "unknown SLO budget %r (known: %s)"
                    % (budget.name, ", ".join(self.KNOWN))
                )
            self.budgets[budget.name] = budget

    @classmethod
    def default(cls):
        """Paper-anchored defaults: 5-50 cps pauses, §3.1 latency bounds."""
        return cls([
            SLOBudget("pause_p99_ms", 50.0,
                      description="p99 epoch pause (20+ checkpoints/s)"),
            SLOBudget("detection_latency_ms", 500.0,
                      description="worst-case attack-to-verdict latency"),
            SLOBudget("buffer_residency_p99_ms", 400.0,
                      description="p99 time outputs sit in the buffer"),
            SLOBudget("epoch_overhead_pct", 30.0, unit="%",
                      description="pause time as a fraction of the epoch"),
        ])

    @classmethod
    def from_dict(cls, data):
        """Build from ``{name: limit}`` or ``{name: {limit, unit, ...}}``."""
        budgets = []
        for name, value in data.items():
            if isinstance(value, dict):
                budgets.append(SLOBudget(name, value["limit"],
                                         unit=value.get("unit", "ms"),
                                         description=value.get(
                                             "description", "")))
            else:
                budgets.append(SLOBudget(name, value))
        return cls(budgets)

    def to_dict(self):
        return {name: budget.to_dict()
                for name, budget in sorted(self.budgets.items())}


class SLOWatchdog:
    """Evaluates a policy after each epoch; journals and (optionally) acts.

    Pure observation by default: breaches become ``slo.alert`` flight
    events and registry counters. With a ``controller`` (and the owning
    framework's config) attached, an overhead/pause breach nudges the
    interval up and a detection-latency breach nudges it down — closing
    the loop between evidence and control.
    """

    def __init__(self, observer, policy=None, controller=None, config=None,
                 max_evaluations=1024):
        self.observer = observer
        self.policy = policy if policy is not None else SLOPolicy.default()
        self.controller = controller
        self.config = config
        self.max_evaluations = max_evaluations
        self.evaluations = []
        registry = observer.registry
        self._eval_counter = registry.counter(
            "slo.evaluations", help="per-epoch SLO policy evaluations")
        self._alert_counter = observer.flight.bind_counter(
            "slo.alert", registry.counter(
                "slo.alerts", help="budget breaches journaled"))
        observer.flight.bind_counter("slo.nudge", registry.counter(
            "slo.interval_nudges", help="interval corrections applied"))

    #: Budget breaches journaled (the journal bumps ``slo.alerts``).
    alerts = property(lambda self: self._alert_counter.value)

    # -- measurement -------------------------------------------------------

    def _measured_values(self, record):
        """Current value of every known budget, from the shared registry."""
        registry = self.observer.registry
        values = {}
        if "epoch.pause.total_ms" in registry:
            values["pause_p99_ms"] = \
                registry.get("epoch.pause.total_ms").percentile(99)
        if "epoch.detection_latency_ms" in registry:
            values["detection_latency_ms"] = \
                registry.get("epoch.detection_latency_ms").value
        if "netbuf.residency_ms" in registry:
            residency = registry.get("netbuf.residency_ms")
            values["buffer_residency_p99_ms"] = (
                residency.percentile(99) if residency.count else None
            )
        if record is not None and record.interval_ms:
            values["epoch_overhead_pct"] = \
                100.0 * record.pause_ms / record.interval_ms
        return values

    # -- evaluation --------------------------------------------------------

    def evaluate(self, record=None):
        """Evaluate every budget; returns the evaluation record."""
        values = self._measured_values(record)
        results = [
            budget.evaluate(values.get(name))
            for name, budget in sorted(self.policy.budgets.items())
        ]
        breaches = [result for result in results if result["breached"]]
        evaluation = {
            "t_ms": self.observer.clock.now,
            "epoch": record.epoch if record is not None else None,
            "results": results,
            "breached": [result["budget"] for result in breaches],
        }
        self.evaluations.append(evaluation)
        if len(self.evaluations) > self.max_evaluations:
            del self.evaluations[0]
        self._eval_counter.inc()

        for result in breaches:
            self.observer.flight.record(
                "slo.alert", epoch=evaluation["epoch"],
                budget=result["budget"], value=result["value"],
                limit=result["limit"], unit=result["unit"],
            )
        if breaches:
            self._steer(evaluation)
        return evaluation

    def _steer(self, evaluation):
        """Nudge the interval controller toward budget compliance."""
        if self.controller is None or self.config is None:
            return
        breached = set(evaluation["breached"])
        # Detection latency wins: shortening the epoch also shrinks the
        # pause's absolute contribution, the reverse is not true.
        if "detection_latency_ms" in breached:
            direction = -1
        elif breached & {"pause_p99_ms", "epoch_overhead_pct",
                         "buffer_residency_p99_ms"}:
            direction = +1
        else:
            return
        current = self.config.epoch_interval_ms
        nudged = self.controller.nudge(current, direction)
        if nudged != current:
            self.config.epoch_interval_ms = nudged
            self.observer.flight.record(
                "slo.nudge", epoch=evaluation["epoch"],
                direction=direction, interval_ms=nudged,
                previous_interval_ms=current,
            )

    # -- export ------------------------------------------------------------

    def summary(self):
        return {
            "policy": self.policy.to_dict(),
            "evaluations": len(self.evaluations),
            "alerts": self.alerts,
            "last": self.evaluations[-1] if self.evaluations else None,
        }

    def snapshot(self):
        """Full evaluation trail (bounded) for incident bundles."""
        return {
            "policy": self.policy.to_dict(),
            "alerts": self.alerts,
            "evaluations": list(self.evaluations),
        }


def summarize_trail(trail):
    """Fold one watchdog trail into a burn summary (plain data in/out).

    ``trail`` is the ``SLOWatchdog.snapshot()`` shape — ``{"policy",
    "alerts", "evaluations"}`` — whether it came from a live watchdog or
    rode into the case vault inside an incident bundle's ``slo`` key.
    The summary is what a fleet dashboard row needs: total burn (alerts
    per evaluation), per-budget breach counts, and each budget's worst
    observed value against its limit.
    """
    evaluations = trail.get("evaluations", [])
    budgets = {}
    for name, declared in trail.get("policy", {}).items():
        budgets[name] = {
            "limit": declared.get("limit"),
            "unit": declared.get("unit", "ms"),
            "breaches": 0,
            "worst_value": None,
            "worst_ratio": None,
        }
    breached_total = 0
    for evaluation in evaluations:
        for result in evaluation.get("results", ()):
            entry = budgets.setdefault(result["budget"], {
                "limit": result.get("limit"), "unit": result.get("unit",
                                                                 "ms"),
                "breaches": 0, "worst_value": None, "worst_ratio": None,
            })
            value = result.get("value")
            if value is None:
                continue
            if entry["worst_value"] is None or value > entry["worst_value"]:
                entry["worst_value"] = value
                if entry["limit"]:
                    entry["worst_ratio"] = value / entry["limit"]
            if result.get("breached"):
                entry["breaches"] += 1
                breached_total += 1
    count = len(evaluations)
    return {
        "evaluations": count,
        "alerts": trail.get("alerts", breached_total),
        "burn_rate": (breached_total / count) if count else 0.0,
        "budgets": budgets,
    }


def attach_slo_watchdog(crimes, policy=None, controller=None):
    """Configure a framework's SLO watchdog; returns it.

    Every :class:`~repro.core.crimes.Crimes` already carries an
    always-on, observation-only watchdog on its epoch hook; this
    reconfigures it in place — a custom policy, and/or a controller so
    budget breaches steer ``epoch_interval_ms`` (the same knob
    :func:`~repro.core.adaptive.attach_adaptive_interval` drives; a
    shared controller instance composes both).
    """
    watchdog = crimes.slo_watchdog
    if policy is not None:
        watchdog.policy = policy
    if controller is not None:
        watchdog.controller = controller
        watchdog.config = crimes.config
    return watchdog
