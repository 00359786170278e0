"""Incident bundles: one JSON artifact telling the whole detection story.

On a failed audit (or a failed async deep scan) the framework snapshots
everything an operator or forensic analyst needs into a single
plain-data bundle (schema ``crimes-obs/2``):

* the flight-recorder ring (with its hash chain, verified),
* the causally-linked **epoch chain** from the last clean checkpoint to
  the incident epoch,
* the serialized detection (module, findings, evidence details),
* the observer's metrics summary, the active config, checkpoint-history
  stats, the SLO evaluation trail, and — when the Analyzer ran — the
  rendered forensic report, replay pinpoint, and attack timeline.

``validate_incident_bundle`` re-derives the hash chain from the
serialized events and then the epoch chain, a pure function of them, so
a consumer needs no recorder state; of the producer's other summaries
only the shape is checked. ``crimes-repro incident`` dumps and
validates a bundle from a canned canary-smash scenario;
:class:`~repro.core.cloud.CloudHost` aggregates per-tenant bundles for
multi-tenant incidents.
"""

from repro.obs.flight import verify_event_chain
from repro.errors import ObservabilityError

#: Schema tag for incident bundles (crimes-obs/1 is the BENCH schema).
INCIDENT_SCHEMA = "crimes-obs/2"

#: Keys every bundle must carry (the contract the CI smoke validates).
REQUIRED_KEYS = (
    "schema", "reason", "tenant", "virtual_time_ms", "incident_epoch",
    "detection", "epoch_chain", "flight", "metrics", "config",
    "checkpoints", "slo", "forensics",
)

_NONE = type(None)
_NUMBER = (int, float)

_REQUIRED_TYPES = dict.fromkeys(REQUIRED_KEYS, object)
#: The type of every field the validator, the vault and its finding
#: index read, checked before any of them is read.
_BUNDLE_TYPES = {
    "reason": str, "tenant": str, "virtual_time_ms": _NUMBER,
    "incident_epoch": int, "detection": (dict, _NONE),
    "epoch_chain": list, "flight": dict, "slo": dict,
}
_FLIGHT_TYPES = {"events": list, "head_hash": str}
_EVENT_TYPES = {
    "seq": int, "t_ms": _NUMBER, "kind": str, "tenant": (str, _NONE),
    "epoch": (int, _NONE), "span_id": object, "attrs": dict,
    "prev_hash": str, "hash": str,
}
_FINDING_ATTR_TYPES = {"module": str, "finding_kind": str, "summary": str}
_FINDING_TYPES = {"module": str, "kind": str, "severity": str,
                  "summary": str}


def _finding_to_dict(finding):
    return {
        "module": finding.module,
        "kind": finding.kind,
        "severity": finding.severity.value,
        "summary": finding.summary,
        "details": {key: value for key, value in finding.details.items()
                    if isinstance(value, (int, float, str, bool,
                                          type(None)))},
    }


def _detection_to_dict(detection):
    if detection is None:
        return None
    return {
        "epoch": detection.epoch,
        "cost_ms": detection.cost_ms,
        "modules_run": list(detection.modules_run),
        "attack_detected": detection.attack_detected,
        "findings": [_finding_to_dict(f) for f in detection.findings],
    }


def _outcome_to_dict(outcome):
    if outcome is None:
        return None
    pinpoint = outcome.pinpoint
    return {
        "replayed": outcome.replayed,
        "pinpoint": (
            {"matched": pinpoint.matched, "paddr": pinpoint.paddr,
             "length": pinpoint.length, "rip": pinpoint.rip,
             "time_ms": pinpoint.time_ms}
            if pinpoint is not None and pinpoint.matched else None
        ),
        "timeline": [{"t_ms": when, "label": label}
                     for when, label in outcome.timeline],
        "report": outcome.report.to_dict(),
    }


def build_epoch_chain(events, incident_epoch):
    """Per-epoch event groups from the last clean commit to the incident.

    ``events`` are serialized flight events (``FlightRecorder.snapshot()``
    order). Walks them backwards from ``incident_epoch`` to the most
    recent ``epoch.commit`` of an *earlier* epoch — the last clean
    checkpoint the backup still holds — then groups the events of every
    epoch in between (evidence the rollback will erase from the live VM,
    preserved here, in causal order). The incident epoch always has a
    link, even with no events.
    """
    clean_epoch = None
    for event in reversed(events):
        epoch = event["epoch"]
        if (event["kind"] == "epoch.commit" and epoch is not None
                and epoch < incident_epoch):
            clean_epoch = epoch
            break
    first_epoch = clean_epoch if clean_epoch is not None else incident_epoch
    # Grouped by the epochs present, not over the range between them: the
    # work stays proportional to the events whatever epochs a bundle names.
    linked = {incident_epoch: []}
    for event in events:
        epoch = event["epoch"]
        if epoch is not None and first_epoch <= epoch <= incident_epoch:
            linked.setdefault(epoch, []).append({
                "seq": event["seq"], "t_ms": event["t_ms"],
                "kind": event["kind"], "span_id": event["span_id"],
                "hash": event["hash"]})
    return [{"epoch": epoch, "clean_checkpoint": epoch == clean_epoch,
             "events": linked[epoch]}
            for epoch in sorted(linked)]


def build_incident_bundle(crimes, reason, detection=None,
                          incident_epoch=None):
    """Snapshot one framework's full incident evidence as plain data."""
    flight = crimes.observer.flight
    if incident_epoch is None:
        if detection is not None:
            incident_epoch = detection.epoch
        else:
            last = flight.last("epoch.abort") or flight.last()
            incident_epoch = (last.epoch if last is not None
                              and last.epoch is not None
                              else crimes.checkpointer.epoch)
    watchdog = getattr(crimes, "slo_watchdog", None)
    snapshot = flight.snapshot()
    return {
        "schema": INCIDENT_SCHEMA,
        "reason": reason,
        "tenant": crimes.vm.name,
        "virtual_time_ms": crimes.clock.now,
        "incident_epoch": incident_epoch,
        "detection": _detection_to_dict(detection),
        "epoch_chain": build_epoch_chain(snapshot["events"], incident_epoch),
        "flight": snapshot,
        "metrics": crimes.observer.summary(),
        "config": crimes.config.to_dict(),
        "checkpoints": crimes.checkpointer.history_stats(),
        "slo": (watchdog.snapshot() if watchdog is not None
                else {"policy": {}, "alerts": 0, "evaluations": []}),
        "forensics": _outcome_to_dict(crimes.last_outcome),
    }


def _reject(code, message):
    """Raise a validation error carrying a stable machine-readable code.

    The code rides on the exception as an attribute so service-boundary
    consumers (the case vault, the HTTP ingest endpoint) can map the
    rejection to a structured error without parsing prose.
    """
    err = ObservabilityError(message)
    err.code = code
    raise err


def _check(value, types, where, *args):
    """Reject ``value`` unless it is an object whose fields have ``types``.

    ``where % args`` names the value in the rejection.
    """
    if not isinstance(value, dict):
        _reject("not-a-bundle", "%s must be a JSON object, got %s"
                % (where % args, type(value).__name__))
    if not value.keys() >= types.keys():
        _reject("missing-keys", "%s is missing keys: %s" % (
            where % args, ", ".join(key for key in types
                                    if key not in value)))
    for key, kind in types.items():
        if not isinstance(value[key], kind):
            _reject("not-a-bundle", "%s: %s has the wrong type (%s)"
                    % (where % args, key, type(value[key]).__name__))
    return value


def validate_incident_bundle(bundle):
    """Check a bundle's contract; raises ObservabilityError on violation.

    Checks the schema tag, the required keys, and the type of every field
    a reader of the bundle relies on; re-derives the hash chain over the
    serialized flight events, then the epoch chain from those events,
    which must equal the bundle's. Returns the (trusted-after-this)
    bundle. Every rejection carries a stable ``code`` attribute
    (``not-a-bundle``, ``missing-keys``, ``schema-mismatch``,
    ``hash-chain-broken``, ``epoch-chain-empty``,
    ``epoch-chain-truncated`` when the chain's epochs differ,
    ``epoch-chain-out-of-ring`` when they agree but an event or flag
    differs).
    """
    _check(bundle, _REQUIRED_TYPES, "incident bundle")
    if bundle["schema"] != INCIDENT_SCHEMA:
        _reject("schema-mismatch",
                "incident bundle schema %r != %r"
                % (bundle["schema"], INCIDENT_SCHEMA))
    _check(bundle, _BUNDLE_TYPES, "incident bundle")
    flight = _check(bundle["flight"], _FLIGHT_TYPES, "flight")
    events = flight["events"]
    for index, event in enumerate(events):
        _check(event, _EVENT_TYPES, "flight.events[%d]", index)
        if event["kind"] == "scan.finding":
            _check(event["attrs"], _FINDING_ATTR_TYPES,
                   "flight.events[%d].attrs", index)
    detection = bundle["detection"]
    if detection is not None:
        _check(detection, {"findings": list}, "detection")
        for index, finding in enumerate(detection["findings"]):
            _check(finding, _FINDING_TYPES, "detection.findings[%d]", index)
    verdict = verify_event_chain(events, head_hash=flight["head_hash"])
    if not verdict["ok"]:
        _reject("hash-chain-broken",
                "incident bundle hash chain broken: %s" % verdict["error"])
    chain = bundle["epoch_chain"]
    derived = build_epoch_chain(events, bundle["incident_epoch"])
    if chain != derived:
        if not chain:
            _reject("epoch-chain-empty",
                    "incident bundle has an empty epoch chain")
        epochs = [link.get("epoch") if isinstance(link, dict) else None
                  for link in chain]
        if epochs != [link["epoch"] for link in derived]:
            _reject("epoch-chain-truncated",
                    "epoch chain is not causally ordered up to the "
                    "incident epoch")
        _reject("epoch-chain-out-of-ring",
                "epoch chain has an event or flag outside the flight "
                "ring's own epoch chain")
    return bundle
