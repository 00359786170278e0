"""Shard-aware observability merge for fleet runs.

Every tenant journals onto its *own* virtual timeline and hash chain
(tenants occupy different cores; there is no global clock to agree on),
and under the fleet scheduler those journals live in different worker
processes. This module folds the per-tenant exports a scheduler collects
back into one host-level story:

* :func:`merge_flight_events` — one event stream ordered by virtual
  time, with a deterministic tie-break, so an operator reads a single
  fleet timeline instead of W shard dumps. Each tenant's own chain
  stays internally ordered (its events are already sorted by ``seq``),
  and the merge never re-hashes anything — per-tenant chains remain
  independently verifiable.
* :func:`merge_flight_snapshots` — the same merge over full
  ``FlightRecorder.snapshot()`` payloads, keeping per-tenant chain
  verification results alongside the merged stream.
* :func:`verify_merged_chains` — the inverse of the merge: split a
  merged stream back into per-tenant chains and re-derive each against
  its declared head hash, so a consumer on the other side of a trust
  boundary (the incident case service) can reject a tampered or
  mis-headed fleet export.
* :func:`merge_registry_snapshots` — fleet-level metric aggregation
  (counters sum; gauges and histogram stats keep per-tenant values
  under their tenant's key) for shard rollups.
"""

from repro.obs.flight import verify_event_chain


def _event_sort_key(event):
    # Virtual time first; tenant name then per-tenant seq as the
    # deterministic tie-break (two tenants can easily share a t_ms —
    # they all start at 0.0 — and a merge that depends on dict order
    # would not be replayable evidence).
    return (event["t_ms"], event.get("tenant") or "", event.get("seq", 0))


def merge_flight_events(event_lists):
    """Merge per-tenant flight-event dicts into one fleet timeline.

    ``event_lists`` is an iterable of event-dict lists (one per tenant,
    each as produced by ``FlightEvent.to_dict()``). Returns a single
    list ordered by ``(t_ms, tenant, seq)``. Sorting is stable, so each
    tenant's internal order is preserved even if its journal carried
    equal timestamps.
    """
    merged = []
    for events in event_lists:
        merged.extend(events)
    merged.sort(key=_event_sort_key)
    return merged


def merge_flight_snapshots(snapshots):
    """Fold full ``FlightRecorder.snapshot()`` payloads into one export.

    Returns ``{"events": [...], "tenants": {name: chain-info}}`` where
    the merged ``events`` are virtual-time ordered across the fleet and
    ``tenants`` keeps each journal's head hash, eviction count, and
    chain-verification verdict — the merge is a *view*; tamper evidence
    stays per-tenant.
    """
    tenants = {}
    ordered = merge_flight_events(
        snapshot["events"] for snapshot in snapshots
    )
    for snapshot in snapshots:
        tenants[snapshot["tenant"]] = {
            "head_hash": snapshot["head_hash"],
            "events": len(snapshot["events"]),
            "evicted": snapshot["evicted"],
            "verify": snapshot.get("verify"),
        }
    return {"events": ordered, "tenants": tenants}


def verify_merged_chains(merged):
    """Re-derive every per-tenant hash chain inside a merged export.

    ``merged`` is a :func:`merge_flight_snapshots` payload: one
    virtual-time-ordered ``events`` stream plus per-tenant chain heads.
    The merge is only a *view* — so a consumer (the incident case
    service ingesting a fleet export) must be able to split the stream
    back apart and check each tenant's chain against its declared head.
    Returns ``{"ok", "tenants", "events", "error", "tenant"}``; any
    mismatch (a tampered event, a head that does not belong to its
    stream, events from an undeclared tenant) or malformed part (an
    event without a string tenant and an integer seq, a tenant without
    an integer event count and a string head) fails the verdict.
    """
    if not isinstance(merged, dict):
        return _unverified(0, 0, None, "a fleet export must be an object")
    declared = merged.get("tenants", {})
    events = merged.get("events", [])
    if not isinstance(declared, dict) or not isinstance(events, list):
        return _unverified(0, 0, None,
                           "tenants must be an object and events a list")
    by_tenant = {}
    for index, event in enumerate(events):
        if not (isinstance(event, dict)
                and isinstance(event.get("tenant"), str)
                and isinstance(event.get("seq"), int)):
            return _unverified(len(declared), 0, None,
                               "event %d needs a string tenant and an "
                               "integer seq" % index)
        by_tenant.setdefault(event["tenant"], []).append(event)
    unknown = sorted(set(by_tenant) - set(declared))
    if unknown:
        return _unverified(len(declared), 0, unknown[0],
                           "events from undeclared tenant %r" % unknown[0])
    checked = 0
    for name in sorted(declared):
        stream = sorted(by_tenant.get(name, []),
                        key=lambda event: event["seq"])
        info = declared[name]
        if not (isinstance(info, dict)
                and isinstance(info.get("events"), int)
                and isinstance(info.get("head_hash"), str)):
            return _unverified(len(declared), checked, name,
                               "tenant %r needs an integer event count "
                               "and a string head hash" % name)
        if len(stream) != info["events"]:
            return _unverified(len(declared), checked, name,
                               "tenant %r declares %d event(s) but the "
                               "merged stream carries %d"
                               % (name, info["events"], len(stream)))
        verdict = verify_event_chain(stream, head_hash=info["head_hash"])
        if not verdict["ok"]:
            return _unverified(len(declared), checked + verdict["checked"],
                               name, "tenant %r chain: %s"
                               % (name, verdict["error"]))
        checked += verdict["checked"]
    return {"ok": True, "tenants": len(declared), "events": checked,
            "tenant": None, "error": None}


def _unverified(tenants, events, tenant, error):
    return {"ok": False, "tenants": tenants, "events": events,
            "tenant": tenant, "error": error}


def merge_registry_snapshots(snapshots_by_tenant):
    """Aggregate per-tenant ``MetricsRegistry.snapshot()`` payloads.

    Counters are summed across the fleet (they are extensive
    quantities); gauges and histograms are intensive/per-tenant, so they
    are kept under the owning tenant's key instead of being averaged
    into something nobody measured.
    """
    counters = {}
    per_tenant = {}
    for tenant, snapshot in sorted(snapshots_by_tenant.items()):
        per_tenant[tenant] = {
            "gauges": snapshot.get("gauges", {}),
            "histograms": snapshot.get("histograms", {}),
        }
        for name, counter in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + counter["value"]
    return {"counters": counters, "tenants": per_tenant}
