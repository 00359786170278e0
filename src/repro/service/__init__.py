"""The incident case service: an evidence control plane over CloudHost.

CRIMES produces *evidence* — ``crimes-obs/2`` incident bundles, SLO
watchdog trails, fleet-merge exports — but a library that drops JSON
blobs on local disk is not a system a provider can operate. Following
CloRoFor's argument (PAPERS.md) that cloud forensic evidence must land
in a tamper-evident store whose integrity is *re-verified on ingest*,
this package turns the reproduction into a deployable control plane:

* :mod:`repro.service.ingest` — the single validator every ingest path
  (CLI, vault, HTTP) shares: at the service boundary a bundle's flight
  hash chain is re-verified, its causal epoch chain is re-derived from
  the verified events, every field a reader relies on is type-checked,
  and rejections carry typed codes.
* :mod:`repro.service.vault` — the case vault: content-addressed,
  read-only case storage with an append-only, hash-chained audit log.
* :mod:`repro.service.workers` — a threaded worker queue running
  ``repro.forensics`` plugins asynchronously against stored dumps,
  attaching reports to cases in seeded-deterministic order.
* :mod:`repro.service.sloboard` — the fleet SLO dashboard: per-tenant
  and per-host burn summaries from watchdog trails and fleet rollups.
* :mod:`repro.service.http` — a stdlib ``ThreadingHTTPServer`` control
  plane: ``/cases``, ``/findings``, ``/slo``, ``/metrics``, ``/audit``,
  ``/jobs``; this is the one explicitly *real* (wall-clock) layer.
* :mod:`repro.service.demo` — ``--demo-fleet`` self-population: a
  canned multi-tenant CloudHost run whose incidents land in the vault.
"""

from repro.service.http import CaseService  # noqa: F401
from repro.service.ingest import (  # noqa: F401
    case_id_for,
    load_bundle_file,
    validate_bundle,
    verify_fleet_export,
)
from repro.service.sloboard import build_slo_dashboard  # noqa: F401
from repro.service.vault import CASE_SCHEMA, CaseVault  # noqa: F401
from repro.service.workers import ForensicsWorkerQueue  # noqa: F401
