"""One validator for every ingest path (CLI, vault, HTTP).

The trust model is CloRoFor's: evidence is only as good as the check
performed where it *crosses a boundary*. An incident bundle's rolling
SHA-256 flight chain is therefore re-verified here — at the service
edge — and its causal epoch chain re-derived from the verified events,
not trusted from the producer. The bundle's other fields (detection,
metrics, config, checkpoints, SLO trail, forensics) are the producer's
summaries: their shape is checked, their content is not. A tampered,
truncated, mis-headed or malformed artifact is rejected with a typed
:class:`~repro.errors.IngestError` before it can touch the vault.

``crimes-repro incident --validate <bundle.json>`` runs exactly this
module, so the CLI verdict and the vault's ingest decision can never
disagree about the same file.
"""

import json

from repro.errors import IngestError, ObservabilityError
from repro.obs.fleet_merge import verify_merged_chains
from repro.obs.incident import validate_incident_bundle

#: Rejection codes this boundary can emit (documented for API consumers).
INGEST_ERROR_CODES = (
    "not-json",            # the payload is not parseable JSON
    "not-a-bundle",        # not a JSON object, or a field of the wrong type
    "missing-keys",        # required keys absent (bundle, event, finding)
    "schema-mismatch",     # schema tag is not crimes-obs/2
    "hash-chain-broken",   # re-derived flight chain != recorded chain
    "epoch-chain-empty",   # no causal epoch chain at all
    "epoch-chain-truncated",    # its epochs differ from the re-derived ones
    "epoch-chain-out-of-ring",  # an event or flag differs from the re-derived
    "fleet-chain-mismatch",     # merged export malformed, or heads don't hold
    "duplicate-case",      # vault already holds this content-derived case
)


def validate_bundle(bundle):
    """Validate one ``crimes-obs/2`` bundle; typed rejection on failure.

    Wraps :func:`~repro.obs.incident.validate_incident_bundle` — the
    exact validator the producer side uses — and converts its verdict
    into the service's :class:`~repro.errors.IngestError` vocabulary.
    Returns the (trusted-after-this) bundle.
    """
    try:
        return validate_incident_bundle(bundle)
    except ObservabilityError as err:
        raise IngestError(getattr(err, "code", "not-a-bundle"),
                          str(err)) from err


def load_bundle_file(path):
    """Read and validate an on-disk bundle file (the CLI/ops ingest path).

    Returns the validated bundle. A file that is not JSON rejects with
    code ``not-json``; everything else flows through
    :func:`validate_bundle` unchanged.
    """
    try:
        with open(path, "r") as handle:
            payload = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise IngestError(
            "not-json", "%s is not parseable JSON: %s" % (path, err)
        ) from err
    return validate_bundle(payload)


def case_id_for(bundle):
    """Content-derived case ID: the flight chain head names the case.

    The head hash covers every journaled event of the incident, so two
    bundles share a case ID exactly when they carry the same evidence —
    which is what makes duplicate-ingest rejection a *tamper* control
    (an attacker cannot shadow an existing case with altered evidence;
    altering anything moves the head).
    """
    return "case-%s" % bundle["flight"]["head_hash"][:16]


def verify_fleet_export(merged):
    """Validate a fleet-merge flight export at the service boundary.

    ``merged`` is a :func:`~repro.obs.fleet_merge.merge_flight_snapshots`
    payload. Each tenant's chain is split back out of the merged stream
    and re-derived against its declared head; any mismatch rejects the
    whole export with code ``fleet-chain-mismatch`` (a fleet timeline
    with one forged tenant is not evidence). Returns the verification
    summary on success.
    """
    verdict = verify_merged_chains(merged)
    if not verdict["ok"]:
        raise IngestError("fleet-chain-mismatch",
                          "fleet export rejected: %s" % verdict["error"])
    return verdict
