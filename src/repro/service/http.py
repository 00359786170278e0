"""The HTTP control plane: a stdlib server over the case vault.

This is the one *explicitly real* layer of the service — request
latency is wall-clock latency, the listener is a real socket — so it is
also the only service module with reasoned crimeslint baseline entries.
Everything it serves is computed by the deterministic layers below
(vault, workers, SLO board); the handler only translates HTTP into
those calls and typed errors into structured JSON.

Routes::

    GET  /healthz            liveness + vault/queue stats
    GET  /cases              every case record, ingest order
    GET  /cases/<id>         one case record (reports included)
    GET  /cases/<id>/bundle  the stored, validated incident bundle
    GET  /findings           cross-tenant query: ?module=&since=&tenant=
    GET  /slo                the fleet SLO dashboard payload
    GET  /metrics            Prometheus text exposition (live scrape)
    GET  /audit              vault audit log + chain re-verification
    GET  /jobs               worker-queue stats
    POST /cases              ingest one crimes-obs/2 bundle
    POST /jobs               enqueue forensics: {"case_id": ...}
    POST /fleet              verify a fleet-merge flight export

Error responses are always ``{"error": {"code", "message"}}`` — the
codes are :data:`repro.service.ingest.INGEST_ERROR_CODES` plus
``not-found``/``bad-request``; a duplicate case is ``409``, every other
rejection ``400``.
"""

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    CaseNotFoundError,
    DuplicateCaseError,
    IngestError,
    ServiceError,
)
from repro.obs.exporters import render_prometheus, snapshot_instruments
from repro.obs.fleet_merge import merge_registry_snapshots
from repro.obs.registry import MetricsRegistry
from repro.service.ingest import verify_fleet_export
from repro.service.sloboard import build_slo_dashboard
from repro.service.workers import ForensicsWorkerQueue

#: Request body ceiling (a bundle with a full flight ring is ~1 MiB).
MAX_BODY_BYTES = 16 << 20


class _RequestError(Exception):
    """Internal: carries an HTTP status + structured error payload."""

    def __init__(self, status, code, message):
        super().__init__(message)
        self.status = status
        self.code = code


class CaseService:
    """The service object: vault + worker queue + live fleet + listener."""

    def __init__(self, vault, host=None, workers=2, seed=0,
                 bind="127.0.0.1", port=0):
        self.vault = vault
        self.host = host
        self.queue = ForensicsWorkerQueue(vault, workers=workers, seed=seed)
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter(
            "service.requests", help="HTTP requests handled")
        self._errors = self.registry.counter(
            "service.errors", help="requests answered with an error")
        self._accepted = self.registry.counter(
            "service.ingest.accepted", help="bundles accepted into the vault")
        self._rejected = self.registry.counter(
            "service.ingest.rejected", help="bundles rejected at the boundary")
        self._enqueued = self.registry.counter(
            "service.jobs.enqueued", help="forensics jobs queued")
        self._fleet_verified = self.registry.counter(
            "service.fleet.exports_verified",
            help="fleet-merge exports that passed chain re-derivation")
        self._latency = self.registry.histogram(
            "service.request_ms", help="wall-clock request latency")
        self._server = ThreadingHTTPServer((bind, port),
                                           _make_handler(self))
        self._server.daemon_threads = True
        # Handler threads and the owning thread both touch the listener
        # thread handle and the last verified fleet export; this lock
        # is their guard (CRL007).
        self._lock = threading.Lock()
        self._thread = None
        self.last_fleet_export = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self):
        """``(host, port)`` actually bound (port 0 resolves here)."""
        return self._server.server_address[:2]

    @property
    def url(self):
        return "http://%s:%d" % self.address

    def start(self):
        self.queue.start()
        thread = threading.Thread(target=self._server.serve_forever,
                                  name="case-service", daemon=True)
        with self._lock:
            self._thread = thread
        thread.start()
        return self

    def stop(self):
        self._server.shutdown()
        self._server.server_close()
        # Snapshot the handle under the lock, join outside it: joining
        # while holding the lock would stall any handler thread racing
        # to read service state during shutdown.
        with self._lock:
            thread = self._thread
        if thread is not None:
            thread.join()
        self.queue.stop()

    def serve_forever(self):
        """Foreground mode for the CLI (Ctrl-C to stop)."""
        self.queue.start()
        try:
            self._server.serve_forever()
        finally:
            self._server.server_close()
            self.queue.stop()

    # -- request handlers (HTTP-free: dicts in, payloads out) -------------

    def handle_get(self, path, params):
        if path == "/healthz":
            return 200, {"ok": True, "vault": self.vault.stats(),
                         "queue": self.queue.stats(),
                         "live_fleet": self.host is not None}
        if path == "/cases":
            return 200, {"cases": self.vault.cases()}
        if path.startswith("/cases/"):
            rest = path[len("/cases/"):]
            if rest.endswith("/bundle"):
                return 200, self.vault.bundle(rest[:-len("/bundle")])
            return 200, self.vault.case(rest)
        if path == "/findings":
            since = params.get("since")
            if since is not None:
                try:
                    since = float(since)
                    # NaN compares false with every t_ms, which would
                    # silently turn the filter off.
                    if not math.isfinite(since):
                        raise ValueError(since)
                except ValueError:
                    raise _RequestError(
                        400, "bad-request",
                        "since must be a finite virtual-time ms number, "
                        "got %r" % params["since"]) from None
            rows = self.vault.findings(module=params.get("module"),
                                       since=since,
                                       tenant=params.get("tenant"))
            return 200, {"findings": rows, "count": len(rows)}
        if path == "/slo":
            return 200, build_slo_dashboard(vault=self.vault, host=self.host)
        if path == "/metrics":
            return 200, self.render_metrics()
        if path == "/audit":
            return 200, {"entries": self.vault.audit_entries(),
                         "verify": self.vault.verify_audit()}
        if path == "/jobs":
            return 200, self.queue.stats()
        raise _RequestError(404, "not-found", "no route for %s" % path)

    def handle_post(self, path, body):
        if path == "/cases":
            case = self.vault.ingest(body, source="http")
            self._accepted.inc()
            return 201, case
        if path == "/jobs":
            if not isinstance(body, dict) or "case_id" not in body:
                raise _RequestError(400, "bad-request",
                                    "POST /jobs needs {\"case_id\": ...}")
            job_id = self.queue.enqueue(body["case_id"],
                                        plugins=body.get("plugins"))
            self._enqueued.inc()
            return 202, {"job_id": job_id, "case_id": body["case_id"]}
        if path == "/fleet":
            if not isinstance(body, dict):
                raise _RequestError(
                    400, "bad-request",
                    "POST /fleet needs a merged flight export object")
            _check_rollup(body.get("registry_rollup"))
            verdict = verify_fleet_export(body)
            self._fleet_verified.inc()
            with self._lock:
                self.last_fleet_export = body
            return 200, {"verified": verdict}
        raise _RequestError(404, "not-found", "no route for %s" % path)

    def render_metrics(self):
        """The live ``/metrics`` exposition text.

        Three registries share one renderer (and one escaping
        behavior): the service's own instruments render live; when a
        live fleet is attached, its per-tenant registries merge and
        render through the snapshot adapter under a ``fleet_`` prefix —
        the exact path a remote scheduler's shipped rollup would take.
        """
        self.registry.gauge(
            "service.vault.cases", help="cases stored"
        ).set(len(self.vault.case_ids()))
        self.registry.gauge(
            "service.jobs.pending", help="forensics jobs not yet done"
        ).set(self.queue.stats()["pending"])
        text = render_prometheus(self.registry)
        rollup = None
        with self._lock:
            last_export = self.last_fleet_export
        if self.host is not None:
            rollup = merge_registry_snapshots({
                name: record.crimes.observer.registry.snapshot()
                for name, record in self.host.tenants.items()
            })
        elif last_export is not None:
            rollup = last_export.get("registry_rollup")
        if rollup is not None:
            text += render_prometheus(
                snapshot_instruments(rollup, prefix="fleet."))
        return text


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_rollup(rollup):
    """Reject a ``registry_rollup`` that would not render as metrics.

    :func:`~repro.service.ingest.verify_fleet_export` re-derives the
    export's event chains but never looks at this side payload — a
    malformed rollup stored alongside a verified export would otherwise
    poison every later ``GET /metrics`` until the next export.
    """
    def bad(detail):
        return _RequestError(400, "bad-request",
                             "registry_rollup %s" % detail)

    if rollup is None:
        return
    if not isinstance(rollup, dict):
        raise bad("must be an object")
    for kind in ("counters", "gauges"):
        entries = rollup.get(kind, {})
        if not isinstance(entries, dict):
            raise bad("%s must be an object" % kind)
        for name, entry in entries.items():
            value = entry.get("value") if isinstance(entry, dict) else entry
            if value is not None and not _is_number(value):
                raise bad("%s[%r] carries a non-numeric value" % (kind, name))
    histograms = rollup.get("histograms", {})
    if not isinstance(histograms, dict):
        raise bad("histograms must be an object")
    for name, entry in histograms.items():
        if not isinstance(entry, dict):
            raise bad("histograms[%r] must be an object" % name)
        buckets = entry.get("buckets", {})
        if not isinstance(buckets, dict):
            raise bad("histograms[%r].buckets must be an object" % name)
        bounds = buckets.get("le", ())
        counts = buckets.get("counts", ())
        if not isinstance(bounds, (list, tuple)) \
                or not isinstance(counts, (list, tuple)):
            raise bad("histograms[%r] bucket arrays must be lists" % name)
        samples = (list(bounds) + list(counts)
                   + [entry.get("sum", 0.0), entry.get("count", 0)])
        if not all(_is_number(sample) for sample in samples):
            raise bad("histograms[%r] carries non-numeric samples" % name)


def _make_handler(service):
    """Bind a handler class to one :class:`CaseService` instance."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "crimes-case-service/1"
        protocol_version = "HTTP/1.1"
        # Headers and body leave in two writes; under Nagle the second
        # waits for the client's delayed ACK (~40 ms) on every
        # keep-alive request.
        disable_nagle_algorithm = True

        # -- plumbing ------------------------------------------------------

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass  # the service's metrics are its access log

        def _send_json(self, status, payload):
            body = (json.dumps(payload, indent=2, sort_keys=True)
                    + "\n").encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _send_text(self, status, text):
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_error_json(self, status, code, message):
            service._errors.inc()
            self._send_json(status,
                            {"error": {"code": code, "message": message}})

        def _read_body(self):
            raw_length = self.headers.get("Content-Length")
            try:
                length = int(raw_length or 0)
            except ValueError:
                self.close_connection = True
                raise _RequestError(
                    400, "bad-request",
                    "Content-Length is not an integer: %r" % raw_length
                ) from None
            if length < 0:
                self.close_connection = True
                raise _RequestError(400, "bad-request",
                                    "Content-Length must be >= 0")
            if length > MAX_BODY_BYTES:
                # The body stays unread either way; close instead of
                # leaving the keep-alive connection desynced.
                self.close_connection = True
                raise _RequestError(413, "bad-request",
                                    "body exceeds %d bytes" % MAX_BODY_BYTES)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise _RequestError(400, "bad-request",
                                    "POST body must be JSON")
            try:
                return json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError) as err:
                raise _RequestError(400, "not-json",
                                    "body is not parseable JSON: %s"
                                    % err) from err

        # -- dispatch ------------------------------------------------------

        def _dispatch(self, method):
            started = time.perf_counter()
            service._requests.inc()
            split = urlsplit(self.path)
            params = {key: values[-1] for key, values in
                      parse_qs(split.query).items()}
            try:
                if method == "GET":
                    status, payload = service.handle_get(split.path, params)
                else:
                    status, payload = service.handle_post(
                        split.path, self._read_body())
                if split.path == "/metrics":
                    self._send_text(status, payload)
                else:
                    self._send_json(status, payload)
            except _RequestError as err:
                self._send_error_json(err.status, err.code, str(err))
            except DuplicateCaseError as err:
                service._rejected.inc()
                self._send_error_json(409, err.code, str(err))
            except IngestError as err:
                service._rejected.inc()
                self._send_error_json(400, err.code, str(err))
            except CaseNotFoundError as err:
                self._send_error_json(404, "not-found", str(err))
            except ServiceError as err:
                self._send_error_json(400, "bad-request", str(err))
            finally:
                service._latency.observe(
                    (time.perf_counter() - started) * 1000.0)

        def do_GET(self):
            self._dispatch("GET")

        def do_POST(self):
            self._dispatch("POST")

    return Handler
