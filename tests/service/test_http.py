"""HTTP control-plane tests against a real listener on an ephemeral port."""

import copy
import http.client
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.exporters import parse_prometheus_text
from repro.obs.fleet_merge import (
    merge_flight_snapshots,
    merge_registry_snapshots,
)
from repro.service.http import MAX_BODY_BYTES, CaseService
from repro.service.ingest import case_id_for
from repro.service.vault import CaseVault


@pytest.fixture()
def service(tmp_path):
    svc = CaseService(CaseVault(tmp_path / "vault"), workers=1,
                      seed=3).start()
    yield svc
    svc.stop()


def get(service, path):
    try:
        with urllib.request.urlopen(service.url + path) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()


def post(service, path, payload, raw=None):
    data = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(
        service.url + path, data=data,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()


class TestIngestRoutes:
    def test_post_ingests_and_get_reads_back(self, service,
                                             rootkit_bundle):
        status, body = post(service, "/cases", rootkit_bundle)
        assert status == 201
        case = json.loads(body)
        assert case["case_id"] == case_id_for(rootkit_bundle)
        status, body = get(service, "/cases/%s" % case["case_id"])
        assert status == 200 and json.loads(body) == case
        status, body = get(service, "/cases/%s/bundle" % case["case_id"])
        assert status == 200 and json.loads(body) == rootkit_bundle

    def test_tampered_bundle_gets_structured_400(self, service,
                                                 rootkit_bundle):
        tampered = copy.deepcopy(rootkit_bundle)
        tampered["flight"]["events"][0]["t_ms"] += 1.0
        status, body = post(service, "/cases", tampered)
        assert status == 400
        error = json.loads(body)["error"]
        assert error["code"] == "hash-chain-broken"
        assert json.loads(get(service, "/cases")[1])["cases"] == []

    def test_duplicate_is_409(self, service, rootkit_bundle):
        assert post(service, "/cases", rootkit_bundle)[0] == 201
        status, body = post(service, "/cases", rootkit_bundle)
        assert status == 409
        assert json.loads(body)["error"]["code"] == "duplicate-case"

    def test_non_json_body_is_400(self, service):
        status, body = post(service, "/cases", None, raw=b"not json{")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "not-json"

    def test_unknown_route_is_404(self, service):
        status, body = get(service, "/nope")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not-found"
        assert get(service, "/cases/case-00000000/")[0] == 404

    def test_traversal_case_ids_are_404(self, service, tmp_path):
        # A case.json planted outside the vault must stay unreachable
        # through `../` URL segments (and POST /jobs bodies).
        outside = tmp_path / "loot"
        outside.mkdir()
        (outside / "case.json").write_text(json.dumps({"planted": True}))
        (outside / "bundle.json").write_text(json.dumps({"planted": True}))
        for path in ("/cases/../../loot", "/cases/../../loot/bundle",
                     "/cases/../../../../etc/passwd"):
            status, body = get(service, path)
            assert status == 404, path
            assert json.loads(body)["error"]["code"] == "not-found"
        status, _ = post(service, "/jobs", {"case_id": "../../loot"})
        assert status == 404


class TestQueryRoutes:
    def test_cross_tenant_findings_query(self, service, rootkit_bundle,
                                         overflow_bundle):
        assert post(service, "/cases", rootkit_bundle)[0] == 201
        assert post(service, "/cases", overflow_bundle)[0] == 201
        status, body = get(service, "/findings")
        assert status == 200
        rows = json.loads(body)["findings"]
        assert {row["tenant"] for row in rows} == {"tenant-rk",
                                                   "tenant-ov"}
        stamps = [(row["t_ms"], row["tenant"]) for row in rows]
        assert stamps == sorted(stamps)
        status, body = get(service,
                           "/findings?module=syscall_table&since=0")
        filtered = json.loads(body)["findings"]
        assert filtered and all(row["module"] == "syscall-table"
                                for row in filtered)

    def test_bad_since_is_400(self, service):
        # nan parses as a float but compares false with every t_ms, so
        # accepting it would silently switch the filter off.
        for since in ("yesterday", "nan", "inf"):
            status, body = get(service, "/findings?since=" + since)
            assert status == 400, since
            assert json.loads(body)["error"]["code"] == "bad-request"

    def test_slo_dashboard(self, service, rootkit_bundle,
                           overflow_bundle):
        post(service, "/cases", rootkit_bundle)
        post(service, "/cases", overflow_bundle)
        status, body = get(service, "/slo")
        assert status == 200
        board = json.loads(body)
        assert board["schema"] == "crimes-slo-board/1"
        assert set(board["tenants"]) == {"tenant-rk", "tenant-ov"}
        assert board["fleet"]["cases"] == 2
        for row in board["tenants"].values():
            assert row["evaluations"] > 0

    def test_audit_route_verifies(self, service, rootkit_bundle):
        post(service, "/cases", rootkit_bundle)
        status, body = get(service, "/audit")
        assert status == 200
        payload = json.loads(body)
        assert payload["verify"]["ok"]
        assert [entry["kind"] for entry in payload["entries"]] == \
            ["vault.ingest"]


class TestMetricsRoute:
    def test_metrics_round_trip_through_parser(self, service,
                                               rootkit_bundle):
        post(service, "/cases", rootkit_bundle)
        post(service, "/cases", rootkit_bundle)  # duplicate -> rejected
        status, text = get(service, "/metrics")
        assert status == 200
        parsed = parse_prometheus_text(text)
        samples = {sample["name"]: sample["value"]
                   for sample in parsed["samples"]
                   if not sample["labels"]}
        assert samples["service_ingest_accepted"] == 1
        assert samples["service_ingest_rejected"] == 1
        assert samples["service_vault_cases"] == 1
        assert samples["service_requests"] >= 2
        assert parsed["types"]["service_request_ms"] == "histogram"
        buckets = [sample for sample in parsed["samples"]
                   if sample["name"] == "service_request_ms_bucket"]
        assert buckets and buckets[-1]["labels"]["le"] == "+Inf"


class TestJobRoutes:
    def test_job_lifecycle_over_http(self, service, rootkit_bundle):
        status, body = post(service, "/cases", rootkit_bundle)
        case_id = json.loads(body)["case_id"]
        status, body = post(service, "/jobs", {"case_id": case_id})
        assert status == 202
        assert json.loads(body)["job_id"] == "job-0000"
        service.queue.drain()
        reports = json.loads(get(service, "/cases/%s" % case_id)[1]
                             )["reports"]
        assert [report["status"] for report in reports] == ["ok"]
        stats = json.loads(get(service, "/jobs")[1])
        assert stats["completed"] == 1 and stats["pending"] == 0

    def test_job_for_missing_case_is_404(self, service):
        status, body = post(service, "/jobs",
                            {"case_id": "case-feedfacefeedface"})
        assert status == 404

    def test_job_without_case_id_is_400(self, service):
        status, body = post(service, "/jobs", {"plugins": []})
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad-request"


class TestFleetRoute:
    def test_valid_export_verifies(self, service, rootkit_crimes,
                                   overflow_crimes):
        merged = merge_flight_snapshots([
            rootkit_crimes.observer.flight.snapshot(),
            overflow_crimes.observer.flight.snapshot(),
        ])
        status, body = post(service, "/fleet", merged)
        assert status == 200
        verdict = json.loads(body)["verified"]
        assert verdict["ok"] and verdict["tenants"] == 2

    def test_mismatched_head_is_rejected(self, service, rootkit_crimes):
        merged = merge_flight_snapshots(
            [rootkit_crimes.observer.flight.snapshot()])
        merged["tenants"]["tenant-rk"]["head_hash"] = "0" * 64
        status, body = post(service, "/fleet", merged)
        assert status == 400
        assert json.loads(body)["error"]["code"] == "fleet-chain-mismatch"

    def test_malformed_rollup_rejected_before_storage(self, service,
                                                      rootkit_crimes):
        # verify_fleet_export only checks the event chains; a bad
        # rollup stored alongside a valid export used to poison every
        # later GET /metrics.
        assert post(service, "/fleet", [1, 2, 3])[0] == 400
        merged = merge_flight_snapshots(
            [rootkit_crimes.observer.flight.snapshot()])
        merged["registry_rollup"] = ["not", "a", "rollup"]
        status, body = post(service, "/fleet", merged)
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad-request"
        status, text = get(service, "/metrics")
        assert status == 200
        parsed = parse_prometheus_text(text)
        assert not any(sample["name"].startswith("fleet_")
                       for sample in parsed["samples"])

    def test_valid_rollup_renders_on_metrics(self, service,
                                             rootkit_crimes,
                                             overflow_crimes):
        merged = merge_flight_snapshots([
            rootkit_crimes.observer.flight.snapshot(),
            overflow_crimes.observer.flight.snapshot(),
        ])
        merged["registry_rollup"] = merge_registry_snapshots({
            "tenant-rk": rootkit_crimes.observer.registry.snapshot(),
            "tenant-ov": overflow_crimes.observer.registry.snapshot(),
        })
        assert merged["registry_rollup"]["counters"]
        assert post(service, "/fleet", merged)[0] == 200
        status, text = get(service, "/metrics")
        assert status == 200
        parsed = parse_prometheus_text(text)
        assert any(sample["name"].startswith("fleet_")
                   for sample in parsed["samples"])


class TestRequestFraming:
    def test_non_numeric_content_length_is_structured_400(self, service):
        host, port = service.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/cases")
            conn.putheader("Content-Length", "banana")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            error = json.loads(resp.read())["error"]
            assert error["code"] == "bad-request"
        finally:
            conn.close()

    def test_oversized_body_is_413_and_closes(self, service):
        host, port = service.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/cases")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 413
            # The unread body desyncs keep-alive; the server must not
            # pretend the connection is reusable.
            assert resp.getheader("Connection") == "close"
        finally:
            conn.close()


class TestKeepAlive:
    def test_one_connection_serves_a_request_mix_without_stalls(
            self, service, rootkit_bundle, overflow_bundle):
        """Regression: every response leaves in two writes, and with
        Nagle on the second waited for the client's delayed ACK, about
        40 ms per keep-alive request (1.7 s for this loop)."""
        case_id = json.loads(post(service, "/cases", rootkit_bundle)[1]
                             )["case_id"]
        paths = ("/cases/%s" % case_id, "/findings", "/healthz", "/metrics")
        bodies = {}
        host, port = service.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            started = time.perf_counter()
            for index in range(40):
                if index == 17:
                    conn.request("POST", "/cases",
                                 body=json.dumps(overflow_bundle).encode(),
                                 headers={"Content-Type": "application/json"})
                    path, want = "/cases", 201
                else:
                    path, want = paths[index % len(paths)], 200
                    conn.request("GET", path)
                resp = conn.getresponse()
                bodies[path] = resp.read().decode()
                assert resp.status == want, (index, path, bodies[path])
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        assert json.loads(bodies["/cases"])["case_id"] == \
            case_id_for(overflow_bundle)
        for path in paths[:2]:
            assert bodies[path] == get(service, path)[1], path
        assert elapsed < 0.5, "40 keep-alive requests took %.2f s" % elapsed


class TestHealth:
    def test_healthz(self, service):
        status, body = get(service, "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["ok"] and not payload["live_fleet"]
        assert payload["vault"]["cases"] == 0


class TestConcurrentFleetExport:
    def test_fleet_posts_race_metrics_renders(self, service,
                                              rootkit_crimes,
                                              overflow_crimes):
        """Regression: ``last_fleet_export`` was written by handler
        threads and read by ``render_metrics`` with no lock; the
        service now snapshots it under ``self._lock``. Hammer both
        sides concurrently — every response must be well-formed."""
        import threading

        merged = merge_flight_snapshots([
            rootkit_crimes.observer.flight.snapshot(),
            overflow_crimes.observer.flight.snapshot(),
        ])
        merged["registry_rollup"] = merge_registry_snapshots({
            "tenant-rk": rootkit_crimes.observer.registry.snapshot(),
            "tenant-ov": overflow_crimes.observer.registry.snapshot(),
        })
        failures = []

        def poster():
            for _ in range(5):
                status, _body = post(service, "/fleet", merged)
                if status != 200:
                    failures.append(("post", status))

        def reader():
            for _ in range(10):
                status, text = get(service, "/metrics")
                if status != 200:
                    failures.append(("get", status))
                parse_prometheus_text(text)

        threads = [threading.Thread(target=poster) for _ in range(2)] + \
            [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        status, text = get(service, "/metrics")
        assert status == 200
        parsed = parse_prometheus_text(text)
        assert any(sample["name"].startswith("fleet_")
                   for sample in parsed["samples"])
