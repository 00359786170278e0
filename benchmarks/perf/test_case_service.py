"""Case-service throughput: ingest, cross-case query, worker drain.

Measures the control plane's three hot paths with real evidence:

* **ingest** — distinct ``crimes-obs/2`` bundles (each from its own
  seeded attack run) through ``CaseVault.ingest``, which re-derives the
  flight hash chain and causal epoch chain per bundle — the number is
  *verified* ingests/s, not file writes/s;
* **HTTP ingest + query** — the same bundles POSTed through a live
  listener, then cross-tenant ``/findings`` queries, measuring the full
  socket -> validate -> store -> query round trip;
* **worker drain** — one forensics job per case (Volatility plugin pass
  over the attached memory dump), wall time from enqueue to drain.

Results go to ``BENCH_case_service.json``, with every ingest, query and
request timed on its own. The floors are deliberately loose: they gate
"did the control plane get pathologically slow", not a specific
machine's numbers.
"""

import json
import os
import sys
import urllib.request

from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.detectors.canary import CanaryScanModule
from repro.detectors.syscall_table import SyscallTableModule
from repro.forensics.dumps import MemoryDump
from repro.guest.linux import LinuxGuest
from repro.service.http import CaseService
from repro.service.vault import CaseVault
from repro.service.workers import ForensicsWorkerQueue
from repro.workloads.attacks import OverflowAttackProgram, RootkitProgram
from repro.workloads.webserver import WebServerWorkload

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

BUNDLES = 12
QUERY_ROUNDS = 50
HTTP_QUERY_PATHS = ("/findings", "/findings?module=syscall_table",
                    "/cases", "/slo", "/metrics") * 4

#: Loose sanity floors (see module docstring).
MIN_INGEST_PER_S = 5.0
MIN_QUERY_PER_S = 20.0
MAX_DRAIN_S = 60.0


def make_evidence(count):
    """``count`` distinct (bundle, dump) pairs from seeded attack runs."""
    pairs = []
    for index in range(count):
        seed = 1000 + index
        vm = LinuxGuest(name="bench-%03d" % index,
                        memory_bytes=2 * 1024 * 1024, seed=seed)
        crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=50.0,
                                         seed=seed, auto_respond=False,
                                         history_capacity=4))
        if index % 2 == 0:
            crimes.install_module(SyscallTableModule())
            crimes.add_program(RootkitProgram(trigger_epoch=2))
        else:
            crimes.install_module(CanaryScanModule())
            crimes.add_program(OverflowAttackProgram(trigger_epoch=3))
        crimes.add_program(WebServerWorkload("light", seed=seed))
        crimes.start()
        crimes.run(max_epochs=6)
        assert crimes.last_incident is not None
        pairs.append((crimes.last_incident,
                      MemoryDump.from_vm(vm, label="bench")))
    return pairs


def per_second(count, samples_ms):
    return count * 1000.0 / sum(samples_ms)


def bench_vault_ingest(root, evidence):
    """ms of each verified ``CaseVault.ingest``; returns the vault too."""
    vault = CaseVault(root)
    return vault, [harness.timed(vault.ingest, bundle, dump=dump)[1]
                   for bundle, dump in evidence]


def bench_queries(vault):
    """ms of each cross-case findings query, and the rows returned."""
    filters = ({}, {"module": "syscall_table"}, {"module": "canary"},
               {"since": 100.0})
    samples = []
    rows = 0
    for index in range(QUERY_ROUNDS):
        found, elapsed_ms = harness.timed(
            vault.findings, **filters[index % len(filters)])
        rows += len(found)
        samples.append(elapsed_ms)
    return samples, rows


def _post(url, bundle):
    request = urllib.request.Request(
        url, data=json.dumps(bundle).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as resp:
        assert resp.status == 201


def _get(url):
    with urllib.request.urlopen(url) as resp:
        assert resp.status == 200
        resp.read()


def bench_http(root, evidence):
    """ms of each POSTed bundle and of each GET, through a live listener."""
    service = CaseService(CaseVault(root), workers=1, seed=0).start()
    try:
        ingest = [harness.timed(_post, service.url + "/cases", bundle)[1]
                  for bundle, _ in evidence]
        query = [harness.timed(_get, service.url + path)[1]
                 for path in HTTP_QUERY_PATHS]
    finally:
        service.stop()
    return ingest, query


def bench_worker_drain(vault):
    """Wall ms from enqueueing one job per case to the drained queue."""
    queue = ForensicsWorkerQueue(vault, workers=2, seed=0).start()
    try:
        case_ids = vault.case_ids()

        def drain():
            for case_id in case_ids:
                queue.enqueue(case_id)
            return queue.drain(timeout_ms=MAX_DRAIN_S * 1000.0)

        result, wall_ms = harness.timed(drain)
    finally:
        queue.stop()
    assert result["failed"] == 0
    return len(case_ids), wall_ms


def test_case_service_throughput(tmp_path):
    evidence = make_evidence(BUNDLES)

    vault, ingest = bench_vault_ingest(tmp_path / "direct", evidence)
    queries, rows = bench_queries(vault)
    http_ingest, http_query = bench_http(tmp_path / "http", evidence)
    jobs, drain_ms = bench_worker_drain(vault)

    bench = harness.Bench(
        "case_service",
        "incident case service hot paths: verified bundle ingest, "
        "cross-case findings queries, HTTP round trips, forensics worker "
        "drain", True, bundles=BUNDLES, query_rounds=QUERY_ROUNDS)
    bench.case("vault_ingest", "CaseVault.ingest of each distinct bundle "
               "with its memory dump, chains re-derived", {"ingest": ingest},
               ingests_per_s=per_second(BUNDLES, ingest))
    bench.case("vault_query", "cross-case findings queries, %d rows "
               "returned" % rows, {"query": queries},
               rows_returned=rows,
               queries_per_s=per_second(QUERY_ROUNDS, queries))
    bench.case("http", "POST /cases per bundle, then GETs of findings, "
               "cases, slo and metrics, through a live listener",
               {"ingest": http_ingest, "query": http_query},
               ingests_per_s=per_second(BUNDLES, http_ingest),
               queries_per_s=per_second(len(HTTP_QUERY_PATHS), http_query))
    bench.case("worker_drain", "one forensics job per case on 2 workers, "
               "enqueue to drained", {"drain": [drain_ms]},
               jobs=jobs, wall_s=drain_ms / 1000.0,
               jobs_per_s=per_second(jobs, [drain_ms]))
    bench.gate("vault_ingest", "ingests_per_s", ">=", MIN_INGEST_PER_S)
    bench.gate("vault_query", "queries_per_s", ">=", MIN_QUERY_PER_S)
    bench.gate("worker_drain", "wall_s", "<=", MAX_DRAIN_S)
    bench.finish()
