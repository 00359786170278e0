"""Incident-bundle tests: build, validate, CLI, CloudHost aggregation."""

import copy
import json

import pytest

from repro.cli import main
from repro.core.cloud import CloudHost
from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.detectors.canary import CanaryScanModule
from repro.detectors.deep import SignatureSweepModule
from repro.errors import ObservabilityError
from repro.guest.linux import LinuxGuest
from repro.obs.incident import (
    INCIDENT_SCHEMA,
    REQUIRED_KEYS,
    build_epoch_chain,
    build_incident_bundle,
    validate_incident_bundle,
)
from repro.workloads.attacks import MemoryResidentMalware, \
    OverflowAttackProgram
from repro.workloads.webserver import WebServerWorkload


def make_crimes(seed=101, **config):
    vm = LinuxGuest(name="inc-%d" % seed, memory_bytes=8 * 1024 * 1024,
                    seed=seed)
    return Crimes(vm, CrimesConfig(epoch_interval_ms=50.0, seed=seed,
                                   **config))


def smashed_crimes(seed=101, trigger_epoch=3, **config):
    """A framework driven through a canary-smashing overflow."""
    config.setdefault("history_capacity", 4)
    crimes = make_crimes(seed=seed, **config)
    crimes.install_module(CanaryScanModule())
    crimes.add_program(WebServerWorkload("light", seed=seed))
    crimes.add_program(OverflowAttackProgram(trigger_epoch=trigger_epoch))
    crimes.start()
    crimes.run(max_epochs=trigger_epoch + 4)
    return crimes


class TestEndToEndCanarySmash:
    """The acceptance test: a canary-corruption workload must yield a
    bundle with the detection event, the causal epoch chain back to the
    last clean checkpoint, an intact hash chain, and SLO evaluations."""

    def test_bundle_tells_the_whole_story(self):
        crimes = smashed_crimes(seed=102, trigger_epoch=3)
        bundle = crimes.last_incident
        assert bundle is not None
        validate_incident_bundle(bundle)

        # 1. The detection event (both the serialized DetectionResult and
        #    the journaled flight events).
        detection = bundle["detection"]
        assert detection["attack_detected"]
        assert detection["epoch"] == 3
        assert any(finding["module"] == "canary"
                   for finding in detection["findings"])
        flight_kinds = [event["kind"] for event in
                        bundle["flight"]["events"]]
        assert "incident" in flight_kinds
        assert "scan.finding" in flight_kinds

        # 2. The causally-linked epoch chain back to the last clean
        #    checkpoint (epoch 2 committed; epoch 3 aborted).
        chain = bundle["epoch_chain"]
        assert chain[0]["epoch"] == 2 and chain[0]["clean_checkpoint"]
        assert chain[-1]["epoch"] == 3
        assert any(event["kind"] == "epoch.commit"
                   for event in chain[0]["events"])
        assert any(event["kind"] == "epoch.abort"
                   for event in chain[-1]["events"])
        assert any(event["kind"] == "rollback"
                   for event in chain[-1]["events"])

        # 3. The hash chain over the ring is intact, and re-verifiable
        #    from the serialized events alone.
        assert bundle["flight"]["verify"]["ok"]

        # 4. At least one SLO evaluation record rode along.
        assert len(bundle["slo"]["evaluations"]) >= 1

        # Plus: forensics from the auto-run Analyzer, and checkpoint
        # history stats.
        assert bundle["forensics"] is not None
        assert bundle["forensics"]["report"]["title"]
        assert bundle["checkpoints"]["history"]["entries"] >= 1

    def test_bundle_is_plain_json_data(self):
        crimes = smashed_crimes(seed=103)
        dumped = json.dumps(crimes.last_incident, sort_keys=True)
        assert "crimes-obs/2" in dumped

    def test_deterministic_across_identical_runs(self):
        first = smashed_crimes(seed=104).last_incident
        second = smashed_crimes(seed=104).last_incident
        assert first["flight"]["head_hash"] == second["flight"]["head_hash"]

        def strip_wall_accounting(bundle):
            # The recorder's self-overhead is host wall time — the one
            # deliberately non-deterministic field (and never hashed).
            out = copy.deepcopy(bundle)
            out["flight"].pop("overhead")
            out["metrics"]["flight"].pop("overhead")
            return out

        assert json.dumps(strip_wall_accounting(first), sort_keys=True) == \
            json.dumps(strip_wall_accounting(second), sort_keys=True)

    def test_async_scan_failure_also_builds_a_bundle(self):
        crimes = make_crimes(seed=105)
        crimes.install_async_module(SignatureSweepModule())
        crimes.add_program(MemoryResidentMalware(trigger_epoch=2))
        crimes.start()
        crimes.run(max_epochs=30)
        bundle = crimes.last_incident
        assert bundle is not None
        assert bundle["reason"] == "async-scan-failed"
        validate_incident_bundle(bundle)
        assert bundle["detection"]["attack_detected"]


class TestEpochChain:
    def test_chain_without_prior_commit_is_single_link(self):
        crimes = make_crimes(seed=106)
        crimes.observer.flight.record("epoch.begin", epoch=1)
        chain = build_epoch_chain(
            crimes.observer.flight.snapshot()["events"], 1)
        assert [link["epoch"] for link in chain] == [1]
        assert not chain[0]["clean_checkpoint"]

    def test_chain_spans_every_epoch_since_the_clean_commit(self):
        crimes = make_crimes(seed=107)
        flight = crimes.observer.flight
        flight.record("epoch.commit", epoch=4)
        flight.record("epoch.begin", epoch=5)
        flight.record("epoch.begin", epoch=6)
        flight.record("epoch.abort", epoch=6)
        chain = build_epoch_chain(flight.snapshot()["events"], 6)
        assert [link["epoch"] for link in chain] == [4, 5, 6]
        assert [link["clean_checkpoint"] for link in chain] == \
            [True, False, False]


class TestValidation:
    def test_validate_rejects_missing_keys(self):
        bundle = smashed_crimes(seed=108).last_incident
        broken = {key: value for key, value in bundle.items()
                  if key != "flight"}
        with pytest.raises(ObservabilityError, match="missing keys"):
            validate_incident_bundle(broken)

    def test_validate_rejects_wrong_schema(self):
        bundle = copy.deepcopy(smashed_crimes(seed=109).last_incident)
        bundle["schema"] = "crimes-obs/1"
        with pytest.raises(ObservabilityError, match="schema"):
            validate_incident_bundle(bundle)

    def test_validate_rejects_tampered_event(self):
        bundle = copy.deepcopy(smashed_crimes(seed=110).last_incident)
        bundle["flight"]["events"][0]["t_ms"] += 1.0
        with pytest.raises(ObservabilityError, match="hash chain broken"):
            validate_incident_bundle(bundle)

    def test_validate_rejects_unordered_epoch_chain(self):
        bundle = copy.deepcopy(smashed_crimes(seed=111).last_incident)
        bundle["epoch_chain"].reverse()
        with pytest.raises(ObservabilityError, match="causally ordered"):
            validate_incident_bundle(bundle)

    def test_validate_rejects_chain_outside_the_ring(self):
        bundle = copy.deepcopy(smashed_crimes(seed=112).last_incident)
        bundle["epoch_chain"][-1]["events"][0]["seq"] = 10 ** 9
        with pytest.raises(ObservabilityError, match="outside the flight"):
            validate_incident_bundle(bundle)

    def test_required_keys_match_schema_doc(self):
        bundle = smashed_crimes(seed=113).last_incident
        for key in REQUIRED_KEYS:
            assert key in bundle
        assert bundle["schema"] == INCIDENT_SCHEMA


class TestCloudHostAggregation:
    def _host_with_incident(self):
        host = CloudHost(name="h0")
        host.admit(
            LinuxGuest(name="victim", memory_bytes=8 * 1024 * 1024,
                       seed=121),
            CrimesConfig(epoch_interval_ms=50.0, seed=121),
            modules=[CanaryScanModule()],
            programs=[OverflowAttackProgram(trigger_epoch=2)],
        )
        host.admit(
            LinuxGuest(name="bystander", memory_bytes=8 * 1024 * 1024,
                       seed=122),
            CrimesConfig(epoch_interval_ms=50.0, seed=122),
            modules=[CanaryScanModule()],
        )
        host.run(rounds=6)
        return host

    def test_incident_bundles_only_for_detected_tenants(self):
        host = self._host_with_incident()
        bundles = host.incident_bundles()
        assert list(bundles) == ["victim"]
        validate_incident_bundle(bundles["victim"])

    def test_host_bundle_wraps_tenant_bundles_and_fleet(self):
        host = self._host_with_incident()
        wrapped = host.host_incident_bundle()
        assert wrapped["schema"] == INCIDENT_SCHEMA
        assert wrapped["host"] == "h0"
        assert wrapped["incident_tenants"] == ["victim"]
        assert wrapped["fleet"]["tenants"] == 2
        assert wrapped["fleet"]["incidents"] == 1
        validate_incident_bundle(wrapped["incidents"]["victim"])
        json.dumps(wrapped)


class TestIncidentCLI:
    def test_demo_prints_valid_bundle_json(self, capsys):
        assert main(["incident", "--demo"]) == 0
        bundle = json.loads(capsys.readouterr().out)
        validate_incident_bundle(bundle)
        assert bundle["tenant"] == "incident-demo"

    def test_summary_digest(self, capsys):
        assert main(["incident", "--demo", "--summary"]) == 0
        out = capsys.readouterr().out
        assert "audit-failed" in out
        assert "bundle valid" in out

    def test_out_writes_validated_file(self, tmp_path, capsys):
        path = tmp_path / "incident.json"
        assert main(["incident", "--demo", "--out", str(path)]) == 0
        bundle = json.loads(path.read_text())
        validate_incident_bundle(bundle)
        assert "written to" in capsys.readouterr().out
