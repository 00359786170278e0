"""One evidence chain: one link-and-verify rule, one epoch-chain derivation.

The flight journal and the case vault's audit log link and verify
through ``repro.obs.flight``'s one chain rule, so their verdicts agree on
the same edits. A bundle's epoch chain is re-derived from its
chain-verified flight events at ingest, so a rewritten chain is rejected
even though every event it names is in the ring. A malformed bundle or
fleet export ends in a typed rejection at every boundary (validator,
CLI, vault, HTTP), never in a raw exception.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.detectors import SyscallTableModule
from repro.errors import IngestError, ObservabilityError
from repro.guest.linux import LinuxGuest
from repro.obs.fleet_merge import merge_flight_snapshots
from repro.obs.flight import FlightRecorder, verify_event_chain
from repro.obs.incident import build_epoch_chain, validate_incident_bundle
from repro.service.http import CaseService
from repro.service.ingest import case_id_for, verify_fleet_export
from repro.service.vault import CaseVault
from repro.sim.clock import VirtualClock
from tests.integration.test_every_finding_reports import (
    CASES,
    HostileTaskList,
)
from tests.service.test_http import post

EPOCH_CHAIN_CODES = {"epoch-chain-empty", "epoch-chain-truncated",
                     "epoch-chain-out-of-ring"}


def _wire(bundle):
    """A bundle as it crosses a boundary: plain JSON."""
    return json.loads(json.dumps(bundle))


@pytest.fixture(scope="module")
def demo_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("demo") / "incident-demo.json"
    assert main(["incident", "--demo", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _case_bundle(guest, module, program, memory_mib=8, seed=61):
    vm = guest(name="chain-%d" % seed, memory_bytes=memory_mib * 1024 * 1024,
               seed=seed)
    crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=50.0, seed=seed))
    crimes.install_module(module())
    crimes.add_program(program())
    crimes.start()
    crimes.run(max_epochs=5)
    assert crimes.last_incident is not None
    return _wire(crimes.last_incident)


@pytest.fixture(scope="module")
def honest_bundles(demo_bundle):
    """The demo bundle plus one bundle per case of the every-finding
    suite, the unreadable task list included."""
    bundles = {name: _case_bundle(*CASES[name]) for name in sorted(CASES)}
    bundles["unreadable-task-list"] = _case_bundle(
        LinuxGuest, SyscallTableModule, HostileTaskList, memory_mib=4, seed=3)
    bundles["demo"] = demo_bundle
    return bundles


def forge(bundle):
    """Rewrite the epoch chain, keeping its epochs and every seq in the
    ring: relabel the events, zero their hashes, flip each link's
    clean-checkpoint flag and cut each link to its first event."""
    forged = copy.deepcopy(bundle)
    for link in forged["epoch_chain"]:
        link["clean_checkpoint"] = not link["clean_checkpoint"]
        del link["events"][1:]
        for event in link["events"]:
            event["kind"] = "epoch.commit"
            event["hash"] = "0" * 64
    return forged


class TestForgedEpochChain:
    def test_forged_chain_is_rejected_by_the_validator(self, demo_bundle):
        with pytest.raises(ObservabilityError) as excinfo:
            validate_incident_bundle(forge(demo_bundle))
        assert excinfo.value.code == "epoch-chain-out-of-ring"

    def test_forged_chain_never_takes_the_honest_case_id(self, demo_bundle,
                                                         tmp_path):
        vault = CaseVault(tmp_path / "vault")
        with pytest.raises(IngestError) as excinfo:
            vault.ingest(forge(demo_bundle))
        assert excinfo.value.code == "epoch-chain-out-of-ring"
        assert vault.case_ids() == []
        assert [entry["code"] for entry in vault.audit_entries()] == \
            ["epoch-chain-out-of-ring"]
        case = vault.ingest(copy.deepcopy(demo_bundle))
        assert case["case_id"] == case_id_for(demo_bundle)

    def test_dropping_the_clean_checkpoint_link_is_truncation(
            self, demo_bundle):
        cut = copy.deepcopy(demo_bundle)
        assert cut["epoch_chain"][0]["clean_checkpoint"]
        del cut["epoch_chain"][0]
        with pytest.raises(ObservabilityError) as excinfo:
            validate_incident_bundle(cut)
        assert excinfo.value.code == "epoch-chain-truncated"


class TestRederivation:
    def test_honest_bundles_rederive_their_epoch_chain(self, honest_bundles):
        for name, bundle in honest_bundles.items():
            derived = build_epoch_chain(bundle["flight"]["events"],
                                        bundle["incident_epoch"])
            assert derived == bundle["epoch_chain"], name
            assert validate_incident_bundle(bundle) is bundle

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_any_single_edit_of_the_epoch_chain_is_rejected(
            self, honest_bundles, data):
        name = data.draw(st.sampled_from(sorted(honest_bundles)))
        bundle = copy.deepcopy(honest_bundles[name])
        _edit_epoch_chain(bundle["epoch_chain"], data)
        with pytest.raises(ObservabilityError) as excinfo:
            validate_incident_bundle(bundle)
        assert excinfo.value.code in EPOCH_CHAIN_CODES


_VALUES = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=False), st.text(max_size=8),
                    st.lists(st.integers(), max_size=2))


def _edit_value(container, key, data):
    value = data.draw(_VALUES)
    if key in container and value == container[key]:
        value = [container[key]]
    container[key] = value


def _edit_epoch_chain(chain, data):
    """Apply one drawn edit to one link of ``chain``, or to one event."""
    index = data.draw(st.integers(0, len(chain) - 1))
    link = chain[index]
    events = link["events"]
    edits = ["drop-link", "copy-link", "link-field", "link-key",
             "drop-link-key", "add-event"]
    if events:
        edits += ["drop-event", "copy-event", "event-field", "event-key",
                  "drop-event-key"]
    edit = data.draw(st.sampled_from(edits))
    if edit == "drop-link":
        del chain[index]
    elif edit == "copy-link":
        chain.insert(index, copy.deepcopy(link))
    elif edit == "link-field":
        _edit_value(link, data.draw(st.sampled_from(sorted(link))), data)
    elif edit == "link-key":
        _edit_value(link, "forged", data)
    elif edit == "drop-link-key":
        del link[data.draw(st.sampled_from(sorted(link)))]
    elif edit == "add-event":
        events.append({"seq": data.draw(st.integers()), "t_ms": 0.0,
                       "kind": "epoch.commit", "span_id": None,
                       "hash": "0" * 64})
    else:
        position = data.draw(st.integers(0, len(events) - 1))
        event = events[position]
        if edit == "drop-event":
            del events[position]
        elif edit == "copy-event":
            events.insert(position, dict(event))
        elif edit == "event-field":
            _edit_value(event, data.draw(st.sampled_from(sorted(event))),
                        data)
        elif edit == "event-key":
            _edit_value(event, "forged", data)
        else:
            del event[data.draw(st.sampled_from(sorted(event)))]


# -- one chain rule: the journal and the vault agree -------------------------


def _edit_entries(edit, entries):
    if edit == "edited entry":
        entries[1]["kind"] = "forged"
    elif edit == "broken link":
        del entries[1]
    elif edit == "wrong head":
        del entries[-1]  # the head still names the dropped tail
    elif edit == "extra key":
        entries[1]["extra"] = 1
    return entries


@pytest.mark.parametrize("edit", ["intact", "edited entry", "broken link",
                                  "wrong head", "extra key"])
def test_flight_and_vault_verdicts_agree(edit, tmp_path):
    recorder = FlightRecorder(VirtualClock(), tenant="t")
    for kind in ("epoch.begin", "epoch.commit", "epoch.begin"):
        recorder.record(kind, epoch=1)
    events = [event.to_dict() for event in recorder.events()]
    flight = verify_event_chain(_edit_entries(edit, events),
                                head_hash=recorder.head_hash)

    vault = CaseVault(tmp_path / "vault")
    for _ in range(3):
        with pytest.raises(IngestError):
            vault.ingest({})
    entries = _edit_entries(edit, vault.audit_entries())
    with open(vault.audit_path, "w") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")

    assert vault.verify_audit() == flight
    assert flight["ok"] == (edit == "intact")


# -- malformed artifacts: typed rejections at every boundary ----------------


def _first(bundle, kind):
    return next(event for event in bundle["flight"]["events"]
                if event["kind"] == kind)


MALFORMED = {
    "flight-list": (lambda b: b.update(flight=[]), "not-a-bundle"),
    "slo-list": (lambda b: b.update(slo=[]), "not-a-bundle"),
    "tenant-list": (lambda b: b.update(tenant=["a"]), "not-a-bundle"),
    "reason-null": (lambda b: b.update(reason=None), "not-a-bundle"),
    "time-null": (lambda b: b.update(virtual_time_ms=None), "not-a-bundle"),
    "epoch-string": (lambda b: b.update(incident_epoch="4"), "not-a-bundle"),
    "no-epoch": (lambda b: b.pop("incident_epoch"), "missing-keys"),
    "detection-string": (lambda b: b.update(detection="x"), "not-a-bundle"),
    "chain-object": (lambda b: b.update(epoch_chain={}), "not-a-bundle"),
    "events-object": (lambda b: b["flight"].update(events={}),
                      "not-a-bundle"),
    "head-null": (lambda b: b["flight"].update(head_hash=None),
                  "not-a-bundle"),
    "no-head": (lambda b: b["flight"].pop("head_hash"), "missing-keys"),
    "event-number": (lambda b: b["flight"]["events"].__setitem__(0, 5),
                     "not-a-bundle"),
    "event-no-attrs": (lambda b: b["flight"]["events"][0].pop("attrs"),
                       "missing-keys"),
    "event-attrs-list": (lambda b: b["flight"]["events"][0].update(attrs=[]),
                         "not-a-bundle"),
    "event-seq-string": (lambda b: b["flight"]["events"][0].update(seq="0"),
                         "not-a-bundle"),
    "finding-module-list": (
        lambda b: _first(b, "scan.finding")["attrs"].update(module=["x"]),
        "not-a-bundle"),
    "findings-object": (lambda b: b["detection"].update(findings={}),
                        "not-a-bundle"),
    "finding-no-severity": (
        lambda b: b["detection"]["findings"][0].pop("severity"),
        "missing-keys"),
    "link-no-epoch": (lambda b: b["epoch_chain"][0].pop("epoch"),
                      "epoch-chain-truncated"),
    "link-number": (lambda b: b["epoch_chain"].__setitem__(0, 3),
                    "epoch-chain-truncated"),
}


def malformed(bundle, name):
    broken = copy.deepcopy(bundle)
    MALFORMED[name][0](broken)
    return broken


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc = CaseService(CaseVault(tmp_path_factory.mktemp("vault")),
                      workers=1, seed=3).start()
    yield svc
    svc.stop()


@pytest.mark.parametrize("name", sorted(MALFORMED))
class TestMalformedBundle:
    def test_cli_rejects_with_its_code(self, name, demo_bundle, tmp_path,
                                       capsys):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(malformed(demo_bundle, name)))
        with pytest.raises(SystemExit) as excinfo:
            main(["incident", "--validate", str(path)])
        assert excinfo.value.code == 1
        assert "REJECTED [%s]" % MALFORMED[name][1] in capsys.readouterr().err

    def test_vault_rejects_and_audits_once(self, name, demo_bundle,
                                           tmp_path):
        vault = CaseVault(tmp_path / "vault")
        with pytest.raises(IngestError) as excinfo:
            vault.ingest(malformed(demo_bundle, name))
        assert excinfo.value.code == MALFORMED[name][1]
        assert [(entry["kind"], entry["code"])
                for entry in vault.audit_entries()] == \
            [("vault.reject", MALFORMED[name][1])]
        assert vault.case_ids() == []

    def test_http_answers_400_and_audits_once(self, name, demo_bundle,
                                              service):
        before = service.vault.audit_entries()
        rejected, errors = service._rejected.value, service._errors.value
        status, body = post(service, "/cases", malformed(demo_bundle, name))
        assert (status, json.loads(body)["error"]["code"]) == \
            (400, MALFORMED[name][1])
        after = service.vault.audit_entries()
        assert len(after) == len(before) + 1
        assert (after[-1]["kind"], after[-1]["code"]) == \
            ("vault.reject", MALFORMED[name][1])
        assert (service._rejected.value, service._errors.value) == \
            (rejected + 1, errors + 1)
        assert service.vault.case_ids() == []


def _fleet_export():
    snapshots = []
    for tenant in ("tenant-a", "tenant-b"):
        recorder = FlightRecorder(VirtualClock(), tenant=tenant)
        for kind in ("epoch.begin", "epoch.commit"):
            recorder.record(kind, epoch=1)
        snapshots.append(recorder.snapshot())
    return _wire(merge_flight_snapshots(snapshots))


FLEET_MALFORMED = {
    "tenants-list": lambda m: m.update(tenants=[]),
    "events-object": lambda m: m.update(events={}),
    "event-number": lambda m: m["events"].__setitem__(0, 5),
    "event-no-tenant": lambda m: m["events"][0].pop("tenant"),
    "event-seq-string": lambda m: m["events"][0].update(seq="0"),
    "event-no-hash": lambda m: m["events"][0].pop("hash"),
    "tenant-no-head": lambda m: m["tenants"]["tenant-a"].pop("head_hash"),
    "tenant-count-string":
        lambda m: m["tenants"]["tenant-a"].update(events="2"),
    "tenant-string": lambda m: m["tenants"].update({"tenant-a": "x"}),
}


@pytest.mark.parametrize("name", sorted(FLEET_MALFORMED))
def test_malformed_fleet_export_is_a_typed_rejection(name, service):
    export = _fleet_export()
    assert verify_fleet_export(copy.deepcopy(export))["ok"]
    FLEET_MALFORMED[name](export)
    with pytest.raises(IngestError) as excinfo:
        verify_fleet_export(copy.deepcopy(export))
    assert excinfo.value.code == "fleet-chain-mismatch"
    status, body = post(service, "/fleet", export)
    assert (status, json.loads(body)["error"]["code"]) == \
        (400, "fleet-chain-mismatch")


def test_a_fleet_export_that_is_no_object_is_a_typed_rejection():
    with pytest.raises(IngestError) as excinfo:
        verify_fleet_export([1, 2])
    assert excinfo.value.code == "fleet-chain-mismatch"
