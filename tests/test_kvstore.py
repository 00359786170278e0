"""Tests for the key-value store workload and the data-theft scenario."""

import pytest

from repro.core.config import CrimesConfig, SafetyMode
from repro.core.crimes import Crimes
from repro.detectors.connections import ConnectionPolicyModule
from repro.detectors.netsig import OutputSignatureModule
from repro.guest.linux import LinuxGuest
from repro.sim.clone import thaw_state
from repro.workloads.kvstore import DataTheftProgram, KeyValueStoreProgram


def make_crimes(seed, **kwargs):
    vm = LinuxGuest(name="kv-%d" % seed, memory_bytes=16 * 1024 * 1024,
                    seed=seed)
    kwargs.setdefault("epoch_interval_ms", 50.0)
    kwargs.setdefault("seed", seed)
    return Crimes(vm, CrimesConfig(**kwargs))


class TestKeyValueStore:
    @pytest.fixture
    def store(self):
        vm = LinuxGuest(name="kv-unit", memory_bytes=16 * 1024 * 1024,
                        seed=210)
        store = KeyValueStoreProgram(seed=210)
        store.bind(vm)
        return store

    def test_seed_records_present(self, store):
        assert store.get("user:1:card") == "4111-1111-1111-1111"
        assert store.get("api:payments:key") == "sk_live_51J9x7wqz"

    def test_put_get_roundtrip(self, store):
        store.put("session:9", "token-abc")
        assert store.get("session:9") == "token-abc"

    def test_overwrite_in_place(self, store):
        first = store.put("counter", "1")
        second = store.put("counter", "2")
        assert first == second
        assert store.get("counter") == "2"

    def test_missing_key(self, store):
        assert store.get("absent") is None

    def test_records_persist_to_disk(self, store):
        writes_before = store.vm.disk.writes
        store.put("durable", "yes")
        assert store.vm.disk.writes == writes_before + 1

    def test_overwrite_persists_to_the_keys_own_block(self, store):
        """Overwriting a key rewrites its own block, not the newest key's."""
        disk = store.vm.disk
        base = store.disk_block_base
        store.put("new", "fresh")  # fourth key: block base + 3
        newest = disk.read(base + 3)
        store.put("user:1:card", "5500-0000-0000-0004")
        assert disk.read(base + 3) == newest
        card = disk.read(base)
        assert card.startswith(b"user:1:card\x00")
        assert b"5500-0000-0000-0004" in card
        assert b"4111-1111-1111-1111" not in card

    def test_step_generates_traffic_and_records(self, store):
        store.step(0.0, 50.0)
        assert store.vm.nic.tx_packets == store.queries_per_epoch
        assert any(key.startswith("epoch:1:") for key in store.keys())

    def test_state_roundtrip(self, store):
        store.step(0.0, 50.0)
        state = store.state_dict()
        store.step(50.0, 50.0)
        store.load_state_dict(state)
        assert not any(key.startswith("epoch:2:") for key in store.keys())


class TestDataTheftScenario:
    def test_sync_safety_blocks_the_dump(self):
        crimes = make_crimes(211, auto_respond=False)
        store = crimes.add_program(KeyValueStoreProgram(seed=211))
        crimes.add_program(DataTheftProgram(store, trigger_epoch=3))
        crimes.install_module(OutputSignatureModule())
        crimes.start()
        crimes.run(max_epochs=5)
        assert crimes.suspended
        # Normal query traffic flowed; the stolen dump never did.
        escaped = [p.payload for p in crimes.external_sink.packets]
        assert any(payload.startswith(b"VALUE") for payload in escaped)
        assert not any(b"4111-1111-1111-1111" in payload
                       for payload in escaped)

    def test_connection_policy_also_catches_it(self):
        crimes = make_crimes(212, auto_respond=False)
        store = crimes.add_program(KeyValueStoreProgram(seed=212))
        crimes.add_program(DataTheftProgram(store, trigger_epoch=2))
        crimes.install_module(ConnectionPolicyModule())
        crimes.start()
        crimes.run(max_epochs=4)
        finding = crimes.records[-1].detection.critical_findings()[0]
        assert finding.kind == "unauthorized-connection"
        assert finding.details["remote"] == "198.51.100.99:443"

    def test_best_effort_quantifies_the_loss(self):
        crimes = make_crimes(213, auto_respond=False,
                             safety=SafetyMode.BEST_EFFORT)
        store = crimes.add_program(KeyValueStoreProgram(seed=213))
        crimes.add_program(DataTheftProgram(store, trigger_epoch=3))
        crimes.install_module(ConnectionPolicyModule())
        crimes.start()
        crimes.run(max_epochs=5)
        assert crimes.suspended
        # Best Effort: the dump escaped before the epoch-end audit — the
        # §3.1 trade, observable.
        escaped = [p.payload for p in crimes.external_sink.packets]
        assert any(b"4111-1111-1111-1111" in payload
                   for payload in escaped)

    def test_store_survives_rollback(self):
        """Rollback after an attack restores the store's exact records."""
        crimes = make_crimes(214, auto_respond=False)
        store = crimes.add_program(KeyValueStoreProgram(seed=214))
        crimes.add_program(DataTheftProgram(store, trigger_epoch=3))
        crimes.install_module(ConnectionPolicyModule())
        crimes.start()
        crimes.run(max_epochs=5)
        assert crimes.suspended
        crimes.checkpointer.rollback()
        # Program states are kept frozen; thaw the store's to load it.
        store.load_state_dict(thaw_state(crimes._clean_program_states[0]))
        assert store.get("user:1:ssn") == "078-05-1120"
