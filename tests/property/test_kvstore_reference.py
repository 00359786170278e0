"""Property test: the kv-store tenant against a reference copy of its
earlier, O(records)-per-epoch logic (hypothesis).

``KeyValueStoreProgram`` keeps the keys it serves sorted as they are
inserted, finds a key's disk slot in a key -> slot dict, and snapshots
its index as ``bytes`` leaves. ``_ReferenceStore`` below is the logic
that did the same jobs by brute force: a sort and a filter every epoch
for the servable keys, ``list(index).index(key)`` for an existing key's
slot, and a plain ``{key: vaddr}`` dict as its state.

Each example runs both stores side by side in two identically seeded
guests under ``Crimes``, through epochs (some of them rolled back
through the epoch loop by an audit that errors), direct ``put``s of new
keys, existing keys and the seeded secrets (keys longer than the 30
bytes a record keeps, keys holding NUL, newline or non-ASCII
characters), and freeze/thaw round trips of each store's state. After
every step both must have emitted the same packets (payload and ports)
and disk writes (block and bytes), hold the same guest memory, and
agree on ``keys()`` and ``record_addresses()``.

Runs in tier-1; also selectable alone with ``-m property``.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.detectors.base import ScanModule
from repro.errors import IntrospectionError
from repro.guest.devices import Packet
from repro.guest.linux import LinuxGuest
from repro.sim.clone import freeze_state, thaw_state
from repro.sim.rng import SeededStream
from repro.workloads.base import GuestProgram
from repro.workloads.kvstore import KeyValueStoreProgram

pytestmark = pytest.mark.property

_RECORD_SIZE = 96
_VALUE_SIZE = 64
_SECRETS = ("user:1:card", "user:1:ssn", "api:payments:key")


class _ReferenceStore(GuestProgram):
    """The kv-store's logic before its index kept slots and sorted keys."""

    name = "kvstore"

    def __init__(self, seed):
        super().__init__()
        self.records_per_epoch = 4
        self.queries_per_epoch = 8
        self.disk_block_base = 0x100
        self._rng = SeededStream(seed, "kvstore")
        self._epoch = 0
        self._pid = None
        self._index = {}  # key -> value vaddr

    def bind(self, vm):
        super().bind(vm)
        process = vm.create_process("kvstored", heap_pages=64,
                                    canary_capacity=4096)
        self._pid = process.pid
        for key, value in zip(_SECRETS, ("4111-1111-1111-1111",
                                         "078-05-1120",
                                         "sk_live_51J9x7wqz")):
            self.put(key, value)

    @property
    def process(self):
        return self.vm.processes[self._pid]

    def put(self, key, value):
        process = self.process
        encoded = value.encode("utf-8")[:_VALUE_SIZE]
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
        return sorted(self._index.items())

    def step(self, start_ms, interval_ms):
        self._require_bound()
        self._epoch += 1
        for serial in range(self.records_per_epoch):
            self.put(
                "epoch:%d:rec:%d" % (self._epoch, serial),
                "payload-%06d" % self._rng.randint(0, 999999),
            )
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


class _Tee:
    """The output buffer, with a log of every output offered to it."""

    def __init__(self, sink):
        self.sink = sink
        self.log = []

    def emit_packet(self, packet):
        self.log.append(("packet", packet.src, packet.dst, packet.payload))
        self.sink.emit_packet(packet)

    def emit_disk_write(self, write):
        self.log.append(("disk", write.block, write.data))
        self.sink.emit_disk_write(write)


class _FailingAudit(ScanModule):
    """Errors the next audit once armed: the epoch is rolled back."""

    name = "failing-audit"
    guest_aided = False

    def __init__(self):
        self.armed = False

    def scan(self, context):
        if self.armed:
            self.armed = False
            raise IntrospectionError("audit failed on purpose")
        return []


class _Side:
    """One guest under ``Crimes`` running one store."""

    def __init__(self, store):
        self.vm = LinuxGuest(name="kv-ref", memory_bytes=2 * 1024 * 1024,
                             seed=0)
        self.crimes = Crimes(self.vm, CrimesConfig(epoch_interval_ms=20.0,
                                                   seed=0))
        self.outputs = _Tee(self.crimes.buffer)
        self.vm.set_output_sink(self.outputs)
        self.audit = _FailingAudit()
        self.crimes.install_module(self.audit)
        self.store = self.crimes.add_program(store)
        self.crimes.start()

    def apply(self, step):
        """Apply one step; returns what it returned."""
        op, args = step[0], step[1:]
        store = self.store
        if op == "epoch":
            self.audit.armed = args[0]
            return self.crimes.run_epoch().outcome
        if op == "roundtrip":
            store.load_state_dict(thaw_state(freeze_state(
                store.state_dict())))
            return None
        if op == "put-existing":
            keys = store.keys()
            return store.put(keys[args[0] % len(keys)], args[1])
        return store.put(args[0], args[1])

    def view(self):
        memory = self.vm.memory.view()
        try:
            image = bytes(memory)
        finally:
            memory.release()
        return {
            "outputs": list(self.outputs.log),
            "memory": image,
            "keys": self.store.keys(),
            "record_addresses": self.store.record_addresses(),
            "clock_ms": self.crimes.clock.now,
        }


_KEYS = st.one_of(
    st.text(max_size=12),
    st.text(min_size=31, max_size=48),
    st.builds("epoch:{}".format, st.text(max_size=40)),
    st.sampled_from(["a\x00b", "\x00", "line\nbreak", "épée", "键值存储",
                     "epoch:\x00", "epoch:\n", "epoch:é", "epoch:1:rec:0",
                     "epoch:" + "x" * 40]),
)
_VALUES = st.text(alphabet=st.characters(min_codepoint=0x20,
                                         max_codepoint=0x7E), max_size=70)
_STEPS = st.one_of(
    st.tuples(st.just("epoch"), st.booleans()),
    st.tuples(st.just("put-new"), _KEYS, _VALUES),
    st.tuples(st.just("put-existing"), st.integers(0, 2 ** 16), _VALUES),
    st.tuples(st.just("put-secret"), st.sampled_from(_SECRETS), _VALUES),
    st.tuples(st.just("roundtrip")),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(_STEPS, min_size=1, max_size=24))
@example([("epoch", False), ("put-new", "épée\x00\n" * 6, "v"),
          ("epoch", False), ("put-existing", 5, "w" * 70),
          ("put-secret", "user:1:ssn", "000"), ("epoch", True),
          ("roundtrip",), ("epoch", False), ("put-new", "epoch:\x00", "z"),
          ("epoch", True), ("epoch", False), ("roundtrip",),
          ("epoch", False)])
def test_kvstore_matches_its_reference(steps):
    new, reference = (_Side(KeyValueStoreProgram(seed=0)),
                      _Side(_ReferenceStore(seed=0)))
    assert new.view() == reference.view()
    for step in steps:
        assert new.apply(step) == reference.apply(step), step
        assert new.view() == reference.view(), step
    assert new.crimes.fault_rollbacks == reference.crimes.fault_rollbacks
