"""The benchmark's own guest programs.

Both are deterministic given their seed and sized for the run up front,
so no run of the benchmark can exhaust a guest heap or canary table.
"""

from repro.guest.memory import PAGE_SIZE
from repro.sim.rng import SeededStream
from repro.workloads.base import GuestProgram

#: Allocator overhead per object: the 8-byte canary plus 16-byte
#: alignment slack, rounded up.
_OBJECT_OVERHEAD = 32


class CanaryChurnProgram(GuestProgram):
    """A large tripwired heap with a small, deterministic churn per epoch.

    ``bind`` allocates ``live_objects`` tripwired objects. Each epoch
    frees and reallocates ``frees`` of them and rewrites ``writes`` live
    ones, so the dirty set stays small while the canary table stays
    large. The bump allocator never reuses a freed object and every free
    leaves a freed tripwire in the table, so the heap and the table are
    sized for ``epochs`` epochs of churn.
    """

    name = "canary-churn"

    def __init__(self, live_objects, object_size, frees, writes, epochs,
                 seed=0):
        super().__init__()
        self.live_objects = live_objects
        self.object_size = object_size
        self.frees = frees
        self.writes = writes
        self.epochs = epochs
        self._rng = SeededStream(seed, "bench/canary-churn")
        self._pid = None
        self._addrs = []
        self._epoch = 0

    def bind(self, vm):
        super().bind(vm)
        # Every object ever allocated keeps a table entry: a canary while
        # live, a freed tripwire after.
        objects = self.live_objects + self.frees * self.epochs
        heap_pages = (objects * (self.object_size + _OBJECT_OVERHEAD)
                      // PAGE_SIZE) + 64
        process = vm.create_process("churnd", heap_pages=heap_pages,
                                    canary_capacity=objects + 64)
        self._pid = process.pid
        payload = b"\x42" * self.object_size
        for _ in range(self.live_objects):
            addr = process.malloc(self.object_size)
            process.write(addr, payload)
            self._addrs.append(addr)

    def step(self, start_ms, interval_ms):
        self._require_bound()
        self._epoch += 1
        process = self.vm.processes[self._pid]
        rng = self._rng
        refill = b"\x17" * self.object_size
        for _ in range(self.frees):
            index = rng.randint(0, len(self._addrs) - 1)
            process.free(self._addrs[index])
            addr = process.malloc(self.object_size)
            process.write(addr, refill)
            self._addrs[index] = addr
        payload = b"%06d" % self._epoch
        for _ in range(self.writes):
            process.write(self._addrs[rng.randint(0, len(self._addrs) - 1)],
                          payload)
        return {"synthetic_dirty": 0}

    def state_dict(self):
        return {"epoch": self._epoch, "pid": self._pid,
                "addrs": list(self._addrs)}

    def load_state_dict(self, state):
        self._epoch = state["epoch"]
        self._pid = state["pid"]
        self._addrs = list(state["addrs"])


class DirtyPagesProgram(GuestProgram):
    """Writes ``write_bytes`` to each of ``pages`` random heap pages.

    The pages are drawn without replacement from a ``heap_pages`` heap
    each epoch, so every epoch dirties exactly ``pages`` frames. The
    heap carries no canaries: this program loads the checkpoint path,
    not the audit.
    """

    name = "dirty-pages"

    def __init__(self, heap_pages, pages, write_bytes=64, seed=0):
        super().__init__()
        self.heap_pages = heap_pages
        self.pages = pages
        self.write_bytes = write_bytes
        self._rng = SeededStream(seed, "bench/dirty-pages")
        self._pid = None
        self._base = None
        self._epoch = 0

    def bind(self, vm):
        super().bind(vm)
        process = vm.create_process("dirtyd", heap_pages=self.heap_pages,
                                    canaries_enabled=False)
        self._pid = process.pid
        self._base = process.regions["heap"][0]

    def step(self, start_ms, interval_ms):
        self._require_bound()
        self._epoch += 1
        process = self.vm.processes[self._pid]
        stamp = b"%08d" % self._epoch
        payload = (stamp * (self.write_bytes // len(stamp) + 1))[
            :self.write_bytes]
        for page in self._rng.sample(range(self.heap_pages), self.pages):
            process.write(self._base + page * PAGE_SIZE, payload)
        return {"synthetic_dirty": 0}

    def state_dict(self):
        return {"epoch": self._epoch, "pid": self._pid, "base": self._base}

    def load_state_dict(self, state):
        self._epoch = state["epoch"]
        self._pid = state["pid"]
        self._base = state["base"]
