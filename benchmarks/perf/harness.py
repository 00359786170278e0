"""One harness for the host wall-clock benches in ``benchmarks/perf``.

``benchmarks/results/`` holds the paper's virtual-time artifacts; these
benches time the host. Each ``test_*.py`` builds its workload and says
what it times; this module does the rest the same way for all of them.
It reads the scale variables once (``CRIMES_PERF_FRAMES`` sizes the
simulated RAM, ``CRIMES_PERF_TENANTS`` the page-store fleet,
``CRIMES_FLEET_TENANTS`` the fleet bench; unset, each is full scale). It
samples the sides of a comparison in turn (:func:`sample`), so load
drift on a shared host hits each alike. :class:`Bench` writes one
``BENCH_<name>.json`` shape through
:func:`repro.obs.exporters.bench_payload` and
:func:`~repro.obs.exporters.write_bench_json` — the host's CPU count and
affinity, the git revision, the scale, every side's samples in ms with
their minimum (``best``, what every best-of-N gate compares), median and
quartiles, and every threshold with its measured value — then asserts
the thresholds that apply at this scale.

The checkpoint helpers at the end are shared by the substrate and
page-store benches, which differ only in the two checkpointers they
compare.
"""

import operator
import os
import random
import subprocess
import time

import numpy as np

from repro.checkpoint.checkpointer import Checkpointer
from repro.guest.linux import LinuxGuest
from repro.guest.memory import PAGE_SIZE
from repro.hypervisor.xen import Hypervisor
from repro.obs.exporters import bench_payload, write_bench_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

DEFAULT_FRAMES = 16384  # 64 MiB of simulated RAM at 4 KiB pages
DEFAULT_TENANTS = 64
DEFAULT_FLEET_TENANTS = 256
FRAMES = int(os.environ.get("CRIMES_PERF_FRAMES", DEFAULT_FRAMES))
TENANTS = int(os.environ.get("CRIMES_PERF_TENANTS", DEFAULT_TENANTS))
FLEET_TENANTS = int(os.environ.get("CRIMES_FLEET_TENANTS",
                                   DEFAULT_FLEET_TENANTS))
SCALE = {"frames": FRAMES, "tenants": TENANTS, "fleet_tenants": FLEET_TENANTS}
RAM_BYTES = FRAMES * PAGE_SIZE

_OPS = {">=": operator.ge, "<=": operator.le, "<": operator.lt}


def timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), elapsed ms)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - start) * 1000.0


def sample(repeats, sides):
    """``{side: [ms, ...]}`` from ``repeats`` turns of every side.

    ``sides`` maps a side's name to a callable that returns one sample
    in ms, or a list of them. The sides take turns, in order, once per
    repeat.
    """
    samples = {side: [] for side in sides}
    for _ in range(repeats):
        for side, run in sides.items():
            got = run()
            samples[side].extend(got if isinstance(got, list) else [got])
    return samples


def ratio(numerator, denominator):
    """``min(numerator) / min(denominator)``: best against best."""
    return min(numerator) / min(denominator)


def summarize(samples):
    """One side: every sample in ms, its minimum, median and quartiles."""
    samples = [round(float(value), 6) for value in samples]
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"samples_ms": samples, "best": min(samples),
            "median": float(median), "q1": float(q1), "q3": float(q3)}


def git_rev():
    """``HEAD``'s hash, ``-dirty`` when tracked files besides the
    ``BENCH_*.json`` the benches rewrite differ from it; ``None`` outside
    a git checkout."""
    def git(*args):
        return subprocess.run(("git",) + args, cwd=REPO_ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        rev = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no", "--",
                    ".", ":(exclude)BENCH_*.json")
    except (OSError, subprocess.CalledProcessError):
        return None
    return rev + ("-dirty" if dirty else "")


class Bench:
    """One ``BENCH_<name>.json``: its cases and its thresholds.

    ``params`` are the workload's own sizes (epochs, repeats, ...); the
    payload records them beside the shared scale.
    """

    def __init__(self, name, description, full_scale, **params):
        self.name = name
        self.description = description
        self.full_scale = full_scale
        self.params = params
        self.cases = {}
        self.gates = []

    def case(self, name, detail, sides, **derived):
        """Record a case: ``sides`` maps each side to its ms samples;
        ``derived`` holds the numbers computed from them."""
        self.cases[name] = {
            "detail": detail,
            "sides": {side: summarize(samples)
                      for side, samples in sides.items()},
            "derived": derived,
        }

    def gate(self, case, stat, op, limit, applies=True):
        """Hold ``derived[stat]`` of ``case`` to ``op limit`` where
        ``applies`` (the bench's scale condition)."""
        self.gates.append((case, stat, op, limit, applies))

    def finish(self, evidence=None):
        """Write the payload, print it, then assert every gate that applies."""
        cpu_count = os.cpu_count()
        affinity = (len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else cpu_count)
        thresholds = {}
        for case, stat, op, limit, applies in self.gates:
            value = self.cases[case]["derived"][stat]
            thresholds["%s.%s" % (case, stat)] = {
                "case": case, "stat": stat, "op": op, "limit": limit,
                "applies": applies, "value": value,
                "ok": _OPS[op](value, limit),
            }
        extra = {
            "description": self.description,
            "host_cpu_count": cpu_count,
            "host_affinity": affinity,
            "git_rev": git_rev(),
            "scale": SCALE,
            "full_scale": self.full_scale,
            "params": self.params,
            "thresholds": thresholds,
            "cases": self.cases,
        }
        if evidence is not None:
            extra["evidence"] = evidence
        write_bench_json(REPO_ROOT, self.name,
                         bench_payload(self.name, extra=extra))
        print("\nBENCH_%s.json: %s, full_scale=%s, %d cpu(s), affinity %d"
              % (self.name, SCALE, self.full_scale, cpu_count, affinity))
        for name, case in self.cases.items():
            print("%s (%s) %s" % (name, case["detail"], case["derived"]))
            for side, summary in case["sides"].items():
                print("  %-12s best %.4f  median %.4f [%.4f, %.4f] ms  n=%d"
                      % (side, summary["best"], summary["median"],
                         summary["q1"], summary["q3"],
                         len(summary["samples_ms"])))
        for name, gate in thresholds.items():
            print("gate %s: %.4g %s %g%s"
                  % (name, gate["value"], gate["op"], gate["limit"],
                     "" if gate["applies"] else " (not gated at this scale)"))
        failed = {name: gate for name, gate in thresholds.items()
                  if gate["applies"] and not gate["ok"]}
        assert not failed, failed


# -- checkpoint helpers shared by the substrate and page-store benches --

#: Frames dirtied per 25 ms epoch: ~2% of RAM.
EPOCH_DIRTY = max(4, FRAMES // 50)
HISTORY_CAPACITY = 8
CHECKPOINT_EPOCHS = 4


def checkpointer(cls=Checkpointer, **kwargs):
    """A started ``cls(domain, **kwargs)`` over a fresh ``RAM_BYTES`` guest."""
    vm = LinuxGuest(name="perf", memory_bytes=RAM_BYTES, seed=11)
    domain = Hypervisor(clock=vm.clock).create_domain(vm)
    checkpointer = cls(domain, **kwargs)
    checkpointer.start()
    return checkpointer


def dirty_sets():
    """``CHECKPOINT_EPOCHS`` seeded sets of ``EPOCH_DIRTY`` frames."""
    rng = random.Random(5)
    return [rng.sample(range(FRAMES), EPOCH_DIRTY)
            for _ in range(CHECKPOINT_EPOCHS)]


def _dirty(vm, pfns):
    for pfn in pfns:
        vm.memory.touch_frame(pfn)


def epoch_ms(make, dirty):
    """Mean ms of ``run_checkpoint()`` + ``commit()`` per epoch over
    ``dirty``, on a fresh checkpointer from ``make()``."""
    checkpointer = make()
    elapsed = 0.0
    for pfns in dirty:
        _dirty(checkpointer.domain.vm, pfns)
        start = time.perf_counter()
        checkpointer.run_checkpoint(interval_ms=25.0)
        checkpointer.commit()
        elapsed += time.perf_counter() - start
    return elapsed * 1000.0 / len(dirty)


def commit_ms(make, dirty):
    """ms of each ``commit()`` alone over ``dirty``, on a fresh
    checkpointer from ``make()``."""
    checkpointer = make()
    samples = []
    for pfns in dirty:
        _dirty(checkpointer.domain.vm, pfns)
        checkpointer.run_checkpoint(interval_ms=25.0)
        samples.append(timed(checkpointer.commit)[1])
    return samples


def rollback_run(make, dirty):
    """A callable timing one ``rollback()`` per call, on one checkpointer.

    The checkpointer commits ``dirty[0]``; each call then stages and
    aborts half of ``dirty[1]``, dirties the other half live, and times
    the rollback, which must restore RAM to the committed bytes.
    """
    checkpointer = make()
    vm = checkpointer.domain.vm
    _dirty(vm, dirty[0])
    checkpointer.run_checkpoint(interval_ms=25.0)
    checkpointer.commit()
    reference = bytes(vm.memory.view())
    split = len(dirty[1]) // 2

    def run():
        _dirty(vm, dirty[1][:split])
        checkpointer.run_checkpoint(interval_ms=25.0)
        checkpointer.abort()
        _dirty(vm, dirty[1][split:])
        elapsed_ms = timed(checkpointer.rollback)[1]
        assert bytes(vm.memory.view()) == reference
        return elapsed_ms

    return run
