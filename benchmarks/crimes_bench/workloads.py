"""The four seeded workloads.

Each workload function takes a :class:`RunContext` and returns an
:class:`Outcome`. The amount of measured work is fixed by ``--seconds``
and the workload's nominal rate (about ``seconds`` of measuring on the
host the bounds were calibrated on), not by a wall-clock deadline: two
runs with the same seed and seconds simulate exactly the same thing, so
a faster build is not handed more (and, as heaps and tables grow, more
expensive) work. An epoch or fleet run whose measuring takes
:data:`CAP_FACTOR` times longer than ``--seconds`` stops early and says
so.

Every workload runs :data:`WARMUP` unmeasured operations first, records
a digest of the simulated state after ``check_at`` operations (the
golden digests in ``expected_seed0.json`` are taken there), and checks
its own outputs: expected outcomes only, no quarantine, HTTP answers
that match the request.
"""

import collections
import gc
import hashlib
import http.client
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time

import hostspeed
from benchstats import percentile, percentile_supported
from catalog import SPAN_LAYERS, VIRTUAL_PHASES
from layers import COUNTERS, counter_totals, virtual_totals
from programs import CanaryChurnProgram, DirtyPagesProgram
from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.core.fleet import FleetScheduler, default_tenant_spec
from repro.detectors.canary import CanaryScanModule
from repro.detectors.malware import MalwareScanModule
from repro.detectors.syscall_table import SyscallTableModule
from repro.faults import FaultPlan, FaultPlane, FaultSchedule
from repro.guest.linux import LinuxGuest
from repro.service.ingest import case_id_for
from repro.sim.rng import SeededStream
from repro.workloads.attacks import OverflowAttackProgram, RootkitProgram
from repro.workloads.webserver import WebServerWorkload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

WARMUP = 20
SETUP_REPEATS = 3
CAP_FACTOR = 1.6
MIB = 1 << 20

#: Operation after which each workload's digest is taken.
CHECK_AT = {"canary_audit": 120, "dirty_rollback": 120, "fleet_store": 60,
            "case_service": 100}

#: Nominal operations per second (epochs, fleet rounds, requests).
RATE = {"canary_audit": 45.0, "dirty_rollback": 33.0, "fleet_store": 7.0,
        "case_service": 25.0}

#: The reported tail. A default-length fleet_store run has about 100
#: rounds, which support p90 and nothing higher (ten samples beyond it);
#: the other workloads report the same percentile so that the metric
#: means one thing everywhere.
TAIL_PERCENTILE = 90.0

#: The kvstore tenant's heap runs out after about 600 epochs.
MAX_FLEET_ROUNDS = 500

#: A request slower than this misses the latency limit; a failed
#: request always does.
REQUEST_LIMIT_MS = 250.0

#: case_service: pause between a response and the caller's next request.
#: Every response of the service arrives in two sends, and the second
#: waits for the client's delayed ACK (~40 ms). A pause shorter than that
#: timeout keeps each connection in the client's delayed-ACK
#: ("ping-pong") mode from its first requests on, so every run measures
#: the same steady state; with longer gaps a connection flips between
#: modes at points that differ from run to run. Two callers then offer
#: about the 25 req/s of RATE.
THINK_S = 0.02

_FINDINGS_QUERIES = ("/findings", "/findings?module=syscall_table",
                     "/findings?since=100")


class RunContext:
    """Inputs of one workload run."""

    def __init__(self, seed=0, seconds=15.0, tracer=None,
                 setup_repeats=SETUP_REPEATS, check_at=None):
        self.seed = seed
        self.seconds = seconds
        #: A :class:`layers.LayerTracer` whose wrappers are installed,
        #: or None for an untraced run.
        self.tracer = tracer
        self.setup_repeats = setup_repeats
        self.check_at = check_at

    def check_point(self, workload):
        check_at = self.check_at or CHECK_AT[workload]
        if check_at <= WARMUP:
            raise ValueError("check_at must come after the %d warm-up "
                             "operations" % WARMUP)
        return check_at

    def measured_ops(self, workload, check_at):
        return max(check_at - WARMUP,
                   math.ceil(self.seconds * RATE[workload]))


class Outcome:
    """What one workload run produced."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        #: End-to-end metric name -> value.
        self.metrics = {}
        #: Per-layer metric name -> value (traced runs).
        self.layers = {}
        self.digest = None
        self.info = {}

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)


def peak_rss_mb():
    """Own peak RSS plus the largest waited-for child's, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _set_up(ctx, build, close=None):
    """Build the system ``ctx.setup_repeats`` times; keep the last.

    Returns ``(system, [(seconds, speed factor) per build])``; the factor
    comes from the host-speed kernel run just before each build. Earlier
    builds are closed and collected before the next starts, outside the
    timed region.
    """
    builds = []
    system = None
    for _ in range(ctx.setup_repeats):
        if system is not None:
            if close is not None:
                close(system)
            system = None
            gc.collect()
        factor = hostspeed.factor_now()
        started = time.perf_counter()
        system = build()
        builds.append((time.perf_counter() - started, factor))
    return system, builds


def _time_metrics(outcome, builds, latencies_s, scaled_s, work, speed,
                  callers=1, think_s=0.0):
    """Fill the end-to-end metrics of ``outcome``.

    ``scaled_s`` are the ``latencies_s`` at the reference host speed;
    build times are scaled by the kernel run before each build. Every
    workload is a closed loop of ``callers`` callers that pause
    ``think_s`` between operations, so its throughput is the ``work``
    over the time each caller spent waiting and pausing. The raw
    wall-clock figures go to ``info``.
    """
    def summary(setup_s, latencies):
        busy_s = (sum(latencies) + think_s * len(latencies)) / callers
        return {
            "setup_s": percentile(setup_s, 50),
            "throughput_per_s": work / busy_s,
            "latency_p50_ms": percentile(latencies, 50) * 1000.0,
            "latency_p90_ms": percentile(latencies, TAIL_PERCENTILE)
            * 1000.0,
        }

    outcome.info["raw"] = summary([seconds for seconds, _ in builds],
                                  latencies_s)
    outcome.metrics = summary([seconds * factor for seconds, factor in builds],
                              scaled_s)
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    outcome.info["host_speed"] = speed.summary()
    outcome.info.update(samples=len(latencies_s),
                        setup_runs=[round(seconds, 4)
                                    for seconds, _ in builds])
    if not percentile_supported(len(latencies_s), TAIL_PERCENTILE):
        outcome.info["tail_note"] = (
            "p%g rests on fewer than ten samples beyond it"
            % TAIL_PERCENTILE)


def span_metrics(tracer, ops, scale=1.0):
    """``<layer>.calls`` and ``<layer>.self_ms`` per operation.

    ``scale`` converts host seconds to reference-speed seconds.
    """
    metrics = {}
    for layer in SPAN_LAYERS:
        calls, _wall, self_s, _items = tracer.totals.get(layer,
                                                         (0, 0.0, 0.0, 0))
        metrics[layer + ".calls"] = calls / ops
        metrics[layer + ".self_ms"] = self_s * scale * 1000.0 / ops
    return metrics


def _virtual_metrics(totals):
    epochs = totals["epochs"] or 1
    return {"virtual.%s_ms" % phase: totals.get(phase, 0.0) / epochs
            for phase in VIRTUAL_PHASES}


# -- canary_audit and dirty_rollback: one guest, closed loop -----------------


def _epoch_digest(crimes):
    outcomes = collections.Counter(r.outcome for r in crimes.records)
    return {
        "epochs": len(crimes.records),
        "virtual_ms": crimes.clock.now,
        "flight_head": crimes.observer.flight.head_hash,
        "outcomes": dict(sorted(outcomes.items())),
        "fault_rollbacks": crimes.fault_rollbacks,
        "incidents": [r.epoch for r in crimes.records
                      if r.outcome == "attack"],
    }


def _epoch_loop(ctx, outcome, build, allowed_outcomes):
    """Warm up, then time ``run_epoch`` in a closed loop."""
    workload = outcome.workload
    check_at = ctx.check_point(workload)
    ops = ctx.measured_ops(workload, check_at)
    crimes, builds = _set_up(ctx, lambda: build(WARMUP + ops))
    tracer = ctx.tracer
    if tracer is not None:
        tracer.follow(crimes.clock)
    for _ in range(WARMUP):
        crimes.run_epoch()
    if tracer is not None:
        tracer.reset()
    scan = None
    if tracer is not None and crimes.detector.modules \
            and crimes.detector.modules[0].name == "canary":
        scan = crimes.detector.modules[0]
        checked_before = scan.canaries_checked + scan.freed_regions_checked
    latencies = []
    speed = hostspeed.SpeedTrace()
    deadline = time.perf_counter() + CAP_FACTOR * ctx.seconds
    for index in range(ops):
        started = time.perf_counter()
        crimes.run_epoch()
        latencies.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.fold()
        speed.sample()
        if WARMUP + index + 1 == check_at:
            outcome.digest = _epoch_digest(crimes)
        if outcome.digest is not None \
                and time.perf_counter() > deadline:
            outcome.info["capped"] = True
            break

    measured = crimes.records[WARMUP:]
    outcome.attempted = len(measured)
    outcome.failed = sum(1 for record in measured
                         if record.outcome not in allowed_outcomes)
    outcome.check(outcome.failed == 0,
                  "%d epoch(s) ended outside %s"
                  % (outcome.failed, sorted(allowed_outcomes)))
    _time_metrics(outcome, builds, latencies, speed.normalize(latencies),
                  len(latencies), speed)
    outcome.info["ops"] = len(latencies)
    if tracer is not None:
        layers = span_metrics(tracer, len(latencies), speed.scale())
        layers.update(_virtual_metrics(
            virtual_totals(crimes.records[:check_at])))
        epochs = len(crimes.records)
        for name, total in counter_totals([crimes]).items():
            layers[name] = total / epochs
        layers["checkpoint.resident_mb"] = \
            crimes.checkpointer.retained_bytes() / MIB
        if scan is not None:
            read = tracer.totals.get("vmi.read", (0, 0.0, 0.0, 0))[3]
            checked = (scan.canaries_checked + scan.freed_regions_checked
                       - checked_before)
            layers["detectors.canary.checked_ratio"] = \
                checked / read if read else 0.0
        outcome.layers = layers
    return crimes


def canary_audit(ctx, memory_mib=64, live_objects=24576, object_size=384,
                 frees=12, writes=192):
    """§5.5's canary regime: a huge tripwire table, a sparse dirty set.

    Twelve frees per epoch keep the freed tripwires under half the live
    table over a default-length run.
    """
    outcome = Outcome("canary_audit")

    def build(epochs):
        vm = LinuxGuest(name="canary-audit", memory_bytes=memory_mib * MIB,
                        seed=ctx.seed)
        crimes = Crimes(vm, CrimesConfig(
            epoch_interval_ms=25.0, seed=ctx.seed,
            nominal_frames=vm.memory.frame_count))
        crimes.install_module(CanaryScanModule())
        crimes.install_module(MalwareScanModule(detect_hidden=False))
        crimes.add_program(CanaryChurnProgram(
            live_objects, object_size, frees, writes, epochs, seed=ctx.seed))
        crimes.start()
        return crimes

    crimes = _epoch_loop(ctx, outcome, build, {"committed"})
    outcome.check(not crimes.suspended, "the guest was suspended")
    return outcome


def dirty_rollback(ctx, memory_mib=64, heap_pages=8192, pages=2048):
    """Checkpoint write path plus a seeded synchronous rollback path.

    A transient AUDIT_TIMEOUT plan forces about one rollback in ten
    epochs; audit is a single syscall-table scan.
    """
    outcome = Outcome("dirty_rollback")

    def build(epochs):
        vm = LinuxGuest(name="dirty-rollback",
                        memory_bytes=memory_mib * MIB, seed=ctx.seed)
        plan = FaultPlan.single(
            FaultPlane.AUDIT_TIMEOUT,
            FaultSchedule.transient(probability=0.1),
            seed=ctx.seed)
        crimes = Crimes(vm, CrimesConfig(
            epoch_interval_ms=25.0, seed=ctx.seed,
            nominal_frames=vm.memory.frame_count, history_capacity=8),
            fault_plan=plan)
        crimes.install_module(SyscallTableModule())
        crimes.add_program(DirtyPagesProgram(heap_pages, pages,
                                             seed=ctx.seed))
        crimes.start()
        return crimes

    crimes = _epoch_loop(ctx, outcome, build, {"committed", "rolled-back"})
    rolled_back = sum(1 for r in crimes.records if r.outcome == "rolled-back")
    injected = crimes.injector.injected_total
    # Every injected stall must have become exactly one rollback.
    outcome.check(rolled_back == injected == crimes.fault_rollbacks,
                  "%d rollback(s) for %d injected audit timeout(s)"
                  % (rolled_back, injected))
    outcome.check(rolled_back > 0, "the fault plan never fired")
    outcome.info["rollbacks"] = rolled_back
    return outcome


# -- fleet_store: many small tenants over process workers --------------------


def _fleet_specs(seed, tenants, memory_mib, check_at):
    """Tenant specs plus ``{name: attack_epoch}`` for the attacked ones.

    One tenant in 16 is attacked inside the checked prefix (incident and
    replay path); one in 8 runs a transient backup-sync fault plan (hold
    and recover path).
    """
    rng = SeededStream(seed, "bench/fleet")
    specs = []
    attacked = {}
    for index in range(tenants):
        name = "tenant-%03d" % index
        attack_epoch = None
        fault_plan = None
        if index % 16 == 0:
            attack_epoch = rng.randint(WARMUP + 1, check_at)
            attacked[name] = attack_epoch
        elif index % 8 == 1:
            fault_plan = FaultPlan.single(
                FaultPlane.BACKUP_SYNC,
                FaultSchedule.transient(probability=0.05, fail_attempts=5),
                seed=seed * 1000 + index)
        specs.append(default_tenant_spec(
            name, seed=seed * 1000 + index,
            sla=("premium", "standard", "batch", "spot")[index % 4],
            memory_bytes=memory_mib * MIB, attack_epoch=attack_epoch,
            fault_plan=fault_plan))
    return specs, attacked


def _fleet_digest(fleet):
    digests = fleet.tenant_digests()
    heads = "".join("%s=%s\n" % (name, digest["flight_head"])
                    for name, digest in sorted(digests.items()))
    return {
        "rounds": fleet.rounds_run,
        "virtual_ms": fleet.observer.clock.now,
        "flight_heads": hashlib.sha256(heads.encode()).hexdigest(),
        "epochs_run": sum(d["epochs_run"] for d in digests.values()),
        "epochs_held": sum(d["epochs_held"] for d in digests.values()),
        "epochs_shed": sum(d["epochs_shed"] for d in digests.values()),
        "fault_rollbacks": sum(d["fault_rollbacks"]
                               for d in digests.values()),
        "incidents": fleet.incidents(),
        "quarantined": fleet.quarantined(),
        "store_unique_pages": fleet.store_rollup()["unique_pages"],
    }


def _fleet_epochs(fleet):
    return sum(d["epochs_run"] for d in fleet.tenant_digests().values())


def fleet_store(ctx, tenants=128, memory_mib=2, workers=2):
    """A shared-nothing fleet: fork+pipe workers, one page store each."""
    outcome = Outcome("fleet_store")
    check_at = ctx.check_point("fleet_store")
    ops = min(ctx.measured_ops("fleet_store", check_at),
              MAX_FLEET_ROUNDS - WARMUP)
    specs, attacked = _fleet_specs(ctx.seed, tenants, memory_mib, check_at)

    def build():
        fleet = FleetScheduler(workers=workers, backend="process",
                               store=True, batch_rounds=1)
        try:
            for spec in specs:
                fleet.admit(spec)
        except BaseException:
            fleet.shutdown()
            raise
        return fleet

    fleet, builds = _set_up(ctx, build, close=FleetScheduler.shutdown)
    tracer = ctx.tracer
    try:
        for _ in range(WARMUP):
            fleet.run_rounds(1)
        if tracer is not None:
            tracer.fold()
            tracer.reset()
        epochs_before = _fleet_epochs(fleet)
        latencies = []
        speed = hostspeed.SpeedTrace()
        deadline = time.perf_counter() + CAP_FACTOR * ctx.seconds
        for index in range(ops):
            started = time.perf_counter()
            fleet.run_rounds(1)
            latencies.append(time.perf_counter() - started)
            if tracer is not None:
                tracer.fold()
            speed.sample()
            if WARMUP + index + 1 == check_at:
                outcome.digest = _fleet_digest(fleet)
            if outcome.digest is not None \
                    and time.perf_counter() > deadline:
                outcome.info["capped"] = True
                break
        digests = fleet.tenant_digests()
        store = fleet.store_rollup()
        rounds = fleet.rounds_run
    finally:
        fleet.shutdown()

    work = sum(d["epochs_run"] for d in digests.values()) - epochs_before
    outcome.attempted = work
    expected_incidents = sorted(name for name, epoch in attacked.items()
                                if epoch <= rounds)
    quarantined = [name for name, d in digests.items() if d["quarantined"]]
    suspended = sorted(name for name, d in digests.items()
                       if d["suspended"])
    short = [name for name, d in digests.items()
             if d["epochs_run"] != attacked.get(name, rounds)]
    outcome.failed = len(quarantined) + len(set(suspended)
                                            ^ set(expected_incidents))
    outcome.check(not quarantined, "quarantined tenants: %s" % quarantined)
    outcome.check(suspended == expected_incidents,
                  "incidents %s, expected %s"
                  % (suspended, expected_incidents))
    outcome.check(not short, "tenants off the round count: %s" % short)
    _time_metrics(outcome, builds, latencies, speed.normalize(latencies),
                  work, speed)
    outcome.info.update(ops=len(latencies), tenants=tenants,
                        workers=workers)
    if tracer is not None:
        outcome.layers = _fleet_layers(tracer, len(latencies),
                                       sum(latencies), rounds, store,
                                       speed.scale())
    return outcome


def _fleet_layers(tracer, measured_rounds, round_wall_s, rounds, store,
                  scale):
    layers = span_metrics(tracer, measured_rounds, scale)
    fleet = tracer.fleet
    shards = fleet.shards.values()
    batches = fleet.batches or 1
    layers["fleet.report_kb"] = fleet.report_bytes / 1024.0 / batches
    layers["fleet.worker_busy_ms"] = (fleet.busy_s * scale * 1000.0
                                      / max(len(shards), 1) / batches)
    layers["fleet.ipc_overhead_ms"] = ((round_wall_s - fleet.busy_max_s)
                                       * scale * 1000.0 / batches)
    for name in COUNTERS:
        layers[name] = sum(shard["counters"][name]
                           for shard in shards) / rounds
    puts = sum(shard["store"]["puts"] for shard in shards)
    hits = sum(shard["store"]["dedup_hits"] for shard in shards)
    layers["store.dedup_hit_ratio"] = hits / puts if puts else 0.0
    layers["store.resident_mb"] = store["resident_bytes"] / MIB
    layers["checkpoint.resident_mb"] = store["resident_bytes"] / MIB
    virtual = {"epochs": 0}
    for shard in shards:
        for key, value in shard.get("virtual", {}).items():
            virtual[key] = virtual.get(key, 0) + value
    layers.update(_virtual_metrics(virtual))
    return layers


# -- case_service: the HTTP control plane, two callers -----------------------


def make_bundle(seed, name):
    """One verified ``crimes-obs/2`` incident bundle from a seeded attack."""
    vm = LinuxGuest(name=name, memory_bytes=2 * MIB, seed=seed)
    crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=50.0, seed=seed,
                                     auto_respond=False, history_capacity=4))
    if seed % 2 == 0:
        crimes.install_module(SyscallTableModule())
        crimes.add_program(RootkitProgram(trigger_epoch=2))
    else:
        crimes.install_module(CanaryScanModule())
        crimes.add_program(OverflowAttackProgram(trigger_epoch=3))
    crimes.add_program(WebServerWorkload("light", seed=seed))
    crimes.start()
    crimes.run(max_epochs=6)
    if crimes.last_incident is None:
        raise RuntimeError("seeded attack %d produced no incident" % seed)
    return crimes.last_incident


def prefill_bundles(seed, count):
    return [make_bundle(seed * 10000 + index, "vault-%03d" % index)
            for index in range(count)]


def _post_bundles(seed, count):
    return [make_bundle(seed * 10000 + 5000 + index, "posted-%03d" % index)
            for index in range(count)]


class _Launcher:
    """Runs ``service_launcher.py`` in a child process."""

    def __init__(self, seed, prefill, workdir, trace):
        self.vault = tempfile.mkdtemp(prefix="vault-", dir=workdir)
        self.report_path = self.vault + ".report.json"
        command = [sys.executable, os.path.join(HERE, "service_launcher.py"),
                   "--seed", str(seed), "--prefill", str(prefill),
                   "--vault", self.vault, "--report", self.report_path]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(command, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(120.0, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            self.process.wait()
            raise RuntimeError("case service launcher exited with %s "
                               "before it was ready"
                               % self.process.returncode)
        self.ready = json.loads(line)

    def stop(self):
        """Stop the service; returns the launcher's exit report."""
        self.process.stdin.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise RuntimeError("case service launcher did not stop")
        self.process.stdout.close()
        if self.process.returncode != 0:
            raise RuntimeError("case service launcher exited with %d"
                               % self.process.returncode)
        with open(self.report_path) as handle:
            return json.load(handle)

    def kill(self):
        """Make sure the child is gone (a no-op after :meth:`stop`)."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


#: One block of 20 requests: 5% POST /cases, 30% /findings, 55%
#: /cases/<id>, 10% /metrics. Every block has exactly this mix in a
#: seeded order, so every seed writes the same number of cases.
_REQUEST_BLOCK = (("post",) + ("findings",) * 6 + ("case",) * 11
                  + ("metrics",) * 2)


def _request_kinds(seed, count):
    stream = SeededStream(seed, "bench/request-kind")
    kinds = []
    while len(kinds) < count:
        block = list(_REQUEST_BLOCK)
        stream.shuffle(block)
        kinds.extend(block)
    return kinds[:count]


def _request_plan(seed, kinds, case_ids, posts):
    """Seeded ``(method, path, body, expected_case_id)`` per request."""
    targets = SeededStream(seed, "bench/request-target")
    posted = iter(posts)
    plan = []
    for kind in kinds:
        if kind == "post":
            bundle = next(posted)
            plan.append(("POST", "/cases", json.dumps(bundle).encode(),
                         case_id_for(bundle)))
        elif kind == "findings":
            plan.append(("GET", targets.choice(_FINDINGS_QUERIES), None,
                         None))
        elif kind == "case":
            case_id = targets.choice(case_ids)
            plan.append(("GET", "/cases/" + case_id, None, case_id))
        else:
            plan.append(("GET", "/metrics", None, None))
    return plan


def _verify_response(request, status, body):
    """None if the response answers the request, else what is wrong."""
    method, path, _payload, case_id = request
    want = 201 if method == "POST" else 200
    if status != want:
        return "%s %s -> %s" % (method, path, status)
    if path == "/metrics":
        return None if b"service_requests" in body else "bad /metrics body"
    payload = json.loads(body)
    if case_id is not None and payload.get("case_id") != case_id:
        return "%s %s answered case %r" % (method, path,
                                           payload.get("case_id"))
    if path.startswith("/findings") \
            and payload.get("count") != len(payload.get("findings", ())):
        return "%s count does not match its rows" % path
    return None


def _drive(port, plan, callers):
    """Closed loop: ``callers`` keep-alive connections, each sending its
    next request :data:`THINK_S` after the previous response; request i
    goes to caller ``i % callers``. Returns ``[(sent, done, error)]``."""
    results = [None] * len(plan)

    def caller(lane):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            for index in range(lane, len(plan), callers):
                method, path, body, _case = plan[index]
                sent = time.perf_counter()
                try:
                    headers = ({"Content-Type": "application/json"}
                               if body is not None else {})
                    conn.request(method, path, body=body, headers=headers)
                    response = conn.getresponse()
                    data = response.read()
                    done = time.perf_counter()
                    error = _verify_response(plan[index], response.status,
                                             data)
                except (OSError, http.client.HTTPException) as err:
                    done = time.perf_counter()
                    error = "%s %s: %s" % (method, path, err)
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=60)
                results[index] = (sent, done, error)
                time.sleep(THINK_S)
        finally:
            conn.close()

    threads = [threading.Thread(target=caller, args=(lane,), daemon=True)
               for lane in range(callers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0 + len(plan))
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load generator did not finish")
    return results


def case_service(ctx, prefill=64, callers=2):
    """The case service under a closed-loop read/write mix."""
    outcome = Outcome("case_service")
    check_at = ctx.check_point("case_service")
    kinds = _request_kinds(ctx.seed,
                           WARMUP + ctx.measured_ops("case_service", check_at))
    posts = _post_bundles(ctx.seed, kinds.count("post"))
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="case-service-", dir=work_root)
    traced = ctx.tracer is not None
    launchers = []

    def build():
        launcher = _Launcher(ctx.seed, prefill, workdir, traced)
        launchers.append(launcher)
        return launcher

    # The service keeps a request in flight nearly all the time, and a
    # busy service slows the kernel too: sample the host speed while it
    # is idle, just before and just after the load.
    speed = hostspeed.SpeedTrace()
    try:
        launcher, builds = _set_up(ctx, build, close=_Launcher.stop)
        ready = launcher.ready
        plan = _request_plan(ctx.seed, kinds, ready["case_ids"], posts)
        for _ in range(5):
            speed.sample()
        results = _drive(ready["port"], plan, callers)
        for _ in range(5):
            speed.sample()
        report = launcher.stop()
    finally:
        for launcher in launchers:
            launcher.kill()
        shutil.rmtree(workdir)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run's work directory is still there

    measured = results[WARMUP:]
    errors = [error for _sent, _done, error in results if error is not None]
    outcome.attempted = len(measured)
    outcome.failed = sum(1 for result in measured if result[2] is not None)
    outcome.check(not errors, "request errors: %s" % errors[:3])
    expected_cases = prefill + len(posts)
    outcome.check(report["cases"] == expected_cases,
                  "vault holds %d cases, expected %d"
                  % (report["cases"], expected_cases))
    audit = report["audit"]
    outcome.check(audit["ok"] and audit["checked"] == expected_cases,
                  "vault audit chain: %s" % audit)

    lines = ["prefill %s %s" % (ready["audit_head"],
                                ",".join(sorted(ready["case_ids"])))]
    for index in range(check_at):
        method, path, _body, case_id = plan[index]
        lines.append("%d %s %s %s %s" % (index, method, path, case_id,
                                         results[index][2]))
    outcome.digest = {
        "requests": check_at,
        "prefill_audit_head": ready["audit_head"],
        "requests_sha256": hashlib.sha256(
            "\n".join(lines).encode()).hexdigest(),
        "posts": sum(1 for request in plan[:check_at]
                     if request[0] == "POST"),
    }

    latencies = [done - sent for sent, done, _err in measured]
    # Only the part of a request's latency above the floor (the run's
    # tenth percentile) scales with the host's CPU speed: the floor is
    # mostly the delayed ACK, which the host speed does not move.
    floor = percentile(latencies, 10)
    factor = speed.scale()
    scaled = [floor + (latency - floor) * factor for latency in latencies]
    _time_metrics(outcome, builds, latencies, scaled, len(measured), speed,
                  callers=callers, think_s=THINK_S)
    over = sum(1 for (_sent, _done, error), latency
               in zip(measured, latencies)
               if error is not None or latency * 1000.0 > REQUEST_LIMIT_MS)
    outcome.info.update(ops=len(measured), cases=report["cases"],
                        posts=len(posts), over_limit_rate=over / len(measured))
    if traced:
        ctx.tracer.merge(report["layers"])
        layers = span_metrics(ctx.tracer, len(results), factor)
        handled_s = ctx.tracer.totals.get("service.handle",
                                          (0, 0.0, 0.0, 0))[1]
        client_s = sum(done - sent for sent, done, _err in results)
        layers["service.wire_ms"] = \
            (client_s - handled_s) * 1000.0 / len(results)
        outcome.layers = layers
    return outcome


WORKLOADS = {
    "canary_audit": canary_audit,
    "dirty_rollback": dirty_rollback,
    "fleet_store": fleet_store,
    "case_service": case_service,
}
