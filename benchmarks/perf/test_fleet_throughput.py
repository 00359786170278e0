"""Fleet-round throughput: serial CloudHost vs the sharded scheduler.

Measures three things about driving a large multi-tenant fleet:

* **serial baseline** — wall time per ``CloudHost.run_round()`` over
  the whole fleet, one Python process (the pre-fleet status quo);
* **modeled sharded round** — per-tenant epoch wall costs measured
  individually, dispatched under :func:`repro.core.fleet.lpt_assignment`
  (the idealized work-stealing schedule the scheduler uses): the round
  makespan a W-core host achieves when every shard runs truly in
  parallel. This is the *gated* number — the container this benchmark
  runs in may expose a single core (``host_cpu_count`` is recorded in
  the JSON), where real 4-worker wall time cannot beat serial no matter
  how the work is sharded;
* **real process backend** — actual wall time of
  ``FleetScheduler(backend="process")`` batched rounds on this host,
  reported informationally (it includes fork + IPC cost and is bounded
  by the cores actually present);
* **age** — serial round time early and late in one fleet's life
  (rounds 21-25 against rounds 121-125), ungated: a tenant's per-epoch
  host cost should not grow with the rounds it has run.

The sharded run must also be *correct*: the benchmark asserts digest
equivalence (virtual clocks, epoch counts, incident sets, hash-chain
heads) between the serial host and the sharded scheduler before any
throughput number is recorded.

Results go to ``BENCH_fleet_throughput.json``. The acceptance floor —
modeled speedup >= 3.0x at 4 workers — is asserted at the default
256-tenant scale; ``CRIMES_FLEET_TENANTS`` (e.g. 16, see ``harness.py``)
gives a quick CI smoke run with a relaxed >= 1.5x floor.
"""

import os
import sys

from repro.core.cloud import CloudHost
from repro.core.fleet import (
    FleetScheduler,
    default_tenant_spec,
    lpt_assignment,
)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402
from harness import FLEET_TENANTS as TENANTS  # noqa: E402

FULL_SCALE = TENANTS >= harness.DEFAULT_FLEET_TENANTS
ROUNDS = 5
WORKER_COUNTS = (1, 2, 4, 8)
GATED_WORKERS = 4

#: Modeled round-speedup floor at GATED_WORKERS workers. 256 near-even
#: tenants pack almost perfectly, so the 4-worker LPT schedule should
#: sit close to 4.0x; 3.0x leaves headroom for cost skew from the
#: attacked/suspended tenants. The smoke floor is looser because tiny
#: fleets pack worse.
THRESHOLD_SPEEDUP = 3.0 if FULL_SCALE else 1.5

#: The age case's serial rounds of one fleet (1-based, inclusive).
AGE_ROUNDS = {"early": (21, 25), "late": (121, 125)}

EQUIV_KEYS = ("clock_ms", "epochs_run", "suspended", "quarantined",
              "quarantine_reason", "flight_head")


def make_specs():
    specs = []
    for index in range(TENANTS):
        specs.append(default_tenant_spec(
            "tenant-%04d" % index, seed=index,
            sla=("premium", "standard", "batch", "spot")[index % 4],
            # A sparse minority of tenants detect an attack mid-run, so
            # the fleet carries suspended tenants like a real host.
            attack_epoch=3 if index % 16 == 0 else None))
    return specs


def admit_all(host, specs):
    for spec in specs:
        parts = spec.build()
        host.admit(parts["vm"], parts.get("config"),
                   modules=parts.get("modules", ()),
                   programs=parts.get("programs", ()),
                   sla=spec.sla, fault_plan=parts.get("fault_plan"),
                   priority=spec.priority)


def equiv_view(digests):
    return {name: {key: digest[key] for key in EQUIV_KEYS}
            for name, digest in digests.items()}


def bench_serial(specs):
    """ms of each serial ``CloudHost.run_round()``, and the digests."""
    host = CloudHost()
    admit_all(host, specs)
    round_ms = [harness.timed(host.run_round)[1] for _ in range(ROUNDS)]
    return round_ms, host.tenant_digests()


def bench_per_tenant_costs(specs):
    """Mean per-tenant epoch wall cost, measured tenant by tenant.

    Drives the same schedule ``run_round`` uses but times each tenant's
    ``run_epoch`` individually — the job sizes the dispatch model feeds
    to LPT.
    """
    host = CloudHost()
    admit_all(host, specs)
    samples = {}
    for _ in range(ROUNDS):
        for record in host.scheduled_tenants():
            samples.setdefault(record.name, []).append(
                harness.timed(record.crimes.run_epoch)[1])
    return {name: sum(ms) / len(ms) for name, ms in samples.items()}


def bench_age(specs):
    """``{side: [ms, ...]}``: the serial rounds of one fleet that
    ``AGE_ROUNDS`` names, each timed on its own."""
    host = CloudHost()
    admit_all(host, specs)
    samples = {side: [] for side in AGE_ROUNDS}
    for number in range(1, AGE_ROUNDS["late"][1] + 1):
        elapsed_ms = harness.timed(host.run_round)[1]
        for side, (first, last) in AGE_ROUNDS.items():
            if first <= number <= last:
                samples[side].append(elapsed_ms)
    return samples


def bench_process_backend(specs, workers):
    """Wall ms of ``ROUNDS`` batched rounds of the process backend."""
    with FleetScheduler(workers=workers, backend="process") as fleet:
        for spec in specs:
            fleet.admit(spec)
        wall_ms = harness.timed(fleet.run_rounds, ROUNDS)[1]
        return wall_ms, fleet.rollup(), fleet.tenant_digests()


def test_fleet_throughput():
    specs = make_specs()

    serial_ms, serial_digests = bench_serial(specs)
    costs = bench_per_tenant_costs(specs)

    process_workers = 2 if TENANTS < 64 else GATED_WORKERS
    process_ms, rollup, process_digests = bench_process_backend(
        specs, process_workers)

    # Correctness first: the sharded run simulated the same fleet.
    assert equiv_view(process_digests) == equiv_view(serial_digests)

    bench = harness.Bench(
        "fleet_throughput",
        "fleet-round throughput: serial CloudHost vs LPT-sharded scheduler "
        "(modeled) and the real process backend on this host",
        FULL_SCALE, tenants=TENANTS, rounds=ROUNDS,
        age_rounds=AGE_ROUNDS)
    serial_epochs = sum(digest["epochs_run"]
                        for digest in serial_digests.values())
    bench.case(
        "round",
        "wall ms per fleet round: %d serial CloudHost rounds; the process "
        "backend's %d batched rounds on %d workers as one mean, with fork "
        "and IPC" % (ROUNDS, ROUNDS, process_workers),
        {"serial": serial_ms, "process": [process_ms / ROUNDS]},
        serial_epochs_per_s=serial_epochs * 1000.0 / sum(serial_ms),
        process_workers=process_workers,
        process_epochs_per_s=rollup["epochs_total"] * 1000.0 / process_ms,
        process_round_pause_p99_ms=rollup["round_pause_ms"]["p99"])

    # The modeled round: the per-tenant costs packed by the scheduler's
    # own LPT at each worker count, against their serial sum.
    modeled_serial_ms = sum(costs.values())
    modeled = {"serial_ms": modeled_serial_ms}
    for workers in WORKER_COUNTS:
        makespan = lpt_assignment(costs, workers)[1]
        modeled["makespan_ms_%dw" % workers] = makespan
        modeled["speedup_%dw" % workers] = (
            modeled_serial_ms / makespan if makespan else 1.0)
    bench.case(
        "modeled_round",
        "mean per-tenant epoch ms over %d rounds, LPT-packed onto W "
        "workers; a capacity estimate, not a measured parallel run"
        % ROUNDS, {"tenant_epoch": list(costs.values())}, **modeled)
    bench.gate("modeled_round", "speedup_%dw" % GATED_WORKERS, ">=",
               THRESHOLD_SPEEDUP)

    # Last, so its long-lived fleet cannot slow the gated runs.
    age = bench_age(specs)
    bench.case(
        "age",
        "wall ms per serial CloudHost round of one fleet, rounds %d-%d "
        "(early) and %d-%d (late); ungated"
        % (AGE_ROUNDS["early"] + AGE_ROUNDS["late"]), age,
        late_over_early=harness.ratio(age["late"], age["early"]))
    bench.finish(evidence={"equivalence": "serial and sharded digests "
                                          "agree (incl. flight hash-chain "
                                          "heads)"})
