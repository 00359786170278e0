"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro <experiment> [options]

The paper artifacts (``table1``, ``table3``, ``fig3`` ... ``fig8``,
``safety``, ``case1``, ``case2``, ``case2-hidden``) come from
:data:`repro.experiments.paper.ARTIFACTS`: each prints its committed
``benchmarks/results/<name>.txt`` byte for byte. ``verify`` re-measures
every row of :data:`repro.experiments.paper.CLAIMS`, prints the paper
value beside each measurement, and exits 1 when any claim fails.
``list`` names every command. The rest: ``metrics`` (instrumented run
exporting the ``repro.obs`` summary — JSON, Prometheus text, JSONL
trace, or a ``BENCH_*.json`` file), ``incident`` (canned canary-smash
run that dumps and validates a ``crimes-obs/2`` incident bundle),
``chaos`` (deterministic fault-injection run with a safety-invariant
verdict and a replayable journal artifact), ``fleet`` (sharded
multi-tenant run across worker processes with an optional
serial-equivalence check), ``serve`` (the incident case service: an
HTTP control plane over a tamper-evident case vault, with
``--demo-fleet`` self-population), and ``lint`` (crimeslint).
"""

import argparse
import sys

from repro.experiments import paper


def _cmd_metrics(args):
    """Instrumented run; emits the observer's machine-readable summary.

    Drives one CRIMES-protected guest (web workload + kernel-integrity
    modules) for ``--epochs`` epochs and prints the full ``repro.obs``
    summary as JSON: per-phase pause histograms, per-module detector
    costs, buffer statistics, and the trace rollup. ``--trace-out``
    additionally writes the span stream as JSONL; ``--bench-out`` writes
    a ``BENCH_metrics_cli.json`` summary into the given directory;
    ``--prometheus`` switches the output to text exposition format.
    """
    import json

    from repro.core.config import CrimesConfig
    from repro.core.crimes import Crimes
    from repro.detectors import KernelModuleModule, SyscallTableModule
    from repro.guest.linux import LinuxGuest
    from repro.workloads.webserver import WebServerWorkload

    vm = LinuxGuest(name="metrics-demo", memory_bytes=8 * 1024 * 1024,
                    seed=11)
    crimes = Crimes(
        vm, CrimesConfig(epoch_interval_ms=args.interval_ms, seed=11)
    )
    crimes.install_module(SyscallTableModule())
    crimes.install_module(KernelModuleModule())
    crimes.add_program(WebServerWorkload("medium", seed=11))
    crimes.start()
    crimes.run(max_epochs=args.epochs)

    lines = []
    if args.trace_out:
        crimes.observer.write_trace_jsonl(args.trace_out)
        lines.append("trace written to %s" % args.trace_out)
    if args.bench_out:
        path = crimes.observer.write_bench(
            args.bench_out, "metrics_cli",
            extra={"epochs": crimes.epochs_run,
                   "legacy_metrics": crimes.metrics()},
        )
        lines.append("bench summary written to %s" % path)
    if args.prometheus:
        lines.append(crimes.observer.prometheus_text().rstrip())
    else:
        lines.append(json.dumps(crimes.observer.summary(), indent=2,
                                sort_keys=True))
    return "\n".join(lines)


def _cmd_incident(args):
    """Dump (and validate) an incident bundle from a canned canary smash.

    Drives a CRIMES-protected guest through a web workload plus a heap
    overflow that clobbers a canary on the trigger epoch, with a tight
    SLO policy so the watchdog journals alerts along the way. The failed
    audit rolls the epoch back, the Analyzer runs, and the framework
    snapshots the incident bundle this command prints (``--out`` writes
    it to a file; ``--summary`` prints a human digest instead of JSON).
    The bundle is validated against the ``crimes-obs/2`` schema — the
    exit status is the validation result, which is what the CI smoke
    job checks.

    ``--validate PATH`` skips the canned run entirely and validates an
    on-disk bundle through :mod:`repro.service.ingest` — the *same*
    validator the case vault runs at ingest, so this command's verdict
    and the service's ingest decision can never disagree.
    """
    import json

    if args.validate:
        from repro.errors import IngestError
        from repro.service.ingest import case_id_for, load_bundle_file

        try:
            bundle = load_bundle_file(args.validate)
        except IngestError as err:
            print("bundle REJECTED [%s]: %s" % (err.code, err),
                  file=sys.stderr)
            raise SystemExit(1)
        return "\n".join([
            "bundle valid (schema %s)" % bundle["schema"],
            "  case id: %s" % case_id_for(bundle),
            "  tenant: %s, reason: %s, epoch %d (t=%.1f ms)"
            % (bundle["tenant"], bundle["reason"],
               bundle["incident_epoch"], bundle["virtual_time_ms"]),
            "  flight: %d event(s), head %s..."
            % (len(bundle["flight"]["events"]),
               bundle["flight"]["head_hash"][:16]),
        ])

    from repro.core.adaptive import AdaptiveIntervalController
    from repro.core.config import CrimesConfig
    from repro.core.crimes import Crimes
    from repro.detectors.canary import CanaryScanModule
    from repro.guest.linux import LinuxGuest
    from repro.obs.incident import validate_incident_bundle
    from repro.obs.slo import SLOBudget, SLOPolicy, attach_slo_watchdog
    from repro.workloads.attacks import OverflowAttackProgram
    from repro.workloads.webserver import WebServerWorkload

    seed = 7
    vm = LinuxGuest(name="incident-demo", memory_bytes=8 * 1024 * 1024,
                    seed=seed)
    crimes = Crimes(
        vm, CrimesConfig(epoch_interval_ms=args.interval_ms, seed=seed,
                         history_capacity=4)
    )
    crimes.install_module(CanaryScanModule())
    crimes.add_program(WebServerWorkload("light", seed=seed))
    crimes.add_program(OverflowAttackProgram(trigger_epoch=4))
    # Deliberately unmeetable budgets: the demo must show alert events.
    attach_slo_watchdog(
        crimes,
        policy=SLOPolicy([
            SLOBudget("pause_p99_ms", 0.05,
                      description="demo budget, set to breach"),
            SLOBudget("epoch_overhead_pct", 0.1, unit="%",
                      description="demo budget, set to breach"),
        ]),
        controller=AdaptiveIntervalController(
            min_interval_ms=10.0, max_interval_ms=args.interval_ms),
    )
    crimes.start()
    crimes.run(max_epochs=10)

    bundle = crimes.last_incident
    if bundle is None:
        raise SystemExit("incident demo did not produce a bundle")
    validate_incident_bundle(bundle)

    lines = []
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(bundle, handle, indent=2, sort_keys=True)
            handle.write("\n")
        lines.append("incident bundle written to %s" % args.out)
    if args.summary or args.out:
        flight = bundle["flight"]
        lines.append("incident: %s on tenant %s at epoch %d (t=%.1f ms)"
                     % (bundle["reason"], bundle["tenant"],
                        bundle["incident_epoch"],
                        bundle["virtual_time_ms"]))
        detection = bundle["detection"]
        for finding in detection["findings"]:
            lines.append("  finding: [%s] %s" % (finding["severity"],
                                                 finding["summary"]))
        lines.append("  epoch chain: %s (clean checkpoint at %s)"
                     % ([link["epoch"] for link in bundle["epoch_chain"]],
                        next((link["epoch"] for link in
                              bundle["epoch_chain"]
                              if link["clean_checkpoint"]), "n/a")))
        lines.append("  flight ring: %d events, chain %s, head %s..."
                     % (len(flight["events"]),
                        "intact" if flight["verify"]["ok"] else "BROKEN",
                        flight["head_hash"][:16]))
        lines.append("  slo: %d evaluations, %d alerts"
                     % (len(bundle["slo"]["evaluations"]),
                        bundle["slo"]["alerts"]))
        lines.append("bundle valid (schema %s)" % bundle["schema"])
    else:
        lines.append(json.dumps(bundle, indent=2, sort_keys=True))
    return "\n".join(lines)


def _cmd_chaos(args):
    """Deterministic chaos run: a protected guest under a fault plan.

    Arms every plane named by ``--planes`` (default: all of them) with
    one ``--schedule``-shaped fault schedule, runs a small web-workload
    guest for ``--epochs`` epochs, and prints the fault/recovery story:
    injections, retries, escalations, degraded-mode holds/sheds, and the
    safety-invariant verdict re-derived from the flight journal. The
    run is fully determined by ``--seed`` — re-running with the same
    arguments reproduces the identical journal, hash chain and guest
    memory. ``--out`` writes the journal artifact (the same hash-chained
    event dump an incident bundle ships) as JSON. Exits non-zero if the
    safety invariant does not hold.
    """
    import json

    from repro.faults import ALL_PLANES, FaultPlan, FaultPlane, FaultSchedule
    from repro.faults.chaos import run_chaos

    if args.planes:
        planes = [FaultPlane(name.strip())
                  for name in args.planes.split(",") if name.strip()]
    else:
        planes = list(ALL_PLANES)
    factories = {
        "transient": lambda: FaultSchedule.transient(
            probability=args.probability, magnitude_ms=args.magnitude_ms),
        "persistent": lambda: FaultSchedule.persistent(
            start_epoch=3, magnitude_ms=args.magnitude_ms),
        "burst": lambda: FaultSchedule.burst(
            start_epoch=3, duration=2, magnitude_ms=args.magnitude_ms),
    }
    plan = FaultPlan.uniform(factories[args.schedule], planes=planes,
                             seed=args.seed)
    result = run_chaos(
        fault_plan=plan, seed=args.seed, epochs=args.epochs,
        interval_ms=args.interval_ms, attack_epoch=args.attack_epoch,
    )
    crimes = result["crimes"]
    metrics = result["metrics"]
    faults = metrics["faults"]
    safety = result["safety"]

    lines = ["chaos run: seed=%d, %d epoch(s) requested, %d run"
             % (args.seed, args.epochs, metrics["epochs_run"])]
    lines.append("plan: %s schedule on %s"
                 % (args.schedule,
                    ", ".join(sorted(p.value for p in planes))))
    lines.append(
        "faults: %d injected, %d recovered by retry, %d escalated"
        % (faults["injected_total"], faults["recovered_total"],
           faults["escalated_total"])
    )
    lines.append(
        "degraded: %d epoch(s) held, %d shed, %d fault rollback(s); "
        "health=%s"
        % (metrics["epochs_held"], metrics["epochs_shed"],
           metrics["fault_rollbacks"], metrics["health"])
    )
    lines.append(
        "outputs: %d packet(s) released, %d discarded"
        % (metrics["packets_released"], metrics["packets_discarded"])
    )
    if crimes.suspended:
        lines.append("vm: SUSPENDED (attack response engaged)")
    lines.append("journal: %d event(s), head %s..."
                 % (len(result["events"]), result["head_hash"][:16]))
    lines.append("guest memory sha256: %s..."
                 % result["memory_sha256"][:16])

    if args.out:
        artifact = {
            "schema": "crimes-chaos/1",
            "seed": args.seed,
            "plan": plan.to_dict(),
            "epochs_requested": args.epochs,
            "interval_ms": args.interval_ms,
            "metrics": {key: metrics[key] for key in
                        ("epochs_run", "epochs_held", "epochs_shed",
                         "fault_rollbacks", "checkpoints_committed",
                         "health", "packets_released",
                         "packets_discarded")},
            "faults": faults,
            "safety": safety,
            "memory_sha256": result["memory_sha256"],
            "flight": crimes.observer.flight.snapshot(),
        }
        with open(args.out, "w") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        lines.append("chaos artifact written to %s" % args.out)

    if safety["ok"]:
        lines.append("safety invariant: OK (released epochs all audited "
                     "clean, none previously discarded)")
    else:
        lines.append("safety invariant: VIOLATED")
        for violation in safety["violations"]:
            lines.append("  %s" % violation)
        print("\n".join(lines))
        raise SystemExit(1)
    return "\n".join(lines)


def _cmd_fleet(args):
    """Fleet-scale run: shard many tenants across worker shards.

    Builds ``--tenants`` deterministic tenants (every third one carries
    a heap-overflow attack, so the run exercises incident isolation),
    admits them under an optional ``--budget-mb`` memory budget, and
    drives ``--rounds`` batched rounds on ``--workers`` shards with the
    ``--fleet-backend`` backend (``inline`` shards in-process,
    ``process`` one worker process per shard). Prints the fleet rollup
    and the LPT dispatch model; ``--equivalence`` re-runs the same specs
    on a serial ``CloudHost`` and verifies the sharded digests — virtual
    clocks, epoch counts, incident/quarantine state and flight-journal
    hash-chain heads — match exactly (non-zero exit on mismatch).
    ``--store`` backs every shard's checkpoints with a content-addressed
    page store (dedup across tenants and epochs; ``--store-budget-mb``
    caps the resident set, spilling cold pages to a temp dir), and the
    equivalence host gets its own store so the check also pins
    flat-vs-deduped agreement. ``--out`` writes the rollup + digests as
    a JSON artifact.
    """
    import contextlib
    import json
    import tempfile

    from repro.checkpoint.store import PageStore
    from repro.core.cloud import CloudHost
    from repro.core.fleet import FleetScheduler, default_tenant_spec

    def specs():
        built = []
        for index in range(args.tenants):
            built.append(default_tenant_spec(
                "tenant-%03d" % index,
                seed=args.seed + index,
                sla=("premium", "standard", "batch")[index % 3],
                attack_epoch=4 if index % 3 == 0 else None,
            ))
        return built

    budget = (args.budget_mb * 1024 * 1024
              if args.budget_mb is not None else None)
    store_budget = (int(args.store_budget_mb * 1024 * 1024)
                    if args.store_budget_mb is not None else None)
    with contextlib.ExitStack() as stack:
        spill_dir = None
        if args.store and store_budget is not None:
            spill_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="crimes-store-"))
        fleet = stack.enter_context(FleetScheduler(
            workers=args.workers, backend=args.fleet_backend,
            memory_budget_bytes=budget, store=args.store,
            store_budget_bytes=store_budget, store_spill_dir=spill_dir))
        admitted = 0
        for spec in specs():
            if fleet.admit(spec).admitted:
                admitted += 1
        ran = fleet.run_rounds(args.rounds)
        rollup = fleet.rollup()
        plan = fleet.plan_round()
        digests = fleet.tenant_digests()

    lines = ["fleet run: %d tenant(s) admitted on %d %s shard(s)"
             % (admitted, args.workers, args.fleet_backend)]
    lines.append("rounds: %d requested, %d ran; epochs total: %d"
                 % (args.rounds, ran, rollup["epochs_total"]))
    lines.append("incidents: %d suspended, %d quarantined"
                 % (rollup["incidents"], rollup["quarantined"]))
    lines.append("memory overhead: %.1f MiB (budget: %s)"
                 % (rollup["memory_overhead_bytes"] / 1048576.0,
                    "%.1f MiB" % (budget / 1048576.0) if budget else "none"))
    pause = rollup["round_pause_ms"]
    if pause["count"]:
        lines.append("round pause: %d samples, mean %.2f ms, p99 %.2f ms"
                     % (pause["count"], pause["mean"], pause["p99"]))
    if rollup.get("store"):
        st = rollup["store"]
        lines.append(
            "page store: %.2f MiB resident for %.2f MiB logical "
            "(dedup %.1fx, %d unique pages, %d spill writes, "
            "%d degraded)"
            % (st["resident_bytes"] / 1048576.0,
               st["logical_bytes"] / 1048576.0, st["dedup_ratio"],
               st["unique_pages"], st["spill_writes"],
               st["spill_degraded"]))
    lines.append("next-round dispatch model: serial %.1f ms -> makespan "
                 "%.1f ms on %d worker(s) (speedup %.2fx)"
                 % (plan["serial_ms"], plan["makespan_ms"], args.workers,
                    plan["speedup"]))

    if args.equivalence:
        host = CloudHost(store=PageStore() if args.store else None)
        for spec in specs():
            parts = spec.build()
            host.admit(parts["vm"], parts["config"],
                       modules=parts["modules"],
                       programs=parts["programs"], sla=spec.sla,
                       fault_plan=parts.get("fault_plan"),
                       priority=spec.priority)
        host.run(args.rounds)
        serial = host.tenant_digests()
        keys = ("clock_ms", "epochs_run", "suspended", "quarantined",
                "quarantine_reason", "flight_head")
        mismatches = [
            name for name in sorted(serial)
            if any(serial[name][key] != digests[name][key]
                   for key in keys)
        ]
        if mismatches:
            lines.append("equivalence: FAILED for %s" % mismatches)
            print("\n".join(lines))
            raise SystemExit(1)
        lines.append("equivalence: serial and sharded runs agree on all "
                     "%d tenant digests (incl. hash-chain heads)"
                     % len(serial))

    if args.out:
        artifact = {
            "schema": "crimes-fleet/1",
            "rollup": rollup,
            "dispatch_model": plan,
            "digests": digests,
        }
        with open(args.out, "w") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        lines.append("fleet artifact written to %s" % args.out)
    return "\n".join(lines)


def _cmd_serve(args):
    """Run the incident case service (the evidence control plane).

    Opens (or creates) the case vault at ``--vault-dir`` and serves the
    HTTP control plane on ``--bind``:``--port``: bundle ingest with
    hash-chain re-verification, cross-tenant findings queries, the
    fleet SLO dashboard, async forensics jobs, the vault audit log, and
    a live Prometheus ``/metrics`` endpoint. ``--demo-fleet`` first
    drives a canned multi-tenant CloudHost run (``--tenants`` tenants,
    ``--rounds`` rounds, seeded by ``--seed``) whose incidents are
    ingested — with memory dumps attached — before the listener starts,
    and keeps the host attached so ``/slo`` and ``/metrics`` show live
    fleet state. Blocks until interrupted.
    """
    from repro.service import CaseService, CaseVault

    vault = CaseVault(args.vault_dir)
    host = None
    if args.demo_fleet:
        from repro.service.demo import run_demo_fleet

        summary = run_demo_fleet(vault, tenants=args.tenants,
                                 rounds=args.rounds, seed=args.seed)
        host = summary["host"]
        print("demo fleet: %d tenant(s), %d round(s); ingested %d "
              "incident case(s): %s"
              % (summary["tenants"], summary["rounds"],
                 len(summary["cases"]), ", ".join(summary["cases"])),
              flush=True)
    service = CaseService(vault, host=host, workers=args.workers,
                          seed=args.seed, bind=args.bind, port=args.port)
    print("case service listening on %s (vault: %s)"
          % (service.url, vault.root), flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    return "case service stopped"


def _cmd_lint(args):
    """Run crimeslint, the repo's static invariant analyzer.

    Lints ``src/repro`` (or ``--paths``) against the registered rule
    pack — determinism, virtual time, audited release, journal
    discipline, fault-seam coverage, exception hygiene — honoring the
    ``.crimeslint.toml`` baseline and inline ``# crimeslint:
    ignore[RULE]`` pragmas unless ``--no-baseline`` is given. Exits 0
    on a clean tree, 1 on findings (or stale baseline entries), 2 on a
    configuration error. ``--format json`` prints the versioned
    ``crimes-lint/1`` report; ``--out`` also writes it to a file (the
    CI artifact), which happens *before* the exit status is raised so
    a failing run still uploads its findings.
    """
    import json

    from repro.analysis import catalog, run_lint
    from repro.analysis.registry import explain
    from repro.errors import ConfigError

    if args.list_rules:
        lines = ["registered rules:"]
        for rule_id, name, description in catalog():
            lines.append("  %s %-20s %s" % (rule_id, name, description))
        return "\n".join(lines)

    if args.explain:
        try:
            return explain(args.explain)
        except ConfigError as err:
            print("crimeslint: %s" % err, file=sys.stderr)
            raise SystemExit(2)

    if args.jobs == "auto":
        jobs = "auto"
    else:
        try:
            jobs = int(args.jobs)
        except ValueError:
            print("crimeslint: --jobs wants an integer or 'auto', got %r"
                  % args.jobs, file=sys.stderr)
            raise SystemExit(2)

    try:
        report = run_lint(
            paths=args.paths or None,
            baseline=False if args.no_baseline else "auto",
            select=args.select.split(",") if args.select else None,
            jobs=jobs,
        )
    except ConfigError as err:
        print("crimeslint: configuration error: %s" % err, file=sys.stderr)
        raise SystemExit(2)

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    if args.lint_format == "json":
        output = report.render_json()
    else:
        output = report.render_text()
        if args.out:
            output += "\nfindings report written to %s" % args.out

    if report.exit_code() != 0:
        print(output)
        raise SystemExit(1)
    return output


_COMMANDS = {
    "metrics": _cmd_metrics,
    "incident": _cmd_incident,
    "chaos": _cmd_chaos,
    "fleet": _cmd_fleet,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def _choices():
    return sorted(list(_COMMANDS) + list(paper.ARTIFACTS) + ["verify"])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate CRIMES (Middleware '18) evaluation "
                    "experiments.",
    )
    parser.add_argument(
        "experiment",
        choices=_choices() + ["list"],
        help="which table/figure/case study to regenerate",
    )
    parser.add_argument("--epochs", type=int, default=50,
                        help="epochs to run (metrics/chaos)")
    parser.add_argument("--interval-ms", type=float, default=50.0,
                        help="epoch interval (metrics/incident/chaos)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="metrics: write the span trace as JSONL")
    parser.add_argument("--bench-out", metavar="DIR",
                        help="metrics: write a BENCH_*.json summary here")
    parser.add_argument("--prometheus", action="store_true",
                        help="metrics: emit Prometheus text instead of JSON")
    parser.add_argument("--demo", action="store_true",
                        help="incident: run the canned canary-smash "
                             "scenario (currently the only source)")
    parser.add_argument("--out", metavar="PATH",
                        help="incident: write the bundle JSON here")
    parser.add_argument("--summary", action="store_true",
                        help="incident: print a human digest instead of "
                             "the full bundle JSON")
    parser.add_argument("--validate", metavar="BUNDLE",
                        help="incident: validate an on-disk bundle file "
                             "through the service ingest path and exit")
    parser.add_argument("--port", type=int, default=8321,
                        help="serve: TCP port (0 picks a free one)")
    parser.add_argument("--bind", default="127.0.0.1",
                        help="serve: listen address")
    parser.add_argument("--vault-dir", metavar="DIR", default="case-vault",
                        help="serve: case vault directory "
                             "(created if missing)")
    parser.add_argument("--demo-fleet", action="store_true",
                        help="serve: populate the vault from a canned "
                             "multi-tenant run before listening")
    parser.add_argument("--seed", type=int, default=0,
                        help="chaos: root seed (same seed = same run)")
    parser.add_argument("--planes", metavar="P1,P2,...",
                        help="chaos: comma-separated fault planes "
                             "(default: all)")
    parser.add_argument("--schedule",
                        choices=["transient", "persistent", "burst"],
                        default="transient",
                        help="chaos: temporal shape of every armed plane")
    parser.add_argument("--probability", type=float, default=0.25,
                        help="chaos: per-epoch fault probability "
                             "(transient schedule)")
    parser.add_argument("--magnitude-ms", type=float, default=1.0,
                        help="chaos: fault magnitude (latency/skew/stall)")
    parser.add_argument("--attack-epoch", type=int, default=None,
                        help="chaos: also trigger a heap-overflow attack "
                             "at this epoch")
    parser.add_argument("--tenants", type=int, default=16,
                        help="fleet: number of tenants to admit")
    parser.add_argument("--workers", type=int, default=4,
                        help="fleet: number of shards/worker processes")
    parser.add_argument("--rounds", type=int, default=8,
                        help="fleet: rounds to drive")
    parser.add_argument("--fleet-backend", choices=["inline", "process"],
                        default="process",
                        help="fleet: shard in-process or one worker "
                             "process per shard")
    parser.add_argument("--budget-mb", type=float, default=None,
                        help="fleet: per-host memory budget for "
                             "admission control (MiB; default unlimited)")
    parser.add_argument("--equivalence", action="store_true",
                        help="fleet: verify sharded digests against a "
                             "serial CloudHost run of the same specs")
    parser.add_argument("--store", action="store_true",
                        help="fleet: back every shard's checkpoints "
                             "with a content-addressed page store "
                             "(cross-tenant dedup)")
    parser.add_argument("--store-budget-mb", type=float, default=None,
                        help="fleet: per-shard resident budget for the "
                             "page store (MiB; spills to a temp dir "
                             "when exceeded; default unbounded)")
    parser.add_argument("--format", dest="lint_format",
                        choices=["text", "json"], default="text",
                        help="lint: output format")
    parser.add_argument("--paths", metavar="PATH", nargs="*",
                        help="lint: files/directories to analyze "
                             "(default: [lint].paths from "
                             ".crimeslint.toml, else src/repro)")
    parser.add_argument("--select", metavar="CRL001,CRL002,...",
                        help="lint: run only these rule IDs")
    parser.add_argument("--no-baseline", action="store_true",
                        help="lint: ignore .crimeslint.toml suppressions")
    parser.add_argument("--list-rules", action="store_true",
                        help="lint: print the rule catalog and exit")
    parser.add_argument("--explain", metavar="RULE",
                        help="lint: print one rule's rationale — what it "
                             "flags, why, and how to fix it — and exit")
    parser.add_argument("--jobs", default="1",
                        help="lint: parse files on N worker processes "
                             "('auto' = one per CPU; findings stay in "
                             "deterministic input order)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        print("available experiments: %s" % ", ".join(_choices()))
        return 0
    if args.experiment == "verify":
        evaluations = paper.evaluate()
        sys.stdout.write(paper.render_claims(evaluations))
        return 0 if all(passed for _c, _m, passed in evaluations) else 1
    if args.experiment in paper.ARTIFACTS:
        sys.stdout.write(paper.ARTIFACTS[args.experiment].text())
        return 0
    print(_COMMANDS[args.experiment](args))
    return 0


def lint_main(argv=None):
    """Entry point for the ``crimeslint`` console script."""
    if argv is None:
        argv = sys.argv[1:]
    return main(["lint"] + list(argv))


if __name__ == "__main__":
    sys.exit(main())
