"""Run the case service in its own process for the case_service workload.

Prefills a fresh vault with seeded, verified incident bundles, starts
``CaseService`` on an ephemeral localhost port and prints one JSON line
(``port``, prefilled ``case_ids``, ``audit_head``) once it is ready.
The service runs until standard input closes; the launcher then stops
it, re-verifies the vault and writes an exit report to ``--report``:
the case count, ``verify_audit()`` and, with ``--trace``, the per-layer
span totals of every request it handled.
"""

import argparse
import json
import logging
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--prefill", type=int, required=True)
    parser.add_argument("--vault", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    logging.getLogger("repro").setLevel(logging.ERROR)

    from layers import LayerTracer, service_targets
    from repro.service.http import CaseService
    from repro.service.vault import CaseVault
    from workloads import prefill_bundles

    tracer = LayerTracer()
    targets = service_targets() if args.trace else []
    with tracer.installed(targets):
        vault = CaseVault(args.vault)
        for bundle in prefill_bundles(args.seed, args.prefill):
            vault.ingest(bundle, source="prefill")
        stats = vault.stats()
        tracer.reset()
        service = CaseService(vault, workers=1, seed=args.seed).start()
        try:
            print(json.dumps({"port": service.address[1],
                              "case_ids": vault.case_ids(),
                              "audit_head": stats["audit_head"]}),
                  flush=True)
            sys.stdin.read()
        finally:
            service.stop()
        tracer.fold()
    report = {"cases": vault.stats()["cases"],
              "audit": vault.verify_audit(),
              "layers": tracer.totals}
    with open(args.report, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
