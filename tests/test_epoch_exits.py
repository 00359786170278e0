"""Golden fingerprints of every exit the epoch loop can take.

An epoch ends committed, held (degraded mode), on a detected attack, or
rolled back (checkpoint failed, audit errored or timed out, hold budget
exhausted). Each case below is one small seeded run that drives a
particular exit; the ACCOUNTING-fidelity cases pin the edges where a
rollback is impossible and the epoch loop raises instead — counting the
epoch only if its audit had passed.

Per case the test pins the record outcomes, the epoch/rollback/hold/shed
counts, the virtual clock, the flight journal's head hash, a digest of
the Prometheus text, the ``(span_id, name)`` span sequence, and digests
of the full span stream, of every hook call (with the span open at the
time of the call), of each record's contents, and of the final guest
memory, program state and released outputs. Journal events, spans,
registry observations, hook calls and clock charges must all stay
byte-identical and in the same order for these to hold.
"""

import hashlib
import json

import pytest

from repro.checkpoint.checkpointer import CopyFidelity
from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.detectors import SyscallTableModule
from repro.detectors.canary import CanaryScanModule
from repro.detectors.deep import SignatureSweepModule
from repro.errors import CrimesError
from repro.faults import FaultPlan, FaultPlane, FaultSchedule
from repro.guest.linux import LinuxGuest
from repro.workloads.attacks import MemoryResidentMalware, \
    OverflowAttackProgram
from repro.workloads.kvstore import KeyValueStoreProgram
from repro.workloads.webserver import WebServerWorkload


def _faulting(plane, schedule, **config):
    return dict(config, plan=FaultPlan.single(plane, schedule, seed=0))


#: name -> (epochs, a factory of :func:`_build`'s keyword arguments;
#: programs and modules hold state, so every run gets fresh ones).
CASES = {
    "committed": (4, dict),
    "scan-disabled": (3, lambda: {"scan_enabled": False}),
    "held-backup-sync-recovered": (6, lambda: _faulting(
        FaultPlane.BACKUP_SYNC,
        FaultSchedule.burst(start_epoch=3, duration=1, fail_attempts=5))),
    "held-netbuf-release": (6, lambda: _faulting(
        FaultPlane.NETBUF_RELEASE,
        FaultSchedule.burst(start_epoch=3, duration=2, fail_attempts=5))),
    "shed-backup-sync": (7, lambda: _faulting(
        FaultPlane.BACKUP_SYNC, FaultSchedule.persistent(start_epoch=3),
        max_hold_epochs=2)),
    "shed-netbuf-release": (7, lambda: _faulting(
        FaultPlane.NETBUF_RELEASE, FaultSchedule.persistent(start_epoch=3),
        max_hold_epochs=2)),
    "held-then-audit-error-sheds": (6, lambda: {"plan": FaultPlan({
        FaultPlane.NETBUF_RELEASE: FaultSchedule.burst(
            start_epoch=3, duration=1, fail_attempts=5),
        FaultPlane.VMI_READ: FaultSchedule.burst(
            start_epoch=4, duration=1, fail_attempts=5, mode="corrupt"),
    }, seed=0)}),
    "attack-auto-respond": (6, lambda: {
        "modules": [CanaryScanModule()],
        "programs": [OverflowAttackProgram(trigger_epoch=3)]}),
    "audit-error": (5, lambda: _faulting(
        FaultPlane.VMI_READ,
        FaultSchedule.persistent(start_epoch=3, mode="corrupt"))),
    "audit-timeout-plane": (5, lambda: _faulting(
        FaultPlane.AUDIT_TIMEOUT,
        FaultSchedule.persistent(start_epoch=3, magnitude_ms=5.0))),
    "audit-timeout-budget": (5, lambda: _faulting(
        FaultPlane.VMI_READ,
        FaultSchedule.persistent(start_epoch=3, magnitude_ms=2.0,
                                 mode="latency"),
        audit_timeout_ms=1.0)),
    "checkpoint-failed": (5, lambda: _faulting(
        FaultPlane.CHECKPOINT_COPY, FaultSchedule.persistent(start_epoch=3))),
    "clock-skew": (4, lambda: _faulting(
        FaultPlane.CLOCK_SKEW,
        FaultSchedule.persistent(start_epoch=2, magnitude_ms=3.0))),
    "overlap-audit-attack": (6, lambda: {
        "overlap_audit": True,
        "modules": [CanaryScanModule()],
        "programs": [OverflowAttackProgram(trigger_epoch=4)]}),
    "async-verdict-attack": (30, lambda: {
        "async_modules": [SignatureSweepModule()],
        "programs": [MemoryResidentMalware(trigger_epoch=2)]}),
    "accounting-checkpoint-failed-raises": (5, lambda: _faulting(
        FaultPlane.CHECKPOINT_COPY, FaultSchedule.persistent(start_epoch=3),
        fidelity=CopyFidelity.ACCOUNTING)),
    "accounting-audit-error-raises": (5, lambda: _faulting(
        FaultPlane.VMI_READ,
        FaultSchedule.persistent(start_epoch=3, mode="corrupt"),
        fidelity=CopyFidelity.ACCOUNTING)),
    "accounting-hold-budget-raises": (5, lambda: _faulting(
        FaultPlane.BACKUP_SYNC, FaultSchedule.persistent(start_epoch=3),
        fidelity=CopyFidelity.ACCOUNTING, max_hold_epochs=2)),
}


def _build(plan=None, modules=(), async_modules=(), programs=(), **config):
    """A 4 MiB web + kv-store guest (seed 0, 20 ms epochs), started."""
    vm = LinuxGuest(name="exits", memory_bytes=4 * 1024 * 1024, seed=0)
    crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=20.0, seed=0,
                                     **config), fault_plan=plan)
    crimes.install_module(SyscallTableModule())
    for module in modules:
        crimes.install_module(module)
    for module in async_modules:
        crimes.install_async_module(module)
    crimes.add_program(WebServerWorkload("light", seed=0))
    crimes.add_program(KeyValueStoreProgram(seed=0))
    for program in programs:
        crimes.add_program(program)
    crimes.start()
    return crimes


def _digest(value):
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _record_row(record):
    detection = record.detection
    return [
        record.epoch, record.start_ms, record.interval_ms,
        list(record.phase_ms.items()), record.pause_ms,
        record.dirty_pages, record.real_dirty, record.logdirty_tax_ms,
        record.work_done_ms, record.committed, record.outcome,
        record.released_packets, record.released_disk_writes,
        None if detection is None else detection.attack_detected,
        record.async_verdict is not None,
    ]


def _state_digest(crimes):
    """Guest memory, program state and what reached the outside world."""
    digest = hashlib.sha256()
    view = crimes.vm.memory.view()
    try:
        digest.update(view)
    finally:
        view.release()
    sink = crimes.external_sink
    digest.update(_digest([
        [program.state_dict() for program in crimes.programs],
        [[packet.src, packet.dst, packet.payload.hex(), packet.sent_at]
         for packet in sink.packets],
        [[write.block, write.data.hex(), write.issued_at]
         for write in sink.disk_writes],
    ]).encode())
    return digest.hexdigest()


def run_case(name):
    """Run one case; returns its fingerprint (a JSON-ready dict)."""
    epochs, kwargs = CASES[name]
    crimes = _build(**kwargs())
    tracer = crimes.observer.tracer
    hooks = []

    def on_record(event):
        def hook(record):
            hooks.append([event, record.epoch, record.outcome,
                          tracer.current_span_id, crimes.clock.now])
        return hook

    crimes.on("epoch", on_record("epoch"))
    crimes.on("attack", on_record("attack"))
    crimes.on("async-verdict", lambda verdict: hooks.append(
        ["async-verdict", verdict.job.snapshot_epoch,
         verdict.attack_detected, tracer.current_span_id,
         crimes.clock.now]))
    error = None
    try:
        crimes.run(max_epochs=epochs)
    except CrimesError as err:
        error = "%s: %s" % (type(err).__name__, err)
    spans = tracer.events
    return {
        "error": error,
        "outcomes": [record.outcome for record in crimes.records],
        "epochs_run": crimes.epochs_run,
        "fault_rollbacks": crimes.fault_rollbacks,
        "epochs_held": crimes.epochs_held,
        "epochs_shed": crimes.epochs_shed,
        "suspended": crimes.suspended,
        "clock_ms": crimes.clock.now,
        "head_hash": crimes.observer.flight.head_hash,
        "prometheus_sha256": hashlib.sha256(
            crimes.observer.prometheus_text().encode()).hexdigest(),
        "span_count": len(spans),
        "span_names_sha256": _digest(
            [[span.span_id, span.name] for span in spans]),
        "span_stream_sha256": _digest([span.to_dict() for span in spans]),
        "hooks_sha256": _digest(hooks),
        "records_sha256": _digest(
            [_record_row(record) for record in crimes.records]),
        "state_sha256": _state_digest(crimes),
    }


#: Fingerprints per case (see the module docstring).
EXPECTED = {
    "accounting-audit-error-raises": {
        "outcomes": ["committed", "committed"],
        "error": "IntrospectionError: VMI read fault injected "
                 "(epoch 3, corrupt)",
        "epochs_run": 2,
        "fault_rollbacks": 0,
        "epochs_held": 0,
        "epochs_shed": 0,
        "suspended": False,
        "clock_ms": 389.5637429299261,
        "head_hash":
            "b5c712a444ba2523a130033fd8669519f61b986c56757ebb7a8dec5cc7258acb",
        "prometheus_sha256":
            "0e2d97e5c2e3b9b2f14d5f9c403f6aa27bb560719d6959a8738722a8de3264ed",
        "span_count": 14,
        "span_names_sha256":
            "88e629de5ec6768a0bd0a29be26456a806081de8bc1217f81e2b82bdd8bd7186",
        "span_stream_sha256":
            "b6c4a59582c797c020420eba1d8e4d9eac325e427c4e25c3d21c35e28445c174",
        "hooks_sha256":
            "b44ed474010844e04db3d026757522a4131adc59337d63f617416027a5c14cff",
        "records_sha256":
            "bc332b9f1da99b59569f063067e73d0fe59966a84d09cad0ed1017f1e01b7297",
        "state_sha256":
            "a9631a5b74944e9dc096721b4bfc9f41dc694c42b9242f2d2969c32cb27f3fb7",
    },
    "accounting-checkpoint-failed-raises": {
        "outcomes": ["committed", "committed"],
        "error": "CheckpointError: checkpoint copy failed after 4 attempt(s)",
        "epochs_run": 2,
        "fault_rollbacks": 0,
        "epochs_held": 0,
        "epochs_shed": 0,
        "suspended": False,
        "clock_ms": 389.5637429299261,
        "head_hash":
            "1c27be79119cf1949c39623028b61e13467f795d5b04816749a648ff6e8913c8",
        "prometheus_sha256":
            "5ca8c0fb1112a19c4d5c94f5b9c5ff600d021ea5383dce72499257ce8c78c38e",
        "span_count": 13,
        "span_names_sha256":
            "54aa15b5248ab2e2d51e4ea84142185ecc4fa03a29aba6bf04d98dc0ecc53719",
        "span_stream_sha256":
            "0ec2306b2e43317935fb97825068c13388e7f4d27d9da02e82e1ca587508403f",
        "hooks_sha256":
            "b44ed474010844e04db3d026757522a4131adc59337d63f617416027a5c14cff",
        "records_sha256":
            "bc332b9f1da99b59569f063067e73d0fe59966a84d09cad0ed1017f1e01b7297",
        "state_sha256":
            "a9631a5b74944e9dc096721b4bfc9f41dc694c42b9242f2d2969c32cb27f3fb7",
    },
    "accounting-hold-budget-raises": {
        "outcomes": ["committed", "committed", "held"],
        "error": "CrimesError: cannot roll back "
                 "hold-budget-exhausted in ACCOUNTING fidelity",
        "epochs_run": 4,
        "fault_rollbacks": 0,
        "epochs_held": 2,
        "epochs_shed": 0,
        "suspended": False,
        "clock_ms": 420.94098717753155,
        "head_hash":
            "d62f9b49b14b8dc93f7e395afcfcb4937fda35bba6d564ec7291d8f1ee877ffb",
        "prometheus_sha256":
            "d25a06ab39ff5ca247d9d33895d8adc79bb6d1425bce096af22c7ba6ef9eb13e",
        "span_count": 20,
        "span_names_sha256":
            "613d3fb61a59d901d8dfa9126d042ce93dc197767a5c255224f803e14d893299",
        "span_stream_sha256":
            "5f64044350010e9eb3505d4561c52ce0eb91857da4a9d957c38467dabf1a1dd3",
        "hooks_sha256":
            "7564514c593627ed50cd3362223d2ef0849e193cd38b504520f824fb4c8b4f29",
        "records_sha256":
            "e32cb088681550dce4609295d3aeed0578e353aa4a49cb88b3f04badd5cabb3e",
        "state_sha256":
            "a7a7ca67486745185cfcc5227accc6d1bbcd582cf4f9ca431653a31369e39dbb",
    },
    "async-verdict-attack": {
        "outcomes": ["committed"] * 13,
        "error": None,
        "epochs_run": 13,
        "fault_rollbacks": 0,
        "epochs_held": 0,
        "epochs_shed": 0,
        "suspended": True,
        "clock_ms": 672.6375396388565,
        "head_hash":
            "b8fc975f1f27803de2de3d7b19d49c995c5ab12e2e900daf0b392dfa2f292c6b",
        "prometheus_sha256":
            "cbde0779804687aaf6c1549ee0b642a524cd2cf071f11f05c9649120ebd3820a",
        "span_count": 67,
        "span_names_sha256":
            "3392e57061a7444e7f6dea234a1e13ae1e1254063fb8b15d84503af99db2d470",
        "span_stream_sha256":
            "ca8a906ea7fa3c4e82c37e31f0533eb4201ac522e7fec6fe6d85fa013955f203",
        "hooks_sha256":
            "dc33def4bf3d7f9e156584d5fdcae626e33ac19845a0728e1d41851a8a3cdc47",
        "records_sha256":
            "ed7a9a24d50d10bf4b9c404ca29ceea6fae3d545583e7e78ee121bcf8f67cb0c",
        "state_sha256":
            "6565820e077c88e21ed4b3b32905d5e6ce91580b7ac2da16a658266322b182e2",
    },
    "attack-auto-respond": {
        "outcomes": ["committed", "committed", "attack"],
        "error": None,
        "epochs_run": 3,
        "fault_rollbacks": 0,
        "epochs_held": 0,
        "epochs_shed": 0,
        "suspended": True,
        "clock_ms": 102099.12631576313,
        "head_hash":
            "644498a409db205c3b7e65aadff416abe7644f165edef8fbea7b06885518cc2c",
        "prometheus_sha256":
            "64f61c97cd69a584ddecd335a3894bfa083980c4284b4a5f087f181d65b1c119",
        "span_count": 16,
        "span_names_sha256":
            "285538ef57244a6cb5823e8bf11ded3de355f369efda502c62ea01ff0250fe40",
        "span_stream_sha256":
            "296491cd0222b360c68fe4fe4d2510c1e2aa3274f26875f81edc355de4043ce2",
        "hooks_sha256":
            "39e30a84ad51f22c3ac3d706ca231793dd92b2e67263d45e6e1393135d033250",
        "records_sha256":
            "9ec59e0052d5395dcade03c9b7011e1bbfd8a1a4e79b691c14d8a9cffd1f9ab8",
        "state_sha256":
            "4debc905c1d7df28e34f8deea67fbd36ebbeca94272be15bd1fae43e265b2b54",
    },
    "audit-error": {
        "outcomes": ["committed"] * 2 + ["rolled-back"] * 3,
        "error": None,
        "epochs_run": 5,
        "fault_rollbacks": 3,
        "epochs_held": 0,
        "epochs_shed": 0,
        "suspended": False,
        "clock_ms": 454.29376370296734,
        "head_hash":
            "7925cc082dbb950c31adcb91461a314ea9b10c60e91ca1a441fed69643407acd",
        "prometheus_sha256":
            "dca483c82c00cfe106dc9d2c2bb88db4a209cd67a89fbbc89b2759f0d921ffb0",
        "span_count": 22,
        "span_names_sha256":
            "869b540a604ac3f4fdc6061225012375ec2fc0831accf54330ddae89b5720c15",
        "span_stream_sha256":
            "94088688d3d196b2e57175808d3ed5436407a2ef646608676cde8f83c5f14762",
        "hooks_sha256":
            "a2ca6d7525f33982e7a035303e3d6661d8245e67609244cc20bc623fc60c3ead",
        "records_sha256":
            "bb2e61a5a611abcb585d192e9b1597f416eb833025029929aa0194c7c97fdbc6",
        "state_sha256":
            "2d28cbcd89205ee6a96a288e3ddd14f60623ad7f882f90397fd1b9ff425977ea",
    },
    "audit-timeout-budget": {
        "outcomes": ["committed"] * 2 + ["rolled-back"] * 3,
        "error": None,
        "epochs_run": 5,
        "fault_rollbacks": 3,
        "epochs_held": 0,
        "epochs_shed": 0,
        "suspended": False,
        "clock_ms": 461.4801594836462,
        "head_hash":
            "1c1f4a31c4b34492a997283bedcd4d31ff0549b370aff5413f5397751b889641",
        "prometheus_sha256":
            "3641453707b50af5a3b6913ef1903bccf8c23955268a66ba7a28092fa8aab667",
        "span_count": 22,
        "span_names_sha256":
            "869b540a604ac3f4fdc6061225012375ec2fc0831accf54330ddae89b5720c15",
        "span_stream_sha256":
            "0456a8eeb56bbe81815c48ec52ff7d721bdb5bc710b520d954b6174f40f0b2eb",
        "hooks_sha256":
            "a5a853be99da00ff414d3503831287620ed2f3e864b23bb78369a37adf2f0d75",
        "records_sha256":
            "7d6ef45e469ead74e82d6c4b91e8e7afc25b57cc9d44394ea8010b33f3d93fe7",
        "state_sha256":
            "2d28cbcd89205ee6a96a288e3ddd14f60623ad7f882f90397fd1b9ff425977ea",
    },
    "audit-timeout-plane": {
        "outcomes": ["committed"] * 2 + ["rolled-back"] * 3,
        "error": None,
        "epochs_run": 5,
        "fault_rollbacks": 3,
        "epochs_held": 0,
        "epochs_shed": 0,
        "suspended": False,
        "clock_ms": 470.4801594836462,
        "head_hash":
            "f1408836fc608998ade0ec59927d6a6e08ac9923f858e3db99d1cc18a88c5140",
        "prometheus_sha256":
            "2c37bbf3f50aee1dfc937ad4fd033d4011f35499996ae9981f16a60ac3aa71f6",
        "span_count": 22,
        "span_names_sha256":
            "869b540a604ac3f4fdc6061225012375ec2fc0831accf54330ddae89b5720c15",
        "span_stream_sha256":
            "dc42f64e9a43b6dadafe63af17839f60e99a2b63588aed5ec40360b0c2f886be",
        "hooks_sha256":
            "dd3fc7e0e6200e617d296976533f7eed29501297cf1412c6f6ec0aea9d07c512",
        "records_sha256":
            "67355e8a437cf2177d19fce5ae32d62e4fe4888bdbdbcad5ddfcf8488caa6303",
        "state_sha256":
            "2d28cbcd89205ee6a96a288e3ddd14f60623ad7f882f90397fd1b9ff425977ea",
    },
    "checkpoint-failed": {
        "outcomes": ["committed"] * 2 + ["rolled-back"] * 3,
        "error": None,
        "epochs_run": 5,
        "fault_rollbacks": 3,
        "epochs_held": 0,
        "epochs_shed": 0,
        "suspended": False,
        "clock_ms": 440.23052292992605,
        "head_hash":
            "7dddea4cde0e97aea01f9eff5a7d8efd17ad29c9184e50a12bb03b385ba89925",
        "prometheus_sha256":
            "94242155885bff10326217b564b761aa79d20ca80074b39c1469e9517d5cca81",
        "span_count": 19,
        "span_names_sha256":
            "6447d939f9840a8dd656999cddb44b2f4dc991d93016f9f798bc3c415eb3d8dd",
        "span_stream_sha256":
            "15c24057b931b0dbbd915c48ee05fef125555a8cb03d56d24e7a9147ed5cb061",
        "hooks_sha256":
            "4a99d68eb0aaebc7f96d4d440ee4e13520a559cd4e68596707f40b5c8d17d0fa",
        "records_sha256":
            "09257c41f7ee525ca53ec1b1a5609c1bdb359fe66a59dab826408e9aa6e60ee8",
        "state_sha256":
            "2d28cbcd89205ee6a96a288e3ddd14f60623ad7f882f90397fd1b9ff425977ea",
    },
    "clock-skew": {
        "outcomes": ["committed", "committed", "committed", "committed"],
        "error": None,
        "epochs_run": 4,
        "fault_rollbacks": 0,
        "epochs_held": 0,
        "epochs_shed": 0,
        "suspended": False,
        "clock_ms": 434.11031128077957,
        "head_hash":
            "379599d52a926ff7f0a87570fd70c9d2492287e0ad0fdd3dbf473cd1da5ca66d",
        "prometheus_sha256":
            "3e678065e2b0beadd4725f274ee8386e20fad2b652487d7e58e61f1543153add",
        "span_count": 20,
        "span_names_sha256":
            "613d3fb61a59d901d8dfa9126d042ce93dc197767a5c255224f803e14d893299",
        "span_stream_sha256":
            "3cbfb29ee770b869716f26fe9ccc6aea1d1473b72a7046b88035c797fc942c71",
        "hooks_sha256":
            "36d7f9a7bad3215b8f6737c31b3108bb33f5ffbab671dbe0208da26440cde1f7",
        "records_sha256":
            "7e0aa2f1abea75c04eebcbef9c05a6d417e9ad3f779d2572fd0b267fea299ded",
        "state_sha256":
            "ff2b2cef98059348d7306bd379684a7b41a3cad594999e101a053d8844f82d7f",
    },
    "committed": {
        "outcomes": ["committed", "committed", "committed", "committed"],
        "error": None,
        "epochs_run": 4,
        "fault_rollbacks": 0,
        "epochs_held": 0,
        "epochs_shed": 0,
        "suspended": False,
        "clock_ms": 425.11031128077957,
        "head_hash":
            "fe4009b86023709492100bba28de4eb036f2883a4b003a8d39a4e186bed649bd",
        "prometheus_sha256":
            "c3367ed85daa48979c8e0f351b817ea44806a8c59d1814ad2909c99b41d8ea49",
        "span_count": 20,
        "span_names_sha256":
            "613d3fb61a59d901d8dfa9126d042ce93dc197767a5c255224f803e14d893299",
        "span_stream_sha256":
            "9201e0903de91d3e040e0ee19d5895b7952fd25dadbc178cd888a2ebf445eb9b",
        "hooks_sha256":
            "8c130be087ad9c58abaf95a4b04b3f7321fc17808aafe6b7e483274d93fbc325",
        "records_sha256":
            "d3525697c402720b49a9e674025f6d5e94f994a4e77fc65ed64062e757ef788b",
        "state_sha256":
            "87edc5eb48f47f781372360ece21cd3470fc942d7f081f8b9619cb6c693179f8",
    },
    "held-backup-sync-recovered": {
        "outcomes": ["committed"] * 2 + ["held"] + ["committed"] * 3,
        "error": None,
        "epochs_run": 6,
        "fault_rollbacks": 0,
        "epochs_held": 1,
        "epochs_shed": 0,
        "suspended": False,
        "clock_ms": 483.96221850429345,
        "head_hash":
            "2a13df69eb2cc909f3c75ff34a3ba8e2e0ebdb694f05a56c7eba08d90c8362df",
        "prometheus_sha256":
            "4d6597dcfd90535743ec81b5bd4d787c8c7b7c0318a2e0e22ed72aa7ab093a77",
        "span_count": 30,
        "span_names_sha256":
            "2edd1183725aafdec855e48ff61c24df96639202bdfe743eab485229f8c23664",
        "span_stream_sha256":
            "1222953e2aaf7b171f038f15e178809aa2960ccf11cd51f0686e2078fe100a6f",
        "hooks_sha256":
            "6124f3122b4c52e0d4570f03fd921c3bf5a7cc9b6edc3dcc28cc6b2ba58b9cec",
        "records_sha256":
            "d1ce88b64507722b9db1868c193c5e7c5a29a897fef30f3acd0f0336a8b14135",
        "state_sha256":
            "8e2c38d28242b00cadb27b398437e66ecbd8e1112b30c9382658efd2f33f4fef",
    },
    "held-netbuf-release": {
        "outcomes": ["committed"] * 2 + ["held"] * 2 + ["committed"] * 2,
        "error": None,
        "epochs_run": 6,
        "fault_rollbacks": 0,
        "epochs_held": 2,
        "epochs_shed": 0,
        "suspended": False,
        "clock_ms": 487.8348358209559,
        "head_hash":
            "5432749adc18dec72b68a96264a0b000f2384d8021c51606c8083d636e264b7f",
        "prometheus_sha256":
            "fd2d80f43b3fc68f90baa5d5d010f8b8ccfb956f876637c4a54dc5c9bddcc5b0",
        "span_count": 30,
        "span_names_sha256":
            "2edd1183725aafdec855e48ff61c24df96639202bdfe743eab485229f8c23664",
        "span_stream_sha256":
            "8b0d9ff3bce15501901dc0c7b32f2cc95da6bfa3ace78da0a701786f08e43b6b",
        "hooks_sha256":
            "265935996e611cf800e515687adb1975593c1e072ca45f3ba92ab9297bafea11",
        "records_sha256":
            "82e524caaf3e761b4c4f422e3439b84c7a4c579e03ea8b52e59f5cde43a811df",
        "state_sha256":
            "1d016550527fdc72d75a1ecb79472332e4a0621b60840b3e034626aaa32c8c4c",
    },
    "held-then-audit-error-sheds": {
        "outcomes": ["committed"] * 2 + ["held", "rolled-back"]
                    + ["committed"] * 2,
        "error": None,
        "epochs_run": 6,
        "fault_rollbacks": 1,
        "epochs_held": 1,
        "epochs_shed": 1,
        "suspended": False,
        "clock_ms": 484.4421722084003,
        "head_hash":
            "6698b30fd5ae68b1939134bb66819aff9a47a4cd2a0e8fff28817143b7f71ea6",
        "prometheus_sha256":
            "022a49c384f98c63fe50adc1e9670bf788d3dbfc5539b796680f013983a76525",
        "span_count": 29,
        "span_names_sha256":
            "70da2fc13d9ed992dd3d75460af7e914eee24fce1be97b2d1ebf1d633184f974",
        "span_stream_sha256":
            "99f865cd91568d5d23a72eb0753c865387cb0f07af748dda29d92ab33fcc9b96",
        "hooks_sha256":
            "21e86703fb897f7a83938bca59b5b4bab788f337e6d24a49af149eb8552b2954",
        "records_sha256":
            "b8ab62e66644fb6ac1789b1424c483ebb98e5d37df5e6d0a1b4b70e82a4d900c",
        "state_sha256":
            "3379de84ebc28703e45e92033b61b436a6b56aa28f8549bcb759fbe86a8857d4",
    },
    "overlap-audit-attack": {
        "outcomes": ["committed", "committed", "committed", "attack"],
        "error": None,
        "epochs_run": 4,
        "fault_rollbacks": 0,
        "epochs_held": 0,
        "epochs_shed": 0,
        "suspended": True,
        "clock_ms": 102125.09758856267,
        "head_hash":
            "4707c2776002ab80634c9f70be2658b879032d03392cd5b980be30217166c965",
        "prometheus_sha256":
            "790d219ee5a469e6abaace907c57d9d4145941e698c63583dc8f19faee68f195",
        "span_count": 21,
        "span_names_sha256":
            "a59399842e43676dec1e64aeb00e5e033ad45f1c70e160e0391eef09018b719a",
        "span_stream_sha256":
            "586616d0425c89435dba80bcdeaff43c1c7f93c39e6c25e238c06c4ae07d8576",
        "hooks_sha256":
            "45bf386e5b7baf7a099b512d824865fe7683bf5ca9fb47a2b9a54cd350c49317",
        "records_sha256":
            "191f8ea86ef1a4069f2023bc0185521fdc2c4c2f06a1a66e8b022b3878cc0498",
        "state_sha256":
            "af519c9e87628ebf883fa46bc02f4fa50620e5936fcfa91e762be33a13c67cba",
    },
    "scan-disabled": {
        "outcomes": ["committed", "committed", "committed"],
        "error": None,
        "epochs_run": 3,
        "fault_rollbacks": 0,
        "epochs_held": 0,
        "epochs_shed": 0,
        "suspended": False,
        "clock_ms": 396.455392,
        "head_hash":
            "3e1e907f854a37512abbbb32295c7ac9ff6ddc3e0ca405b005e3102b389203be",
        "prometheus_sha256":
            "e1e7325c4838639bac5a6e67be9546f28a953cb0df8e585230aeb023624e09e1",
        "span_count": 15,
        "span_names_sha256":
            "40e4e6cf124b3bf22a084e4cf5f820e3e75ea2b05724e74d389140ee77ae8670",
        "span_stream_sha256":
            "de727ad461afb88ea95df1d2dcb766654462fbc432b5a1bd4228c7f7c6f6680e",
        "hooks_sha256":
            "b480b1dab38d7b8c96523fa19e91215696312dbd746c60560c848936564e9b8b",
        "records_sha256":
            "273432df3d36e3429cac939044e5912f034007412091c37de0f103ecf4372dc7",
        "state_sha256":
            "aa371b96be24fae49e3d7ba53b41dcad034fcc573a2c2c222b962fffc0ff8374",
    },
    "shed-backup-sync": {
        "outcomes": ["committed"] * 2
                    + ["held", "rolled-back", "held", "rolled-back", "held"],
        "error": None,
        "epochs_run": 7,
        "fault_rollbacks": 2,
        "epochs_held": 5,
        "epochs_shed": 4,
        "suspended": False,
        "clock_ms": 532.5065870042649,
        "head_hash":
            "d9d21dccd2900a8c0ae56e277efe6016c183e720bea9f96048f41c5d097869bb",
        "prometheus_sha256":
            "4b98269d043b8905719f8388f3dc9a7607069d774cba45f1fb92fa07a583ee87",
        "span_count": 35,
        "span_names_sha256":
            "c0fd0cc023299a0d78651a864d5a017ea5fab99414e5d5a5d66ea8308018ab6e",
        "span_stream_sha256":
            "08f76c92d8058c7e60d0cd13ee2dff4526742358f819ea433f4780f596eb434e",
        "hooks_sha256":
            "949c27cf6045e4dddbc100317a8571132b72e1aca48a9ed4a09d0d5a2eb0036b",
        "records_sha256":
            "849e89f31a47822375018690407519013e9bffc308c0cd6e6bfda7549e5b5e39",
        "state_sha256":
            "f196d00b0e103dafce4c0ba812bb063665f59ecb63102e162e01fb0d75cbebc5",
    },
    "shed-netbuf-release": {
        "outcomes": ["committed"] * 2
                    + ["held", "rolled-back", "held", "rolled-back", "held"],
        "error": None,
        "epochs_run": 7,
        "fault_rollbacks": 2,
        "epochs_held": 5,
        "epochs_shed": 4,
        "suspended": False,
        "clock_ms": 531.9806600830328,
        "head_hash":
            "4ce0742f9479e83e7ec0bf9a77b1619b2380cbb547edcb0fc1693d1c5139306a",
        "prometheus_sha256":
            "6e0eb5ed89e0919437ec1851db4c0265a17e3b95855fe445e0d11157d131fc96",
        "span_count": 35,
        "span_names_sha256":
            "c0fd0cc023299a0d78651a864d5a017ea5fab99414e5d5a5d66ea8308018ab6e",
        "span_stream_sha256":
            "da8e3270d03cdccd2cb01c3b0e071854c12618529c2c05b1e7a33704d1d92332",
        "hooks_sha256":
            "a15bf198c7fa99a0c4e73455f0ea1a98e4c59f5b926c8ade7fe660e3763b110e",
        "records_sha256":
            "daba5d42b8b9913134932aa68494060df40b13df0027ae27da0701cbc37d1751",
        "state_sha256":
            "5494df385bf0e1a6a4f94bdafd0665a67311b9f09e812baa218610a57126ebce",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_exit_path_fingerprint_is_unchanged(name):
    assert run_case(name) == EXPECTED[name]


def test_every_exit_is_covered():
    outcomes = {outcome for expected in EXPECTED.values()
                for outcome in expected["outcomes"]}
    assert outcomes == {"committed", "held", "attack", "rolled-back"}
