"""Property test: flat-vs-deduped checkpoint equivalence (hypothesis).

The page store's non-negotiable invariant — layering content-addressed,
refcounted, compressed, spillable storage under the checkpoint tier
changes *no observable semantics* — checked over randomized multi-tenant
epoch plans rather than hand-picked ones: random seeds, history
capacities (ring evictions), attack epochs (audit-failure rollbacks),
fault plans (synchronous-rollback escalations, held commits), mid-plan
tenant evictions, and random store shapes (unbounded, budget-forced
compression, spill to disk). Each plan runs twice on a ``CloudHost`` —
once flat, once store-backed — and must agree on:

* every tenant digest, including virtual clocks and the flight
  journal's hash-chain head (the chain covers every journaled event, so
  a store that journaled, charged or reordered *anything* shows up);
* the byte-exact backup image of every surviving tenant;
* the byte-exact reconstructed image of every retained history entry.

Every example ends with a leak check: evicting all tenants must drain
the store to zero unique pages, and ``verify_integrity()`` cross-checks
refcounts and tier byte counters along the way.

Runs in tier-1; also selectable alone with ``-m property``.
"""

import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint.store import PageStore
from repro.core.cloud import CloudHost
from repro.core.config import CrimesConfig
from repro.detectors.canary import CanaryScanModule
from repro.detectors.syscall_table import SyscallTableModule
from repro.faults import FaultPlan, FaultPlane, FaultSchedule
from repro.guest.linux import LinuxGuest
from repro.workloads.attacks import OverflowAttackProgram
from repro.workloads.kvstore import KeyValueStoreProgram

pytestmark = pytest.mark.property

MIB = 1024 * 1024

EQUIV_KEYS = ("clock_ms", "epochs_run", "suspended", "quarantined",
              "quarantine_reason", "flight_head")

# BACKUP_SYNC holds commits: held epochs are merged, restaged and
# committed later, on both backends.
_FAULT_PLANES = st.sampled_from([
    FaultPlane.CHECKPOINT_COPY,
    FaultPlane.VMI_READ,
    FaultPlane.NETBUF_RELEASE,
    FaultPlane.BACKUP_SYNC,
])

_SCHEDULES = st.one_of(
    st.builds(FaultSchedule.transient,
              probability=st.floats(0.1, 0.6),
              fail_attempts=st.integers(1, 2)),
    st.builds(FaultSchedule.burst,
              start_epoch=st.integers(1, 4),
              duration=st.integers(1, 2)),
)

_TENANTS = st.lists(
    st.fixed_dictionaries({
        "seed": st.integers(0, 2**16),
        "history_capacity": st.integers(0, 3),
        "attack_epoch": st.one_of(st.none(), st.integers(2, 5)),
        "fault": st.one_of(
            st.none(),
            st.fixed_dictionaries({
                "plane": _FAULT_PLANES,
                "schedule": _SCHEDULES,
                "seed": st.integers(0, 2**16),
            }),
        ),
    }),
    min_size=1, max_size=4,
)

# Store shapes: unbounded-hot, everything-demoted (budget 0), and a
# partial budget that forces LRU churn between tiers.
_STORE_SHAPES = st.fixed_dictionaries({
    "budget": st.sampled_from([None, 0, 64 * 1024]),
    "compress": st.booleans(),
    "spill": st.booleans(),
})


def build_parts(name, params):
    """One tenant's admit ingredients; deterministic in ``params``."""
    vm = LinuxGuest(name=name, memory_bytes=2 * MIB,
                    seed=params["seed"])
    config = CrimesConfig(
        epoch_interval_ms=20.0, seed=params["seed"],
        history_capacity=params["history_capacity"],
    )
    modules = [SyscallTableModule()]
    programs = [KeyValueStoreProgram(seed=params["seed"])]
    if params["attack_epoch"] is not None:
        modules.append(CanaryScanModule())
        programs.append(
            OverflowAttackProgram(trigger_epoch=params["attack_epoch"]))
    fault_plan = None
    if params["fault"] is not None:
        fault_plan = FaultPlan(
            {params["fault"]["plane"]: params["fault"]["schedule"]},
            seed=params["fault"]["seed"])
    return vm, config, modules, programs, fault_plan


def run_plan(tenants, rounds, evict_at, store=None, names=None):
    """Admit every tenant, run the plan, return the host (store kept).

    ``names`` overrides the default index-derived tenant names — a
    guest's memory image depends on its name, so a re-run of one tenant
    must keep the name it had in the original fleet.
    """
    host = CloudHost(store=store)
    for index, params in enumerate(tenants):
        name = (names[index] if names is not None
                else "tenant-%02d" % index)
        vm, config, modules, programs, fault_plan = build_parts(
            name, params)
        host.admit(vm, config, modules=modules, programs=programs,
                   fault_plan=fault_plan)
    victim = None
    if evict_at is not None and len(tenants) > 1:
        split, victim_index = evict_at
        victim = "tenant-%02d" % (victim_index % len(tenants))
        host.run(min(split, rounds))
        host.evict(victim)
        host.run(max(rounds - split, 0))
    else:
        host.run(rounds)
    return host, victim


def equiv_view(digests):
    return {name: {key: digest[key] for key in EQUIV_KEYS}
            for name, digest in digests.items()}


@settings(max_examples=20, deadline=None)
@given(
    tenants=_TENANTS,
    rounds=st.integers(2, 6),
    evict_at=st.one_of(
        st.none(),
        st.tuples(st.integers(1, 3), st.integers(0, 3)),
    ),
    shape=_STORE_SHAPES,
)
def test_store_backed_run_is_bit_identical_to_flat(tenants, rounds,
                                                   evict_at, shape):
    with tempfile.TemporaryDirectory(prefix="crimes-prop-") as tmp:
        spill_dir = tmp if shape["spill"] else None
        store = PageStore(budget_bytes=shape["budget"],
                          spill_dir=spill_dir,
                          compress=shape["compress"])
        flat_host, _ = run_plan(tenants, rounds, evict_at)
        dedup_host, _ = run_plan(tenants, rounds, evict_at, store=store)

        # 1. Same fleet story, down to the hash-chain heads and clocks.
        assert equiv_view(dedup_host.tenant_digests()) == \
            equiv_view(flat_host.tenant_digests())

        # 2. Byte-identical backup images and history reconstructions.
        for name in flat_host.tenants:
            flat_cp = flat_host.tenant(name).checkpointer
            dedup_cp = dedup_host.tenant(name).checkpointer
            assert dedup_cp.backup_snapshot().memory_image == \
                flat_cp.backup_snapshot().memory_image
            flat_entries = flat_cp.history.all()
            dedup_entries = dedup_cp.history.all()
            assert len(dedup_entries) == len(flat_entries)
            for flat_entry, dedup_entry in zip(flat_entries,
                                               dedup_entries):
                assert dedup_entry.epoch == flat_entry.epoch
                assert dedup_entry.memory_image == flat_entry.memory_image

        # 3. No refcount drift, and eviction drains the store to zero.
        store.verify_integrity()
        assert store.release_errors == 0
        for name in list(dedup_host.tenants):
            dedup_host.evict(name)
        assert store.unique_pages == 0
        assert store.resident_bytes == 0
        assert store.logical_pages == 0
        store.verify_integrity()


@settings(max_examples=8, deadline=None)
@given(tenants=_TENANTS, rounds=st.integers(2, 4))
def test_shared_store_never_crosses_tenant_images(tenants, rounds):
    """Dedup is invisible tenant-to-tenant: each tenant's snapshot on a
    *shared* store equals its snapshot on a *private* store."""
    shared = PageStore()
    shared_host, _ = run_plan(tenants, rounds, None, store=shared)
    for index, params in enumerate(tenants):
        name = "tenant-%02d" % index
        solo_host, _ = run_plan([params], rounds, None,
                                store=PageStore(), names=[name])
        solo = solo_host.tenant(name).checkpointer
        both = shared_host.tenant(name).checkpointer
        assert both.backup_snapshot().memory_image == \
            solo.backup_snapshot().memory_image
    shared.verify_integrity()
