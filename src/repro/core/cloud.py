"""Multi-tenant hosting: CRIMES as a cloud-provider service (§2).

The paper's pitch is that the *provider* runs CRIMES under every tenant
VM — "zero-touch", no in-guest agents, per-tenant security modules. A
:class:`CloudHost` manages a fleet of independently clocked, CRIMES-
protected tenants: admission, round-based driving, per-tenant incident
isolation, and host-level capacity accounting (how many audit-seconds
per wall-second the host's scanning cores must absorb, and the 2×
memory cost of keeping every tenant's backup image).
"""

from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.errors import CrimesError
from repro.obs.incident import INCIDENT_SCHEMA
from repro.obs.observer import Observer
from repro.sim.clock import VirtualClock

#: SLA class -> scheduling priority (higher runs earlier in a round).
#: An unknown SLA gets standard priority; ``admit(priority=...)``
#: overrides the mapping per tenant.
SLA_PRIORITY = {"premium": 2, "standard": 1, "batch": 0, "spot": 0}


class TenantRecord:
    """One tenant's registration on the host."""

    __slots__ = ("name", "crimes", "sla", "priority", "quarantined",
                 "quarantine_reason")

    def __init__(self, name, crimes, sla, priority=None):
        self.name = name
        self.crimes = crimes
        self.sla = sla
        self.priority = (priority if priority is not None
                         else SLA_PRIORITY.get(sla, 1))
        #: Set when the tenant's epoch loop raised out of run_epoch (a
        #: fault the framework could not absorb): the host fences the VM
        #: off instead of letting one tenant's failure stall the round.
        self.quarantined = False
        self.quarantine_reason = None

    @property
    def suspended(self):
        return self.crimes.suspended

    def schedule_key(self):
        """Round ordering: priority class first, then health.

        Tenants are independent (per-tenant clocks and seeds), so
        ordering never changes any tenant's trajectory — it only decides
        who waits on whom *within* a round's host wall time. High
        priority runs first; a degraded tenant (mid-hold, paying
        retry/backoff on every epoch) runs after its healthy shard
        neighbours so its recovery work cannot stall them. Name is the
        deterministic tie-break.
        """
        degraded = 1 if self.crimes.health != "healthy" else 0
        return (-self.priority, degraded, self.name)


class CloudHost:
    """A physical host running many CRIMES-protected tenant VMs.

    Each tenant advances on its own virtual timeline (VMs occupy
    different cores in a real host); the host aggregates security-side
    load so a provider can size scanning capacity.
    """

    def __init__(self, name="host-0", store=None):
        self.name = name
        self.tenants = {}
        self.rounds_run = 0
        #: Optional shared content-addressed checkpoint store: every
        #: admitted tenant's checkpointer dedups its pages into it, so
        #: the host's checkpoint memory is the *deduped* resident set,
        #: not one flat backup per tenant.
        self.store = store
        # The host's own timeline and journal. Tenants keep their
        # independent clocks and hash chains; the host clock tracks the
        # *frontier* (the farthest any tenant has simulated) so
        # host-level events — round boundaries, admission decisions —
        # carry a meaningful virtual timestamp for the fleet merge.
        self.observer = Observer(VirtualClock(), name=name)
        if store is not None:
            store.attach_registry(self.observer.registry)

    # -- admission ----------------------------------------------------------

    def admit(self, vm, config=None, modules=(), async_modules=(),
              programs=(), sla="standard", fault_plan=None, priority=None):
        """Bring a tenant VM under CRIMES protection; returns its Crimes."""
        if vm.name in self.tenants:
            raise CrimesError("tenant %r already admitted" % vm.name)
        crimes = Crimes(vm, config if config is not None else CrimesConfig(),
                        fault_plan=fault_plan, store=self.store)
        for module in modules:
            crimes.install_module(module)
        for module in async_modules:
            crimes.install_async_module(module)
        for program in programs:
            crimes.add_program(program)
        crimes.start()
        record = TenantRecord(vm.name, crimes, sla, priority=priority)
        self.tenants[vm.name] = record
        self.observer.journal(
            "fleet.admit", tenant=vm.name, sla=sla,
            priority=record.priority, memory_bytes=vm.memory.size,
        )
        return crimes

    def evict(self, name):
        record = self.tenants.pop(name, None)
        if record is None:
            raise CrimesError("no tenant named %r" % name)
        # Return every store reference the tenant holds — backup map,
        # history undo records, any staged epoch — so shared pages
        # another tenant still references survive while this tenant's
        # exclusive pages are freed. The leak/premature-free suites pin
        # both directions.
        record.crimes.checkpointer.release_store_refs()
        self.observer.journal(
            "fleet.evict", tenant=name,
            quarantined=record.quarantined, suspended=record.suspended,
        )
        return record

    def tenant(self, name):
        try:
            return self.tenants[name].crimes
        except KeyError:
            raise CrimesError("no tenant named %r" % name) from None

    # -- driving -------------------------------------------------------------

    def active_tenants(self):
        return [record for record in self.tenants.values()
                if not record.suspended and not record.quarantined]

    def scheduled_tenants(self):
        """Active tenants in this round's dispatch order.

        Priority scheduling: premium SLAs first, degraded tenants last
        within their class (see :meth:`TenantRecord.schedule_key`).
        Ordering is pure dispatch policy — per-tenant trajectories are
        identical whatever the order, which is what lets the fleet
        scheduler shard this loop across processes at all.
        """
        return sorted(self.active_tenants(),
                      key=TenantRecord.schedule_key)

    def quarantined_tenants(self):
        """Names of tenants fenced off after an unabsorbed fault."""
        return [name for name, record in sorted(self.tenants.items())
                if record.quarantined]

    def _quarantine(self, record, err):
        """Fence a tenant whose epoch loop raised out of run_epoch."""
        record.quarantined = True
        record.quarantine_reason = str(err)
        # The epoch died mid-flight: any span the raising code path left
        # open (a third-party scan module that entered a span and blew
        # up) would otherwise sit on the stack forever and taint every
        # later trace export with ``unfinished: true``. Abort-close them
        # before journaling the fence, so the quarantine event carries
        # no stale causal span and the export tells a finished story.
        record.crimes.observer.tracer.abort_open(reason="quarantine")
        # The staged (uncommitted) epoch died with the loop: drop its
        # store references now. The backup and history refs stay — a
        # quarantined tenant's evidence is retained until eviction.
        record.crimes.checkpointer.release_staged_refs()
        record.crimes.observer.journal(
            "tenant.quarantined", reason=str(err),
        )

    def run_round(self):
        """Advance every non-suspended tenant by one epoch.

        Returns ``{tenant_name: EpochRecord}``; tenants whose audit
        failed are suspended individually — an incident on one tenant
        never touches another (the isolation §2 argues hypervisor-level
        placement buys). A tenant whose epoch loop *raises* (a fault its
        own retry/degraded machinery could not absorb) is quarantined:
        fenced out of future rounds, while every other tenant's epoch
        still runs this round.

        A round in which *no* tenant is eligible is a no-op: it neither
        advances ``rounds_run`` nor journals, exactly like ``run()``'s
        pre-check — round accounting is identical whether the host is
        driven through ``run()`` or by calling ``run_round()`` directly.
        """
        scheduled = self.scheduled_tenants()
        records = {}
        quarantined_now = 0
        for record in scheduled:
            try:
                records[record.name] = record.crimes.run_epoch()
            except CrimesError as err:
                self._quarantine(record, err)
                quarantined_now += 1
        if not scheduled:
            return records
        self.rounds_run += 1
        self._advance_host_clock()
        self.observer.journal(
            "fleet.round", round=self.rounds_run,
            scheduled=len(scheduled), ran=len(records),
            quarantined=quarantined_now,
            suspended_total=len(self.incidents()),
            quarantined_total=len(self.quarantined_tenants()),
            tenants_total=len(self.tenants),
        )
        return records

    def _advance_host_clock(self):
        """Move the host timeline to the fleet's virtual-time frontier."""
        frontier = max(
            (record.crimes.clock.now for record in self.tenants.values()),
            default=0.0,
        )
        if frontier > self.observer.clock.now:
            self.observer.clock.advance_to(frontier)

    def run(self, rounds):
        """Drive the fleet for ``rounds`` rounds; returns incident names."""
        for _ in range(rounds):
            if not self.active_tenants():
                break
            self.run_round()
        return sorted(self.incidents())

    # -- host-level accounting --------------------------------------------------

    def incidents(self):
        """Names of tenants currently suspended by a detection."""
        return [name for name, record in self.tenants.items()
                if record.suspended]

    def incident_outcomes(self):
        """Tenant -> AnalysisOutcome for auto-responded incidents."""
        return {
            name: record.crimes.last_outcome
            for name, record in self.tenants.items()
            if record.crimes.last_outcome is not None
        }

    def incident_bundles(self):
        """Tenant -> incident bundle, for every tenant that built one."""
        return {
            name: record.crimes.last_incident
            for name, record in sorted(self.tenants.items())
            if record.crimes.last_incident is not None
        }

    def host_incident_bundle(self):
        """One aggregate artifact for a multi-tenant incident.

        Each per-tenant bundle keeps its own hash chain (tenants run on
        independent virtual timelines); the host wraps them with the
        fleet rollup a provider's incident response starts from.
        """
        bundles = self.incident_bundles()
        return {
            "schema": INCIDENT_SCHEMA,
            "host": self.name,
            "rounds_run": self.rounds_run,
            "incident_tenants": sorted(bundles),
            "incidents": bundles,
            "fleet": self.observability_rollup()["fleet"],
        }

    def memory_overhead_bytes(self):
        """Extra RAM the checkpoint tier actually retains on this host.

        One accounting definition everywhere (the invariant the store
        equivalence/regression suites pin): bytes the checkpoint tier
        holds resident *right now*. For flat tenants that is each FULL
        backup image plus its history's undo pages — an ACCOUNTING tenant
        keeps no backup and costs 0, and pages the dedup tier skipped
        are never re-counted. With a shared store it is the store's
        deduped resident set (hot raw + cold compressed), attributed
        per tenant by :meth:`PageStore.per_tenant`. Snapshot *offers*
        to the async scanner are transient copies in both modes and
        never move this number.
        """
        flat = sum(
            record.crimes.checkpointer.retained_bytes()
            for record in self.tenants.values()
        )
        if self.store is not None:
            return flat + self.store.resident_bytes
        return flat

    def tenant_digests(self):
        """name -> compact, comparable end-state for every tenant.

        This is the currency of the fleet scheduler's serial-vs-sharded
        equivalence guarantee: virtual clock, epoch count, incident /
        quarantine state, and the flight journal's rolling head hash.
        Two runs that agree on every digest simulated the same fleet —
        the hash chain covers every journaled event, so agreement is not
        a coincidence one can fake with matching counters.
        """
        digests = {}
        for name, record in sorted(self.tenants.items()):
            crimes = record.crimes
            digests[name] = {
                "clock_ms": crimes.clock.now,
                "epochs_run": crimes.epochs_run,
                "epochs_held": crimes.epochs_held,
                "epochs_shed": crimes.epochs_shed,
                "fault_rollbacks": crimes.fault_rollbacks,
                "health": crimes.health,
                "suspended": crimes.suspended,
                "quarantined": record.quarantined,
                "quarantine_reason": record.quarantine_reason,
                "flight_head": crimes.observer.flight.head_hash,
                "priority": record.priority,
                "sla": record.sla,
                "memory_bytes": crimes.vm.memory.size,
                # Dispatch estimate for the next round (virtual ms, so
                # scheduling stays deterministic): last epoch's pause
                # plus the configured interval, or the interval alone
                # before the first epoch completes.
                "est_cost_ms": (
                    crimes.config.epoch_interval_ms
                    + (crimes.records[-1].pause_ms if crimes.records else 0.0)
                ),
            }
        return digests

    def audit_seconds_per_wall_second(self):
        """Aggregate scan-core demand across the fleet.

        For each tenant: (mean audit cost) / (epoch interval + mean
        pause) — the fraction of one scanning core that tenant consumes.
        Summed over tenants, this tells the provider how many dedicated
        scan cores the host needs (the economy-of-scale number).
        """
        demand = 0.0
        for record in self.tenants.values():
            crimes = record.crimes
            breakdown = crimes.mean_phase_breakdown()
            interval = crimes.config.epoch_interval_ms
            cycle = interval + crimes.mean_pause_ms()
            if cycle > 0:
                demand += breakdown["vmi"] / cycle
        return demand

    def observability_rollup(self):
        """Per-tenant observer summaries plus fleet-level aggregates.

        The provider-side export: one full metrics/trace summary per
        tenant (each on its own virtual timeline) and the host-level
        rollup a capacity planner actually reads.
        """
        tenants = {
            name: record.crimes.observer.summary()
            for name, record in sorted(self.tenants.items())
        }
        epochs_total = sum(record.crimes.epochs_run
                           for record in self.tenants.values())
        pauses = [record.crimes.mean_pause_ms()
                  for record in self.tenants.values()
                  if record.crimes.records]
        rollup = {
            "host": self.name,
            "rounds_run": self.rounds_run,
            "host_journal": self.observer.flight.summary(),
            "fleet": {
                "tenants": len(self.tenants),
                "incidents": len(self.incidents()),
                "quarantined": len(self.quarantined_tenants()),
                "degraded": sum(
                    1 for record in self.tenants.values()
                    if record.crimes.health == "degraded"
                ),
                "epochs_held_total": sum(
                    record.crimes.epochs_held
                    for record in self.tenants.values()
                ),
                "epochs_total": epochs_total,
                "mean_pause_ms": (sum(pauses) / len(pauses)) if pauses
                else 0.0,
                "audit_seconds_per_wall_second":
                    self.audit_seconds_per_wall_second(),
                "memory_overhead_bytes": self.memory_overhead_bytes(),
            },
            "tenants": tenants,
        }
        if self.store is not None:
            self.store.export_metrics()
            rollup["store"] = {
                "stats": self.store.stats(),
                "per_tenant": self.store.per_tenant(),
            }
        return rollup

    def fleet_summary(self):
        """One status row per tenant (provider dashboard material)."""
        rows = []
        for name, record in sorted(self.tenants.items()):
            crimes = record.crimes
            if record.quarantined:
                status = "QUARANTINED"
            elif record.suspended:
                status = "SUSPENDED"
            elif crimes.health == "degraded":
                status = "degraded"
            else:
                status = "running"
            rows.append(
                {
                    "tenant": name,
                    "sla": record.sla,
                    "epochs": crimes.epochs_run,
                    "mean_pause_ms": round(crimes.mean_pause_ms(), 2),
                    "status": status,
                }
            )
        return rows
