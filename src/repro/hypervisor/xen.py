"""Domains and the hypervisor itself.

A :class:`Domain` wraps a guest VM with the control-plane facilities Xen
gives Dom0: pause/resume, log-dirty tracking, foreign mapping, and
memory-event monitoring. The :class:`Hypervisor` hosts domains over a
shared virtual clock.
"""

import enum

from repro.errors import DomainStateError, HypervisorError
from repro.hypervisor.dirty import DirtyBitmap
from repro.hypervisor.events import MemoryEventMonitor
from repro.hypervisor.foreign_map import MappingTable
from repro.sim.clock import VirtualClock


class DomainState(enum.Enum):
    RUNNING = "running"
    PAUSED = "paused"
    SUSPENDED = "suspended"
    DESTROYED = "destroyed"


class Domain:
    """One guest VM under hypervisor control."""

    def __init__(self, domid, vm, clock):
        self.domid = domid
        self.vm = vm
        self.clock = clock
        self.state = DomainState.RUNNING
        self.dirty_bitmap = DirtyBitmap(vm.memory.frame_count)
        self.event_monitor = MemoryEventMonitor(vm, clock)

    # -- log-dirty mode ------------------------------------------------------

    def enable_log_dirty(self):
        """Attach this domain's bitmap as the guest RAM's log-dirty hook.

        Every guest store then marks its frames straight into the
        bitmap. RAM has one hook: enabling again is a no-op, and a
        second domain over the same guest cannot take it over.
        """
        memory = self.vm.memory
        if memory.dirty_log is self.dirty_bitmap:
            return
        if memory.dirty_log is not None:
            raise HypervisorError(
                "log-dirty mode is already enabled on %r by another domain"
                % self.vm.name
            )
        memory.dirty_log = self.dirty_bitmap

    def disable_log_dirty(self):
        memory = self.vm.memory
        if memory.dirty_log is self.dirty_bitmap:
            memory.dirty_log = None

    @property
    def log_dirty_enabled(self):
        return self.vm.memory.dirty_log is self.dirty_bitmap

    def harvest_dirty(self, optimized, fault=None, injector=None):
        """Harvest-and-clear the dirty bitmap, surviving harvest faults.

        The fault is probed *before* the read-and-reset runs: a harvest
        that ultimately fails leaves the bitmap untouched, so rollback's
        candidate set (which reads the live bitmap) is never lost to a
        faulting control plane. Returns ``(dirty_pfns, stats,
        backoff_ms)`` where ``backoff_ms`` is the retry cost to charge
        to the bitscan phase; raises :class:`HypervisorError` if the
        fault exhausts the retry budget.
        """
        backoff_ms = 0.0
        if fault is not None:
            outcome = injector.retry(fault, site="bitmap-harvest")
            backoff_ms = outcome.backoff_ms
            if not outcome.success:
                raise HypervisorError(
                    "dirty-bitmap harvest failed after %d attempt(s) "
                    "(domain %d)" % (outcome.attempts, self.domid)
                )
        dirty, stats = self.dirty_bitmap.harvest(optimized)
        return dirty, stats, backoff_ms

    # -- lifecycle ------------------------------------------------------------

    def pause(self):
        if self.state is not DomainState.RUNNING:
            raise DomainStateError(
                "cannot pause domain %d in state %s" % (self.domid, self.state)
            )
        self.vm.pause()
        self.state = DomainState.PAUSED

    def resume(self):
        if self.state is not DomainState.PAUSED:
            raise DomainStateError(
                "cannot resume domain %d in state %s" % (self.domid, self.state)
            )
        self.vm.resume()
        self.state = DomainState.RUNNING

    def suspend(self):
        """Permanent stop (attack response); cannot be resumed."""
        if self.state is DomainState.RUNNING:
            self.vm.pause()
        self.state = DomainState.SUSPENDED

    def destroy(self):
        self.state = DomainState.DESTROYED

    # -- foreign mapping ---------------------------------------------------------

    def new_mapping_table(self):
        """A fresh Dom0-process view of this domain's frames."""
        return MappingTable(self.vm.memory.frame_count)


class Hypervisor:
    """Hosts domains; the root object benchmarks construct."""

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else VirtualClock()
        self.domains = {}
        self._next_domid = 1

    def create_domain(self, vm):
        if vm.clock is not self.clock:
            raise HypervisorError(
                "guest VM must share the hypervisor's clock; pass clock= when "
                "constructing the guest"
            )
        domid = self._next_domid
        self._next_domid += 1
        domain = Domain(domid, vm, self.clock)
        self.domains[domid] = domain
        return domain

    def destroy_domain(self, domid):
        domain = self.domains.pop(domid, None)
        if domain is None:
            raise HypervisorError("no domain %d" % domid)
        domain.destroy()
