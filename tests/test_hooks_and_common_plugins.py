"""Tests for framework hooks and the OS-agnostic forensics plugins."""

import pytest

from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.detectors.canary import CanaryScanModule
from repro.detectors.deep import SignatureSweepModule
from repro.errors import CrimesError, ForensicsError
from repro.forensics.dumps import MemoryDump
from repro.forensics.volatility import VolatilityFramework
from repro.guest.linux import LinuxGuest
from repro.workloads.attacks import MemoryResidentMalware, \
    OverflowAttackProgram


def make_crimes(seed, **kwargs):
    vm = LinuxGuest(name="hooks-%d" % seed, memory_bytes=8 * 1024 * 1024,
                    seed=seed)
    kwargs.setdefault("epoch_interval_ms", 50.0)
    kwargs.setdefault("seed", seed)
    return Crimes(vm, CrimesConfig(**kwargs))


class TestHooks:
    def test_epoch_hook_fires_every_epoch(self):
        crimes = make_crimes(170)
        seen = []
        crimes.on("epoch", lambda record: seen.append(record.epoch))
        crimes.start()
        crimes.run(max_epochs=3)
        assert seen == [1, 2, 3]

    def test_attack_hook_fires_once_with_failed_record(self):
        crimes = make_crimes(171, auto_respond=False)
        crimes.install_module(CanaryScanModule())
        crimes.add_program(OverflowAttackProgram(trigger_epoch=2))
        attacks = []
        crimes.on("attack", attacks.append)
        crimes.start()
        crimes.run(max_epochs=4)
        assert len(attacks) == 1
        assert not attacks[0].committed

    def test_async_verdict_hook(self):
        crimes = make_crimes(172)
        crimes.install_async_module(SignatureSweepModule())
        crimes.add_program(MemoryResidentMalware(trigger_epoch=2))
        verdicts = []
        crimes.on("async-verdict", verdicts.append)
        crimes.start()
        crimes.run(max_epochs=30)
        assert verdicts
        assert any(verdict.attack_detected for verdict in verdicts)

    def test_unknown_event_rejected(self):
        with pytest.raises(CrimesError):
            make_crimes(173).on("reboot", lambda payload: None)

    def test_hook_exception_does_not_break_the_loop(self, caplog):
        crimes = make_crimes(174)

        def broken(_record):
            raise RuntimeError("monitoring bug")

        crimes.on("epoch", broken)
        crimes.start()
        records = crimes.run(max_epochs=2)
        assert len(records) == 2
        assert all(record.committed for record in records)


class TestCommonPlugins:
    def test_yarascan_finds_pattern_with_offset(self, linux_vm):
        process = linux_vm.create_process("host")
        addr = process.malloc(64)
        process.write(addr, b"SECRET_TOKEN_12345")
        dump = MemoryDump.from_vm(linux_vm)
        rows = VolatilityFramework().run(
            "yarascan", dump, pattern=rb"SECRET_TOKEN_\d+"
        )
        assert len(rows) == 1
        assert rows[0]["match"] == b"SECRET_TOKEN_12345"
        assert dump.read_pa(rows[0]["paddr"], 12) == b"SECRET_TOKEN"

    def test_yarascan_no_match(self, linux_vm):
        dump = MemoryDump.from_vm(linux_vm)
        assert VolatilityFramework().run(
            "yarascan", dump, pattern=rb"NOT_PRESENT_ANYWHERE_42"
        ) == []

    def test_memdiff_localizes_changes(self, linux_vm):
        before = MemoryDump.from_vm(linux_vm, label="before")
        process = linux_vm.create_process("mutator")
        addr = process.malloc(16)
        process.write(addr, b"mutation")
        after = MemoryDump.from_vm(linux_vm, label="after")
        rows = VolatilityFramework().run("memdiff", after, against=before)
        assert rows  # the kernel graph and the heap page both changed
        changed_pfns = {row["pfn"] for row in rows}
        heap_pfn = after.translate(addr, pid=process.pid) // 4096
        assert heap_pfn in changed_pfns

    def test_memdiff_identical_images(self, linux_vm):
        one = MemoryDump.from_vm(linux_vm)
        two = MemoryDump.from_vm(linux_vm)
        assert VolatilityFramework().run("memdiff", one, against=two) == []

    def test_memdiff_size_mismatch_rejected(self, linux_vm):
        dump = MemoryDump.from_vm(linux_vm)
        other = LinuxGuest(name="other", memory_bytes=4 * 1024 * 1024)
        small = MemoryDump.from_vm(other)
        with pytest.raises(ForensicsError):
            VolatilityFramework().run("memdiff", dump, against=small)
