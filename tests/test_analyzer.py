"""Unit tests for timeline, replay engine, and post-mortem reporting."""

import pytest

from repro.analyzer.postmortem import PostMortem, SecurityReport
from repro.analyzer.replay import ReplayEngine
from repro.analyzer.timeline import AttackTimeline
from repro.checkpoint.checkpointer import Checkpointer
from repro.detectors.base import Finding, Severity
from repro.errors import ReplayDivergenceError
from repro.forensics.dumps import MemoryDump
from repro.sim.clock import VirtualClock
from repro.vmi.libvmi import VMIInstance
from repro.workloads.attacks import OVERFLOW_RIP, OverflowAttackProgram


class TestAttackTimeline:
    def test_marks_record_clock_time(self):
        clock = VirtualClock()
        timeline = AttackTimeline(clock)
        timeline.mark("start")
        clock.advance(12.0)
        timeline.mark("end")
        assert timeline.when("start") == 0.0
        assert timeline.elapsed("start", "end") == 12.0

    def test_unknown_milestone_raises(self):
        timeline = AttackTimeline(VirtualClock())
        with pytest.raises(KeyError):
            timeline.when("nothing")

    def test_render_uses_relative_offsets(self):
        clock = VirtualClock(100.0)
        timeline = AttackTimeline(clock)
        timeline.mark("a")
        clock.advance(5.0)
        timeline.mark("b")
        rendered = timeline.render()
        assert "0.000 ms" in rendered
        assert "5.000 ms" in rendered

    def test_empty_render(self):
        assert "empty" in AttackTimeline(VirtualClock()).render()

    def test_has(self):
        timeline = AttackTimeline(VirtualClock())
        timeline.mark("x")
        assert timeline.has("x")
        assert not timeline.has("y")


class TestSecurityReport:
    def test_render_contains_sections(self):
        report = SecurityReport("Title Here")
        report.add_section("Heading", "body text")
        report.add_section("Empty", "")
        rendered = report.render()
        assert "Title Here" in rendered
        assert "Heading" in rendered
        assert "body text" in rendered
        assert "(none)" in rendered

    def test_artifacts_stored(self):
        report = SecurityReport("t")
        report.add_artifact("blob", b"123")
        assert report.artifacts["blob"] == b"123"


def build_replay_fixture(linux_domain):
    """A checkpointed domain with an overflow program mid-flight."""
    vm = linux_domain.vm
    program = OverflowAttackProgram(trigger_epoch=2, exfil_after_attack=False)
    program.bind(vm)
    checkpointer = Checkpointer(linux_domain)
    checkpointer.start()
    vmi = VMIInstance(linux_domain, seed=4)

    # Epoch 1 (clean) then commit -> clean program state snapshot.
    program.step(0.0, 50.0)
    checkpointer.run_checkpoint(50.0)
    checkpointer.commit()
    clean_state = program.state_dict()

    # Epoch 2: the attack epoch.
    program.step(50.0, 50.0)
    checkpointer.run_checkpoint(50.0)
    checkpointer.abort()

    process = program.process
    # Locate the corrupted canary exactly as the detector would.
    from repro.guest.heap import KIND_CANARY

    expected, addrs, sizes, kinds = vmi.read_canary_table_slab(
        process.pid, 0x70000000)
    corrupted = None
    for addr, size, kind in zip(addrs.tolist(), sizes.tolist(),
                                kinds.tolist()):
        if kind != KIND_CANARY:
            continue
        value = vmi.read_canary_value(process.pid, addr, size)
        if value != expected:
            corrupted = (addr, size)
    assert corrupted is not None
    canary_pa = vmi.translate(corrupted[0] + corrupted[1], pid=process.pid)
    return program, clean_state, checkpointer, vmi, canary_pa, expected


class TestReplayEngine:
    def test_pinpoints_corrupting_store(self, linux_domain):
        program, clean_state, checkpointer, vmi, canary_pa, expected = \
            build_replay_fixture(linux_domain)
        engine = ReplayEngine(linux_domain, checkpointer, vmi)
        pinpoint = engine.replay_epoch(
            [program], [clean_state], 50.0, [canary_pa],
            expected_value=expected,
        )
        assert pinpoint.matched
        assert pinpoint.rip == OVERFLOW_RIP

    def test_benign_canary_store_skipped(self, linux_domain):
        """Without the value filter the malloc wrapper's own canary store
        would be blamed; with it, the overflow is."""
        program, clean_state, checkpointer, vmi, canary_pa, expected = \
            build_replay_fixture(linux_domain)
        engine = ReplayEngine(linux_domain, checkpointer, vmi)
        unfiltered = engine.replay_epoch(
            [program], [clean_state], 50.0, [canary_pa],
        )
        assert unfiltered.matched
        assert unfiltered.rip != OVERFLOW_RIP  # the benign store fires first

    def test_divergence_detected(self, linux_domain):
        program, clean_state, checkpointer, vmi, _pa, _expected = \
            build_replay_fixture(linux_domain)
        engine = ReplayEngine(linux_domain, checkpointer, vmi)
        # Watch a frame nothing writes: replay produces zero events.
        with pytest.raises(ReplayDivergenceError):
            engine.replay_epoch([program], [clean_state], 50.0,
                                [linux_domain.vm.memory.size - 1])

    def test_replay_advances_clock_with_slowdown(self, linux_domain):
        program, clean_state, checkpointer, vmi, canary_pa, expected = \
            build_replay_fixture(linux_domain)
        engine = ReplayEngine(linux_domain, checkpointer, vmi)
        before = linux_domain.vm.clock.now
        engine.replay_epoch([program], [clean_state], 50.0, [canary_pa],
                            expected_value=expected)
        assert linux_domain.vm.clock.now - before >= \
            50.0 * ReplayEngine.REPLAY_SLOWDOWN


class TestPostMortem:
    def test_malware_report_renders_paper_sections(self, windows_vm):
        clean = MemoryDump.from_vm(windows_vm, label="clean")
        pid = windows_vm.create_process("reg_read.exe")
        windows_vm.open_file(pid, "\\Device\\HarddiskVolume2\\steal.txt")
        windows_vm.open_socket(pid, ("192.168.1.76", 49164),
                               ("104.28.18.89", 8080))
        detected = MemoryDump.from_vm(windows_vm, label="detected")
        finding = Finding(
            "malware", "blacklisted-process", Severity.CRITICAL,
            "blacklisted process", {"pid": pid, "name": "reg_read.exe",
                                    "start_time": 1},
        )
        postmortem = PostMortem(seed=0)
        report = postmortem.malware_report(clean, detected, finding)
        rendered = report.render()
        assert "104.28.18.89:8080" in rendered
        assert "steal.txt" in rendered
        assert "Extracted executable" in rendered
        assert postmortem.take_cost_ms() > 2500  # init + several plugins

    def test_unreadable_process_list_is_reported_not_raised(self,
                                                            windows_vm):
        from repro.guest.pagetable import kernel_pa
        from repro.guest.windows import LIST_HEAD

        clean = MemoryDump.from_vm(windows_vm, label="last-clean")
        pid = windows_vm.create_process("reg_read.exe")
        windows_vm.open_socket(pid, ("192.168.1.76", 49164),
                               ("104.28.18.89", 8080))
        # A rootkit points PsActiveProcessHead below the direct map.
        LIST_HEAD.write_field(
            windows_vm.memory,
            kernel_pa(windows_vm.symbols.lookup("PsActiveProcessHead")),
            "next", 0x4141)
        detected = MemoryDump.from_vm(windows_vm, label="audit-failed")
        finding = Finding(
            "malware", "blacklisted-process", Severity.CRITICAL,
            "blacklisted process", {"pid": pid, "name": "reg_read.exe",
                                    "start_time": 1},
        )
        postmortem = PostMortem(seed=0)
        report = postmortem.report(clean, detected, finding)
        sections = dict(report.sections)
        # Both plugins that walk the process list report it unreadable,
        # with the hostile link; the pool sweeps still report.
        for plugin in ("handles", "psxview"):
            body = sections["Unreadable: %s over the audit-failed dump"
                            % plugin]
            assert "0x4141" in body
        assert [(row["plugin"], row["dump"])
                for row in report.artifacts["unreadable"]] == \
            [("handles", "audit-failed"), ("psxview", "audit-failed")]
        assert "Extracted executable" in sections
        assert "104.28.18.89:8080" in report.render()
