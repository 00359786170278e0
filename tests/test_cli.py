"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main
from repro.experiments import paper

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "results")


def committed(name):
    with open(os.path.join(RESULTS_DIR, "%s.txt" % name), "rb") as handle:
        return handle.read().decode("utf-8")


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out and "case2" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figNaN"])


# fig7 takes ≈13 s; the benchmark suite checks its file.
@pytest.mark.parametrize(
    "command", [command for command in paper.ARTIFACTS if command != "fig7"])
def test_artifact_output(command, capsys):
    assert main([command]) == 0
    assert capsys.readouterr().out == committed(
        paper.ARTIFACTS[command].name)


def test_verify_self_check(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "%d/%d claims verified" % (len(paper.CLAIMS),
                                      len(paper.CLAIMS)) in out
    assert out == committed("claims")


def test_verify_exits_one_when_a_claim_fails(capsys, monkeypatch):
    failing = paper.CLAIMS["remus.improvement"]
    # The full table is test_verify_self_check's; two rows suffice here.
    monkeypatch.setattr(paper, "CLAIMS", {
        claim.id: claim
        for claim in (failing, paper.CLAIMS["vmi.canary_rate_per_ms"])})
    monkeypatch.setattr(failing.experiment, "func",
                        lambda: {"improvement": 0.0})
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    (line,) = [line for line in out.splitlines() if "FAIL" in line]
    assert line.startswith("remus.improvement ")
    assert "1/2 claims verified" in out
