"""Regenerate every paper artifact and re-measure every paper claim.

One test per row of :data:`repro.experiments.paper.ARTIFACTS` runs the
experiment with the parameters its committed file was made with,
rewrites ``benchmarks/results/<name>.txt`` and checks the claims that
read that experiment; ``test_claims`` then evaluates all of
:data:`repro.experiments.paper.CLAIMS` (reusing the results already
computed) and rewrites ``benchmarks/results/claims.txt``, the text of
``repro verify``. Every output is virtual time, so a clean ``git diff``
afterwards means every artifact reproduced byte for byte.
"""

import pytest

from repro.experiments import paper


@pytest.fixture(scope="module")
def results():
    """Experiment results by name, shared by every test in this module."""
    return {}


def _failed(evaluations):
    return [claim.id for claim, _measured, passed in evaluations
            if not passed]


def _record_benches(command, result, record_bench):
    """The machine-readable ``BENCH_*.json`` beside two of the artifacts."""
    if command == "table1":
        record_bench("table1_cost_breakdown", {
            "description": "pause-phase cost (ms), no-opt, 20 ms epochs",
            "rows": [dict(row) for row in result],
        })
    elif command == "fig4":
        claims = paper.CLAIMS
        record_bench("fig4_swaptions_breakdown", {
            "description": "swaptions pause breakdown (ms), 200 ms epochs",
            "levels": {level: dict(result[level])
                       for level in ("full", "pre-map", "memcpy", "no-opt")},
            "pause_reduction":
                claims["fig4.pause_reduction"].measure(result),
            "paper_anchor": {
                "pause_reduction": claims["fig4.pause_reduction"].paper,
                "no_opt_total_ms": claims["fig4.no_opt_pause_ms"].paper,
                "full_total_ms": claims["fig4.full_pause_ms"].paper,
            },
        })


@pytest.mark.parametrize("command", list(paper.ARTIFACTS))
def test_artifact(command, results, run_once, record_result, record_bench):
    artifact = paper.ARTIFACTS[command]
    experiment = artifact.experiment
    result = results[experiment.name] = run_once(experiment.run)
    record_result(artifact.name, artifact.text(result))
    _record_benches(command, result, record_bench)
    own = [claim for claim in paper.CLAIMS.values()
           if claim.experiment is experiment]
    assert not _failed(paper.evaluate(own, results))


def test_claims(results, run_once, record_result):
    evaluations = run_once(paper.evaluate, results=results)
    record_result("claims", paper.render_claims(evaluations))
    assert not _failed(evaluations)
