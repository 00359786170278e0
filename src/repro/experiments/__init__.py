"""The experiment harness: one function per table/figure of §5.

Each returns structured rows/series matching what the paper plots.
:mod:`repro.experiments.paper` holds the two tables built on them:
``ARTIFACTS`` (the experiment call and renderer behind every committed
``benchmarks/results/*.txt``) and ``CLAIMS`` (every checked paper number
with its band). The CLI, the benchmark suite and the tests read those
tables; examples call the functions directly.
"""

from repro.experiments.parsec_experiments import (
    run_parsec,
    fig3_parsec_overhead,
    fig4_swaptions_breakdown,
    fig5_interval_sweep,
    fig6a_fluidanimate,
    remus_comparison,
)
from repro.experiments.bitmap_experiments import fig6b_bitmap_scan
from repro.experiments.web_experiments import (
    table1_cost_breakdown,
    fig7_web_performance,
)
from repro.experiments.vmi_experiments import table3_vmi_costs
from repro.experiments.case_studies import (
    case1_overflow,
    case2_malware,
    fig8_attack_timeline,
)
from repro.experiments.safety_experiments import (
    best_effort_window_sweep,
    measure_exposure,
)

__all__ = [
    "run_parsec",
    "fig3_parsec_overhead",
    "fig4_swaptions_breakdown",
    "fig5_interval_sweep",
    "fig6a_fluidanimate",
    "remus_comparison",
    "fig6b_bitmap_scan",
    "table1_cost_breakdown",
    "fig7_web_performance",
    "table3_vmi_costs",
    "case1_overflow",
    "case2_malware",
    "fig8_attack_timeline",
    "best_effort_window_sweep",
    "measure_exposure",
]
