"""Experiment drivers: one module per table/figure of the paper.

==========  =============================================  =================
Artifact    Paper content                                   Module
==========  =============================================  =================
Fig. 4      roofline of LR-TDDFT kernels, Si_64 + Si_1024  ``fig4_roofline``
Table I     pseudopotential memory footprint               ``table1_footprint``
Fig. 7      CPU/GPU/NDFT time breakdown, small + large     ``fig7_breakdown``
Fig. 8      speedup over CPU, Si_16 .. Si_2048             ``fig8_scalability``
§VI-A       scheduling overhead / footprint / comm deltas  ``discussion``
§IV ablns   granularity + shared-memory design points      ``ablations``
(extension) batched serving on one shared machine          ``batch_throughput``
==========  =============================================  =================

Every driver returns plain dataclasses/dicts and has a ``format_*`` helper
producing the rows the paper reports, alongside the paper's own numbers
where the text states them (``paper`` fields), so benchmarks can print
paper-vs-measured directly.
"""

from repro.experiments.report import Comparison, format_table
from repro.experiments.fig4_roofline import RooflineStudy, run_roofline_study
from repro.experiments.table1_footprint import run_table1
from repro.experiments.fig7_breakdown import BreakdownStudy, run_breakdown
from repro.experiments.fig8_scalability import ScalabilityStudy, run_scalability
from repro.experiments.discussion import DiscussionNumbers, run_discussion
from repro.experiments.ablations import (
    run_granularity_ablation,
    run_policy_ablation,
    run_shared_memory_ablation,
)
from repro.experiments.batch_throughput import run_batch_study

__all__ = [
    "run_batch_study",
    "Comparison",
    "format_table",
    "RooflineStudy",
    "run_roofline_study",
    "run_table1",
    "BreakdownStudy",
    "run_breakdown",
    "ScalabilityStudy",
    "run_scalability",
    "DiscussionNumbers",
    "run_discussion",
    "run_granularity_ablation",
    "run_policy_ablation",
    "run_shared_memory_ablation",
]
