"""One module per paper table/figure, plus the experiment runner.

Each experiment module self-registers its entry point with the
decorator in :mod:`repro.experiments.registry`; the runner derives its
experiment table (and ``all``'s order) from that registry.
"""

from .ablation import granularity_ablation, idle_bit_ablation, wrapper_overhead_ablation
from .cone_example import compaction_demo, verify_against_paper
from .correlation import benchmark_series, synthetic_series
from .extensions import abort_on_fail_study, bist_study, compression_study
from .figures import generate_figures
from .iscas_socs import IscasSocExperiment, run_soc1, run_soc2
from .itc02_tables import table3, table4
from .registry import ExperimentEntry, experiment
from .runner import run_experiment, run_experiments

__all__ = [
    "ExperimentEntry",
    "IscasSocExperiment",
    "abort_on_fail_study",
    "benchmark_series",
    "bist_study",
    "compaction_demo",
    "compression_study",
    "experiment",
    "generate_figures",
    "granularity_ablation",
    "idle_bit_ablation",
    "run_experiment",
    "run_experiments",
    "run_soc1",
    "run_soc2",
    "synthetic_series",
    "table3",
    "table4",
    "verify_against_paper",
    "wrapper_overhead_ablation",
]
