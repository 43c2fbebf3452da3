"""Quanterference — understanding and predicting cross-application I/O
interference in HPC storage systems.

A full reproduction of Egersdoerfer et al., SC 2024: a discrete-event
Lustre-like parallel file system simulator (standing in for the paper's
11-node testbed), IO500/DLIO/application workload generators, client- and
server-side window monitors, the degradation-labelling pipeline and the
kernel-based per-server neural network, plus an experiment harness
regenerating every table and figure of the paper's evaluation.

Quick tour::

    from repro import (
        ExperimentConfig, InterferenceSpec, run_pair, make_io500_task,
    )

    config = ExperimentConfig()
    target = make_io500_task("ior-easy-read", ranks=4, scale=0.5)
    noise = [InterferenceSpec("ior-easy-read", instances=3)]
    pair = run_pair(target, noise, config)   # baseline + interfered traces

See ``examples/`` for end-to-end training and runtime prediction, and
``benchmarks/`` for the paper's tables and figures.
"""

from repro.common import IORecord, OpType, ServerId, ServerKind
from repro.core import (
    BINARY_THRESHOLDS,
    MULTICLASS_THRESHOLDS,
    Dataset,
    DegradationLabeller,
    InterferencePredictor,
    Normalizer,
    bin_level,
    confusion_matrix,
    evaluate,
    match_operations,
    train_test_split,
)
from repro.experiments import (
    ExperimentConfig,
    InterferenceSpec,
    Scenario,
    collect_windows,
    execute_run,
    generate_dataset,
    run_pair,
    standard_scenarios,
)
from repro.monitor import (
    ClientWindowAggregator,
    MonitoredRun,
    ServerMonitor,
    assemble_vectors,
)
from repro.sim import Cluster, ClusterConfig
from repro.workloads import (
    DLIOConfig,
    DLIOWorkload,
    EnzoWorkload,
    AmrexWorkload,
    OpenPMDWorkload,
    IorConfig,
    IorWorkload,
    MDTestConfig,
    MDTestWorkload,
    Workload,
    launch,
    launch_interference,
    make_io500_task,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # common
    "IORecord", "OpType", "ServerId", "ServerKind",
    # simulator
    "Cluster", "ClusterConfig",
    # workloads
    "Workload", "IorConfig", "IorWorkload", "MDTestConfig", "MDTestWorkload",
    "DLIOConfig", "DLIOWorkload", "EnzoWorkload", "AmrexWorkload",
    "OpenPMDWorkload", "make_io500_task", "launch", "launch_interference",
    # monitors
    "ClientWindowAggregator", "ServerMonitor", "MonitoredRun",
    "assemble_vectors",
    # core
    "BINARY_THRESHOLDS", "MULTICLASS_THRESHOLDS", "Dataset",
    "DegradationLabeller", "InterferencePredictor", "Normalizer",
    "bin_level", "confusion_matrix", "evaluate", "match_operations",
    "train_test_split",
    # experiments
    "ExperimentConfig", "InterferenceSpec", "Scenario", "collect_windows",
    "execute_run", "generate_dataset", "run_pair", "standard_scenarios",
]
