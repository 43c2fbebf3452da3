"""Cross-cluster adaptation (A5): the paper's portability claim.

The paper states "the framework can be easily adapted to different
clusters" (§VI). This experiment measures three adaptation paths from the
default testbed shape (cluster A: 3 OSS x 2 OST) to a different topology
(cluster B: 4 OSS x 2 OST, i.e. 8 OSTs + MDT = 9 servers):

* ``kernel-retrained-on-B`` — the paper's path: recollect data on B and
  retrain the kernel network (whose head is sized to B's server count);
* ``settransformer-zero-shot`` — train the set-attention extension on A
  and apply it to B *without retraining*: mean pooling over the server
  axis makes it server-count agnostic (something the kernel network's
  fixed-width head cannot do);
* ``settransformer-retrained-on-B`` — the attention model's ceiling on B.

Scores are macro-F1 on B's held-out windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.dataset import Dataset, Normalizer, train_test_split
from repro.core.labeling import BINARY_THRESHOLDS
from repro.core.metrics import ClassificationReport, evaluate
from repro.core.nn.attention import SetTransformerClassifier
from repro.core.nn.train import TrainConfig, train_classifier
from repro.experiments.datagen import bank_to_dataset, collect_windows
from repro.experiments.fig3 import DEFAULT_NOISE_TASKS
from repro.experiments.datagen import standard_scenarios
from repro.experiments.runner import ExperimentConfig
from repro.sim.cluster import ClusterConfig
from repro.workloads.io500 import make_io500_task

if TYPE_CHECKING:
    from repro.parallel import SweepExecutor, TrainExecutor

__all__ = ["CrossClusterResult", "run_cross_cluster"]


@dataclass
class CrossClusterResult:
    """Macro-F1 per adaptation arm, evaluated on cluster B."""

    scores: dict[str, float] = field(default_factory=dict)
    reports: dict[str, ClassificationReport] = field(default_factory=dict,
                                                     repr=False)
    n_windows_a: int = 0
    n_windows_b: int = 0

    def render(self) -> str:
        lines = [
            "== cross-cluster adaptation (evaluated on cluster B) ==",
            f"  windows: A={self.n_windows_a} B={self.n_windows_b}",
        ]
        for arm, score in sorted(self.scores.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {arm:34s} macro_f1={score:.3f}")
        return "\n".join(lines)


def _train_set_transformer(dataset: Dataset, seed: int,
                           config: TrainConfig) -> tuple:
    norm = Normalizer().fit(dataset.X)
    model = SetTransformerClassifier(
        n_servers=dataset.n_servers,
        n_features=dataset.n_features,
        n_classes=2,
        dim=32,
        n_heads=4,
        n_blocks=2,
        seed=seed,
    )
    train_classifier(model, norm.transform(dataset.X), dataset.y, config)
    return model, norm


def run_cross_cluster(
    config: ExperimentConfig | None = None,
    target_tasks: tuple[str, ...] = ("ior-easy-read", "ior-hard-read",
                                     "ior-easy-write", "ior-hard-write",
                                     "mdt-hard-write"),
    target_scale: float = 1.0,
    max_level: int = 3,
    noise_scale: float = 0.25,
    seed: int = 0,
    executor: "SweepExecutor | None" = None,
    trainer: "TrainExecutor | None" = None,
    store=None,
) -> CrossClusterResult:
    """Collect data on clusters A and B; score the three adaptation arms.

    Both clusters' sweeps run through ``executor`` and their windows may
    share one ``store`` — run and shard keys embed the full cluster
    config, so A and B never collide in either.  The kernel arm trains
    through ``trainer``.  Each defaults to a fresh in-process, uncached
    executor.
    """
    from repro.parallel import TrainExecutor

    config = config or ExperimentConfig()
    cluster_b = replace(config.cluster, n_oss=4)
    config_b = replace(config, cluster=cluster_b)

    targets = [make_io500_task(t, ranks=4, scale=target_scale)
               for t in target_tasks]
    scenarios = standard_scenarios(max_level=max_level,
                                   tasks=DEFAULT_NOISE_TASKS,
                                   ranks=3, scale=noise_scale)
    bank_a = collect_windows(targets, scenarios, config, executor=executor,
                             store=store)
    bank_b = collect_windows(targets, scenarios, config_b, executor=executor,
                             store=store)
    ds_a = bank_to_dataset(bank_a, BINARY_THRESHOLDS, source="clusterA")
    ds_b = bank_to_dataset(bank_b, BINARY_THRESHOLDS, source="clusterB")
    train_b, test_b = train_test_split(ds_b, 0.2, seed=seed)

    result = CrossClusterResult(n_windows_a=len(ds_a), n_windows_b=len(ds_b))
    train_cfg = TrainConfig(seed=seed)

    # Arm 1: the paper's adaptation path — retrain the kernel net on B.
    kernel_b = (trainer or TrainExecutor()).train_predictor(
        train_b, thresholds=BINARY_THRESHOLDS, config=train_cfg, seed=seed)
    report = kernel_b.evaluate(test_b)
    result.scores["kernel-retrained-on-B"] = report.macro_f1
    result.reports["kernel-retrained-on-B"] = report

    # Arm 2: set-transformer trained on A, applied to B zero-shot.
    st_a, norm_a = _train_set_transformer(ds_a, seed, train_cfg)
    preds = st_a.predict(norm_a.transform(test_b.X))
    report = evaluate(test_b.y, preds, n_classes=2)
    result.scores["settransformer-zero-shot"] = report.macro_f1
    result.reports["settransformer-zero-shot"] = report

    # Arm 3: set-transformer retrained on B (ceiling).
    st_b, norm_b = _train_set_transformer(train_b, seed, train_cfg)
    preds = st_b.predict(norm_b.transform(test_b.X))
    report = evaluate(test_b.y, preds, n_classes=2)
    result.scores["settransformer-retrained-on-B"] = report.macro_f1
    result.reports["settransformer-retrained-on-B"] = report
    return result
