"""Small-scale integration tests for the figure/table experiment modules.

These use deliberately tiny workloads: they validate plumbing and output
structure, not the paper-shape claims (the benchmarks do that at full
scale).
"""

import numpy as np
import pytest

from repro.core.labeling import MULTICLASS_THRESHOLDS
from repro.experiments.fig1 import run_fig1a, run_fig1b
from repro.experiments.fig3 import (
    collect_io500_bank,
    evaluate_bank,
    run_fig3_io500,
)
from repro.experiments.fig5 import app_scenarios, default_app_targets, run_fig5
from repro.experiments.runner import ExperimentConfig
from repro.experiments.table1 import Table1Result, run_table1, shape_checks
from repro.experiments.table2 import run_table2
from repro.parallel import RunCache, SweepExecutor
from repro.workloads.apps import EnzoConfig


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(window_size=0.25, sample_interval=0.125,
                            warmup=0.5, seed=0)


@pytest.fixture(scope="module")
def tiny_bank(config):
    return collect_io500_bank(
        config,
        tasks=("ior-easy-write", "ior-easy-read"),
        target_ranks=2,
        target_scale=0.15,
        max_level=1,
        noise_tasks=("ior-easy-write",),
        noise_ranks=3,
        noise_scale=0.25,
    )


class TestTable1:
    def test_mini_matrix_structure(self, config):
        tasks = ("ior-easy-write", "mdt-easy-write")
        result = run_table1(config, tasks=tasks, target_ranks=2,
                            target_scale=0.15, noise_instances=2,
                            noise_ranks=2, noise_scale=0.2)
        assert result.matrix.shape == (2, 2)
        assert (result.matrix > 0).all()
        assert np.isfinite(result.matrix).all()
        assert set(result.standalone_runtime) == set(tasks)
        text = result.render()
        assert "ior-easy-write" in text

    def test_cell_lookup(self):
        result = Table1Result(tasks=("a", "b"),
                              matrix=np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert result.cell("a", "b") == 2.0
        assert result.cell("b", "a") == 3.0

    def test_shape_checks_on_synthetic_matrix(self):
        # A matrix that matches the paper's qualitative structure.
        from repro.workloads.io500 import IO500_TASKS
        m = np.ones((7, 7))
        idx = {t: i for i, t in enumerate(IO500_TASKS)}
        m[idx["ior-easy-read"], idx["ior-easy-read"]] = 29.0
        m[idx["ior-easy-write"], idx["ior-easy-write"]] = 2.7
        m[idx["mdt-hard-write"], idx["ior-easy-write"]] = 26.0
        m[idx["mdt-hard-read"], idx["mdt-hard-write"]] = 4.0
        result = Table1Result(tasks=IO500_TASKS, matrix=m)
        assert all(shape_checks(result).values())


class TestFig1:
    def test_fig1a_series_aligned(self, config):
        enzo = EnzoConfig(ranks=2, cycles=2, grids_per_rank=2,
                          compute_time=0.1)
        result = run_fig1a(config, enzo, max_level=2, noise_scale=0.2)
        lengths = {len(v) for v in result.series.values()}
        assert len(lengths) == 1  # all conditions cover the same op list
        assert "baseline" in result.series
        assert "ior-easy-write-x1" in result.series
        assert len(result.op_labels) == lengths.pop()
        assert result.mean_slowdown("ior-easy-write-x2") > 0

    def test_fig1b_two_noise_types(self, config):
        enzo = EnzoConfig(ranks=2, cycles=2, grids_per_rank=2,
                          compute_time=0.1)
        result = run_fig1b(config, enzo, noise_scale=0.2)
        assert set(result.series) == {"baseline", "data-intensive",
                                      "metadata-intensive"}
        assert result.render()  # smoothed chart renders

    def test_fig1_runs_through_passed_executor(self, config, tmp_path):
        """Each panel submits its conditions to the caller's executor in
        one call, so the noise-free baseline they share runs once, the
        CLI's --jobs/--cache-dir/--faults reach every run, and a warm
        run cache replays the figure without simulating."""
        enzo = EnzoConfig(ranks=2, cycles=2, grids_per_rank=2,
                          compute_time=0.1)
        cold = SweepExecutor(cache=RunCache(tmp_path))
        a = run_fig1a(config, enzo, max_level=3, noise_scale=0.2,
                      executor=cold)
        # 3 conditions x 2 runs = 6 jobs: the shared baseline and the
        # 3 noisy runs execute.
        assert (cold.runs_executed, cold.runs_deduplicated) == (4, 2)
        b = run_fig1b(config, enzo, noise_scale=0.2, executor=cold)
        # 2 more conditions; their baseline is fig1a's, a cache hit.
        assert (cold.runs_executed, cold.runs_deduplicated) == (6, 3)
        assert cold.cache.hits == 1
        warm = SweepExecutor(cache=RunCache(tmp_path))
        assert run_fig1a(config, enzo, max_level=3, noise_scale=0.2,
                         executor=warm).render() == a.render()
        assert run_fig1b(config, enzo, noise_scale=0.2,
                         executor=warm).render() == b.render()
        assert warm.runs_executed == 0

    def test_fig1_skips_quarantined_condition(self, config):
        class LoseSecondPair(SweepExecutor):
            def run_pairs(self, pairs):
                out = super().run_pairs(pairs)
                out[1] = None
                return out

        enzo = EnzoConfig(ranks=2, cycles=2, grids_per_rank=2,
                          compute_time=0.1)
        result = run_fig1b(config, enzo, noise_scale=0.2,
                           executor=LoseSecondPair())
        assert set(result.series) == {"baseline", "data-intensive"}
        assert "metadata-intensive" not in result.render()


class TestTable2:
    def test_catalogue_collected(self, config):
        result = run_table2(config, scale=0.1)
        assert result.n_samples > 0
        assert result.moved("ios_completed")
        assert result.moved("sectors_written")
        assert "metric" in result.render()


class TestFig3Fig4:
    def test_binary_eval_structure(self, tiny_bank):
        result = evaluate_bank(tiny_bank, "tiny-binary")
        assert result.report.confusion.shape == (2, 2)
        assert 0 <= result.report.accuracy <= 1
        assert result.n_windows == len(tiny_bank)
        assert "tiny-binary" in result.render()

    def test_multiclass_eval_structure(self, tiny_bank):
        result = evaluate_bank(tiny_bank, "tiny-3class", MULTICLASS_THRESHOLDS)
        assert result.report.confusion.shape == (3, 3)
        assert len(result.train_counts) == 3

    def test_run_fig3_accepts_prebuilt_bank(self, tiny_bank):
        result = run_fig3_io500(bank=tiny_bank)
        assert result.name == "fig3a-io500"


class TestFig5:
    def test_scenarios_grow_with_level(self):
        scenarios = app_scenarios(max_level=2)
        assert scenarios[0].is_baseline
        assert scenarios[1].name == "io500-light"
        assert len(scenarios) == 4  # quiet, light, x1, x2
        total = lambda s: sum(spec.instances for spec in s.interference)
        assert total(scenarios[3]) > total(scenarios[2]) > total(scenarios[1])

    def test_default_targets(self):
        targets = default_app_targets()
        assert set(targets) == {"amrex", "enzo", "openpmd"}

    def test_run_fig5_tiny(self, config):
        from repro.workloads.apps import (AmrexConfig, AmrexWorkload,
                                          OpenPMDConfig, OpenPMDWorkload)
        targets = {
            "amrex": AmrexWorkload(AmrexConfig(ranks=2, steps=2,
                                               fab_bytes=2 * 1024 * 1024)),
            "openpmd": OpenPMDWorkload(OpenPMDConfig(ranks=2, iterations=3)),
        }
        result = run_fig5(config, targets=targets, max_level=1,
                          noise_scale=0.2)
        assert set(result.results) == {"amrex", "openpmd"}
        assert result.render()
