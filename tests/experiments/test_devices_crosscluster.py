"""Small-scale tests for the device ablation and cross-cluster modules."""

import numpy as np
import pytest

from repro.experiments.cross_cluster import CrossClusterResult, run_cross_cluster
from repro.experiments.devices import DeviceAblationResult, run_device_ablation
from repro.experiments.runner import ExperimentConfig
from repro.parallel import RunCache, SweepExecutor
from repro.sim.disk import DiskParams, FlashModel, FlashParams, make_disk_model


class TestFlashModel:
    def test_no_positioning_cost(self):
        model = FlashModel(FlashParams())
        near = model.service_time(0, 8)
        model2 = FlashModel(FlashParams())
        model2.service_time(0, 8)
        far = model2.service_time(FlashParams().total_sectors - 8, 8)
        assert near == pytest.approx(far)

    def test_faster_than_hdd_random(self):
        from repro.sim.disk import DiskModel

        flash = FlashModel(FlashParams())
        hdd = DiskModel(DiskParams())
        hdd.service_time(0, 8)
        flash.service_time(0, 8)
        assert flash.service_time(10**8, 8) < hdd.service_time(10**8, 8)

    def test_validation(self):
        model = FlashModel(FlashParams())
        with pytest.raises(ValueError):
            model.service_time(0, 0)
        with pytest.raises(ValueError):
            model.service_time(-1, 8)

    def test_factory_dispatch(self):
        from repro.sim.disk import DiskModel

        assert isinstance(make_disk_model(FlashParams()), FlashModel)
        assert isinstance(make_disk_model(DiskParams()), DiskModel)
        with pytest.raises(TypeError):
            make_disk_model(object())


def test_device_ablation_structure():
    config = ExperimentConfig(window_size=0.25, sample_interval=0.125,
                              warmup=0.5, seed=0)
    result = run_device_ablation(config, target_scale=0.1,
                                 noise_instances=1, noise_ranks=2,
                                 noise_scale=0.1)
    assert isinstance(result, DeviceAblationResult)
    for device in ("hdd", "ssd"):
        for cell in ("read_read", "write_write", "read_vs_write"):
            v = result.cell(device, cell)
            assert np.isfinite(v) and v > 0
    assert "hdd" in result.render()


def test_device_ablation_runs_through_passed_executor(tmp_path):
    """All cells go to the caller's executor in one call, so the CLI's
    --jobs/--cache-dir/--faults reach them and a warm run cache replays
    the ablation without simulating."""
    config = ExperimentConfig(window_size=0.25, sample_interval=0.125,
                              warmup=0.5, seed=0)
    kwargs = dict(target_scale=0.1, noise_instances=1, noise_ranks=2,
                  noise_scale=0.1)
    cold = SweepExecutor(cache=RunCache(tmp_path))
    result = run_device_ablation(config, executor=cold, **kwargs)
    # Per device: 3 cells x 2 runs = 6 jobs, of which ior-easy-read's
    # baseline (shared by read_read and read_vs_write) runs once.
    assert cold.runs_executed == 2 * 5
    assert cold.runs_deduplicated == 2 * 1
    warm = SweepExecutor(cache=RunCache(tmp_path))
    again = run_device_ablation(config, executor=warm, **kwargs)
    assert warm.runs_executed == 0
    assert again.slowdowns == result.slowdowns


def test_device_ablation_skips_quarantined_cell():
    class LoseSecondPair(SweepExecutor):
        def run_pairs(self, pairs):
            out = super().run_pairs(pairs)
            out[1] = None
            return out

    config = ExperimentConfig(window_size=0.25, sample_interval=0.125,
                              warmup=0.5, seed=0)
    result = run_device_ablation(config, target_scale=0.1,
                                 noise_instances=1, noise_ranks=2,
                                 noise_scale=0.1, executor=LoseSecondPair())
    assert ("hdd", "write_write") not in result.slowdowns
    assert len(result.slowdowns) == 5
    row = next(line for line in result.render().splitlines()
               if line.split()[0] == "write_write")
    assert row.split()[1] == "nan"


def test_cross_cluster_structure():
    config = ExperimentConfig(window_size=0.25, sample_interval=0.125,
                              warmup=0.5, seed=0)
    result = run_cross_cluster(
        config,
        target_tasks=("ior-easy-write",),
        target_scale=0.5,
        max_level=2,
        noise_scale=0.25,
    )
    assert isinstance(result, CrossClusterResult)
    assert set(result.scores) == {
        "kernel-retrained-on-B",
        "settransformer-zero-shot",
        "settransformer-retrained-on-B",
    }
    assert result.n_windows_a > 0
    assert result.n_windows_b > 0
    # Cluster B really has a different topology: its confusion matrices
    # come from 9-server vectors, which the zero-shot transformer handled.
    assert "cluster B" in result.render()


def test_cross_cluster_runs_through_passed_executor():
    """Both clusters' sweeps execute on the caller's executor, so the
    CLI's --jobs/--cache-dir/--faults reach them and the manifest's
    sweep statistics count them."""
    config = ExperimentConfig(window_size=0.25, sample_interval=0.125,
                              warmup=0.5, seed=0)
    executor = SweepExecutor(n_jobs=1)
    result = run_cross_cluster(config, target_tasks=("ior-easy-write",),
                               target_scale=0.5, max_level=1,
                               noise_scale=0.25, executor=executor)
    # Per cluster: 4 scenarios (one quiet) x 2 runs = 8 jobs, of which
    # the shared baseline and the 3 noisy runs execute.
    assert executor.runs_executed == 2 * 4
    assert executor.runs_deduplicated == 2 * 4
    assert result.n_windows_a > 0 and result.n_windows_b > 0
