"""Small-scale tests for the device ablation and cross-cluster modules."""

import numpy as np
import pytest

from repro.experiments.cross_cluster import CrossClusterResult, run_cross_cluster
from repro.experiments.devices import DeviceAblationResult, run_device_ablation
from repro.experiments.runner import ExperimentConfig
from repro.parallel import SweepExecutor
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
