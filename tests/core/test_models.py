"""Tests for the kernel network, MLP, training loop and baselines."""

import numpy as np
import pytest

from repro.core.baselines import LogisticRegressionClassifier, RandomForestClassifier
from repro.core.nn.kernelnet import KernelInterferenceNet
from repro.core.nn.network import MLPClassifier
from repro.core.nn.train import TrainConfig, train_classifier


def synthetic_per_server_data(n=400, servers=4, feats=6, seed=0,
                              permute_test=False):
    """Separable synthetic task: the label depends on the MAX load across
    servers (a permutation-invariant function, like real interference)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 0.3, size=(n, servers, feats))
    hot = rng.integers(0, servers, size=n)
    intensity = rng.uniform(0.0, 4.0, size=n)
    # Keep a margin around the class boundary so the task is separable.
    intensity = np.where(np.abs(intensity - 2.0) < 0.4,
                         intensity + np.sign(intensity - 2.0 + 1e-9) * 0.4,
                         intensity)
    X[np.arange(n), hot, 0] += intensity
    X[np.arange(n), hot, 1] += 0.5 * intensity
    y = (intensity > 2.0).astype(int)
    if permute_test:
        for i in range(n):
            X[i] = X[i, rng.permutation(servers)]
    return X, y


class TestKernelNet:
    def test_shapes_validated(self):
        net = KernelInterferenceNet(4, 6, 2)
        with pytest.raises(ValueError):
            net.forward(np.zeros((10, 3, 6)))
        with pytest.raises(ValueError):
            net.forward(np.zeros((10, 4)))
        with pytest.raises(ValueError):
            KernelInterferenceNet(4, 6, 1)

    def test_gradient_check(self):
        from repro.core.nn.losses import softmax_cross_entropy
        from tests.core.test_nn_layers import numerical_grad

        net = KernelInterferenceNet(3, 4, 2, kernel_hidden=(5,),
                                    head_hidden=(4,), dropout=0.0, seed=1)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 3, 4))
        y = np.array([0, 1, 0, 1, 1, 0])

        def loss():
            return softmax_cross_entropy(net.forward(X), y)[0]

        logits = net.forward(X)
        _, dlogits = softmax_cross_entropy(logits, y)
        for p in net.params():
            p.grad[...] = 0
        net.backward(dlogits)
        for p in net.params():
            num = numerical_grad(loss, p.value)
            assert np.allclose(p.grad, num, atol=1e-5), "kernel net grad mismatch"

    def test_learns_separable_task(self):
        X, y = synthetic_per_server_data()
        net = KernelInterferenceNet(4, 6, 2, kernel_hidden=(16,),
                                    head_hidden=(8,), dropout=0.0, seed=0)
        train_classifier(net, X, y, TrainConfig(epochs=40, lr=3e-3, seed=0))
        acc = (net.predict(X) == y).mean()
        assert acc > 0.9

    def test_permutation_robustness(self):
        """The kernel net must survive server reordering at test time —
        the architectural motivation in the paper (§III-C)."""
        X, y = synthetic_per_server_data(seed=1)
        net = KernelInterferenceNet(4, 6, 2, kernel_hidden=(16,),
                                    head_hidden=(8,), dropout=0.0, seed=0)
        train_classifier(net, X, y, TrainConfig(epochs=40, lr=3e-3, seed=0))
        Xp, yp = synthetic_per_server_data(seed=1, permute_test=True)
        acc = (net.predict(Xp) == yp).mean()
        assert acc > 0.85


class TestMLP:
    def test_flattens_3d_input(self):
        mlp = MLPClassifier(4 * 6, (8,), 2)
        assert mlp.forward(np.zeros((10, 4, 6))).shape == (10, 2)

    def test_learns_separable_task(self):
        X, y = synthetic_per_server_data()
        mlp = MLPClassifier(4 * 6, (32,), 2, seed=0)
        train_classifier(mlp, X, y, TrainConfig(epochs=40, lr=3e-3, seed=0))
        assert (mlp.predict(X) == y).mean() > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            MLPClassifier(4, (8,), 1)


class TestTraining:
    def test_loss_decreases(self):
        X, y = synthetic_per_server_data(n=200)
        net = MLPClassifier(4 * 6, (16,), 2, seed=0)
        history = train_classifier(net, X, y,
                                   TrainConfig(epochs=15, lr=1e-3, seed=0))
        assert history.train_loss[-1] < history.train_loss[0]

    def test_early_stopping_restores_best(self):
        X, y = synthetic_per_server_data(n=150)
        net = MLPClassifier(4 * 6, (16,), 2, seed=0)
        history = train_classifier(
            net, X, y, TrainConfig(epochs=200, lr=5e-2, patience=3, seed=0)
        )
        assert history.best_epoch >= 0
        assert len(history.val_loss) <= 200

    def test_deterministic_given_seed(self):
        X, y = synthetic_per_server_data(n=120)

        def run():
            net = MLPClassifier(4 * 6, (8,), 2, seed=5)
            train_classifier(net, X, y, TrainConfig(epochs=5, seed=5))
            return net.predict_proba(X[:10])

        assert np.array_equal(run(), run())

    def test_validation_errors(self):
        net = MLPClassifier(4, (8,), 2)
        with pytest.raises(ValueError):
            train_classifier(net, np.zeros((3, 4)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)


class TestBaselines:
    def test_logreg_learns_linear_task(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        clf = LogisticRegressionClassifier(2, epochs=200).fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.95

    def test_logreg_accepts_3d(self):
        X, y = synthetic_per_server_data(n=200)
        clf = LogisticRegressionClassifier(2, epochs=100).fit(X, y)
        assert clf.predict(X).shape == (200,)

    def test_random_forest_learns_nonlinear_task(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(400, 3))
        y = ((X[:, 0] * X[:, 1]) > 0).astype(int)  # XOR-ish, not linear
        clf = RandomForestClassifier(2, n_trees=15, max_depth=6, seed=0).fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.85

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegressionClassifier(2).predict(np.zeros((1, 2)))
        with pytest.raises(RuntimeError):
            RandomForestClassifier(2).predict(np.zeros((1, 2)))

    def test_probabilities_valid(self):
        X, y = synthetic_per_server_data(n=100)
        clf = RandomForestClassifier(2, n_trees=5, seed=0).fit(X, y)
        p = clf.predict_proba(X)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert (p >= 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            LogisticRegressionClassifier(1)
        with pytest.raises(ValueError):
            RandomForestClassifier(2, n_trees=0)
