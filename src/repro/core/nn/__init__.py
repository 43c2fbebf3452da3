"""From-scratch NumPy neural network stack.

PyTorch (the paper's framework) is unavailable offline, so this package
implements the pieces the model needs: dense/ReLU/dropout layers with
full backpropagation, weighted softmax cross-entropy, Adam, a training
loop with early stopping, and the paper's kernel-based per-server
architecture (:class:`~repro.core.nn.kernelnet.KernelInterferenceNet`).
Gradients are verified against finite differences in the test suite.
"""

from repro.core.nn.layers import Dense, Dropout, ReLU, Sequential
from repro.core.nn.losses import huber_loss, softmax_cross_entropy, softmax_probs
from repro.core.nn.optim import Adam
from repro.core.nn.network import MLPClassifier
from repro.core.nn.kernelnet import KernelInterferenceNet
from repro.core.nn.attention import (
    LayerNorm,
    MultiHeadSelfAttention,
    SetTransformerClassifier,
    TransformerBlock,
)
from repro.core.nn.train import (
    TrainConfig,
    TrainHistory,
    train_classifier,
    train_regressor,
)

__all__ = [
    "Dense",
    "Dropout",
    "ReLU",
    "Sequential",
    "softmax_cross_entropy",
    "softmax_probs",
    "huber_loss",
    "Adam",
    "MLPClassifier",
    "KernelInterferenceNet",
    "LayerNorm",
    "MultiHeadSelfAttention",
    "TransformerBlock",
    "SetTransformerClassifier",
    "TrainConfig",
    "TrainHistory",
    "train_classifier",
    "train_regressor",
]
