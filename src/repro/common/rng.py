"""Deterministic RNG derivation.

Reproducing the paper's labelling pipeline requires *exactly* repeatable
runs: the baseline execution and the interference execution of a workload
must issue the identical operation sequence so per-operation latency
ratios can be matched (paper §III-D). Every stochastic component therefore
derives its generator from the experiment seed plus a stable string path,
never from global state.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(seed: int, *path: str | int) -> int:
    """Derive a child seed from ``seed`` and a path of string/int keys.

    Uses BLAKE2b over the rendered path so the mapping is stable across
    Python versions and processes (``hash()`` is salted and unusable here).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode())
    for part in path:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "little")


def derive_rng(seed: int, *path: str | int) -> np.random.Generator:
    """A :class:`numpy.random.Generator` derived from ``seed`` and a path."""
    return np.random.default_rng(derive_seed(seed, *path))


class LazyRng:
    """``derive_rng(seed, *path)``, built on first use.

    Stands in for the :class:`numpy.random.Generator` where the consumer
    may never draw: a looping IOR or mdtest noise iteration draws
    nothing, and building a Generator per iteration was pure cost. The
    first attribute read builds the Generator from the same seed path,
    so the stream is the one ``derive_rng`` returns. Each attribute read
    is then cached on the instance, so later draws call the Generator's
    own bound methods with no proxy code in between.
    """

    def __init__(self, seed: int, *path: str | int) -> None:
        self._seed = seed
        self._path = path

    def __getattr__(self, name: str):
        # Only reached for names not yet in the instance dict.
        if name.startswith("_"):
            raise AttributeError(name)
        generator = self.__dict__.get("_generator")
        if generator is None:
            generator = self._generator = derive_rng(self._seed, *self._path)
        value = getattr(generator, name)
        setattr(self, name, value)
        return value
