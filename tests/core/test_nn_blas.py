"""Tests for the training loop's one-thread OpenBLAS scope."""

import numpy as np
import pytest

from repro.core.nn import blas
from repro.core.nn.blas import single_blas_thread


def fake_blas(monkeypatch, count):
    """Stand in a thread-count pair that records into ``state``."""
    state = {"threads": count}

    def get():
        return state["threads"]

    def set_(n):
        state["threads"] = n

    monkeypatch.setattr(blas, "_openblas", lambda: (get, set_))
    return state


def test_scope_pins_one_thread_and_restores(monkeypatch):
    state = fake_blas(monkeypatch, 4)
    with single_blas_thread():
        assert state["threads"] == 1
    assert state["threads"] == 4
    with pytest.raises(RuntimeError):
        with single_blas_thread():
            assert state["threads"] == 1
            raise RuntimeError("boom")
    assert state["threads"] == 4


def test_scope_is_a_noop_without_openblas(monkeypatch):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    with single_blas_thread():
        x = np.ones((3, 3)) @ np.ones((3, 3))
    assert x[0, 0] == 3.0


def test_scope_drives_numpys_openblas():
    """On the real library: one thread inside, the previous count after,
    also when the block raises."""
    found = blas._openblas()
    if found is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get, set_ = found
    original = get()
    try:
        set_(2)
        with single_blas_thread():
            assert get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError):
            with single_blas_thread():
                assert get() == 1
                raise RuntimeError("boom")
        assert get() == 2
    finally:
        set_(original)
