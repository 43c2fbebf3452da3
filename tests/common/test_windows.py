"""Tests for window indexing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.windows import window_index


def test_window_index_basic():
    assert window_index(0.0, 1.0) == 0
    assert window_index(0.999, 1.0) == 0
    assert window_index(1.0, 1.0) == 1
    assert window_index(2.5, 1.0) == 2


def test_window_index_rejects_bad_args():
    with pytest.raises(ValueError):
        window_index(1.0, 0.0)
    with pytest.raises(ValueError):
        window_index(-0.1, 1.0)


@given(st.floats(min_value=0, max_value=1e6, allow_nan=False),
       st.floats(min_value=1e-3, max_value=100, allow_nan=False))
def test_window_index_is_consistent_with_bounds(t, size):
    idx = window_index(t, size)
    # The chosen window must contain t up to one float ULP of slack.
    assert idx * size <= t * (1 + 1e-12) + 1e-12
    assert t < (idx + 1) * size * (1 + 1e-12) + 1e-12
