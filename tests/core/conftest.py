"""Fixtures shared by the streaming-predictor tests."""

import pytest

from repro.core.online import StreamingPredictor


@pytest.fixture
def streamed_vectors(monkeypatch):
    """``{window: X}`` of every vector a :class:`StreamingPredictor`
    builds during the test, each ``(1, servers, features)`` as scored.

    Run one stream per test when reading it: windows are keyed alone.
    """
    vectors = {}
    build = StreamingPredictor._vector_for

    def spy(self, window):
        vectors[window] = build(self, window)
        return vectors[window]

    monkeypatch.setattr(StreamingPredictor, "_vector_for", spy)
    return vectors
