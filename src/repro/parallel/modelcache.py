"""Content-addressed on-disk cache of trained predictors.

The training-side sibling of :class:`repro.parallel.cache.RunCache`,
built on the same :class:`~repro.parallel.cache.ContentCache`.  Each
entry holds ``spec.json`` (the key material) and ``model.npz``
(:meth:`InterferencePredictor.save` output) under ``<key[:2]>/<key>/``.

Keys come from :func:`repro.parallel.cachekey.train_key`: the dataset's
content digest plus the complete training recipe (thresholds,
``TrainConfig``, architecture, seed/restart schedule) plus the
code-version salt.  Anything that could change the trained parameters
changes the key, so a hit is always safe to use — a warm rerun of an
experiment executes **zero** trainings and returns bit-identical models.
Counters land in the metrics registry under ``parallel.modelcache.*``.
"""

from __future__ import annotations

import pathlib

from repro.core.predictor import InterferencePredictor
from repro.parallel.cache import ContentCache

__all__ = ["ModelCache"]


class ModelCache(ContentCache):
    """Persist and recall trained :class:`InterferencePredictor`s by key."""

    entry = "model.npz"
    namespace = "parallel.modelcache"

    def _save(self, predictor: InterferencePredictor,
              path: pathlib.Path) -> None:
        predictor.save(path)

    def _load(self, path: pathlib.Path) -> InterferencePredictor:
        return InterferencePredictor.load(path)
