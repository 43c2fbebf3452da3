"""Figure 4: 3-class (mild / moderate / severe) prediction on IO500.

The paper adjusts only the output layer to three bins with thresholds at
2x and 5x (following Perseus' mild/moderate/severe taxonomy) and retrains
on the IO500 data. Reuses the IO500 window bank from Figure 3 when given.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.labeling import MULTICLASS_THRESHOLDS
from repro.experiments.datagen import WindowBank
from repro.experiments.fig3 import ModelEvalResult, collect_io500_bank, evaluate_bank
from repro.experiments.runner import ExperimentConfig

if TYPE_CHECKING:
    from repro.parallel import SweepExecutor

__all__ = ["run_fig4"]


def run_fig4(config: ExperimentConfig | None = None,
             bank: WindowBank | None = None,
             executor: "SweepExecutor | None" = None,
             **bank_kwargs) -> ModelEvalResult:
    """3-class classification on the IO500 window bank.

    ``bank_kwargs`` pass through to :func:`collect_io500_bank`.  The bank
    is collected and the model trained through ``executor`` (a fresh
    uncached :class:`~repro.parallel.SweepExecutor` when omitted): with
    Figure 3's caches the 3-class dataset re-bins Figure 3's cached
    sweep instead of re-running it, and the 3-class thresholds key a
    distinct model, so Figures 3 and 4 coexist in one model cache.
    """
    bank = bank or collect_io500_bank(config, executor=executor,
                                      **bank_kwargs)
    return evaluate_bank(bank, "fig4-io500-3class", MULTICLASS_THRESHOLDS,
                         executor=executor)
