"""Dispatched-event counts, pinned next to the golden run digests.

A digest pins what a run produced; it can hold while the engine fires an
extra tick or skips one, wherever the tick moves no recorded value. The
count below pins the ticks themselves, for the golden ``grid-meta``
tie-order pair (``tests/sim/test_golden_digests.py``): one
``Environment._step`` per dispatched event or hop. Like a digest,
refresh it only with a deliberate change to which events a run fires.
"""

from repro.experiments.runner import (
    ExperimentConfig,
    InterferenceSpec,
    execute_run,
)
from repro.obs import trace
from repro.workloads.io500 import make_io500_task

#: Events and hops dispatched by the pair ``mdt-easy-write`` under
#: ``mdt-hard-write-x1``.
GRID_META_TIE_ORDER_EVENTS = 35337


def test_grid_meta_tie_order_pair_event_count():
    target = make_io500_task("mdt-easy-write", ranks=4, scale=0.2)
    noise = [InterferenceSpec("mdt-hard-write", instances=1, ranks=2,
                              scale=0.25)]
    config = ExperimentConfig(window_size=0.25, sample_interval=0.125,
                              warmup=1.0, seed=0)
    with trace.tracing() as tracer:
        execute_run(target, noise, config, seed_salt="mdt-hard-write-x1")
    assert tracer.events_fired == GRID_META_TIE_ORDER_EVENTS
