"""Edge cases of the data-op request path (:mod:`repro.sim.batch`).

Its timing contract is pinned by the golden run digests in
``tests/sim/test_golden_digests.py``.
"""

import pytest

from repro.obs.trace import tracing
from repro.sim.cluster import Cluster
from repro.sim.engine import AllOf


@pytest.mark.parametrize("op", ["write", "read"])
def test_zero_size_op_raises_and_schedules_nothing(op):
    """A zero-size data op is rejected while its pieces are mapped,
    before any event is scheduled or any record is written."""
    cluster = Cluster()
    sess = cluster.session("job", 0, 0)
    env = cluster.env
    env.run(until=AllOf(env, [env.process(sess.create("/zero"))]))

    pending, now = env.pending, env.now
    records = len(cluster.collector.records)
    with tracing() as tracer:
        with pytest.raises(ValueError, match="bad extent"):
            next(getattr(sess, op)("/zero", 0, 0))
    assert env.pending == pending
    assert env.now == now
    assert len(cluster.collector.records) == records
    assert tracer.spans == []  # no op span left open
