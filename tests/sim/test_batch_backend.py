"""Edge cases of the data-op request path (:mod:`repro.sim.batch`).

Its timing contract is pinned by the golden run digests in
``tests/sim/test_golden_digests.py``.
"""

import numpy as np

from repro.common.records import OpType
from repro.sim.cluster import Cluster
from repro.sim.engine import AllOf


def test_zero_length_batch_finishes_immediately():
    """An empty BatchRequest must complete its op instead of waiting on
    piece completions that never come (and record a zero-duration op)."""
    from repro.sim.batch import BatchRequest, _DataOpDriver
    from repro.sim.engine import Event

    cluster = Cluster()
    sess = cluster.session("job", 0, 0)
    env = cluster.env
    env.run(until=AllOf(env, [env.process(sess.create("/zero"))]))

    f = cluster.fs.lookup("/zero")
    req = BatchRequest(OpType.WRITE, "/zero", 0, 0, [])
    assert len(req) == 0
    assert req.ost_idx.shape == (0,)
    assert req.nbytes.dtype == np.int64

    done = Event(env)
    before = env.now
    _DataOpDriver(sess, req, f, env.now, done, None).begin()
    env.run(until=done)  # no pieces: fires at the same instant
    assert env.now == before
    rec = cluster.collector.records[-1]
    assert rec.op is OpType.WRITE and rec.size == 0
    assert rec.start == rec.end == before
