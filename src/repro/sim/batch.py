"""The simulator's request path.

A client data op (one ``write``/``read`` call) becomes a
:class:`BatchRequest`: its striped pieces, split at ``max_rpc_bytes``, as
parallel columns. A :class:`_DataOpDriver` walks them through flat
callback chains — RPC-window grant, one shared RPC-latency hop per
granted group, batched network flows (:meth:`FlowNetwork.transfer_batch`)
and OST service (:meth:`OST.service_batch` / :meth:`OST.serve`) — and
fires one completion event per *operation*. A metadata op takes the same
kind of chain in a :class:`_MetaOpDriver`: the node's MDS slot grant, the
RPC-latency hop, then :meth:`MDS.handle`. Either way the rank resumes
once per operation, when its completion event fires.

Ordering rule: at every resource where two requests can meet at the
same simulated instant — RPC-window credits, QoS buckets, cache dirty
throttling, the flow network, the block scheduler, MDS slots, dir locks
and service threads — this path grants them in the order the
per-request generator processes it replaced did. That is checked, not
given by construction: the golden run digests in
``tests/sim/test_golden_digests.py`` were taken on the generator path
and guard it (an MDS that took its lock and thread inline once let a
later same-instant request overtake an earlier one; DESIGN.md §9). The
simulator draws no per-request service noise; its only RNG sits in
workload op generation (``derive_rng``).
"""

from __future__ import annotations

from repro.common.records import OpType, ServerId
from repro.sim.engine import Event

__all__ = ["BatchRequest"]


class BatchRequest:
    """One homogeneous burst of striped RPC pieces from a single client op.

    Built by :meth:`from_extent`: pieces appear in ``map_extent`` order,
    then ``max_rpc_bytes`` splits, as four parallel plain-int columns
    (``_ost``/``_oid``/``_ooff``/``_nb``) that the driver's hot loops walk
    directly — most ops are a one- or two-piece burst, where building
    arrays would cost more than it saves.
    """

    __slots__ = ("op", "path", "offset", "size", "_ost", "_oid", "_ooff",
                 "_nb")

    def __len__(self) -> int:
        return len(self._ost)

    @classmethod
    def from_extent(cls, f, op: OpType, path: str, offset: int, size: int,
                    max_rpc: int) -> "BatchRequest":
        """Split a logical extent into ≤``max_rpc``-byte striped pieces.

        A zero-size extent raises ``ValueError`` (from ``map_extent``).
        """
        req = cls.__new__(cls)
        req.op = op
        req.path = path
        req.offset = offset
        req.size = size
        ost = req._ost = []
        oid = req._oid = []
        ooff = req._ooff = []
        nb = req._nb = []
        for ost_idx, object_id, obj_off, nbytes in f.layout.map_extent(offset, size):
            sent = 0
            while sent < nbytes:
                piece = min(max_rpc, nbytes - sent)
                ost.append(ost_idx)
                oid.append(object_id)
                ooff.append(obj_off + sent)
                nb.append(piece)
                sent += piece
        return req


class _DataOpDriver:
    """Walks one data op's pieces through the batched callback chain."""

    __slots__ = ("session", "req", "file", "start", "done", "span",
                 "is_write", "remaining", "touched", "keep_record")

    def __init__(self, session, req: BatchRequest, f,
                 start: float, done: Event, span) -> None:
        self.session = session
        self.req = req
        self.file = f
        self.start = start
        self.done = done
        self.span = span
        self.is_write = req.op is OpType.WRITE
        self.remaining = len(req)
        self.touched: dict[ServerId, int] = {}
        # Noise jobs write into a NullCollector; building IORecords and
        # per-server byte tallies for them is pure wall-clock waste.
        self.keep_record = session.collector.keeps_records or span is not None

    def begin(self) -> None:
        req = self.req
        node = self.session.node
        cluster = node.cluster
        touched = self.touched
        keep = self.keep_record
        n = len(req)
        ost_idx = req._ost
        nbytes = req._nb
        # Group pieces whose RPC-window credit is available right now;
        # they share one rpc_latency timeout. Queued pieces proceed solo
        # when their FIFO grant fires.
        immediate: list[int] = []
        for i in range(n):
            oi = ost_idx[i]
            if keep:
                sid = cluster.osts[oi].server_id
                touched[sid] = touched.get(sid, 0) + nbytes[i]
            window = node.rpc_window(oi)
            if window.try_acquire():
                immediate.append(i)
            else:
                window.acquire().callbacks.append(
                    lambda _ev, i=i: self._granted((i,))
                )
        if immediate:
            self._granted(tuple(immediate))

    def _granted(self, group: tuple[int, ...]) -> None:
        """Granted pieces share one rpc_latency timeout, then dispatch:
        the begin-time group together, a queued piece alone when its
        FIFO grant fires."""
        self.session.env.after(
            self.session.node.params.rpc_latency,
            lambda _ev: self._dispatch(group),
        )

    def _dispatch(self, idxs) -> None:
        """Pieces past the RPC latency: writes enter the network now and
        hit OST service at each flow's completion; reads hit OST service
        now and cross the network once served."""
        session = self.session
        cluster = session.node.cluster
        req = self.req
        if self.is_write:
            # Payload crosses the network first; OST service starts at
            # each flow's completion tick.
            link = session.node.link
            cluster.net.transfer_batch([
                (
                    req._nb[i],
                    cluster.route(link, cluster.osts[req._ost[i]].oss_link),
                    (lambda i=i: self._write_arrived(i)),
                )
                for i in idxs
            ])
            return
        # Reads: OST service starts now; group by OST in first-appearance
        # order so each server sees one homogeneous burst.
        by_ost: dict[int, list[int]] = {}
        for i in idxs:
            by_ost.setdefault(req._ost[i], []).append(i)
        for oi, group in by_ost.items():
            ost = cluster.osts[oi]
            ost.service_batch(
                [req._oid[i] for i in group],
                [req._ooff[i] for i in group],
                [req._nb[i] for i in group],
                session.job,
                False,
                lambda k, group=tuple(group): self._read_served(group[k]),
            )

    def _write_arrived(self, i: int) -> None:
        req = self.req
        cluster = self.session.node.cluster
        ost = cluster.osts[req._ost[i]]
        ost.serve(
            req._oid[i], req._ooff[i], req._nb[i],
            self.session.job, True, lambda: self._piece_done(i),
        )

    def _read_served(self, i: int) -> None:
        req = self.req
        session = self.session
        cluster = session.node.cluster
        ost = cluster.osts[req._ost[i]]
        cluster.net.transfer_batch([
            (
                req._nb[i],
                cluster.route(session.node.link, ost.oss_link),
                (lambda: self._piece_done(i)),
            )
        ])

    def _piece_done(self, i: int) -> None:
        session = self.session
        session.node.rpc_window(self.req._ost[i]).release()
        self.remaining -= 1
        if self.remaining == 0:
            self._finish()

    def _finish(self) -> None:
        session = self.session
        req = self.req
        if self.is_write:
            f = self.file
            f.size = max(f.size, req.offset + req.size)
        session._finish_op(req.op, req.path, req.offset, req.size,
                           self.start, tuple(sorted(self.touched)), self.span)
        self.done.succeed()


class _MetaOpDriver:
    """Walks one metadata op through its callback chain: the node's MDS
    slot, the RPC latency, then :meth:`MDS.handle`.

    Each link is a tick of its own, as each ``yield`` of the generator it
    replaced was, so ops meeting at the same instant reach the MDS in the
    order they were issued. The slot release and the record are the
    completion event's first callback; the rank's resume follows.
    """

    __slots__ = ("session", "op", "path", "parent", "start", "done", "span")

    def __init__(self, session, op: OpType, path: str, parent: str,
                 start: float, done: Event, span) -> None:
        self.session = session
        self.op = op
        self.path = path
        self.parent = parent
        self.start = start
        self.done = done
        self.span = span

    def begin(self) -> None:
        self.done.callbacks.append(self._complete)
        self.session.node._mds_slots.acquire().callbacks.append(self._granted)

    def _granted(self, _ev) -> None:
        session = self.session
        session.env.after(session.node.params.rpc_latency, self._send)

    def _send(self, _ev) -> None:
        self.session.node.cluster.mds.handle(
            self.op, self.parent, parent_span=self.span, done=self.done)

    def _complete(self, _ev) -> None:
        session = self.session
        node = session.node
        node._mds_slots.release()
        session._finish_op(self.op, self.path, 0, 0, self.start,
                           (node.cluster.mds.server_id,), self.span)
