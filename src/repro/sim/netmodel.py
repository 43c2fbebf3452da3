"""Fluid-flow network with global max-min fair sharing.

The paper's testbed interconnect is 1 GB/s Ethernet shared by every
client and server NIC; network contention is one of the root causes of
I/O interference it cites (Bhatele et al., Yildiz et al.). We model each
NIC as a :class:`Link` with fixed capacity and every bulk transfer as a
:class:`Flow` traversing a path of links. Rates follow the classic
*max-min progressive filling* allocation, recomputed whenever a flow
arrives or departs; between recomputations each flow progresses linearly,
so completions can be scheduled exactly.

This fluid model skips per-packet behaviour but preserves what matters to
the interference study: bandwidth sharing, bottleneck shifting and
transfer-time inflation under contention.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.sim.engine import Environment

__all__ = ["Link", "Flow", "FlowNetwork"]


@dataclass
class Link:
    """A network link (NIC) with a fixed capacity in bytes/second."""

    name: str
    capacity: float

    #: Flows currently traversing this link, keyed in arrival (fid) order —
    #: a dict-as-ordered-set so every iteration is deterministic (managed
    #: by FlowNetwork).
    flows: dict["Flow", None] = field(default_factory=dict, repr=False)

    #: Progressive-filling scratch state, stamped by the generation of the
    #: last :meth:`FlowNetwork._recompute_rates` pass that touched this
    #: link — avoids building a fresh per-link dict on every recompute
    #: (the single hottest allocation on large sweeps).
    _rr_gen = 0
    _residual = 0.0
    _live = 0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"link {self.name}: capacity must be positive")

    # Identity semantics at C speed: links are unique objects, and the
    # flow bookkeeping hashes them on every arrival and departure.
    __hash__ = object.__hash__
    __eq__ = object.__eq__

    @property
    def utilization(self) -> float:
        """Fraction of capacity currently allocated to flows."""
        return sum(f.rate for f in self.flows) / self.capacity


class Flow:
    """One in-progress bulk transfer across a path of links.

    ``done`` is a no-argument callable invoked directly at the completion
    timer's fire time.
    """

    __slots__ = ("fid", "links", "remaining", "rate", "done", "_fgen")

    def __init__(self, fid: int, links: tuple[Link, ...], size: float, done):
        self.fid = fid
        self.links = links
        self.remaining = float(size)
        self.rate = 0.0
        self.done = done
        #: Generation stamp marking this flow frozen during progressive
        #: filling (cheaper than a per-recompute set).
        self._fgen = 0


class FlowNetwork:
    """Manages all active flows and their max-min fair rates."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        # dict-as-ordered-set: iteration in flow-arrival order keeps float
        # accumulation deterministic across identical runs.
        self._flows: dict[Flow, None] = {}
        self._fid = itertools.count()
        self._last_update = 0.0
        self._timer_generation = 0
        self._rr_counter = 0
        #: Total bytes delivered, for conservation checks in tests.
        self.bytes_delivered = 0.0

    # -- public API --------------------------------------------------------

    def transfer_batch(self, requests) -> None:
        """Start transfers arriving at the current instant.

        ``requests`` is a sequence of ``(size, links, on_done)`` where
        ``on_done`` is a no-argument callable invoked when the last byte
        lands. Rates are recomputed from scratch on every arrival, so a
        batch of N arrivals at one timestamp needs a single advance +
        progressive-filling pass + timer rearm. A zero-size transfer (or
        one with no links) completes on the next tick at the current time.
        Every size must be finite and non-negative; a bad one rejects the
        whole batch before any of it starts.
        """
        for size, _links, _on_done in requests:
            if not 0 <= size < math.inf:
                raise ValueError(
                    f"transfer size must be finite and >= 0: {size}")
        self._advance()
        added = False
        for size, links, on_done in requests:
            if size == 0 or not links:
                # Completes immediately, delivered on the next tick.
                self.env.defer(lambda _ev, cb=on_done: cb())
                continue
            flow = Flow(next(self._fid), tuple(links), size, on_done)
            self._flows[flow] = None
            for link in flow.links:
                link.flows[flow] = None
            added = True
        if added:
            self._reschedule()

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    # -- internals ----------------------------------------------------------

    def _advance(self) -> None:
        """Progress all flows to ``env.now`` at their current rates."""
        dt = self.env.now - self._last_update
        if dt > 0:
            for flow in self._flows:
                moved = flow.rate * dt
                flow.remaining -= moved
                self.bytes_delivered += moved
        self._last_update = self.env.now

    def _recompute_rates(self) -> None:
        """Max-min progressive filling over all links and flows.

        All iteration happens in flow-arrival / link-discovery order so
        tie-breaking and float accumulation are identical across runs.
        """
        flows = self._flows
        if len(flows) == 1:
            # Degenerate progressive filling: the lone flow gets the
            # path's minimum capacity — the same value the general loop
            # assigns, skipping the state build. Common in baseline runs.
            flow = next(iter(flows))
            rate = math.inf
            for link in flow.links:
                if link.capacity < rate:
                    rate = link.capacity
            flow.rate = rate
            return
        # Per-link residual capacity / unfrozen flow count live directly on
        # the Link objects, validity-stamped with a recompute generation —
        # no per-recompute dict, no hashing. Links are discovered in
        # flow-arrival order for determinism, exactly as the dict insertion
        # order used to provide; frozen flows carry the same stamp.
        self._rr_counter += 1
        gen = self._rr_counter
        links: list[Link] = []
        for flow in flows:
            flow.rate = 0.0
            for link in flow.links:
                if link._rr_gen != gen:
                    link._rr_gen = gen
                    link._residual = link.capacity
                    link._live = 1
                    links.append(link)
                else:
                    link._live += 1
        while True:
            best_share = math.inf
            best_link: Link | None = None
            for link in links:
                live = link._live
                if live <= 0:
                    continue
                share = link._residual / live
                if share < best_share:
                    best_share = share
                    best_link = link
            if best_link is None:
                break
            # Clamp against float noise: a chain of share subtractions can
            # leave a residual a few ULPs below zero, which would otherwise
            # produce negative rates and a zero-delay timer spin.
            best_share = max(0.0, best_share)
            for flow in best_link.flows:  # fid order via dict insertion
                if flow._fgen == gen:
                    continue
                flow.rate = best_share
                flow._fgen = gen
                for link in flow.links:
                    link._residual = max(0.0, link._residual - best_share)
                    link._live -= 1

    def _reschedule(self) -> None:
        """Recompute rates and arm a timer for the next flow completion."""
        self._recompute_rates()
        self._timer_generation += 1
        generation = self._timer_generation
        if not self._flows:
            return
        next_done = math.inf
        for f in self._flows:
            rate = f.rate
            if rate > 0:
                t = f.remaining / rate
                if t < next_done:
                    next_done = t
        if next_done is math.inf:  # pragma: no cover - defensive; capacity > 0
            raise RuntimeError("active flows but no positive rates")
        self.env.after(max(0.0, next_done),
                       lambda _ev, g=generation: self._on_timer(g))

    def _on_timer(self, generation: int) -> None:
        if generation != self._timer_generation:
            return  # stale timer: flows changed since it was armed
        self._advance()
        # Sub-millibyte residues are pure float error; transfers are whole
        # bytes, so anything below this is complete.
        eps = 1e-3
        finished = [f for f in self._flows if f.remaining <= eps]
        for flow in finished:
            self.bytes_delivered += max(0.0, flow.remaining)
            flow.remaining = 0.0
            self._flows.pop(flow, None)
            for link in flow.links:
                link.flows.pop(flow, None)
        # Deliver completions only after every finished flow is detached,
        # so a callback that starts new transfers sees consistent state.
        for flow in finished:
            flow.done()
        self._reschedule()
