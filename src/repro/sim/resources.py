"""Synchronisation primitives built on the event kernel.

The PFS simulator needs three: a counting :class:`Semaphore` (Lustre's
``max_rpcs_in_flight`` windows, MDS service threads), a :class:`Barrier`
(MPI-style rank synchronisation inside workloads) and a FIFO
:class:`Store` (producer/consumer queues such as the cache flusher).
All wake-ups are FIFO, preserving engine determinism.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.engine import Environment, Event

__all__ = ["Semaphore", "Barrier", "Store"]


class Semaphore:
    """Counting semaphore with FIFO acquisition order."""

    def __init__(self, env: Environment, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"semaphore capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._available = capacity
        self._waiters: deque[Event] = deque()

    @property
    def available(self) -> int:
        return self._available

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Returns an event that fires once a slot is held by the caller."""
        env = self.env
        ev = Event(env)
        if self._available > 0 and not self._waiters:
            self._available -= 1
            # ev.succeed() inlined: the grant is due now, so it joins the
            # engine's FIFO of due entries.
            ev._ok = True
            env._fifo.append(ev)
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Take a free slot inline, without creating an Event.

        Not interchangeable with :meth:`acquire`: a granted ``acquire()``
        hands the slot over one tick later, and a same-instant request
        that arrived first may take it in between. Inline grants can
        therefore reorder same-instant requests. Use this only where the
        grant order it produces is the one the golden run digests
        (``tests/sim/test_golden_digests.py``) pin. Returns False when
        the caller must queue via :meth:`acquire`.
        """
        if self._available > 0 and not self._waiters:
            self._available -= 1
            return True
        return False

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            if self._available >= self.capacity:
                raise RuntimeError("semaphore released more times than acquired")
            self._available += 1


class Barrier:
    """A reusable barrier for ``parties`` processes.

    Each call to :meth:`wait` returns an event that fires when all
    parties of the current generation have arrived.
    """

    def __init__(self, env: Environment, parties: int) -> None:
        if parties < 1:
            raise ValueError(f"barrier needs >= 1 parties, got {parties}")
        self.env = env
        self.parties = parties
        self._arrived: list[Event] = []

    def wait(self) -> Event:
        ev = Event(self.env)
        self._arrived.append(ev)
        if len(self._arrived) == self.parties:
            batch, self._arrived = self._arrived, []
            for waiter in batch:
                waiter.succeed()
        return ev


class Store:
    """Unbounded FIFO queue of items with blocking ``get``."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.env)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev
