"""Synchronisation primitives built on the event kernel.

The PFS simulator needs one: a counting :class:`Semaphore` with FIFO
wake-ups (Lustre's ``max_rpcs_in_flight`` windows, MDS slots, directory
locks and service threads), preserving engine determinism.
"""

from __future__ import annotations

from collections import deque

from repro.sim.engine import Environment, Event

__all__ = ["Semaphore"]


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
