"""Minimal deterministic discrete-event kernel.

A stripped-down SimPy-style engine: *processes* are Python generators that
yield :class:`Event` objects and are resumed when those events trigger.
Events fire in ``(time, schedule sequence)`` order — two runs with the
same seed replay the identical event order, which the labelling pipeline
relies on (DESIGN.md §5).

The schedule is two queues with exactly that order. Entries due at the
current instant go to a FIFO; later ones to a ``(time, seq, entry)``
heap. Heap entries due now were scheduled before the clock reached now,
so they precede every FIFO entry and drain first. A *hop*
(:meth:`Environment.after`, :meth:`Environment.defer`) is a bare
callback in either queue, called as ``fn(None)`` with no :class:`Event`
behind it.

Event lifecycle: an event is *armed* when its outcome is decided
(:meth:`Event.succeed` / :meth:`Event.fail` / timeout creation) and
*fired* when the event loop delivers it to its callbacks at its scheduled
time. Waiters are resumed at fire time, never at arm time.

Only the features the PFS simulator needs are implemented: timeouts,
manually-triggered events, processes, failure propagation and ``AllOf``
conjunction events. There is deliberately no interruption API.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable

from repro.obs import trace as _trace

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, drained loop, bad yields)."""


_INF = float("inf")


class Event:
    """A one-shot occurrence that processes can wait on."""

    __slots__ = ("env", "callbacks", "_value", "_ok", "_fired")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: bool | None = None  # None = pending, True/False = armed
        self._fired = False

    @property
    def armed(self) -> bool:
        """Outcome decided (scheduled for delivery)."""
        return self._ok is not None

    @property
    def ok(self) -> bool:
        if not self._fired:
            raise SimulationError("event has not fired yet")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError("event has not fired yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Arm the event successfully; waiters wake at the current time."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._fifo.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Arm the event as failed; waiters see ``exc`` raised."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._ok = False
        self._value = exc
        self.env._fifo.append(self)
        return self


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not 0.0 <= delay < _INF:
            raise ValueError(f"timeout delay must be finite and >= 0: {delay}")
        # Event.__init__ and Environment.after's routing inlined: timeouts
        # are the single most-allocated object in a run, and the extra
        # frames showed up in sweep profiles.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._fired = False
        self.delay = delay
        now = env.now
        when = now + delay
        if when == now:
            env._fifo.append(self)
        else:
            env._seq += 1
            heappush(env._heap, (when, env._seq, self))


class Process(Event):
    """Drives a generator; fires with the generator's return value.

    The generator may yield any :class:`Event`; it is resumed with the
    event's value (or, for failed events, the exception is thrown into
    the generator).
    """

    __slots__ = ("_gen", "_wake")

    def __init__(self, env: "Environment", gen: Generator[Event, Any, Any]) -> None:
        super().__init__(env)
        if not isinstance(gen, Generator):
            raise TypeError(f"process requires a generator, got {type(gen)!r}")
        self._gen = gen
        # The bound _resume, made once: every yield registers it.
        self._wake = self._resume
        # Kick off at the current time via an immediately-armed event.
        init = Event(env)
        init.callbacks.append(self._wake)
        init.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._fired

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self._gen.send(event._value)
            else:
                target = self._gen.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            exc = SimulationError(
                f"process yielded {target!r}; processes must yield Event objects"
            )
            self._gen.close()
            self.fail(exc)
            return
        if target.env is not self.env:
            self._gen.close()
            self.fail(SimulationError("process yielded an event from another environment"))
            return
        if target._fired:
            # The event already fired in the past: resume on the next tick.
            bridge = Event(self.env)
            bridge.callbacks.append(self._wake)
            bridge._ok = target._ok
            bridge._value = target._value
            self.env._fifo.append(bridge)
        else:
            target.callbacks.append(self._wake)


class AllOf(Event):
    """Fires when every child event has fired successfully.

    Its value is the list of child values in the original order. If any
    child fails, the conjunction fails with that child's exception (first
    delivery wins).
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._children = list(events)
        for ev in self._children:
            if ev.env is not env:
                raise SimulationError("AllOf child from another environment")
        pending = [ev for ev in self._children if not ev._fired]
        self._remaining = len(pending)
        if self._remaining == 0:
            self._finish()
        else:
            for ev in pending:
                ev.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.armed:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._finish()

    def _finish(self) -> None:
        for ev in self._children:
            if ev._fired and not ev._ok:
                self.fail(ev._value)
                return
        self.succeed([ev._value for ev in self._children])


class Environment:
    """The event loop: a FIFO of entries due now beside a heap of
    ``(time, seq, entry)`` for later ones; an entry is an :class:`Event`
    or a hop callback."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Any]] = []
        self._fifo: deque = deque()
        self._seq = 0

    @property
    def pending(self) -> int:
        """Scheduled entries (events and hops) not yet dispatched."""
        return len(self._heap) + len(self._fifo)

    # -- scheduling -------------------------------------------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def after(self, delay: float, fn: Callable[[None], None]) -> None:
        """Call ``fn(None)`` after ``delay``: a callback hop with no
        :class:`Event` behind it (the request path's chain link). It
        fires in the same order a :class:`Timeout` scheduled here would."""
        if not 0.0 <= delay < _INF:
            raise ValueError(f"hop delay must be finite and >= 0: {delay}")
        # Routing on ``when == now`` rather than ``delay == 0`` keeps a
        # positive delay that the clock's precision absorbs in schedule
        # order, as Timeout does.
        now = self.now
        when = now + delay
        if when == now:
            self._fifo.append(fn)
        else:
            self._seq += 1
            heappush(self._heap, (when, self._seq, fn))

    def defer(self, fn: Callable[[None], None]) -> None:
        """Call ``fn(None)`` on the next tick at the current time, after
        every entry already due now."""
        self._fifo.append(fn)

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        tracer = _trace.TRACER
        if tracer is not None:
            tracer.processes_spawned += 1
        return Process(self, gen)

    # -- execution --------------------------------------------------------

    def step(self) -> None:
        """Fire the next scheduled entry: run an event's callbacks, or
        call a hop."""
        self._step(self._heap, self._fifo, _trace.TRACER)

    def _step(self, heap: list, fifo: deque, tracer) -> None:
        # Hot path: ``run()`` passes the queues and tracer in so the loop
        # pays no attribute or module-global lookups per entry. Heap
        # entries due now were scheduled before any FIFO entry, so they
        # go first.
        if fifo and not (heap and heap[0][0] <= self.now):
            entry = fifo.popleft()
        else:
            when, _seq, entry = heappop(heap)
            if when < self.now:
                raise SimulationError("event scheduled in the past")
            self.now = when
        if tracer is not None:
            tracer.events_fired += 1
        if isinstance(entry, Event):
            entry._fired = True
            callbacks, entry.callbacks = entry.callbacks, []
            for cb in callbacks:
                cb(entry)
        else:
            entry(None)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queues drain, a deadline passes, or an event fires.

        ``until`` may be ``None`` (drain the queues), a float deadline, or
        an :class:`Event` whose firing stops the run (its value is
        returned; a failed event re-raises its exception).

        The tracer is resolved once per ``run()`` call; installing or
        removing one mid-run takes effect on the next call.
        """
        heap = self._heap
        fifo = self._fifo
        step = self._step
        tracer = _trace.TRACER
        if isinstance(until, Event):
            stop = until
            while not stop._fired:
                if not fifo and not heap:
                    raise SimulationError(
                        "event loop drained before the awaited event fired"
                    )
                step(heap, fifo, tracer)
            if not stop._ok:
                raise stop._value
            return stop._value
        deadline = _INF if until is None else float(until)
        # FIFO entries are due now: none is due by a deadline already
        # past, and the clock never passes the deadline inside the loop.
        if self.now <= deadline:
            while fifo or (heap and heap[0][0] <= deadline):
                step(heap, fifo, tracer)
        if until is not None:
            self.now = max(self.now, deadline)
        return None
