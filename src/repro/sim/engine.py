"""Minimal deterministic discrete-event kernel.

A stripped-down SimPy-style engine: *processes* are Python generators that
yield :class:`Event` objects and are resumed when those events trigger.
Determinism is guaranteed by a monotonically increasing schedule sequence
number used as the tie-breaker for simultaneous events — two runs with the
same seed replay the identical event order, which the labelling pipeline
relies on (DESIGN.md §5).

Event lifecycle: an event is *armed* when its outcome is decided
(:meth:`Event.succeed` / :meth:`Event.fail` / timeout creation) and
*fired* when the event loop delivers it to its callbacks at its scheduled
time. Waiters are resumed at fire time, never at arm time.

Only the features the PFS simulator needs are implemented: timeouts,
manually-triggered events, processes, failure propagation and ``AllOf``
conjunction events. There is deliberately no interruption API.
"""

from __future__ import annotations

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
    def triggered(self) -> bool:
        """Delivered: callbacks have run (or are running) at fire time."""
        return self._fired

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
        self.env._schedule(self, 0.0)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Arm the event as failed; waiters see ``exc`` raised."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._ok = False
        self._value = exc
        self.env._schedule(self, 0.0)
        return self


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Event.__init__ inlined: timeouts are the single most-allocated
        # object in a run, and the extra frame showed up in sweep profiles.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._fired = False
        self.delay = delay
        env._schedule(self, delay)


class Process(Event):
    """Drives a generator; fires with the generator's return value.

    The generator may yield any :class:`Event`; it is resumed with the
    event's value (or, for failed events, the exception is thrown into
    the generator).
    """

    __slots__ = ("_gen",)

    def __init__(self, env: "Environment", gen: Generator[Event, Any, Any]) -> None:
        super().__init__(env)
        if not isinstance(gen, Generator):
            raise TypeError(f"process requires a generator, got {type(gen)!r}")
        self._gen = gen
        # Kick off at the current time via an immediately-armed event.
        init = Event(env)
        init.callbacks.append(self._resume)
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
            bridge.callbacks.append(self._resume)
            bridge._ok = target._ok
            bridge._value = target._value
            self.env._schedule(bridge, 0.0)
        else:
            target.callbacks.append(self._resume)


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
    """The event loop: a priority queue of (time, sequence, event)."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0

    # -- scheduling -------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        self._seq += 1
        heappush(self._queue, (self.now + delay, self._seq, event))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def after(self, delay: float, fn: Callable[[Event], None]) -> Timeout:
        """Schedule ``fn(event)`` after ``delay`` — a callback hop without
        the generator/Process machinery (the request path's chain link)."""
        t = Timeout(self, delay)
        t.callbacks.append(fn)
        return t

    def defer(self, fn: Callable[[Event], None]) -> Event:
        """Run ``fn(event)`` on the next tick at the current time."""
        ev = Event(self)
        ev.callbacks.append(fn)
        ev.succeed()
        return ev

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        tracer = _trace.TRACER
        if tracer is not None:
            tracer.processes_spawned += 1
        return Process(self, gen)

    # -- execution --------------------------------------------------------

    def step(self) -> None:
        """Fire the next scheduled event and run its callbacks."""
        self._step(self._queue, _trace.TRACER)

    def _step(self, queue: list, tracer) -> None:
        # Hot path: ``run()`` passes the queue and tracer in so the loop
        # pays no attribute or module-global lookups per event.
        when, _seq, event = heappop(queue)
        if when < self.now:
            raise SimulationError("event scheduled in the past")
        self.now = when
        event._fired = True
        if tracer is not None:
            tracer.events_fired += 1
        callbacks, event.callbacks = event.callbacks, []
        for cb in callbacks:
            cb(event)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be ``None`` (drain the queue), a float deadline, or
        an :class:`Event` whose firing stops the run (its value is
        returned; a failed event re-raises its exception).

        The tracer is resolved once per ``run()`` call; installing or
        removing one mid-run takes effect on the next call.
        """
        queue = self._queue
        step = self._step
        tracer = _trace.TRACER
        if isinstance(until, Event):
            stop = until
            while not stop._fired:
                if not queue:
                    raise SimulationError(
                        "event loop drained before the awaited event fired"
                    )
                step(queue, tracer)
            if not stop._ok:
                raise stop._value
            return stop._value
        deadline = float("inf") if until is None else float(until)
        while queue and queue[0][0] <= deadline:
            step(queue, tracer)
        if until is not None:
            self.now = max(self.now, deadline)
        return None
