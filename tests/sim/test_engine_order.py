"""The engine fires entries in ``(time, schedule sequence)`` order.

The kernel keeps entries due now in a FIFO beside its time heap, and
hops carry no Event. Neither may change the order: random programs of
``timeout``/``succeed``/``fail``/``defer``/``after`` with zero, equal and
distinct delays must fire exactly as a reference single-heap model fires
them, however the loop is driven (``run()``, chunked ``run(until=t)``,
``step()``).
"""

from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment

KINDS = ("timeout", "succeed", "fail", "defer", "after")
#: Zero, a few shared values (equal times across branches) and a delay
#: the clock absorbs once ``now >= 0.25`` (``now + 1e-17 == now``).
DELAYS = (0.0, 0.0, 0.25, 0.25, 0.5, 0.375, 1.0, 1e-17)


def _node(children):
    return st.tuples(st.sampled_from(KINDS), st.sampled_from(DELAYS),
                     st.lists(children, max_size=3))


#: A program: root actions, each ``(kind, delay, children)``; firing an
#: action schedules its children. ``succeed``/``fail``/``defer`` ignore
#: the delay (they are due now).
PROGRAMS = st.lists(st.recursive(
    st.tuples(st.sampled_from(KINDS), st.sampled_from(DELAYS),
              st.just([])),
    _node, max_leaves=25), min_size=1, max_size=6)


def _delay(kind, delay):
    return delay if kind in ("timeout", "after") else 0.0


def reference_order(program):
    """Fire order of a single ``(time, seq)`` heap, the engine's contract."""
    heap, seq, now, fired = [], 0, 0.0, []

    def schedule(actions, path):
        nonlocal seq
        for i, (kind, delay, children) in enumerate(actions):
            seq += 1
            heappush(heap, (now + _delay(kind, delay), seq, path + (i,),
                            children))

    schedule(program, ())
    while heap:
        now, _seq, path, children = heappop(heap)
        fired.append((path, now))
        schedule(children, path)
    return fired


def engine_order(program, drive):
    env = Environment()
    fired = []

    def schedule(actions, path):
        for i, (kind, delay, children) in enumerate(actions):
            here = path + (i,)

            def fire(_ev, here=here, children=children):
                fired.append((here, env.now))
                schedule(children, here)

            if kind == "timeout":
                env.timeout(delay).callbacks.append(fire)
            elif kind == "after":
                env.after(delay, fire)
            elif kind == "defer":
                env.defer(fire)
            elif kind == "succeed":
                env.event().succeed().callbacks.append(fire)
            else:
                env.event().fail(RuntimeError("x")).callbacks.append(fire)

    schedule(program, ())
    if drive == "run":
        env.run()
    elif drive == "chunked":
        t = 0.0
        while env.pending:
            t += 0.3
            env.run(until=t)
    else:
        while env.pending:
            env.step()
    return fired


@settings(max_examples=200, deadline=None)
@given(program=PROGRAMS, drive=st.sampled_from(("run", "chunked", "step")))
def test_engine_fires_in_reference_heap_order(program, drive):
    assert engine_order(program, drive) == reference_order(program)


def test_heap_entries_due_now_fire_before_fifo_entries():
    """Two timeouts due at t=1: the first one's zero-delay follow-ups
    were scheduled after the second timeout, so they fire after it."""
    env = Environment()
    seen = []
    env.after(1.0, lambda _ev: (seen.append("a"),
                                env.defer(lambda _ev: seen.append("a+0"))))
    env.after(1.0, lambda _ev: seen.append("b"))
    env.run()
    assert seen == ["a", "b", "a+0"]


def test_absorbed_positive_delay_keeps_schedule_order():
    """A positive delay the clock cannot represent is due now and fires
    after the entries already due now, as a single heap would fire it."""
    env = Environment()
    seen = []

    def at_one(_ev):
        env.defer(lambda _ev: seen.append("defer"))
        env.after(1e-17, lambda _ev: seen.append("absorbed"))
        env.timeout(1e-17).callbacks.append(
            lambda _ev: seen.append("timeout"))
        assert env.now + 1e-17 == env.now

    env.after(1.0, at_one)
    env.run()
    assert seen == ["defer", "absorbed", "timeout"]
    assert env.now == 1.0
