"""Exact closed-form stall charging: ``add_units`` against the unit loop,
and fractional-clock stalls under every engine."""

import math
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core import (DeadlockError, PEProgram, Program, StageSpec, System,
                        STOP_VALUE)
from repro.core.pe import ProcessingElement, add_units
from repro.ir import DFGBuilder
from repro.memory import AddressSpace
from repro.memory.memmap import MemoryMap
from repro.queues import QueueSpec
from repro.stats.counters import Counters


def _unit_loop(x, k, unit=1.0):
    for _ in range(k):
        x += unit
    return x


# -- add_units ---------------------------------------------------------------

_fractions = st.builds(
    lambda num, den: num / den,
    st.integers(0, 2 ** 40),
    st.sampled_from(list(range(1, 17)) + [720720]))
_near_powers = st.builds(
    lambda p, below: 2.0 ** p - below,
    st.integers(0, 52),
    st.sampled_from([0.0, 2.0 ** -40, 1 / 3, 0.5, 1.0, 1.5, 3.0]))
_values = st.one_of(
    _fractions,
    _near_powers,
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(2.0 ** 52, 2.0 ** 60),
)


@given(_values, st.integers(0, 10 ** 5))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_add_units_equals_unit_loop(x, k):
    assert add_units(x, k) == _unit_loop(x, k)


@given(_values, st.integers(0, 2_000), st.sampled_from([1, 3, 16, 33, 64]))
@settings(max_examples=200, deadline=None)
def test_add_units_whole_unit_equals_loop(x, k, unit):
    assert add_units(x, k, float(unit)) == _unit_loop(x, k, float(unit))


def test_add_units_rounds_only_where_the_loop_does():
    # Just below 2**52 the grid is 1/2 apart: the crossing step rounds
    # to even, and every later step stays on the integer grid.
    x = 2.0 ** 52 - 0.5
    assert add_units(x, 2) == _unit_loop(x, 2) == 2.0 ** 52 + 1
    assert x + 2.0 != add_units(x, 2)
    assert add_units(1 / 3, 0) == 1 / 3


# -- fractional-clock stalls -------------------------------------------------

def _source_dfg(name, out_q):
    b = DFGBuilder(name)
    counter = b.reg("i")
    nxt = b.add(counter, b.const(1))
    b.set_reg(counter, nxt)
    b.enq(out_q, nxt)
    return b.finish()


def _sink_dfg(name, in_q):
    b = DFGBuilder(name)
    x = b.deq(in_q)
    b.add(x, x)
    return b.finish()


def _stuck_program():
    """A producer fills ``frac.q`` (its per-token cost is fractional
    under the configured speedup) while the sink waits on a queue
    nothing feeds: the PE blocks mid-quantum on a fractional clock,
    carrying a fractional debt, then the run deadlocks."""

    def producer(ctx):
        for i in range(1_000):
            yield from ctx.enq("frac.q", i)
            if i % 10 == 0:
                yield from ctx.cycles(7.25)
        yield from ctx.enq("frac.q", STOP_VALUE, is_control=True)

    def stuck_consumer(ctx):
        yield from ctx.deq("frac.never")

    pe = PEProgram(
        shard=0,
        queue_specs=[QueueSpec("frac.q"), QueueSpec("frac.never")],
        stage_specs=[
            StageSpec("frac.src", _source_dfg("frac.src", "frac.q"),
                      producer),
            StageSpec("frac.snk", _sink_dfg("frac.snk", "frac.never"),
                      stuck_consumer),
        ])
    return Program("frac", [pe], AddressSpace(), MemoryMap())


def _config(speedup):
    return SystemConfig(n_pes=1, deadlock_quanta=20,
                        stage_speedup=(("frac.src", speedup),))


class _WriteCounter(Counters):
    """Counters that record every store, keyed by counter name."""

    def __init__(self, initial):
        super().__init__(initial)
        self.writes = Counter()

    def __setitem__(self, name, value):
        self.writes[name] += 1
        super().__setitem__(name, value)


def _spy_stall_fast(monkeypatch):
    """Record (clock, steps, writes per counter) for every call."""
    calls = []
    original = ProcessingElement._stall_fast

    def spying(pe, remaining):
        pe.counters.writes.clear()
        now = pe.now
        left = original(pe, remaining)
        calls.append((now, math.ceil(remaining - 1e-9),
                      dict(pe.counters.writes)))
        return left

    monkeypatch.setattr(ProcessingElement, "_stall_fast", spying)
    return calls


@pytest.mark.parametrize("speedup", [1.5, 3.0])
def test_fractional_clock_engines_identical(speedup):
    states = {}
    for engine in ("naive", "fast"):
        system = System(_config(speedup), _stuck_program(), mode="fifer")
        with pytest.raises(DeadlockError):
            system.run(engine=engine)
        [pe] = system.pes
        states[engine] = (system.cycle, pe.now, pe._debt,
                          pe.counters.as_dict())
    assert states["fast"] == states["naive"]
    # The clock went fractional and a debt is carried through the
    # deadlock fast-forward (the per-quantum roll-forward path).
    _, now, debt, _ = states["naive"]
    assert not now.is_integer() and debt > 0


def test_stall_fast_writes_each_counter_once(monkeypatch):
    calls = _spy_stall_fast(monkeypatch)
    system = System(_config(3.0), _stuck_program(), mode="fifer")
    [pe] = system.pes
    pe.counters = _WriteCounter(pe.counters)
    with pytest.raises(DeadlockError):
        system.run(engine="fast")
    assert any(not now.is_integer() and steps > 1
               for now, steps, _ in calls), calls
    for _, steps, writes in calls:
        assert len(writes) == 1
        assert list(writes.values()) == [1]
