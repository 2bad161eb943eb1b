"""The simulator's generated code does the L1 hit and the 2-bit
predictor update itself (docs/MACHINE.md).  These properties drive
random access and branch traces through that generated code and
through the model's own methods — ``CacheHierarchy.load/store/
prefetch`` and ``TwoBitPredictor.update`` — and require the same
charge per event and the same state at the end."""

from functools import cache

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.ir.function import Function, Module
from repro.ir.instr import Rel, br, cmpp, load, mov, prefetch, ret, store
from repro.ir.values import INT, PRED, Imm, VReg
from repro.machine import descr
from repro.machine.branch import TwoBitPredictor
from repro.machine.cache import CacheHierarchy
from repro.machine.descr import CacheLevelConfig, MachineDescription
from repro.machine.sim import Simulator
from repro.passes.schedule import schedule_module

TOY = MachineDescription(
    name="toy-2set-2way",
    cache_levels=(
        CacheLevelConfig("L1", 256, 64, 2, 2),   # 2 sets, 2-way
        CacheLevelConfig("L2", 1024, 64, 2, 7),  # 8 sets, 2-way
    ),
)
MACHINES = [TOY] + [machine for machine in vars(descr).values()
                    if isinstance(machine, MachineDescription)]
BRANCHES = 3

#: Without the explain phase: it traces every line the failing example
#: executes, and a failure here would take minutes to report.
PHASES = (Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink)


def _function(name):
    """A function over (address, value, guard flag); each kind of
    event reads the parameters it needs."""
    function = Function(
        name, [VReg(i, INT, p) for i, p in enumerate(("a", "v", "g"))])
    return function, function.new_block("entry"), *function.params


def _guard(function, block, flag):
    """Predicate pair for ``flag != 0``; returns the true side."""
    on = function.new_vreg(PRED, "on")
    off = function.new_vreg(PRED, "off")
    block.append(cmpp(on, off, Rel.NE, flag, Imm(0)))
    return on


def driver_module() -> Module:
    """One function per kind of event, so a trace is a sequence of
    ``Simulator.run(kind, (address, value, flag))`` on one simulator:
    ``ld``/``st``/``pf`` touch one word, ``gld``/``gst`` do so under a
    guard that ``flag`` sets, ``br<i>`` is one static branch on
    ``flag``."""
    module = Module()

    function, block, address, value, flag = _function("ld")
    loaded = function.new_vreg(INT, "l")
    block.append(load(loaded, address))
    block.append(ret(loaded))
    module.add_function(function)

    function, block, address, value, flag = _function("st")
    block.append(store(address, value))
    block.append(ret())
    module.add_function(function)

    function, block, address, value, flag = _function("pf")
    block.append(prefetch(address))
    block.append(ret())
    module.add_function(function)

    function, block, address, value, flag = _function("gld")
    loaded = function.new_vreg(INT, "l")
    block.append(mov(loaded, Imm(-1)))
    block.append(load(loaded, address,
                      guard=_guard(function, block, flag)))
    block.append(ret(loaded))
    module.add_function(function)

    function, block, address, value, flag = _function("gst")
    block.append(store(address, value,
                       guard=_guard(function, block, flag)))
    block.append(ret())
    module.add_function(function)

    for index in range(BRANCHES):
        function, block, _address, _value, flag = _function(f"br{index}")
        taken = function.new_block("taken")
        fallthrough = function.new_block("fallthrough")
        block.append(br(flag, taken.label, fallthrough.label))
        taken.append(ret(Imm(1)))
        fallthrough.append(ret(Imm(0)))
        module.add_function(function)
    return module


@cache
def scheduled_driver(machine_name: str):
    machine = next(m for m in MACHINES if m.name == machine_name)
    return schedule_module(driver_module(), machine)


@st.composite
def accesses(draw, machine: MachineDescription):
    """(kind, word address, guard) events whose addresses collide: a
    few lines apart, or a few multiples of some level's set count
    apart, so every level sees same-set conflicts and evictions."""
    line_words = [config.line_bytes // 8 for config in machine.cache_levels]
    strides = [line_words[0]] + [
        words * (config.size_bytes // (config.line_bytes * config.assoc))
        for words, config in zip(line_words, machine.cache_levels)
    ]
    address = st.builds(
        lambda stride, multiple, offset: stride * multiple + offset,
        st.sampled_from(strides), st.integers(0, 12), st.integers(0, 9))
    event = st.tuples(st.sampled_from(["ld", "st", "pf", "gld", "gst"]),
                      address, st.booleans())
    return draw(st.lists(event, min_size=1, max_size=60))


def cache_state(hierarchy: CacheHierarchy):
    """Every level's sets in LRU order, and every counter."""
    return (
        [[list(cache_set) for cache_set in level.sets]
         for level in hierarchy.levels],
        [level.stats for level in hierarchy.levels],
        hierarchy.loads,
        hierarchy.prefetches,
    )


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@settings(max_examples=30, deadline=None, phases=PHASES)
@given(data=st.data())
def test_memory_events_match_the_hierarchy(machine, data):
    trace = data.draw(accesses(machine))
    simulator = Simulator(scheduled_driver(machine.name), machine)
    reference = CacheHierarchy(machine)
    memory: dict[int, int] = {}
    l1_latency = machine.load_latency
    for step, (kind, address, guard) in enumerate(trace):
        executes = guard or not kind.startswith("g")
        stalled, squashed = simulator.memory_stall, simulator.squashed_ops
        latency, expected = l1_latency, None
        if kind in ("ld", "gld"):
            expected = -1  # what gld returns when its load is squashed
            if executes:
                latency = reference.load(address)
                expected = memory.get(address, 0)
        elif kind == "pf":
            reference.prefetch(address)
        elif executes:
            assert reference.store(address) == 1
            memory[address] = step
        result = simulator.run(kind, (address, step, int(guard)))
        assert result.return_value == expected, (trace, step)
        assert result.memory_stall_cycles - stalled \
            == max(0, latency - l1_latency), (trace, step)
        assert result.squashed_ops - squashed == (not executes), (trace, step)
    assert cache_state(simulator.caches) == cache_state(reference), trace
    assert result.load_count == reference.loads
    assert result.prefetch_count == reference.prefetches
    assert result.l1_hit_rate == reference.levels[0].stats.hit_rate
    assert simulator.memory == memory


@pytest.mark.parametrize("machine", [TOY, descr.ITANIUM_MACHINE],
                         ids=lambda m: m.name)
@settings(max_examples=50, deadline=None, phases=PHASES)
@given(trace=st.lists(st.tuples(st.integers(0, BRANCHES - 1), st.booleans()),
                      min_size=1, max_size=80))
def test_branch_events_match_the_predictor(machine, trace):
    simulator = Simulator(scheduled_driver(machine.name), machine)
    reference = TwoBitPredictor()
    for index, taken in trace:
        stalled = simulator.branch_stall
        predicted = reference.predict(index)
        correct = reference.update(index, taken)
        result = simulator.run(f"br{index}", (0, 0, int(taken)))
        assert result.return_value == int(taken)
        assert correct == (predicted == taken)
        assert result.branch_stall_cycles - stalled \
            == (0 if correct else machine.mispredict_penalty), trace
    assert simulator.branch_stats == reference.stats
    assert result.branch_accuracy == reference.stats.accuracy
    # the simulator keys a function's n-th branch "<function>:<n>"
    assert simulator.branch_counters == {
        f"br{index}:0": counter
        for index, counter in reference._counters.items()}
