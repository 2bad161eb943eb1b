"""The simulator's generated code does the L1 hit, the 2-bit
predictor update and integer arithmetic itself (docs/MACHINE.md), and
calls the hierarchy's one-frame walk on an L1 miss.  These properties
drive random access and branch traces and random operands through that
generated code and through the reference for each — the hierarchy's
``load``/``store``/``prefetch`` with the walk below L1 composed from
each level's ``access``, ``probe`` and ``fill``
(``ReferenceHierarchy``), ``TwoBitPredictor.update`` and the
interpreter's ``apply_scalar_op`` — and require the same charge per
event, the same results and faults, and the same state at the end.
The memory and branch events run both one per call and inside one
loop, whose generated code keeps the counters in locals.  The branch
traces also run through the profiling form (``ProfilingRun``); in both
forms each branch's record ``[2-bit state, mispredictions, taken, not
taken]`` must be the predictor's."""

from functools import cache

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.ir.function import GLOBAL_BASE, Function, GlobalArray, Module
from repro.ir.instr import (
    Instr,
    Opcode,
    Rel,
    binop,
    br,
    cmp,
    cmpp,
    jmp,
    lea,
    load,
    mov,
    prefetch,
    ret,
    store,
)
from repro.ir.interp import InterpError, apply_scalar_op
from repro.ir.values import FLOAT, INT, PRED, Imm, SymRef, VReg
from repro.machine import descr
from repro.machine.branch import TwoBitPredictor
from repro.machine.descr import CacheLevelConfig, MachineDescription
from repro.machine.sim import ProfilingRun, SimError, Simulator
from repro.passes.schedule import schedule_module
from tests.machine.test_cache_property import (
    ReferenceHierarchy,
    hierarchy_state,
)
from tests.machine.test_sim import sim_frame_calls

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


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@settings(max_examples=30, deadline=None, phases=PHASES)
@given(data=st.data())
def test_memory_events_match_the_hierarchy(machine, data):
    trace = data.draw(accesses(machine))
    simulator = Simulator(scheduled_driver(machine.name), machine)
    reference = ReferenceHierarchy(machine)
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
    assert hierarchy_state(simulator.caches) \
        == hierarchy_state(reference), trace
    assert result.load_count == reference.loads
    assert result.prefetch_count == reference.prefetches
    assert result.l1_hit_rate == reference.levels[0].stats.hit_rate
    assert simulator.memory == memory


def branch_records(executor) -> dict:
    """Per function and ``BR`` in block order, the record either form
    counts, ``[2-bit state, mispredictions, taken, not taken]``."""
    return {name: [counter for _label, instr, counter in rows
                   if instr.op is Opcode.BR]
            for name, (_calls, rows) in executor.control_counts().items()}


def predicted(predictor: TwoBitPredictor, key, outcomes: list) -> list:
    """The record of a branch that ``predictor`` has seen take
    ``outcomes``."""
    return [predictor._counters[key],
            predictor._per_branch[key].mispredictions,
            sum(outcomes), len(outcomes) - sum(outcomes)]


@pytest.mark.parametrize("machine", [TOY, descr.ITANIUM_MACHINE],
                         ids=lambda m: m.name)
@settings(max_examples=50, deadline=None, phases=PHASES)
@given(trace=st.lists(st.tuples(st.integers(0, BRANCHES - 1), st.booleans()),
                      min_size=1, max_size=80))
def test_branch_events_match_the_predictor(machine, trace):
    simulator = Simulator(scheduled_driver(machine.name), machine)
    reference = TwoBitPredictor()
    outcomes: dict[int, list] = {}
    for index, taken in trace:
        stalled = simulator.branch_stall
        prediction = reference.predict(index)
        correct = reference.update(index, taken)
        outcomes.setdefault(index, []).append(taken)
        result = simulator.run(f"br{index}", (0, 0, int(taken)))
        assert result.return_value == int(taken)
        assert correct == (prediction == taken)
        assert result.branch_stall_cycles - stalled \
            == (0 if correct else machine.mispredict_penalty), trace
    assert result.branch_accuracy == reference.stats.accuracy
    # each branch's record, in the order the runs first entered them
    assert list(branch_records(simulator).items()) == [
        (f"br{index}", [predicted(reference, index, taken)])
        for index, taken in outcomes.items()], trace


#: The looped driver's event kinds, by their code in a trace word.
LOOP_KINDS = ("ld", "st", "pf", "gld", "gst", "br")
#: Room for the longest trace ``accesses`` draws.
LOOP_TRACE = 64
#: Added to every event address, so no store lands on the trace.
DATA_BASE = 1 << 20
#: Guarded operations in the loop body (ld: load + out; st; pf; gld:
#: mov + load + out; gst), and how many of them each event executes
#: besides the load or store a set flag adds to gld or gst.
LOOP_GUARDED = 8
LOOP_EXECUTES = {"ld": 2, "st": 1, "pf": 1, "gld": 2, "gst": 0, "br": 0}


def looped_driver_module() -> Module:
    """``walk(n)``: one loop over the first ``n`` words of ``trace``.
    A word is ``address << 4 | kind << 1 | flag``; the body decodes it
    and runs the event under predicates (``ld`` and ``gld`` print what
    they load, ``gld`` prints -1 when its flag is clear), or branches
    on ``flag`` for ``br``.  Its three branches are ``walk:0`` (loop
    test), ``walk:1`` (is it ``br``?) and ``walk:2`` (the event)."""
    module = Module()
    module.add_global(GlobalArray("trace", LOOP_TRACE))
    function = Function("walk", [VReg(0, INT, "n")])
    (count,) = function.params
    entry, head, body, branch, taken, fallthrough, latch, done = (
        function.new_block(hint) for hint in (
            "entry", "head", "body", "branch", "taken", "fallthrough",
            "latch", "done"))
    step, more, base, word, flag, kind, address, loaded, is_br = (
        function.new_vreg(INT, name) for name in (
            "i", "more", "base", "word", "flag", "kind", "address",
            "loaded", "is_br"))
    entry.append(mov(step, Imm(0)))
    entry.append(jmp(head.label))
    head.append(cmp(more, Rel.LT, step, count))
    head.append(br(more, body.label, done.label))

    body.append(lea(base, SymRef("trace")))
    body.append(binop(Opcode.ADD, base, base, step))
    body.append(load(word, base))
    body.append(binop(Opcode.AND, flag, word, Imm(1)))
    body.append(binop(Opcode.SHR, kind, word, Imm(1)))
    body.append(binop(Opcode.AND, kind, kind, Imm(7)))
    body.append(binop(Opcode.SHR, address, word, Imm(4)))
    body.append(binop(Opcode.ADD, address, address, Imm(DATA_BASE)))

    def predicate(name, flagged=False):
        """True when the event is ``name`` (and, if ``flagged``, its
        flag is set)."""
        test = function.new_vreg(INT, name)
        body.append(cmp(test, Rel.EQ, kind, Imm(LOOP_KINDS.index(name))))
        if flagged:
            body.append(binop(Opcode.AND, test, test, flag))
        on = function.new_vreg(PRED, name)
        body.append(cmpp(on, function.new_vreg(PRED, name), Rel.NE, test,
                         Imm(0)))
        return on

    def printed(value, guard):
        return Instr(Opcode.OUT, srcs=(value,), guard=guard)

    on = predicate("ld")
    body.append(load(loaded, address, guard=on))
    body.append(printed(loaded, on))
    body.append(store(address, step, guard=predicate("st")))
    body.append(prefetch(address, guard=predicate("pf")))
    on, loads = predicate("gld"), predicate("gld", flagged=True)
    body.append(mov(loaded, Imm(-1), guard=on))
    body.append(load(loaded, address, guard=loads))
    body.append(printed(loaded, on))
    body.append(store(address, step, guard=predicate("gst", flagged=True)))
    body.append(cmp(is_br, Rel.EQ, kind, Imm(LOOP_KINDS.index("br"))))
    body.append(br(is_br, branch.label, latch.label))

    branch.append(br(flag, taken.label, fallthrough.label))
    taken.append(jmp(latch.label))
    fallthrough.append(jmp(latch.label))
    latch.append(binop(Opcode.ADD, step, step, Imm(1)))
    latch.append(jmp(head.label))
    done.append(ret(step))
    module.add_function(function)
    return module


@cache
def scheduled_looped_driver(machine_name: str):
    machine = next(m for m in MACHINES if m.name == machine_name)
    return schedule_module(looped_driver_module(), machine)


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@settings(max_examples=30, deadline=None, phases=PHASES)
@given(data=st.data())
def test_events_in_a_loop_match_the_references(machine, data):
    trace = data.draw(accesses(machine))
    trace += data.draw(st.lists(
        st.tuples(st.just("br"), st.just(0), st.booleans()),
        max_size=LOOP_TRACE - len(trace)))
    trace = data.draw(st.permutations(trace))
    words = [address << 4 | LOOP_KINDS.index(kind) << 1 | int(flag)
             for kind, address, flag in trace]
    simulator = Simulator(scheduled_looped_driver(machine.name), machine)
    simulator.set_global("trace", words)
    calls, result = sim_frame_calls(
        lambda: simulator.run("walk", (len(trace),)))

    caches, predictor = ReferenceHierarchy(machine), TwoBitPredictor()
    outcomes: dict[str, list] = {"walk:0": [], "walk:1": [], "walk:2": []}

    def branch(key, taken):
        predictor.update(key, taken)
        outcomes[key].append(taken)

    memory = {GLOBAL_BASE + index: word for index, word in enumerate(words)}
    outputs, squashed, stall = [], 0, 0

    def charge(latency):
        nonlocal stall
        stall += max(0, latency - machine.load_latency)

    for step, (kind, address, flag) in enumerate(trace):
        address += DATA_BASE
        branch("walk:0", True)
        charge(caches.load(GLOBAL_BASE + step))
        executes = LOOP_EXECUTES[kind]
        if kind == "ld" or (kind == "gld" and flag):
            charge(caches.load(address))
            outputs.append(memory.get(address, 0))
            executes += kind == "gld"
        elif kind == "gld":
            outputs.append(-1)
        elif kind == "pf":
            caches.prefetch(address)
        elif kind == "st" or (kind == "gst" and flag):
            caches.store(address)
            memory[address] = step
            executes += kind == "gst"
        squashed += LOOP_GUARDED - executes
        branch("walk:1", kind == "br")
        if kind == "br":
            branch("walk:2", flag)
    branch("walk:0", False)

    assert calls == 1  # entry, loop and done in one generated function
    assert result.return_value == len(trace)
    assert simulator.outputs == outputs, trace
    assert simulator.memory == memory, trace
    assert hierarchy_state(simulator.caches) == hierarchy_state(caches), trace
    assert result.memory_stall_cycles == stall, trace
    assert result.squashed_ops == squashed, trace
    assert result.branch_accuracy == predictor.stats.accuracy, trace
    assert result.branch_stall_cycles == \
        machine.mispredict_penalty * predictor.stats.mispredictions
    assert result.cycles == result.bundles + result.memory_stall_cycles \
        + result.branch_stall_cycles
    assert branch_records(simulator) == {"walk": [
        predicted(predictor, key, seen) if seen
        else [TwoBitPredictor.INIT, 0, 0, 0]
        for key, seen in outcomes.items()]}, trace


@settings(max_examples=50, deadline=None, phases=PHASES)
@given(trace=st.lists(st.tuples(st.integers(0, BRANCHES - 1), st.booleans()),
                      min_size=1, max_size=80))
def test_profiled_branches_match_the_predictor(trace):
    run = ProfilingRun(driver_module())
    reference = TwoBitPredictor()
    outcomes: dict[int, list] = {}
    for index, taken in trace:
        reference.update(index, taken)
        outcomes.setdefault(index, []).append(taken)
        assert run.run(f"br{index}", (0, 0, int(taken))).return_value \
            == int(taken)
    # functions in the order the runs first entered them
    assert branch_records(run) == {
        f"br{index}": [predicted(reference, index, taken)]
        for index, taken in outcomes.items()}, trace


@settings(max_examples=30, deadline=None, phases=PHASES)
@given(data=st.data())
def test_profiled_events_in_a_loop_match_the_references(data):
    """The looped driver in profiling form: its outputs and memory are
    the events', and its three branches count as the predictor does."""
    trace = data.draw(accesses(TOY))
    trace += data.draw(st.lists(
        st.tuples(st.just("br"), st.just(0), st.booleans()),
        max_size=LOOP_TRACE - len(trace)))
    trace = data.draw(st.permutations(trace))
    words = [address << 4 | LOOP_KINDS.index(kind) << 1 | int(flag)
             for kind, address, flag in trace]
    run = ProfilingRun(looped_driver_module())
    run.set_global("trace", words)
    result = run.run("walk", (len(trace),))

    predictor = TwoBitPredictor()
    outcomes: dict[str, list] = {"walk:0": [], "walk:1": [], "walk:2": []}

    def branch(key, taken):
        predictor.update(key, taken)
        outcomes[key].append(taken)

    memory = {GLOBAL_BASE + index: word for index, word in enumerate(words)}
    outputs = []
    for step, (kind, address, flag) in enumerate(trace):
        address += DATA_BASE
        branch("walk:0", True)
        if kind == "ld" or (kind == "gld" and flag):
            outputs.append(memory.get(address, 0))
        elif kind == "gld":
            outputs.append(-1)
        elif kind == "st" or (kind == "gst" and flag):
            memory[address] = step
        branch("walk:1", kind == "br")
        if kind == "br":
            branch("walk:2", flag)
    branch("walk:0", False)

    assert result.return_value == len(trace)
    assert result.outputs == outputs, trace
    assert run.memory == memory, trace
    assert branch_records(run) == {"walk": [
        predicted(predictor, key, seen) if seen
        else [TwoBitPredictor.INIT, 0, 0, 0]
        for key, seen in outcomes.items()]}, trace


INT_MIN = -(1 << 63)
INT_MAX = (1 << 63) - 1

#: The opcodes whose generated code wraps to 64 bits inline.
INT_OPS = (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
           Opcode.NEG, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL,
           Opcode.SHR)

#: Operands at and around the 64-bit boundaries, the shift widths and
#: the square root of 2**63 (whose square is just past it).
BOUNDARY_INTS = (INT_MIN, INT_MIN + 1, INT_MIN // 2, -3037000500, -64,
                 -2, -1, 0, 1, 2, 63, 64, 3037000500, INT_MAX // 2,
                 INT_MAX - 1, INT_MAX)

int64 = st.one_of(st.sampled_from(BOUNDARY_INTS), st.integers(-9, 9),
                  st.integers(INT_MIN, INT_MAX))


def alu_module() -> Module:
    """One function per integer opcode over ``(a, b)`` returning
    ``a OP b`` (``-a`` for NEG), and ``ftoi`` over one float."""
    module = Module()
    for op in INT_OPS:
        function = Function(op.name.lower(),
                            [VReg(0, INT, "a"), VReg(1, INT, "b")])
        block = function.new_block("entry")
        left, right = function.params
        result = function.new_vreg(INT, "r")
        if op is Opcode.NEG:
            block.append(Instr(op, dest=result, srcs=(left,)))
        else:
            block.append(binop(op, result, left, right))
        block.append(ret(result))
        module.add_function(function)
    function = Function("ftoi", [VReg(0, FLOAT, "x")])
    block = function.new_block("entry")
    result = function.new_vreg(INT, "r")
    block.append(Instr(Opcode.FTOI, dest=result, srcs=function.params))
    block.append(ret(result))
    module.add_function(function)
    return module


@cache
def scheduled_alu():
    return schedule_module(alu_module(), descr.DEFAULT_EPIC)


def simulated(entry: str, args: tuple):
    """``(result, None)`` or ``(None, fault text)`` of one run."""
    simulator = Simulator(scheduled_alu(), descr.DEFAULT_EPIC)
    try:
        return simulator.run(entry, args).return_value, None
    except SimError as exc:
        return None, str(exc)


def referenced(op: Opcode, values: tuple):
    """The same pair from the interpreter's ALU."""
    try:
        return apply_scalar_op(op, None, values), None
    except InterpError as exc:
        return None, str(exc)


@settings(max_examples=400, deadline=None, phases=PHASES)
@given(op=st.sampled_from(INT_OPS), left=int64, right=int64)
def test_integer_ops_match_the_alu(op, left, right):
    assert simulated(op.name.lower(), (left, right)) == \
        referenced(op, (left, right)), (op, left, right)


@pytest.mark.parametrize("op, text", [
    (Opcode.DIV, "integer division by zero"),
    (Opcode.REM, "integer remainder by zero"),
])
@settings(max_examples=20, deadline=None, phases=PHASES)
@given(numerator=int64)
def test_zero_divisor_faults(op, text, numerator):
    assert simulated(op.name.lower(), (numerator, 0)) == (None, text)


@settings(max_examples=200, deadline=None, phases=PHASES)
@given(value=st.one_of(
    st.sampled_from((float("inf"), float("-inf"), float("nan"), 9.3e18,
                     -9.3e18, 2.0 ** 63, -(2.0 ** 63), -0.5, 0.5)),
    st.floats(allow_nan=True, allow_infinity=True)))
def test_ftoi_matches_the_alu(value):
    assert simulated("ftoi", (value,)) == referenced(Opcode.FTOI, (value,))
