"""The register analyses' backward walks against liveness by definition.

``dead_definitions`` and the allocator's ``_build_ranges`` each walk a
block once, backward, with a live set of register uids.  Two oracles
hold them to what liveness means:

* on random straight-line blocks (some writes guarded), a brute force
  that looks ahead from every instruction for a read;
* on real programs as the backend receives them (if-converted suite
  programs and the corpus), the per-instruction definition
  (:func:`reference_live_after`: a copy of the live set after every
  instruction), called beside every ``dead_definitions`` the pipeline
  makes.

``block_use_def`` walks with uid-keyed dicts; every call the compiler
makes over :func:`compile_every_program` (all 52 suite programs, the
corpus and random functions) is held to the register-set walk it
replaced (:func:`reference_block_use_def`), set iteration order
included.  The cleanup, hyperblock and scheduler tests drive their own
reference oracles with the same helper.
"""

import json
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.frontend import compile_source
from repro.ir.function import Function
from repro.ir.instr import Opcode, Rel, binop, cmpp, mov, out, ret
from repro.ir import liveness
from repro.ir.liveness import analyze, block_use_def, dead_definitions
from repro.ir.values import INT, PRED, Imm, VReg
from repro.machine.descr import DEFAULT_EPIC
from repro.passes import cleanup
from repro.passes.hyperblock import form_hyperblocks, impact_priority
from repro.passes.pipeline import (
    CompilerOptions,
    compile_backend,
    prepare,
    run_prefix,
)
from repro.passes.regalloc import allocation_seed
from repro.profile.profiler import FunctionProfile
from repro.suite import HYPERBLOCK_TRAINING_SET, all_benchmarks, get

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def random_function(seed: int, length: int) -> Function:
    """One straight-line block over six integer registers: adds,
    register copies, outputs and the frontend's increment idiom
    (``t = r + 1``, an output, ``r = mov t``, with ``t`` read once).  A
    write to a register already defined is guarded, two times in five,
    by one of the two predicates a ``cmpp`` defines at the top."""
    rng = random.Random(seed)
    func = Function("f", [])
    regs = [func.new_vreg(INT, f"r{i}") for i in range(6)]
    preds = [func.new_vreg(PRED, "p"), func.new_vreg(PRED, "q")]
    entry = func.new_block("entry")
    for reg in regs[:3]:
        entry.append(mov(reg, Imm(rng.randrange(10))))
    entry.append(cmpp(preds[0], preds[1], Rel.LT, regs[0], Imm(5)))
    defined = set(regs[:3])

    def guard_for(dest):
        if dest in defined and rng.random() < 0.4:
            return rng.choice(preds)
        return None

    def any_defined():
        return rng.choice(sorted(defined, key=lambda r: r.uid))

    for _ in range(length):
        roll = rng.random()
        if roll < 0.45:
            sources = rng.sample(sorted(defined, key=lambda r: r.uid),
                                 k=min(2, len(defined)))
            dest = rng.choice(regs)
            left = sources[0]
            right = sources[-1]
            entry.append(binop(Opcode.ADD, dest, left, right,
                               guard=guard_for(dest)))
            defined.add(dest)
        elif roll < 0.6:
            source = any_defined()
            dest = rng.choice(regs)
            entry.append(mov(dest, source, guard=guard_for(dest)))
            defined.add(dest)
        elif roll < 0.7:
            target = any_defined()
            temp = func.new_vreg(INT, "t")
            entry.append(binop(Opcode.ADD, temp, target, Imm(1)))
            entry.append(out(any_defined()))
            entry.append(mov(target, temp))
        else:
            entry.append(out(any_defined()))
    entry.append(ret())
    return func


def brute_force_live_after(block):
    """A register is live after instruction i iff some instruction
    j > i reads it before any unguarded write at k with i < k < j."""
    result = {}
    instrs = block.instrs
    for i, instr in enumerate(instrs):
        live = set()
        for candidate in {r for later in instrs[i + 1:]
                          for r in later.reads()}:
            for j in range(i + 1, len(instrs)):
                later = instrs[j]
                if candidate in later.reads():
                    live.add(candidate)
                    break
                if candidate in later.writes() and later.guard is None:
                    break
        result[instr.uid] = live
    return result


def reference_block_use_def(function):
    """``block_use_def`` as a walk over sets of registers, hashing a
    register at every operand."""
    result = {}
    for label in function.block_order:
        use = set()
        defs = set()
        for instr in function.blocks[label].instrs:
            for reg in instr.reads():
                if isinstance(reg, VReg) and reg not in defs:
                    use.add(reg)
            for reg in instr.writes():
                if isinstance(reg, VReg) and instr.guard is None:
                    defs.add(reg)
                elif isinstance(reg, VReg):
                    # A guarded def reads the old value implicitly.
                    if reg not in defs:
                        use.add(reg)
                    defs.add(reg)
        result[label] = (use, defs)
    return result


def reference_live_after(function):
    """Registers live after each instruction, keyed by instruction uid:
    a copy of the live set at every step of a backward walk from each
    block's ``live_out``."""
    liveness = analyze(function)
    live_after = {}
    for label in function.block_order:
        live = set(liveness[label].live_out)
        for instr in reversed(function.blocks[label].instrs):
            live_after[instr.uid] = set(live)
            for reg in instr.writes():
                if isinstance(reg, VReg) and instr.guard is None:
                    live.discard(reg)
            for reg in instr.reads():
                if isinstance(reg, VReg):
                    live.add(reg)
    return live_after


def is_dead(instr, live_after):
    """An instruction without side effects none of whose written
    virtual registers is live after it."""
    written = [reg for reg in instr.writes() if isinstance(reg, VReg)]
    return (bool(written) and not instr.has_side_effects
            and not any(reg in live_after for reg in written))


def reference_dead_definitions(function):
    live_after = reference_live_after(function)
    return [(label, index)
            for label in function.block_order
            for index, instr in enumerate(function.blocks[label].instrs)
            if is_dead(instr, live_after[instr.uid])]


def interference_from(function, live_after):
    """uid -> uids: a register written by an instruction interferes with
    each other register of its class live after it."""
    edges = {}
    for instr in function.instructions():
        for written in instr.writes():
            for live in live_after[instr.uid]:
                if live != written and live.vtype is written.vtype:
                    edges.setdefault(written.uid, set()).add(live.uid)
                    edges.setdefault(live.uid, set()).add(written.uid)
    return edges


specs = st.tuples(
    st.integers(min_value=0, max_value=5_000),
    st.integers(min_value=1, max_value=30),
)


class TestLivenessAgainstBruteForce:
    @settings(max_examples=80, deadline=None)
    @given(specs)
    def test_live_after_matches(self, spec):
        """Both walks see the brute force's live-after sets: the dead
        instructions and the interference graph follow from them."""
        seed, length = spec
        func = random_function(seed, length)
        block = func.entry
        expected = brute_force_live_after(block)
        assert dead_definitions(func) == [
            (block.label, index) for index, instr in enumerate(block.instrs)
            if is_dead(instr, expected[instr.uid])]
        edges = interference_from(func, expected)
        interference = allocation_seed(func).interference
        assert set(edges) <= set(interference)
        for uid, neighbours in interference.items():
            assert neighbours == edges.get(uid, set()), uid

    @settings(max_examples=40, deadline=None)
    @given(specs)
    def test_straightline_live_out_empty(self, spec):
        seed, length = spec
        func = random_function(seed, length)
        liveness = analyze(func)
        assert liveness["entry0"].live_out == set()
        assert liveness["entry0"].live_in == set()


def corpus_sources():
    """(name, source, training inputs) of every corpus program."""
    for path in sorted(CORPUS_DIR.glob("*.mc")):
        inputs = path.with_suffix("").with_suffix(".inputs.json")
        yield (path.stem, path.read_text(),
               json.loads(inputs.read_text()) if inputs.exists() else {})


def backend_sources():
    """(name, source, training inputs) of the if-converted suite
    programs and every corpus program."""
    for name in HYPERBLOCK_TRAINING_SET:
        bench = get(name)
        yield name, bench.source, bench.inputs("train")
    yield from corpus_sources()


def seeded_priority(seed):
    """A hyperblock priority that scores at random in [-1, 2), yet is
    a pure function of ``seed`` and the feature environment, so two
    formations over the same regions make the same decisions."""
    def priority(env):
        return random.Random(f"{seed}:{sorted(env.items())}").uniform(-1, 2)
    return priority


def compile_every_program(random_functions: int = 40):
    """Drive the compiler over everything the uid-keyed passes must
    agree on: each of the 52 suite programs and the corpus is prepared
    and its backend compiled under Equation 1 and under
    :func:`seeded_priority`; then ``random_functions`` of
    :func:`random_function` go through the scalar cleanup and
    if-conversion under both priorities."""
    programs = [(name, bench.source, bench.inputs("train"))
                for name, bench in sorted(all_benchmarks().items())]
    assert len(programs) == 52
    for name, source, inputs in [*programs, *corpus_sources()]:
        prepared = prepare(compile_source(source, name), inputs)
        compile_backend(prepared)
        compile_backend(prepared, CompilerOptions(
            hyperblock_priority=seeded_priority(name)))
    for seed in range(random_functions):
        for priority in (impact_priority, seeded_priority(seed)):
            function = random_function(seed, 1 + seed % 30)
            form_hyperblocks(function, DEFAULT_EPIC, FunctionProfile(),
                             priority)
            cleanup.cleanup_function(function)


def allocator_inputs(options: CompilerOptions):
    """(name, module) for each of :func:`backend_sources`, prepared and
    run up to the register allocator under ``options``."""
    for name, source, inputs in backend_sources():
        prepared = prepare(compile_source(source, name), inputs, options)
        module, _report = run_prefix(prepared, options, "regalloc")
        yield name, module


def test_dead_definitions_equal_the_definition(monkeypatch):
    """Every ``dead_definitions`` call that preparing and if-converting
    the programs makes returns what the per-instruction definition
    gives, in the same (label, index) order.  If-conversion leaves
    guarded writes behind, so the rule that they kill nothing is
    exercised."""
    calls = []

    def checked(function):
        dead = dead_definitions(function)
        assert dead == reference_dead_definitions(function), function.name
        calls.append(bool(dead))
        return dead

    monkeypatch.setattr(cleanup, "dead_definitions", checked)
    guarded_writes = 0
    for _name, module in allocator_inputs(CompilerOptions()):
        guarded_writes += sum(
            instr.guard is not None and bool(instr.writes())
            for function in module.functions.values()
            for instr in function.instructions())
    assert guarded_writes > 0
    assert any(calls) and not all(calls)


def test_block_use_def_equals_the_register_set_walk(monkeypatch):
    """Every ``block_use_def`` call the compiler makes over
    :func:`compile_every_program` returns, block by block, the same
    register objects in the same set iteration order as the walk over
    register sets.  ``BlockLiveness`` hands these sets on, and the
    allocator's ranges and the verifier iterate them."""
    calls = []

    def objects(sets):
        return [[id(reg) for reg in regs] for regs in sets]

    def checked(function):
        got = block_use_def(function)
        expected = reference_block_use_def(function)
        assert list(got) == list(expected), function.name
        for label, sets in got.items():
            assert sets == expected[label], (function.name, label)
            assert objects(sets) == objects(expected[label]), (
                function.name, label)
        calls.append(any(instr.guard is not None and instr.writes()
                         for instr in function.instructions()))
        return got

    monkeypatch.setattr(liveness, "block_use_def", checked)
    compile_every_program()
    assert any(calls) and not all(calls)
