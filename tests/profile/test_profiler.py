"""The profile the generated code's counters produce.

``collect_profile`` runs the module's generated code in profiling form
and reads the counts the run leaves (``ProfilingRun.control_counts``).
These tests hold its branch statistics to ``TwoBitPredictor`` fed the
same outcomes, pin that a profiling run enters no interpreter frame and
few Python frames at all, count a single-block callee's entry once
per call, refuse a malformed module rather than
profile it, and hold the range-checked integer results of
``apply_scalar_op`` to ``wrap_int`` of the exact result."""

import sys
from functools import cache

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.frontend import compile_source
from repro.ir import interp as interp_mod
from repro.ir.instr import Opcode
from repro.ir.interp import apply_scalar_op, wrap_int
from repro.ir.values import PRED, VReg
from repro.machine.branch import TwoBitPredictor
from repro.passes.pipeline import prepare
from repro.profile.profiler import collect_profile
from repro.suite.registry import get as get_benchmark

PHASES = (Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink)

INT_MIN = -(1 << 63)
INT_MAX = (1 << 63) - 1

BITS = 40


@cache
def bit_loop():
    """A loop whose body branches on ``bits[i]`` for ``i < n[0]``."""
    return compile_source(f"""
    int n[1];
    int bits[{BITS}];
    void main() {{
      int i; int s;
      s = 0;
      for (i = 0; i < n[0]; i = i + 1) {{
        if (bits[i]) {{ s = s + 1; }}
      }}
      out(s);
    }}
    """)


def test_the_decode_starts_each_branch_weakly_taken():
    assert interp_mod._WEAKLY_TAKEN == TwoBitPredictor.INIT


@settings(max_examples=60, deadline=None, phases=PHASES)
@given(bits=st.lists(st.booleans(), max_size=BITS))
def test_branch_statistics_match_the_predictor(bits):
    module = bit_loop()
    function = module.functions["main"]
    header = function.blocks["for_head1"].terminator
    body = function.blocks["for_body2"].terminator
    assert body.op is Opcode.BR and body.targets[0] == "then5"

    profile = collect_profile(
        module, {"n": [len(bits)], "bits": [int(bit) for bit in bits]})
    outcomes = {header.uid: [True] * len(bits) + [False], body.uid: bits}
    predictor = TwoBitPredictor()
    for uid, taken in outcomes.items():
        for outcome in taken:
            predictor.update(uid, outcome)
    main = profile.functions["main"]
    assert main.branch_accuracy == predictor.branch_accuracies()
    for label, branch in (("for_head1", header), ("for_body2", body)):
        taken = outcomes[branch.uid]
        assert [main.edge_counts.get((label, target), 0)
                for target in branch.targets] == \
            [sum(taken), len(taken) - sum(taken)]
    assert profile.run_result.outputs == [sum(bits)]


def test_profiling_makes_no_call_per_edge_or_branch():
    """One profiling run of ``unepic`` on its training input: no frame
    of the ``Interpreter`` (which ran it until the profile moved to
    generated code) and about 3,700 Python frames in all, nearly all
    of them translating the module once, not one per edge, branch or
    operation (54,910 profiler and predictor frames before the counters
    moved into the interpreter's decode); ``wrap_int`` only for results
    outside 64 bits (28,493 calls before the range check)."""
    bench = get_benchmark("unepic")
    module = compile_source(bench.source, bench.name)
    inputs = bench.inputs("train")
    wrap = wrap_int.__code__
    counts = {"interpreter": 0, "frames": 0, "wrap": 0}

    def hook(frame, event, _arg):
        if event == "call":
            counts["frames"] += 1
            code = frame.f_code
            if code.co_qualname.startswith("Interpreter."):
                counts["interpreter"] += 1
            elif code is wrap:
                counts["wrap"] += 1

    sys.setprofile(hook)
    try:
        profile = collect_profile(module, inputs)
    finally:
        sys.setprofile(None)
    assert profile.run_result is not None
    assert counts["interpreter"] == 0, counts
    assert counts["frames"] <= 4_500, counts
    assert counts["wrap"] <= 1_100, counts


def test_single_block_callee_counts_its_calls():
    module = compile_source("""
    int sq(int x) { return x * x; }
    void main() {
      int i;
      for (i = 0; i < 5; i = i + 1) { out(sq(i)); }
    }
    """)
    assert list(module.functions["sq"].blocks) == ["entry0"]
    profile = collect_profile(module)
    assert profile.run_result.outputs == [0, 1, 4, 9, 16]
    assert profile.functions["sq"].block_counts == {"entry0": 5}


def test_a_malformed_module_is_refused_not_profiled():
    """``collect_profile`` takes a ``SimError`` for a faulting program
    and profiles the run up to the fault.  The translation refuses
    malformed IR with ``ValueError`` instead, so a malformed module is
    never handed on with the empty profile of a faulting run."""
    def malformed(corrupt):
        module = bit_loop().clone()
        main = module.functions["main"]
        corrupt(next(block for block in main.blocks.values()
                     if block.instrs[-1].op is Opcode.RET))
        return module

    inputs = {"n": [3], "bits": [1, 0, 1]}
    guarded = malformed(lambda block: setattr(
        block.instrs[-1], "guard", VReg(999, PRED, "p")))
    with pytest.raises(ValueError, match="one unguarded terminator"):
        collect_profile(guarded, inputs)
    unterminated = malformed(lambda block: block.instrs.pop())
    with pytest.raises(ValueError):
        prepare(unterminated, inputs)


BOUNDARY_INTS = (INT_MIN, INT_MIN + 1, INT_MIN // 2, -3037000500, -64,
                 -2, -1, 0, 1, 2, 63, 64, 3037000500, INT_MAX // 2,
                 INT_MAX - 1, INT_MAX)

int64 = st.one_of(st.sampled_from(BOUNDARY_INTS), st.integers(-9, 9),
                  st.integers(INT_MIN, INT_MAX))

EXACT = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.NEG: lambda a, b: -a,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: a << (b & 63),
    Opcode.SHR: lambda a, b: a >> (b & 63),
}


@settings(max_examples=400, deadline=None, phases=PHASES)
@given(op=st.sampled_from(sorted(EXACT, key=lambda op: op.name)),
       left=int64, right=int64)
def test_integer_results_equal_the_wrapped_exact_result(op, left, right):
    values = (left,) if op is Opcode.NEG else (left, right)
    result = apply_scalar_op(op, None, values)
    assert type(result) is int
    assert result == wrap_int(EXACT[op](left, right)), (op, left, right)


@settings(max_examples=200, deadline=None, phases=PHASES)
@given(value=st.one_of(
    st.sampled_from((9.3e18, -9.3e18, 2.0 ** 63, -(2.0 ** 63),
                     2.0 ** 64, -0.5, 0.5)),
    st.floats(allow_nan=False, allow_infinity=False)))
def test_ftoi_equals_the_wrapped_truncation(value):
    assert apply_scalar_op(Opcode.FTOI, None, (value,)) == \
        wrap_int(int(value))
