"""Property tests pinning MiniC's 64-bit integer semantics.

The interpreter's scalar ALU (:func:`repro.ir.interp.apply_scalar_op`)
is the reference the simulator's generated code is tested against, so
these properties pin the semantics both engines execute: two's-
complement wrapping, C-style truncating division/remainder (including
INT_MIN and negative operands), and 6-bit shift masking.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import interp as interp_mod
from repro.ir.instr import Opcode
from repro.ir.interp import InterpError, apply_scalar_op, int_div, int_rem, wrap_int
from repro.machine import sim as sim_mod

INT_MIN = -(1 << 63)
INT_MAX = (1 << 63) - 1

any_int = st.integers(min_value=-(1 << 70), max_value=1 << 70)
int64 = st.integers(min_value=INT_MIN, max_value=INT_MAX)
nonzero64 = int64.filter(lambda value: value != 0)


def test_simulator_shares_the_interpreter_alu():
    """The simulator's generated code wraps an out-of-range integer
    result with the interpreter's own ``wrap_int``; what it computes
    inline is pinned against ``apply_scalar_op`` by
    ``tests/machine/test_sim_inline_differential.py``."""
    assert sim_mod._STATIC_NAMESPACE["wi"] is interp_mod.wrap_int


class TestWrapInt:
    @given(any_int)
    @settings(max_examples=200, deadline=None)
    def test_range_and_congruence(self, value):
        wrapped = wrap_int(value)
        assert INT_MIN <= wrapped <= INT_MAX
        assert (wrapped - value) % (1 << 64) == 0

    @given(any_int)
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, value):
        assert wrap_int(wrap_int(value)) == wrap_int(value)

    def test_boundaries(self):
        assert wrap_int(INT_MAX) == INT_MAX
        assert wrap_int(INT_MAX + 1) == INT_MIN
        assert wrap_int(INT_MIN - 1) == INT_MAX
        assert wrap_int(1 << 64) == 0


class TestTruncatingDivision:
    @given(int64, nonzero64)
    @settings(max_examples=300, deadline=None)
    def test_euclid_identity(self, numerator, denominator):
        quotient = int_div(numerator, denominator)
        remainder = int_rem(numerator, denominator)
        assert numerator == quotient * denominator + remainder

    @given(int64, nonzero64)
    @settings(max_examples=300, deadline=None)
    def test_remainder_sign_and_magnitude(self, numerator, denominator):
        remainder = int_rem(numerator, denominator)
        assert abs(remainder) < abs(denominator)
        if remainder != 0:
            assert (remainder < 0) == (numerator < 0)

    @given(int64, nonzero64)
    @settings(max_examples=300, deadline=None)
    def test_truncates_toward_zero(self, numerator, denominator):
        quotient = int_div(numerator, denominator)
        exact = abs(numerator) // abs(denominator)
        assert abs(quotient) == exact

    def test_negative_operand_cases(self):
        assert int_div(7, -2) == -3
        assert int_div(-7, 2) == -3
        assert int_div(-7, -2) == 3
        assert int_rem(7, -2) == 1
        assert int_rem(-7, 2) == -1
        assert int_rem(-7, -2) == -1

    def test_int_min_overflow_wraps_through_alu(self):
        # INT_MIN / -1 overflows in C; the shared ALU wraps it back to
        # INT_MIN, making it defined (and identical) in both engines.
        assert int_div(INT_MIN, -1) == 1 << 63  # raw helper overflows
        assert apply_scalar_op(Opcode.DIV, None, (INT_MIN, -1)) == INT_MIN
        assert apply_scalar_op(Opcode.REM, None, (INT_MIN, -1)) == 0


class TestScalarALU:
    @given(int64, int64)
    @settings(max_examples=200, deadline=None)
    def test_add_sub_mul_wrap(self, left, right):
        assert apply_scalar_op(Opcode.ADD, None, (left, right)) == \
            wrap_int(left + right)
        assert apply_scalar_op(Opcode.SUB, None, (left, right)) == \
            wrap_int(left - right)
        assert apply_scalar_op(Opcode.MUL, None, (left, right)) == \
            wrap_int(left * right)

    @given(int64, nonzero64)
    @settings(max_examples=200, deadline=None)
    def test_div_rem_match_helpers(self, numerator, denominator):
        assert apply_scalar_op(Opcode.DIV, None,
                               (numerator, denominator)) == \
            wrap_int(int_div(numerator, denominator))
        assert apply_scalar_op(Opcode.REM, None,
                               (numerator, denominator)) == \
            wrap_int(int_rem(numerator, denominator))

    @given(int64, st.integers(min_value=0, max_value=1 << 16))
    @settings(max_examples=200, deadline=None)
    def test_shifts_mask_to_six_bits(self, value, amount):
        assert apply_scalar_op(Opcode.SHL, None, (value, amount)) == \
            wrap_int(value << (amount & 63))
        assert apply_scalar_op(Opcode.SHR, None, (value, amount)) == \
            wrap_int(value >> (amount & 63))

    @given(int64)
    @settings(max_examples=50, deadline=None)
    def test_division_by_zero_faults(self, numerator):
        with pytest.raises(InterpError):
            apply_scalar_op(Opcode.DIV, None, (numerator, 0))
        with pytest.raises(InterpError):
            apply_scalar_op(Opcode.REM, None, (numerator, 0))
