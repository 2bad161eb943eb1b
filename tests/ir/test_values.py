"""Value identity: registers hash once over ints only, enum members
hash by identity — and nothing else about them moved."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ir.instr import FUClass, Opcode, Rel
from repro.ir.values import FLOAT, INT, PRED, IRType, PReg, VReg

SRC = Path(__file__).resolve().parents[2] / "src"


class TestRegisterIdentity:
    def test_equality_still_compares_every_field(self):
        assert VReg(3, INT, "x") == VReg(3, INT, "x")
        assert VReg(3, INT, "x") != VReg(3, INT, "y")
        assert VReg(3, INT, "x") != VReg(3, FLOAT, "x")
        assert VReg(3, INT, "x") != VReg(4, INT, "x")
        assert PReg(3, INT) == PReg(3, INT)
        assert PReg(3, INT) != PReg(3, PRED)
        assert VReg(3, INT) != PReg(3, INT)

    def test_equal_registers_hash_equal(self):
        assert hash(VReg(3, INT, "x")) == hash(VReg(3, INT, "x"))
        assert hash(PReg(3, FLOAT)) == hash(PReg(3, FLOAT))
        table = {VReg(3, INT, "x"): "x", VReg(3, INT, "y"): "y",
                 PReg(3, INT): "p"}
        assert table[VReg(3, INT, "x")] == "x"
        assert table[VReg(3, INT, "y")] == "y"
        assert table[PReg(3, INT)] == "p"

    def test_text_forms_unchanged(self):
        assert str(VReg(3, INT, "x")) == "%r3.x"
        assert str(VReg(4, FLOAT)) == "%f4"
        assert str(VReg(5, PRED, "pt")) == "%p5.pt"
        assert str(PReg(7, INT)) == "R7"
        assert repr(VReg(3, INT, "x")) == \
            "VReg(uid=3, vtype=IRType.INT, name='x')"
        assert repr(PReg(7, PRED)) == "PReg(index=7, vtype=IRType.PRED)"

    def test_registers_sort_by_uid_not_by_hash(self):
        regs = {VReg(uid, INT) for uid in (9, 2, 40, 7)}
        assert [reg.uid for reg in sorted(regs, key=lambda r: r.uid)] == \
            [2, 7, 9, 40]
        with pytest.raises(TypeError):
            sorted(regs)  # no ordering of their own, as before

    @pytest.mark.parametrize("reg", [VReg(3, INT, "x"), PReg(3, FLOAT)])
    def test_pickle_and_deepcopy_round_trip(self, reg):
        for twin in (pickle.loads(pickle.dumps(reg)), copy.deepcopy(reg),
                     copy.copy(reg)):
            assert twin == reg
            assert hash(twin) == hash(reg)
            assert str(twin) == str(reg)
        keyed = pickle.loads(pickle.dumps({reg: 1}))
        assert keyed[reg] == 1

    def test_registers_stay_frozen(self):
        with pytest.raises(AttributeError):
            VReg(3, INT).uid = 4
        with pytest.raises(TypeError):
            VReg(3, INT, "x", 0)  # the hash is not a constructor field

    def test_hash_is_the_same_in_every_process(self):
        """Ints only go into the hash, so it cannot depend on
        ``PYTHONHASHSEED`` — a pickled register stays a valid key in
        whichever process loads it."""
        script = (
            "from repro.ir.values import FLOAT, INT, PRED, PReg, VReg\n"
            "print(hash(VReg(3, INT, 'x')), hash(VReg(70, PRED, 'pt')),"
            " hash(PReg(5, FLOAT)))\n")
        seen = {
            subprocess.run(
                [sys.executable, "-c", script], check=True, timeout=60,
                capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=str(SRC),
                         PYTHONHASHSEED=seed),
            ).stdout
            for seed in ("1", "20261002")
        }
        assert seen == {
            f"{hash(VReg(3, INT, 'x'))} {hash(VReg(70, PRED, 'pt'))} "
            f"{hash(PReg(5, FLOAT))}\n"}


class TestEnumIdentity:
    @pytest.mark.parametrize("enum_class", [IRType, Opcode, Rel, FUClass])
    def test_members_hash_by_identity(self, enum_class):
        assert enum_class.__hash__ is object.__hash__
        for member in enum_class:
            assert {member: 1}[member] == 1

    @pytest.mark.parametrize("enum_class", [IRType, Opcode, Rel, FUClass])
    def test_hashing_a_member_enters_no_python_frame(self, enum_class):
        frames = []
        members = list(enum_class)
        sys.setprofile(lambda frame, event, arg:
                       frames.append(event) if event == "call" else None)
        try:
            for member in members:
                hash(member)
        finally:
            sys.setprofile(None)
        assert frames == []

    @pytest.mark.parametrize("enum_class", [IRType, Opcode, Rel, FUClass])
    def test_members_unpickle_to_the_singleton(self, enum_class):
        for member in enum_class:
            assert pickle.loads(pickle.dumps(member)) is member
            assert copy.deepcopy(member) is member
            assert enum_class(member.value) is member
