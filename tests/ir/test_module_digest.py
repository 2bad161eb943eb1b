"""``Module.content_digest()`` covers every field the backend reads.

The harness's content-digest memo keys a simulation on the digest of
the IR right after the hook's stage; whatever register allocation,
scheduling or the simulator can observe must therefore change the
digest, and what they cannot (instruction uids) must not.  Each case
below builds the same small module afresh, mutates one field, and
checks the digest moved.
"""

import pytest

from repro.ir.function import Function, GlobalArray, Module
from repro.ir.instr import Instr, Opcode, Rel, binop, br, call, cmpp, load, ret
from repro.ir.values import FLOAT, INT, PRED, Imm, SymRef, VReg


def build() -> Module:
    module = Module("m")
    module.add_global(GlobalArray("a", 4, INT, (1, 2)))
    module.add_global(GlobalArray("b", 2, FLOAT))

    helper = Function("helper", [])
    helper.new_block("entry").append(ret())
    other = Function("other", [])
    other.new_block("entry").append(ret())

    n = VReg(0, INT, "n")
    main = Function("main", [n], INT)
    main.alloc_stack(4, "buf")
    ptrue, pfalse = main.new_vreg(PRED), main.new_vreg(PRED)
    x = main.new_vreg(INT, "x")
    y = main.new_vreg(INT, "y")
    entry = main.new_block("entry")
    then = main.new_block("then")
    other_arm = main.new_block("else")
    entry.append(cmpp(ptrue, pfalse, Rel.LT, n, Imm(3)))
    entry.append(binop(Opcode.ADD, x, n, Imm(1), guard=ptrue))
    entry.append(load(y, SymRef("a")))
    entry.append(call(None, "helper", ()))
    entry.append(br(ptrue, then.label, other_arm.label))
    then.append(ret(x))
    other_arm.append(ret(y))

    for function in (main, helper, other):
        module.add_function(function)
    return module


def instr(module: Module, op: Opcode) -> Instr:
    return next(i for i in module.functions["main"].instructions()
                if i.op is op)


def set_field(op: Opcode, name: str, value):
    def mutate(module: Module) -> None:
        setattr(instr(module, op), name, value)
    return mutate


def swap_targets(module: Module) -> None:
    branch = instr(module, Opcode.BR)
    branch.targets = branch.targets[::-1]


def swap_blocks(module: Module) -> None:
    order = module.functions["main"].block_order
    order[1], order[2] = order[2], order[1]


def add_param(module: Module) -> None:
    module.functions["main"].params.append(VReg(9, INT, "extra"))


def set_function(name: str, value):
    def mutate(module: Module) -> None:
        setattr(module.functions["main"], name, value)
    return mutate


def bump_next_vreg(module: Module) -> None:
    module.functions["main"]._next_vreg += 1


def resize_local(module: Module) -> None:
    module.functions["main"].local_arrays["buf"] = (0, 5)


def set_global(name: str, value):
    def mutate(module: Module) -> None:
        setattr(module.globals["a"], name, value)
    return mutate


def reorder_globals(module: Module) -> None:
    module.globals = dict(reversed(module.globals.items()))


MUTATIONS = {
    "guard": set_field(Opcode.ADD, "guard", VReg(2, PRED)),
    "rel": set_field(Opcode.CMPP, "rel", Rel.LE),
    "dest2": set_field(Opcode.CMPP, "dest2", VReg(7, PRED)),
    "targets": swap_targets,
    "callee": set_field(Opcode.CALL, "callee", "other"),
    "hazard": set_field(Opcode.LOAD, "hazard", True),
    "imm_value": set_field(Opcode.ADD, "srcs", (VReg(0, INT, "n"), Imm(2))),
    "block_order": swap_blocks,
    "params": add_param,
    "return_type": set_function("return_type", FLOAT),
    "frame_words": set_function("frame_words", 5),
    "next_vreg": bump_next_vreg,
    "local_arrays": resize_local,
    "global_size": set_global("size", 5),
    "global_type": set_global("elem_type", FLOAT),
    "global_init": set_global("init", (1, 3)),
    "global_order": reorder_globals,
}


def test_build_is_deterministic():
    assert build().content_digest() == build().content_digest()


@pytest.mark.parametrize("field", sorted(MUTATIONS))
def test_each_covered_field_changes_the_digest(field):
    module = build()
    before = module.content_digest()
    MUTATIONS[field](module)
    assert module.content_digest() != before


def test_clone_renumbers_uids_and_keeps_the_digest():
    module = build()
    twin = module.clone()
    uids = [i.uid for f in module.functions.values()
            for i in f.instructions()]
    twin_uids = [i.uid for f in twin.functions.values()
                 for i in f.instructions()]
    assert set(uids).isdisjoint(twin_uids)
    assert twin.content_digest() == module.content_digest()
