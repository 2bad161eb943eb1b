"""List-scheduler tests: dependence DAG construction, resource limits,
latency honouring, and priority behaviour."""

from collections import defaultdict

from repro.frontend import compile_source
from repro.ir.block import Block
from repro.ir.function import Function
from repro.ir.instr import (
    FUClass,
    Opcode,
    binop,
    jmp,
    load,
    mov,
    out,
    ret,
    store,
)
from repro.ir.values import INT, PRED, Imm, VReg
from repro.machine.descr import DEFAULT_EPIC
from repro.passes import hyperblock, schedule
from repro.passes.schedule import (
    build_dag,
    latency_weighted_depth,
    schedule_block,
    schedule_module,
)
from tests.ir.test_liveness_property import compile_every_program


def vr(uid, vtype=INT, name=""):
    return VReg(uid, vtype, name)


def edges_of(dag):
    pairs = set()
    for index, succs in enumerate(dag.succs):
        for succ, latency in succs:
            pairs.add((index, succ, latency))
    return pairs


class TestDAG:
    def test_raw_edge_carries_producer_latency(self):
        a, b, c = vr(0), vr(1), vr(2)
        block = Block("b", [
            binop(Opcode.MUL, a, b, c),   # latency 3
            binop(Opcode.ADD, c, a, b),   # consumes a
            ret(),
        ])
        dag = build_dag(block, DEFAULT_EPIC)
        assert (0, 1, 3) in edges_of(dag)

    def test_war_edge_zero_latency(self):
        a, b, c = vr(0), vr(1), vr(2)
        block = Block("b", [
            binop(Opcode.ADD, c, a, b),   # reads a
            mov(a, Imm(1)),               # writes a (WAR)
            ret(),
        ])
        dag = build_dag(block, DEFAULT_EPIC)
        assert (0, 1, 0) in edges_of(dag)

    def test_waw_ordering(self):
        a = vr(0)
        block = Block("b", [mov(a, Imm(1)), mov(a, Imm(2)), ret()])
        dag = build_dag(block, DEFAULT_EPIC)
        assert any(src == 0 and dst == 1 for src, dst, _ in edges_of(dag))

    def test_store_load_ordering(self):
        addr, value, dest = vr(0), vr(1), vr(2)
        block = Block("b", [
            store(addr, value),
            load(dest, addr),
            ret(),
        ])
        dag = build_dag(block, DEFAULT_EPIC)
        assert (0, 1, 1) in edges_of(dag)

    def test_loads_not_ordered_with_each_other(self):
        addr, d1, d2 = vr(0), vr(1), vr(2)
        block = Block("b", [
            load(d1, addr),
            load(d2, addr),
            ret(),
        ])
        dag = build_dag(block, DEFAULT_EPIC)
        assert not any(src == 0 and dst == 1 for src, dst, _ in edges_of(dag))

    def test_out_ordering_preserved(self):
        a, b = vr(0), vr(1)
        block = Block("b", [out(a), out(b), ret()])
        dag = build_dag(block, DEFAULT_EPIC)
        assert any(src == 0 and dst == 1 for src, dst, _ in edges_of(dag))

    def test_everything_precedes_terminator(self):
        a, b, c = vr(0), vr(1), vr(2)
        block = Block("b", [
            binop(Opcode.ADD, a, b, c),
            mov(b, Imm(3)),
            ret(),
        ])
        dag = build_dag(block, DEFAULT_EPIC)
        terminator_preds = {src for src, dst, _ in edges_of(dag) if dst == 2}
        assert terminator_preds == {0, 1}

    def test_guarded_def_reads_its_destination(self):
        x = vr(0)
        guard = vr(9, PRED)
        block = Block("b", [
            mov(x, Imm(1)),
            mov(x, Imm(2), guard=guard),  # reads old x implicitly
            out(x),
            ret(),
        ])
        dag = build_dag(block, DEFAULT_EPIC)
        # instr0 -> instr1 must be ordered (RAW through the guard
        # semantics), and instr1 -> instr2.
        assert any(s == 0 and d == 1 for s, d, _ in edges_of(dag))
        assert any(s == 1 and d == 2 for s, d, _ in edges_of(dag))

    def test_critical_path(self):
        a, b, c = vr(0), vr(1), vr(2)
        block = Block("b", [
            binop(Opcode.MUL, a, b, c),   # 3 cycles
            binop(Opcode.ADD, c, a, a),   # depends on mul
            ret(),
        ])
        dag = build_dag(block, DEFAULT_EPIC)
        depths = dag.critical_path()
        assert depths[0] >= 4  # 3 (mul) + 1 (add)
        assert dag.height == max(depths)


class TestScheduling:
    def test_respects_fu_limits(self):
        # 10 independent loads on a 2-memory-unit machine.
        instrs = [load(vr(i + 1), vr(0)) for i in range(10)]
        block = Block("b", instrs + [ret()])
        scheduled = schedule_block(block, DEFAULT_EPIC)
        for bundle in scheduled.bundles:
            by_class = defaultdict(int)
            for instr in bundle:
                by_class[instr.fu_class] += 1
            assert by_class[FUClass.MEM] <= DEFAULT_EPIC.mem_units
            assert len(bundle) <= DEFAULT_EPIC.issue_width

    def test_respects_issue_width(self):
        instrs = [mov(vr(i + 1), Imm(i)) for i in range(20)]
        block = Block("b", instrs + [ret()])
        scheduled = schedule_block(block, DEFAULT_EPIC)
        assert all(len(b) <= DEFAULT_EPIC.issue_width
                   for b in scheduled.bundles)

    def test_latency_separation(self):
        a, b, c = vr(0), vr(1), vr(2)
        block = Block("b", [
            mov(b, Imm(2)),
            mov(c, Imm(3)),
            binop(Opcode.MUL, a, b, c),
            binop(Opcode.ADD, b, a, c),   # must wait 3 cycles after mul
            ret(),
        ])
        scheduled = schedule_block(block, DEFAULT_EPIC)
        cycle_of = {}
        for cycle, bundle in enumerate(scheduled.bundles):
            for instr in bundle:
                cycle_of[instr.uid] = cycle
        mul = block.instrs[2]
        add = block.instrs[3]
        assert cycle_of[add.uid] >= cycle_of[mul.uid] + 3

    def test_terminator_in_last_bundle(self):
        module = compile_source("""
        void main() {
          int i;
          for (i = 0; i < 3; i = i + 1) { out(i); }
        }
        """)
        scheduled = schedule_module(module, DEFAULT_EPIC)
        for func in scheduled.functions.values():
            for label in func.block_order:
                block = func.blocks[label]
                flat = block.flat_instructions()
                assert flat[-1].is_terminator

    def test_all_instructions_scheduled_once(self):
        module = compile_source("""
        int a[16];
        void main() {
          int i;
          for (i = 0; i < 16; i = i + 1) { a[i] = i * 3; }
          out(a[7]);
        }
        """)
        scheduled = schedule_module(module, DEFAULT_EPIC)
        func = module.functions["main"]
        for label in func.block_order:
            want = {instr.uid for instr in func.blocks[label].instrs}
            got = [instr.uid for instr
                   in scheduled.functions["main"].blocks[label]
                   .flat_instructions()]
            assert set(got) == want
            assert len(got) == len(want)

    def test_ilp_is_exploited(self):
        # 8 independent adds: a serial machine needs 8 cycles; 4 int
        # units need 2 (plus the terminator cycle).
        instrs = [binop(Opcode.ADD, vr(i + 10), vr(0), vr(1))
                  for i in range(8)]
        block = Block("b", instrs + [ret()])
        scheduled = schedule_block(block, DEFAULT_EPIC)
        assert scheduled.cycles <= 3

    def test_custom_priority_changes_order(self):
        # Reverse priority prefers later instructions first.
        instrs = [mov(vr(i + 1), Imm(i)) for i in range(8)]
        block = Block("b", instrs + [ret()])
        default = schedule_block(block, DEFAULT_EPIC)
        reverse = schedule_block(
            block, DEFAULT_EPIC, priority=lambda i, dag: float(i)
        )
        first_default = default.bundles[0].instrs[0].uid
        first_reverse = reverse.bundles[0].instrs[0].uid
        assert first_default != first_reverse

    def test_latency_weighted_depth_hook(self):
        a, b, c = vr(0), vr(1), vr(2)
        block = Block("b", [
            binop(Opcode.MUL, a, b, c),
            binop(Opcode.ADD, c, a, a),
            ret(),
        ])
        dag = build_dag(block, DEFAULT_EPIC)
        assert latency_weighted_depth(0, dag) > latency_weighted_depth(1, dag)

    def test_empty_block(self):
        scheduled = schedule_block(Block("empty"), DEFAULT_EPIC)
        assert scheduled.cycles == 0


def reference_build_dag(block, machine):
    """``build_dag``'s edges with the last-def and uses-since-def
    tables keyed by register objects; returns (succs, preds, latency)."""
    instrs = block.instrs
    succs = [[] for _ in instrs]
    preds = [[] for _ in instrs]
    latency = [machine.latency(instr) for instr in instrs]
    edges = set()

    def add_edge(src, dst, lat):
        if src == dst:
            return
        if (src, dst) in edges:
            for position, (existing, existing_lat) in enumerate(succs[src]):
                if existing == dst and lat > existing_lat:
                    succs[src][position] = (dst, lat)
                    for ppos, (pexisting, _plat) in enumerate(preds[dst]):
                        if pexisting == src:
                            preds[dst][ppos] = (src, lat)
            return
        edges.add((src, dst))
        succs[src].append((dst, lat))
        preds[dst].append((src, lat))

    last_def = {}
    uses_since_def = defaultdict(list)
    last_store = last_mem = last_side_effect = None
    for index, instr in enumerate(instrs):
        reads = list(instr.reads())
        writes = list(instr.writes())
        if instr.guard is not None:
            reads.extend(writes)
        for reg in reads:
            producer = last_def.get(reg)
            if producer is not None:
                add_edge(producer, index, latency[producer])
            uses_since_def[reg].append(index)
        for reg in writes:
            producer = last_def.get(reg)
            if producer is not None:
                add_edge(producer, index, 0)
            for user in uses_since_def[reg]:
                add_edge(user, index, 0)
            last_def[reg] = index
            uses_since_def[reg] = []
        if instr.op is Opcode.LOAD:
            if last_store is not None:
                add_edge(last_store, index, 1)
            last_mem = index
        elif instr.op is Opcode.STORE:
            if last_mem is not None:
                add_edge(last_mem, index,
                         1 if instrs[last_mem].op is Opcode.STORE else 0)
            if last_store is not None:
                add_edge(last_store, index, 1)
            last_store = index
            last_mem = index
        elif instr.op is Opcode.PREFETCH:
            if last_store is not None:
                add_edge(last_store, index, 0)
        if instr.op in (Opcode.CALL, Opcode.OUT):
            if last_side_effect is not None:
                add_edge(last_side_effect, index, 1)
            if instr.op is Opcode.CALL:
                if last_mem is not None:
                    add_edge(last_mem, index, 0)
                last_store = index
                last_mem = index
            last_side_effect = index
        if instr.is_terminator:
            for other in range(index):
                add_edge(other, index, 0)
    return succs, preds, latency


def test_build_dag_equals_the_register_keyed_tables(monkeypatch):
    """Every DAG the compiler builds over ``compile_every_program`` —
    the hyperblock pass's path heights on virtual registers, the
    scheduler's blocks on physical ones — has the edges, in the same
    order, that register-keyed tables give."""
    kinds = set()

    def checked(block, machine):
        dag = build_dag(block, machine)
        assert (dag.succs, dag.preds, dag.latency) \
            == reference_build_dag(block, machine), block.label
        kinds.update(reg.__class__.__name__ for instr in block.instrs
                     for reg in instr.reads())
        return dag

    monkeypatch.setattr(schedule, "build_dag", checked)
    monkeypatch.setattr(hyperblock, "build_dag", checked)
    compile_every_program()
    assert kinds == {"VReg", "PReg"}
