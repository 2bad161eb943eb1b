"""List scheduling.

Converts each block into VLIW bundles under the machine's functional-
unit and issue-width constraints.  The default priority function is the
classic *latency-weighted depth* of Gibbons & Muchnick (the paper's
Section 2 example)::

    P(i) = latency(i)                       if i has no dependents
    P(i) = latency(i) + max_j P(j)          over dependents j

The priority is pluggable (``priority=``) both because the paper frames
list scheduling as a canonical priority-function site and because the
ablation benches evolve it.

Dependence edges within a block:

* RAW  def -> use, latency = static latency of the producer;
* WAR  use -> def, latency 0 (same-cycle allowed; bundle order
  preserves original order so sequential semantics hold);
* WAW  def -> def, latency 0 with order preserved;
* memory: store->load and store->store 1 cycle, load->store 0;
* calls and ``out`` are ordered with all memory/side effects;
* every instruction precedes the terminator (latency 0, so the branch
  may share the final bundle).

Guarded (predicated) instructions read their guard and implicitly read
their destination (a squashed write preserves the old value), which the
edge builder accounts for.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from repro.ir.block import Block
from repro.ir.function import Function, Module
from repro.ir.instr import FUClass, Instr, Opcode
from repro.ir.values import PReg, VReg
from repro.machine.descr import MachineDescription
from repro.machine.vliw import (
    Bundle,
    ScheduledBlock,
    ScheduledFunction,
    ScheduledModule,
)

#: priority hook signature: (instr_index, dag) -> value; higher first.
SchedulePriority = Callable[[int, "BlockDAG"], float]


@dataclass(eq=False)
class BlockDAG:
    """Dependence DAG over one block's instructions.

    ``eq=False`` keeps identity hashing so priority hooks can cache
    per-DAG feature tables in weak mappings."""

    instrs: list[Instr]
    #: successor edges: index -> list of (succ_index, latency)
    succs: list[list[tuple[int, int]]]
    preds: list[list[tuple[int, int]]]
    latency: list[int]

    def critical_path(self) -> list[int]:
        """Latency-weighted depth of each instruction (to DAG leaves)."""
        depth = [0] * len(self.instrs)
        for index in range(len(self.instrs) - 1, -1, -1):
            best = 0
            for succ, _edge_latency in self.succs[index]:
                best = max(best, depth[succ])
            depth[index] = self.latency[index] + best
        return depth

    @property
    def height(self) -> int:
        """The block's dependence height (max latency-weighted depth)."""
        depths = self.critical_path()
        return max(depths, default=0)


def build_dag(block: Block, machine: MachineDescription) -> BlockDAG:
    """Construct the dependence DAG for one block."""
    instrs = block.instrs
    count = len(instrs)
    succs: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    preds: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    latency = [machine.latency(instr) for instr in instrs]

    edges: set[tuple[int, int]] = set()

    def add_edge(src: int, dst: int, lat: int) -> None:
        if src == dst:
            return
        key = (src, dst)
        if key in edges:
            # Keep the max latency for duplicate edges.
            for position, (existing, existing_lat) in enumerate(succs[src]):
                if existing == dst and lat > existing_lat:
                    succs[src][position] = (dst, lat)
                    for ppos, (pexisting, _plat) in enumerate(preds[dst]):
                        if pexisting == src:
                            preds[dst][ppos] = (src, lat)
            return
        edges.add(key)
        succs[src].append((dst, lat))
        preds[dst].append((src, lat))

    # Registers are keyed without hashing a register object: a VReg
    # by its uid (one VReg per uid in a function), a PReg by its
    # (index, type) pair.  An int never equals a pair.
    last_def: dict[int | tuple, int] = {}
    uses_since_def: dict[int | tuple, list[int]] = defaultdict(list)
    last_store: int | None = None
    last_mem: int | None = None
    last_side_effect: int | None = None  # calls / outs, totally ordered

    for index, instr in enumerate(instrs):
        reads = []
        for reg in (*instr.srcs, instr.guard):
            if reg.__class__ is VReg:
                reads.append(reg.uid)
            elif reg.__class__ is PReg:
                reads.append((reg.index, reg.vtype))
        writes = []
        for reg in (instr.dest, instr.dest2):
            if reg is not None:
                writes.append(reg.uid if reg.__class__ is VReg
                              else (reg.index, reg.vtype))
        if instr.guard is not None:
            # Squashed writes preserve old values: a guarded def also
            # reads its destinations.
            reads.extend(writes)

        for reg in reads:
            producer = last_def.get(reg)
            if producer is not None:
                add_edge(producer, index, latency[producer])
            uses_since_def[reg].append(index)
        for reg in writes:
            producer = last_def.get(reg)
            if producer is not None:
                add_edge(producer, index, 0)  # WAW, order preserved
            for user in uses_since_def[reg]:
                add_edge(user, index, 0)  # WAR
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
            # Prefetches are hints: ordered only against stores.
            if last_store is not None:
                add_edge(last_store, index, 0)

        if instr.op in (Opcode.CALL, Opcode.OUT):
            # Full ordering against other side effects and memory.
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

    # Calls also act as barriers for *subsequent* memory ops: handled by
    # setting last_store/last_mem to the call above.
    return BlockDAG(instrs=list(instrs), succs=succs, preds=preds,
                    latency=latency)


def latency_weighted_depth(index: int, dag: BlockDAG) -> float:
    """The classic list-scheduling priority (computed once per DAG by
    the scheduler; provided for use as an explicit hook)."""
    return float(dag.critical_path()[index])


def schedule_block(
    block: Block,
    machine: MachineDescription,
    priority: SchedulePriority | None = None,
) -> ScheduledBlock:
    """Greedy cycle-by-cycle list scheduling of one block."""
    dag = build_dag(block, machine)
    count = len(dag.instrs)
    if count == 0:
        return ScheduledBlock(block.label, [])

    if priority is None:
        depths = dag.critical_path()
        prio = [float(depth) for depth in depths]
    else:
        prio = [float(priority(index, dag)) for index in range(count)]

    unscheduled_preds = [len(dag.preds[index]) for index in range(count)]
    ready_time = [0] * count
    scheduled_cycle = [-1] * count

    ready: list[int] = [index for index in range(count)
                        if unscheduled_preds[index] == 0]
    bundles: list[Bundle] = []
    placed = 0
    cycle = 0
    slots_template = machine.slots()

    while placed < count:
        bundle = Bundle()
        slots = dict(slots_template)
        issue_left = machine.issue_width
        progressed = True
        while progressed and issue_left > 0:
            progressed = False
            # Choose the highest-priority ready instruction that fits.
            candidates = [
                index for index in ready
                if ready_time[index] <= cycle
                and slots[dag.instrs[index].fu_class] > 0
            ]
            if not candidates:
                break
            # Tie-break on original order for determinism and to keep
            # zero-latency same-cycle chains in dependence-safe order.
            best = min(candidates, key=lambda i: (-prio[i], i))
            ready.remove(best)
            scheduled_cycle[best] = cycle
            bundle.instrs.append(dag.instrs[best])
            slots[dag.instrs[best].fu_class] -= 1
            issue_left -= 1
            placed += 1
            progressed = True
            for succ, edge_latency in dag.succs[best]:
                unscheduled_preds[succ] -= 1
                ready_time[succ] = max(ready_time[succ],
                                       cycle + edge_latency)
                if unscheduled_preds[succ] == 0:
                    ready.append(succ)
        bundles.append(bundle)
        cycle += 1

    # Trim potential empty bundles at the tail (shouldn't occur) and
    # keep interior empties: they represent real latency stalls.
    while bundles and not bundles[-1].instrs:
        bundles.pop()
    return ScheduledBlock(block.label, bundles)


def schedule_function(
    function: Function,
    machine: MachineDescription,
    priority: SchedulePriority | None = None,
) -> ScheduledFunction:
    blocks = {
        label: schedule_block(function.blocks[label], machine, priority)
        for label in function.block_order
    }
    return ScheduledFunction(
        name=function.name,
        params=list(function.params),
        frame_words=function.frame_words,
        blocks=blocks,
        block_order=list(function.block_order),
    )


def schedule_module(
    module: Module,
    machine: MachineDescription,
    priority: SchedulePriority | None = None,
) -> ScheduledModule:
    scheduled = ScheduledModule(
        module=module,
        functions={
            name: schedule_function(function, machine, priority)
            for name, function in module.functions.items()
        },
    )
    scheduled.validate()
    return scheduled
