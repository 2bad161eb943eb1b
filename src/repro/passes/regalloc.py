"""Priority-based colouring register allocation (Chow & Hennessy).

Case study II's optimization.  The allocator:

1. computes liveness and builds an instruction-precise interference
   graph over virtual registers, per register class (INT -> GPRs,
   FLOAT -> FPRs; predicates get their own trivial assignment into the
   256-entry predicate file);
2. splits ranges into *unconstrained* (degree < K, trivially
   colourable) and *constrained*;
3. ranks constrained ranges by the **priority function** — the paper's
   Equation 2/3::

       savings_i   = w_i * (LDsave * uses_i + STsave * defs_i)
       priority(lr) = sum_i savings_i / N

   Equation 3 (the sum, normalized by the live range's N blocks) stays
   fixed, exactly as the paper does; the per-block savings term is the
   replaceable hook (``spill_priority``);
4. colours in priority order; a constrained range that cannot receive a
   colour is spilled to a stack slot (load before every use, store
   after every def — guarded defs keep their guard on the store);
5. repeats on the rewritten function until everything colours.  Spill
   temps never enter the interference graph: once any range spills,
   three registers per class are *reserved* for spill traffic and
   temps are pre-coloured into them by operand position (at most two
   simultaneous spilled reads plus independent writes per
   instruction, so three reserved registers always suffice).

The priority function therefore decides *which live ranges lose their
registers*, which is the lever the paper's GP search turns.

Step 1, and the loop depths and has-call flags step 3 reads, depend on
neither the machine nor the priority.  :func:`allocation_seed` computes
that round-one analysis once as an :class:`AllocationSeed`; a
``regalloc`` pipeline snapshot keeps one per function, so every GP
candidate allocating the same IR runs only priority evaluation,
colouring, any spill rounds and the rewrite (docs/FORKING.md).  Later
rounds, and any allocation without a seed, analyse the IR themselves,
with the same function.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.ir.function import Function, Module
from repro.ir.instr import Instr, Opcode
from repro.ir.liveness import analyze
from repro.ir.loops import loop_depth_of_blocks
from repro.ir.values import FLOAT, INT, PRED, IRType, PReg, StackSlot, VReg
from repro.machine.descr import MachineDescription

#: Estimated cycles saved per avoided load / store (Equation 2's
#: LDsave / STsave), tied to the machine's L1 latency.
LD_SAVE = 2.0
ST_SAVE = 1.0

#: Registers per class set aside for spill temps once spilling starts.
#: One instruction can need at most (register sources + destinations)
#: simultaneous temps; 4 covers every instruction the frontend emits.
SPILL_RESERVE = 4

#: The spill-priority hook: maps a per-block feature environment to the
#: block's savings contribution.  The allocator sums contributions over
#: the live range's blocks and divides by N (Equation 3).  The
#: environment's names are declared in :mod:`repro.metaopt.psets`.
SpillPriority = Callable[[Mapping[str, float | bool]], float]


def chow_hennessy_savings(env: Mapping[str, float | bool]) -> float:
    """The baseline per-block savings term (Equation 2)."""
    return env["w"] * (env["ld_save"] * env["uses"]
                       + env["st_save"] * env["defs"])


@dataclass
class LiveRange:
    """One allocation unit: a virtual register and where it lives."""

    reg: VReg
    blocks: list[str] = field(default_factory=list)
    uses_by_block: dict[str, int] = field(default_factory=dict)
    defs_by_block: dict[str, int] = field(default_factory=dict)
    degree: int = 0
    spillable: bool = True

    @property
    def total_uses(self) -> int:
        return sum(self.uses_by_block.values())

    @property
    def total_defs(self) -> int:
        return sum(self.defs_by_block.values())


@dataclass
class AllocationReport:
    """What the allocator did — consumed by tests and benches."""

    rounds: int = 0
    spilled: list[str] = field(default_factory=list)
    spill_loads: int = 0
    spill_stores: int = 0
    ranges: int = 0
    constrained: int = 0
    #: Equation 2 priority of every constrained range, keyed by the
    #: virtual register's stable string form.  Later rounds overwrite
    #: earlier entries for the same range (the post-spill priorities
    #: are the ones that decided the final colouring).
    priorities: dict[str, float] = field(default_factory=dict)


class AllocationError(RuntimeError):
    """Raised when colouring cannot converge (e.g. predicate overflow)."""


@dataclass(frozen=True)
class AllocationSeed:
    """What one colouring round knows before it ranks anything: the
    live ranges (blocks, per-block uses and defs, spillability,
    degree), the interference sets, and each block's loop depth and
    has-call flag.  None of it depends on the machine or the spill
    priority.

    ``ranges`` is keyed by register, in order of first appearance;
    ``interference`` maps each range's register uid (unique in a
    function) to the uids of the same-class registers it interferes
    with.

    :func:`allocation_seed` computes round one's value once per
    function, so every candidate allocating that same IR (a regalloc
    snapshot's restores) starts from it instead of re-deriving it.  An
    allocation reads a seed and never writes it; its priorities,
    assignment and report are its own."""

    ranges: dict[VReg, LiveRange]
    interference: dict[int, set[int]]
    loop_depth: dict[str, int]
    has_call: dict[str, bool]


def allocation_seed(function: Function) -> AllocationSeed:
    """Round one's analysis of ``function`` as it stands: no spill
    temps yet.  Valid for any clone of it: a clone has the same labels,
    block order and ``VReg`` objects, so the same register uids; only
    instruction uids differ, and the seed holds none."""
    return _build_ranges(function, {})


def _build_ranges(function: Function,
                  temps: Mapping[VReg, int]) -> AllocationSeed:
    """One colouring round's analysis, from one backward walk per block
    that starts at the block's ``live_out`` and holds registers as uids.

    Two registers of one class interfere when one is written while the
    other is live after the write: a write takes the live set as
    neighbours, and a register leaving the live set (at an unguarded
    write, or at the top of the block) takes every register written
    while it was live.  A guarded write kills nothing; reads include
    the guard.  The registers live into the entry block, parameters
    included, interfere pairwise.  Spill ``temps`` live in the reserved
    registers, so they get no uses, defs or edges (a guarded one,
    live-in at entry, still gets a range)."""
    liveness = analyze(function)
    skip = {temp.uid for temp in temps}
    params = {param.uid for param in function.params}
    by_uid: dict[int, LiveRange] = {}
    # uid -> uids; of any class, and itself, until the end
    edges: defaultdict[int, set[int]] = defaultdict(set)

    for label in function.block_order:
        written: list[int] = []  # uids written so far, walking backward
        # live uid -> len(written) when it went live
        live = dict.fromkeys(
            {reg.uid for reg in liveness[label].live_out} - skip, 0)
        operands: list[list[VReg]] = []  # reads + writes, last first
        uses: dict[int, int] = {}
        defs: dict[int, int] = {}
        for instr in reversed(function.blocks[label].instrs):
            reads = [reg for reg in instr.reads()
                     if reg.__class__ is VReg and reg.uid not in skip]
            writes = [reg for reg in instr.writes()
                      if reg.__class__ is VReg and reg.uid not in skip]
            operands.append(reads + writes)
            for reg in writes:
                uid = reg.uid
                defs[uid] = defs.get(uid, 0) + 1
                edges[uid].update(live)
                written.append(uid)
            if instr.guard is None:
                for reg in writes:
                    start = live.pop(reg.uid, None)
                    if start is not None:
                        edges[reg.uid].update(written[start:])
            for reg in reads:
                uid = reg.uid
                uses[uid] = uses.get(uid, 0) + 1
                if uid not in live:
                    live[uid] = len(written)
        for uid, start in live.items():
            edges[uid].update(written[start:])

        for regs in reversed(operands):
            for reg in regs:
                if reg.uid not in by_uid:
                    by_uid[reg.uid] = LiveRange(
                        reg, spillable=reg.uid not in params)
        for uid, count in uses.items():
            by_uid[uid].uses_by_block[label] = count
        for uid, count in defs.items():
            by_uid[uid].defs_by_block[label] = count
        live_in = {reg.uid for reg in liveness[label].live_in}
        for uid in live_in | uses.keys() | defs.keys():
            live_range = by_uid.get(uid)
            if live_range is not None:
                live_range.blocks.append(label)

    entry = [reg for reg in liveness[function.block_order[0]].live_in
             | set(function.params) if isinstance(reg, VReg)]
    for reg in entry:
        # an unused param has no range yet, but still needs a colour
        # (``_rewrite`` maps every param to a physical register)
        if reg.uid not in by_uid:
            by_uid[reg.uid] = LiveRange(reg, spillable=reg.uid not in params)
    clique = {reg.uid for reg in entry} - skip
    for uid in clique:
        edges[uid] |= clique

    of_class: dict[IRType, set[int]] = defaultdict(set)
    for uid, live_range in by_uid.items():
        of_class[live_range.reg.vtype].add(uid)
    ranges: dict[VReg, LiveRange] = {}
    interference: dict[int, set[int]] = {}
    for uid, live_range in by_uid.items():
        neighbours = edges.get(uid, set()) & of_class[live_range.reg.vtype]
        neighbours.discard(uid)
        interference[uid] = neighbours
        live_range.degree = len(neighbours)
        ranges[live_range.reg] = live_range
    has_call = {
        label: any(instr.is_call for instr in function.blocks[label].instrs)
        for label in function.block_order
    }
    return AllocationSeed(ranges, interference,
                          loop_depth_of_blocks(function), has_call)


class _FunctionAllocator:
    def __init__(
        self,
        function: Function,
        machine: MachineDescription,
        spill_priority: SpillPriority,
        block_freq: Mapping[str, float] | None,
    ) -> None:
        self.function = function
        self.machine = machine
        self.spill_priority = spill_priority
        self.block_freq = dict(block_freq or {})
        #: Equation 2's ``w`` divisor: the hottest block's count
        self._top_freq = max(self.block_freq.values(), default=1.0) or 1.0
        self.report = AllocationReport()
        #: spill temp -> reserved colour slot (0..SPILL_RESERVE-1)
        self._spill_temps: dict[VReg, int] = {}
        #: per-instruction count of reserved slots already handed out
        #: (persists across rounds so later spills at the same
        #: instruction never collide with earlier temps)
        self._slots_used: dict[int, int] = {}

    # -- priority --------------------------------------------------------------
    def _compute_priority(self, live_range: LiveRange,
                          loop_depth: Mapping[str, int],
                          has_call: Mapping[str, bool],
                          forbidden_ratio: float) -> float:
        blocks = live_range.blocks or ["?"]
        count = len(blocks)
        freq, top = self.block_freq, self._top_freq
        uses_by_block = live_range.uses_by_block
        defs_by_block = live_range.defs_by_block
        # The same for every block of the range.
        live_blocks = float(count)
        degree = float(live_range.degree)
        total_uses = float(live_range.total_uses)
        total_defs = float(live_range.total_defs)
        is_float = live_range.reg.vtype is FLOAT
        total = 0.0
        for label in blocks:
            env = {
                "w": freq.get(label, 0.0) / top if freq else 1.0,
                "uses": float(uses_by_block.get(label, 0)),
                "defs": float(defs_by_block.get(label, 0)),
                "ld_save": LD_SAVE,
                "st_save": ST_SAVE,
                "live_blocks": live_blocks,
                "degree": degree,
                "loop_depth": float(loop_depth.get(label, 0)),
                "total_uses": total_uses,
                "total_defs": total_defs,
                "forbidden_ratio": forbidden_ratio,
                "has_call": has_call.get(label, False),
                "is_float": is_float,
            }
            total += float(self.spill_priority(env))
        return total / count  # Equation 3

    # -- one colouring round ------------------------------------------------------
    def _colour_round(self, analysis: AllocationSeed) -> bool:
        """Attempt to colour everything from this round's ``analysis``
        (read, never written); returns True when done, False after
        inserting spill code (another round needed)."""
        function = self.function
        ranges, interference = analysis.ranges, analysis.interference
        self.report.ranges = len(ranges)

        capacity = {
            INT: self.machine.gp_registers,
            FLOAT: self.machine.fp_registers,
            PRED: self.machine.pred_registers,
        }
        # Once spilling has begun, the top SPILL_RESERVE registers of
        # the INT and FLOAT files belong to spill temps.
        reserving = bool(self._spill_temps)

        assignment: dict[VReg, int] = {}
        colour_of: dict[int, int] = {}  # the same, keyed by uid
        spilled: list[VReg] = []

        for reg_class in (INT, FLOAT, PRED):
            class_ranges = [r for r in ranges.values()
                            if r.reg.vtype is reg_class]
            if not class_ranges:
                continue
            k = capacity[reg_class]
            if reserving and reg_class is not PRED:
                k -= SPILL_RESERVE
                if k < 1:
                    raise AllocationError(
                        f"machine too small: {capacity[reg_class]} "
                        f"{reg_class.value} registers cannot cover the "
                        f"{SPILL_RESERVE}-register spill reserve"
                    )
            constrained = [r for r in class_ranges if r.degree >= k]
            unconstrained = [r for r in class_ranges if r.degree < k]
            self.report.constrained += len(constrained)

            # VReg uid (unique in the function) -> Equation 3 priority
            priority: dict[int, float] = {}
            for live_range in constrained:
                priority[live_range.reg.uid] = value = self._compute_priority(
                    live_range, analysis.loop_depth, analysis.has_call,
                    forbidden_ratio=0.0,
                )
                self.report.priorities[str(live_range.reg)] = value
            # Unspillable ranges colour first regardless of priority.
            constrained.sort(
                key=lambda r: (r.spillable, -priority[r.reg.uid], r.reg.uid)
            )

            for live_range in constrained + sorted(
                unconstrained, key=lambda r: r.reg.uid
            ):
                used = {
                    colour_of[other]
                    for other in interference[live_range.reg.uid]
                    if other in colour_of
                }
                colour = next(
                    (index for index in range(k) if index not in used), None
                )
                if colour is not None:
                    assignment[live_range.reg] = colour
                    colour_of[live_range.reg.uid] = colour
                elif live_range.spillable and reg_class is not PRED:
                    spilled.append(live_range.reg)
                else:
                    raise AllocationError(
                        f"cannot colour {live_range.reg} in {function.name} "
                        f"(class {reg_class.value}, K={k})"
                    )

        if spilled:
            self._insert_spill_code(spilled)
            for reg in spilled:
                self.report.spilled.append(str(reg))
            return False

        self._rewrite(assignment)
        return True

    # -- spilling ----------------------------------------------------------------
    def _reserved_slot(self, instr: Instr) -> int:
        used = self._slots_used.get(instr.uid, 0)
        if used >= SPILL_RESERVE:
            raise AllocationError(
                f"instruction needs more than {SPILL_RESERVE} spill "
                f"temps: {instr}"
            )
        self._slots_used[instr.uid] = used + 1
        return used

    def _insert_spill_code(self, spilled: list[VReg]) -> None:
        """Rewrite every access to the spilled registers through stack
        slots, in one pass so temps at the same instruction receive
        distinct reserved slots."""
        function = self.function
        spill_set = set(spilled)
        slots = {
            reg: StackSlot(function.alloc_stack(1, f"spill_{reg.uid}"),
                           f"spill_{reg.uid}")
            for reg in spilled
        }
        for label in function.block_order:
            block = function.blocks[label]
            rewritten: list[Instr] = []
            for instr in block.instrs:
                reads = {r for r in instr.reads()
                         if isinstance(r, VReg) and r in spill_set}
                writes = {w for w in instr.writes()
                          if isinstance(w, VReg) and w in spill_set}
                for reg in sorted(reads, key=lambda r: r.uid):
                    temp = function.new_vreg(reg.vtype, f"rl{reg.uid}")
                    self._spill_temps[temp] = self._reserved_slot(instr)
                    rewritten.append(
                        Instr(Opcode.LOAD, dest=temp, srcs=(slots[reg],))
                    )
                    self.report.spill_loads += 1
                    instr = self._replace_operands(instr, reg, temp)
                stores: list[Instr] = []
                for reg in sorted(writes, key=lambda r: r.uid):
                    temp = function.new_vreg(reg.vtype, f"rs{reg.uid}")
                    self._spill_temps[temp] = self._reserved_slot(instr)
                    instr = self._replace_dest(instr, reg, temp)
                    stores.append(
                        Instr(Opcode.STORE, srcs=(slots[reg], temp),
                              guard=instr.guard)
                    )
                    self.report.spill_stores += 1
                rewritten.append(instr)
                rewritten.extend(stores)
            block.instrs = rewritten

    @staticmethod
    def _replace_operands(instr: Instr, old: VReg, new: VReg) -> Instr:
        instr.srcs = tuple(
            new if (isinstance(src, VReg) and src == old) else src
            for src in instr.srcs
        )
        if instr.guard is not None and instr.guard == old:
            instr.guard = new
        return instr

    @staticmethod
    def _replace_dest(instr: Instr, old: VReg, new: VReg) -> Instr:
        if instr.dest == old:
            instr.dest = new
        if instr.dest2 == old:
            instr.dest2 = new
        return instr

    # -- rewriting ---------------------------------------------------------------
    def _rewrite(self, assignment: dict[VReg, int]) -> None:
        capacity = {
            INT: self.machine.gp_registers,
            FLOAT: self.machine.fp_registers,
        }
        preg = {reg: PReg(colour, reg.vtype)
                for reg, colour in assignment.items()}
        # Temps after the assignment: a guarded spill temp is live-in at
        # entry, so it has a range and a colour too, but it lives in
        # its reserved register.
        for temp, slot in self._spill_temps.items():
            preg[temp] = PReg(capacity[temp.vtype] - SPILL_RESERVE + slot,
                              temp.vtype)

        def map_reg(reg):
            return preg[reg] if isinstance(reg, VReg) else reg

        function = self.function
        for label in function.block_order:
            for instr in function.blocks[label].instrs:
                instr.srcs = tuple([map_reg(src) for src in instr.srcs])
                if instr.dest is not None:
                    instr.dest = map_reg(instr.dest)
                if instr.dest2 is not None:
                    instr.dest2 = map_reg(instr.dest2)
                if instr.guard is not None:
                    instr.guard = map_reg(instr.guard)
        function.params = [map_reg(param) for param in function.params]

    # -- driver -------------------------------------------------------------------
    def allocate(self, seed: AllocationSeed | None = None,
                 max_rounds: int = 16) -> AllocationReport:
        """Colour until done; round one starts from ``seed`` when one
        is given (it must be :func:`allocation_seed` of this IR)."""
        analysis = seed
        for round_index in range(max_rounds):
            self.report.rounds = round_index + 1
            if analysis is None:
                analysis = _build_ranges(self.function, self._spill_temps)
            if self._colour_round(analysis):
                return self.report
            analysis = None  # spill code changed the IR
        raise AllocationError(
            f"register allocation did not converge in {max_rounds} rounds "
            f"for {self.function.name}"
        )


def allocate_function(
    function: Function,
    machine: MachineDescription,
    spill_priority: SpillPriority | None = None,
    block_freq: Mapping[str, float] | None = None,
    seed: AllocationSeed | None = None,
) -> AllocationReport:
    """Allocate one function in place (VRegs become PRegs); a ``None``
    ``spill_priority`` is :func:`chow_hennessy_savings`.  ``seed``,
    :func:`allocation_seed` of this function's IR or of the IR it was
    cloned from, replaces round one's analysis."""
    if spill_priority is None:
        spill_priority = chow_hennessy_savings
    return _FunctionAllocator(
        function, machine, spill_priority, block_freq
    ).allocate(seed)


def allocate_module(
    module: Module,
    machine: MachineDescription,
    spill_priority: SpillPriority | None = None,
    block_freq: Mapping[str, Mapping[str, float]] | None = None,
) -> dict[str, AllocationReport]:
    """Allocate every function; ``block_freq`` maps function name ->
    block label -> profiled execution count."""
    reports = {}
    for name, function in module.functions.items():
        freq = block_freq.get(name) if block_freq else None
        reports[name] = allocate_function(function, machine,
                                          spill_priority, freq)
    return reports
