"""Structural IR invariant verifier.

The GP loop swaps compiler heuristics on every candidate, so each
generation runs the backend under priority functions nobody hand-
checked.  A transformation bug that *drops* work looks like a fitness
win; this module is the first line of defence, checking the invariants
every pass must preserve:

* **CFG consistency** — every block closed by exactly one trailing
  terminator, every branch target resolvable, ``block_order`` and the
  block map in agreement, terminators never guarded;
* **operand discipline** — per-opcode source arity, destination
  presence, ``rel`` only on compares, ``dest2`` only on ``cmpp``,
  symbol references resolvable, stack slots inside the frame, call
  signatures matching the callee, and a uid naming one virtual
  register per function (the reference interpreter keys its register
  file by uid and refuses a function that breaks this);
* **def-before-use** — forward must-defined (definite assignment)
  analysis: every register read needs an unconditional definition on
  every path from entry (which subsumes the dominator-tree check and
  also accepts variables assigned in both arms of a diamond); reads
  that feed only prefetch hints are exempt, because speculative
  prefetch address arithmetic is unguarded by design;
* **liveness sanity** — for unpredicated functions, no virtual
  register may be live into the entry block unless it is a parameter
  (the may-analysis complement of the dominator check);
* **predicate-use legality** (after hyperblock formation) — guards
  are predicate-typed, and a register whose only definitions so far in
  its block are guarded may be read only under the same guard (the
  if-conversion invariant that arms never observe each other's temps);
* **register-assignment validity** (after allocation) — no virtual
  registers survive, and every physical register index fits its
  machine register file;
* **bundle sanity** (after scheduling) — issue-width and functional-
  unit slot limits respected, terminators in final position, and no
  instruction in a bundle reading a register written *later* in the
  same bundle (the dependence-safe order the simulator relies on).

``verify_module`` raises :class:`IRVerifyError` carrying every issue
found, each naming function, block and instruction, plus the pipeline
stage the check ran at — so a fuzzer or CI failure pinpoints the pass
that broke the invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.cfg import predecessors, reachable, reverse_postorder
from repro.ir.function import Function, Module
from repro.ir.instr import Instr, Opcode, TERMINATORS
from repro.ir.liveness import analyze as liveness_analyze
from repro.ir.values import (
    FLOAT,
    INT,
    Imm,
    PRED,
    PReg,
    StackSlot,
    SymRef,
    VReg,
    is_register,
)
from repro.machine.descr import MachineDescription
from repro.machine.vliw import ScheduledModule


@dataclass(frozen=True)
class VerifyIssue:
    """One violated invariant, locatable down to the instruction."""

    function: str
    block: str | None
    instr: str | None
    message: str

    def __str__(self) -> str:
        where = self.function
        if self.block is not None:
            where += f"/{self.block}"
        if self.instr is not None:
            where += f": `{self.instr}`"
        return f"{where}: {self.message}"


class IRVerifyError(RuntimeError):
    """Raised when verification finds one or more violated invariants."""

    def __init__(self, stage: str, issues: list[VerifyIssue]) -> None:
        self.stage = stage
        self.issues = list(issues)
        lines = [f"IR verification failed at stage {stage!r} "
                 f"({len(issues)} issue(s)):"]
        lines.extend(f"  - {issue}" for issue in issues)
        super().__init__("\n".join(lines))


#: Exact source-operand arity per opcode (None = unconstrained).
_SRC_ARITY: dict[Opcode, int | None] = {
    Opcode.ADD: 2, Opcode.SUB: 2, Opcode.MUL: 2, Opcode.DIV: 2,
    Opcode.REM: 2, Opcode.AND: 2, Opcode.OR: 2, Opcode.XOR: 2,
    Opcode.SHL: 2, Opcode.SHR: 2, Opcode.FADD: 2, Opcode.FSUB: 2,
    Opcode.FMUL: 2, Opcode.FDIV: 2, Opcode.CMP: 2, Opcode.CMPP: 2,
    Opcode.NEG: 1, Opcode.FNEG: 1, Opcode.FSQRT: 1, Opcode.ITOF: 1,
    Opcode.FTOI: 1, Opcode.MOV: 1, Opcode.LEA: 1, Opcode.LOAD: 1,
    Opcode.PREFETCH: 1, Opcode.OUT: 1, Opcode.STORE: 2,
    Opcode.BR: 1, Opcode.JMP: 0,
    Opcode.RET: None,  # 0 or 1, checked separately
    Opcode.CALL: None,
}

#: Opcodes that must define a destination register.
_NEEDS_DEST = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
    Opcode.NEG, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL,
    Opcode.SHR, Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
    Opcode.FNEG, Opcode.FSQRT, Opcode.ITOF, Opcode.FTOI, Opcode.CMP,
    Opcode.CMPP, Opcode.MOV, Opcode.LEA, Opcode.LOAD,
})

#: Opcodes that must NOT define a destination.
_NO_DEST = frozenset({
    Opcode.STORE, Opcode.PREFETCH, Opcode.OUT,
    Opcode.BR, Opcode.JMP, Opcode.RET,
})

#: Opcodes whose destination, when type-known, must be FLOAT.
_FLOAT_DEST = frozenset({
    Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FNEG,
    Opcode.FSQRT, Opcode.ITOF,
})

#: Branch target arity.
_TARGET_ARITY = {Opcode.BR: 2, Opcode.JMP: 1}


class _FunctionVerifier:
    def __init__(
        self,
        function: Function,
        module: Module | None,
        allocated: bool,
        machine: MachineDescription | None,
    ) -> None:
        self.function = function
        self.module = module
        self.allocated = allocated
        self.machine = machine
        self.issues: list[VerifyIssue] = []

    def _issue(self, message: str, block: str | None = None,
               instr: Instr | None = None) -> None:
        self.issues.append(VerifyIssue(
            function=self.function.name,
            block=block,
            instr=str(instr) if instr is not None else None,
            message=message,
        ))

    # -- CFG structure -------------------------------------------------
    def _check_structure(self) -> bool:
        """Shape checks; returns False when too broken to analyse."""
        function = self.function
        if not function.block_order:
            self._issue("function has no blocks")
            return False
        if set(function.block_order) != set(function.blocks):
            self._issue(
                "block_order and block map disagree: "
                f"order={sorted(function.block_order)} "
                f"map={sorted(function.blocks)}"
            )
            return False
        if len(set(function.block_order)) != len(function.block_order):
            self._issue("duplicate labels in block_order")
            return False

        sound = True
        for label in function.block_order:
            block = function.blocks[label]
            if block.label != label:
                self._issue(f"block keyed {label!r} carries label "
                            f"{block.label!r}", block=label)
            if not block.instrs or not block.instrs[-1].is_terminator:
                self._issue("block is not terminated", block=label)
                sound = False
                continue
            for position, instr in enumerate(block.instrs):
                if instr.is_terminator and position != len(block.instrs) - 1:
                    self._issue("terminator mid-block", block=label,
                                instr=instr)
                    sound = False
            term = block.instrs[-1]
            if term.guard is not None:
                self._issue("terminator must not be guarded", block=label,
                            instr=term)
            expected = _TARGET_ARITY.get(term.op)
            if expected is not None and len(term.targets) != expected:
                self._issue(
                    f"{term.op.value} needs {expected} target(s), "
                    f"has {len(term.targets)}", block=label, instr=term)
                sound = False
            for target in term.targets:
                if target not in function.blocks:
                    self._issue(f"branch to unknown block {target!r}",
                                block=label, instr=term)
                    sound = False
        return sound

    # -- per-instruction operand discipline ----------------------------
    def _check_instr(self, label: str, instr: Instr) -> None:
        op = instr.op
        arity = _SRC_ARITY.get(op)
        if arity is not None and len(instr.srcs) != arity:
            self._issue(f"{op.value} expects {arity} source(s), "
                        f"has {len(instr.srcs)}", block=label, instr=instr)
        if op is Opcode.RET and len(instr.srcs) > 1:
            self._issue("ret takes at most one source", block=label,
                        instr=instr)

        if op in _NEEDS_DEST and instr.dest is None:
            self._issue(f"{op.value} requires a destination", block=label,
                        instr=instr)
        if op in _NO_DEST and instr.dest is not None:
            self._issue(f"{op.value} must not define a destination",
                        block=label, instr=instr)

        if (op in (Opcode.CMP, Opcode.CMPP)) != (instr.rel is not None):
            self._issue("rel must be set exactly on cmp/cmpp",
                        block=label, instr=instr)
        if op is Opcode.CMPP:
            if instr.dest2 is None:
                self._issue("cmpp requires a complement destination",
                            block=label, instr=instr)
            else:
                if instr.dest is not None and instr.dest == instr.dest2:
                    self._issue("cmpp destinations must be distinct",
                                block=label, instr=instr)
                for reg in (instr.dest, instr.dest2):
                    if is_register(reg) and reg.vtype is not PRED:
                        self._issue("cmpp destination must be a predicate "
                                    "register", block=label, instr=instr)
        elif instr.dest2 is not None:
            self._issue("dest2 is only legal on cmpp", block=label,
                        instr=instr)

        if op in _FLOAT_DEST and is_register(instr.dest) \
                and instr.dest.vtype is not FLOAT:
            self._issue(f"{op.value} destination must be float-typed",
                        block=label, instr=instr)
        if op is Opcode.FTOI and is_register(instr.dest) \
                and instr.dest.vtype is not INT:
            self._issue("ftoi destination must be int-typed",
                        block=label, instr=instr)

        if instr.guard is not None:
            if not is_register(instr.guard):
                self._issue("guard must be a register", block=label,
                            instr=instr)
            elif instr.guard.vtype is not PRED:
                self._issue("guard must be predicate-typed", block=label,
                            instr=instr)

        if op is Opcode.CALL:
            if instr.callee is None:
                self._issue("call lacks a callee", block=label, instr=instr)
            elif self.module is not None:
                callee = self.module.functions.get(instr.callee)
                if callee is None:
                    self._issue(f"call to unknown function "
                                f"{instr.callee!r}", block=label,
                                instr=instr)
                elif len(instr.srcs) != len(callee.params):
                    self._issue(
                        f"call passes {len(instr.srcs)} argument(s); "
                        f"{instr.callee} takes {len(callee.params)}",
                        block=label, instr=instr)
        elif instr.callee is not None:
            self._issue("callee is only legal on call", block=label,
                        instr=instr)

        for operand in instr.srcs:
            if isinstance(operand, SymRef) and self.module is not None \
                    and operand.symbol not in self.module.globals:
                self._issue(f"reference to unknown global "
                            f"{operand.symbol!r}", block=label, instr=instr)
            if isinstance(operand, StackSlot):
                if not 0 <= operand.offset < max(
                        self.function.frame_words, 1):
                    self._issue(
                        f"stack slot offset {operand.offset} outside "
                        f"frame of {self.function.frame_words} word(s)",
                        block=label, instr=instr)

        if self.allocated:
            self._check_allocated_operands(label, instr)

    def _check_allocated_operands(self, label: str, instr: Instr) -> None:
        regs = list(instr.reads()) + list(instr.writes())
        for reg in regs:
            if isinstance(reg, VReg):
                self._issue(f"virtual register {reg} survives register "
                            "allocation", block=label, instr=instr)
            elif isinstance(reg, PReg) and self.machine is not None:
                capacity = {
                    INT: self.machine.gp_registers,
                    FLOAT: self.machine.fp_registers,
                    PRED: self.machine.pred_registers,
                }[reg.vtype]
                if not 0 <= reg.index < capacity:
                    self._issue(
                        f"physical register {reg} outside the "
                        f"{reg.vtype.value} file of {capacity}",
                        block=label, instr=instr)

    def _check_vreg_uids(self) -> None:
        """A uid names one virtual register in a function: the
        invariant ``Function.new_vreg`` keeps, and the one
        ``Interpreter._decode`` relies on.  Each clashing uid is
        reported once, where its second register first appears."""
        by_uid: dict[int, VReg] = {}
        clashed: set[int] = set()

        def note(reg, label=None, instr=None) -> None:
            if not isinstance(reg, VReg) or reg.uid in clashed:
                return
            known = by_uid.setdefault(reg.uid, reg)
            if known != reg:
                clashed.add(reg.uid)
                self._issue(f"virtual registers {known} and {reg} share "
                            f"uid {reg.uid}", block=label, instr=instr)

        for param in self.function.params:
            note(param)
        for label in self.function.block_order:
            for instr in self.function.blocks[label].instrs:
                for reg in (*instr.reads(), *instr.writes()):
                    note(reg, label, instr)

    # -- def-before-use / predicate legality ---------------------------
    def _speculative_uids(self) -> set[int]:
        """Instructions whose results feed *only* prefetch hints.

        The prefetch pass intentionally emits unguarded address
        arithmetic next to guarded loads (speculative prefetching of a
        possibly-garbage address is harmless: prefetches are
        non-faulting cache hints and never reach the interpreter's
        observable state), so definite-assignment does not apply to
        this slice.
        """
        speculative: set[int] = set()
        for block in self.function.ordered_blocks():
            for index, instr in enumerate(block.instrs):
                if instr.op is not Opcode.PREFETCH:
                    continue
                wanted = {r for r in instr.srcs if is_register(r)}
                # The nearest producer of each prefetch address is the
                # pass-inserted arithmetic; a block-local scan stays
                # correct even after register allocation reuses
                # physical registers across live ranges.
                for prev in reversed(block.instrs[:index]):
                    if not wanted:
                        break
                    hits = [r for r in prev.writes() if r in wanted]
                    if not hits:
                        continue
                    wanted.difference_update(hits)
                    if not prev.has_side_effects:
                        speculative.add(prev.uid)
        return speculative

    def _check_dataflow(self) -> None:
        """Definite assignment (forward must-defined analysis: a read
        needs an unconditional definition on *every* path from entry)
        plus the same-block predicate-consistency rule for guarded
        code."""
        function = self.function
        order = reverse_postorder(function)
        preds = predecessors(function)
        reach = set(order)
        params = set(function.params)
        speculative = self._speculative_uids()

        # Definite defs per block: guard-free writes, plus registers
        # written under *both* halves of a cmpp's complementary
        # predicate pair (exactly one half is true, so one write
        # executes) — the pattern if-conversion produces for variables
        # assigned in both arms of a diamond.
        uncond_defs: dict[str, set] = {
            label: _definite_defs(function.blocks[label])
            for label in order
        }

        # must_in[b] = params (entry) | ∩ over reachable preds p of
        # (must_in[p] ∪ uncond_defs[p]).  Initialised to ⊤ (None) and
        # shrunk to a fixed point; variables assigned in both arms of a
        # diamond are correctly defined at the join, which a dominator-
        # based check would miss.
        must_in: dict[str, set | None] = {label: None for label in order}
        must_in[order[0]] = set(params)
        changed = True
        while changed:
            changed = False
            for label in order[1:]:
                flows = [
                    must_in[p] | uncond_defs[p]
                    for p in preds[label]
                    if p in reach and must_in[p] is not None
                ]
                if not flows:
                    continue
                new = set.intersection(*flows)
                if must_in[label] is None or new != must_in[label]:
                    must_in[label] = new
                    changed = True

        for label in order:
            avail = set(must_in[label] or ())
            #: regs whose only defs so far in this block are guarded:
            #: reg -> set of guards that defined it
            cond_defs: dict[object, set] = {}
            #: predicate implication: q -> guards whose truth is implied
            #: by q being true.  Hyperblock formation clears every inner
            #: predicate (``mov p, 0``) before the guarded ``cmpp`` that
            #: may set it, so p=true proves the cmpp's guard held —
            #: which is what makes nested predication legal (an op
            #: guarded by an inner predicate may read values defined
            #: under the outer one).
            implied: dict[object, set] = {}
            #: predicates currently known false unless a guarded def fires
            cleared: set = set()
            #: cmpp pairs: predicate -> (complement, cmpp's own guard)
            pairs: dict[object, tuple[object, object]] = {}

            def _read_ok(reg, guard) -> tuple[bool, set | None]:
                if reg in avail:
                    return True, None
                guards = cond_defs.get(reg)
                if guards is None:
                    return False, None
                if guard is not None:
                    known = {guard} | implied.get(guard, set())
                    if guards & known:
                        return True, guards
                return False, guards

            for instr in function.blocks[label].instrs:
                for reg in instr.reads():
                    if not is_register(reg):
                        continue
                    if instr.uid in speculative:
                        continue
                    ok, guards = _read_ok(reg, instr.guard)
                    if ok:
                        continue
                    if guards is not None:
                        self._issue(
                            f"read of {reg} defined only under "
                            f"unrelated predicate(s) "
                            f"{sorted(str(g) for g in guards)}",
                            block=label, instr=instr)
                    else:
                        self._issue(
                            f"read of {reg} with no dominating "
                            "definition", block=label, instr=instr)
                is_clearing_mov = (
                    instr.op is Opcode.MOV and instr.guard is None
                    and len(instr.srcs) == 1
                    and isinstance(instr.srcs[0], Imm)
                    and instr.srcs[0].value == 0
                )
                if instr.op is Opcode.CMPP and instr.dest is not None \
                        and instr.dest2 is not None:
                    pairs[instr.dest] = (instr.dest2, instr.guard)
                    pairs[instr.dest2] = (instr.dest, instr.guard)
                for reg in instr.writes():
                    if not is_register(reg):
                        continue
                    if instr.guard is None:
                        avail.add(reg)
                        cond_defs.pop(reg, None)
                        if reg.vtype is PRED:
                            if is_clearing_mov:
                                cleared.add(reg)
                                implied.pop(reg, None)
                            else:
                                cleared.discard(reg)
                                implied[reg] = set()
                    else:
                        if reg not in avail:
                            _note_guarded_def(reg, instr.guard, avail,
                                              cond_defs, pairs)
                        if reg.vtype is PRED:
                            facts = {instr.guard} | implied.get(
                                instr.guard, set())
                            if reg in cleared:
                                cleared.discard(reg)
                                implied[reg] = facts
                            elif reg in implied:
                                # Another possible truth-def: only the
                                # common implications survive.
                                implied[reg] &= facts
                            else:
                                implied[reg] = set()

    def _check_entry_liveness(self) -> None:
        """For unpredicated code, liveness must not expose any use of a
        non-parameter register to the entry block (a path-sensitive
        complement of the dominator check)."""
        function = self.function
        has_guards = any(
            instr.guard is not None for instr in function.instructions()
        )
        if has_guards:
            # Guarded defs count as uses in the liveness equations (a
            # squashed write preserves the old value), which makes
            # entry-liveness unusable as an invariant; the dominator
            # and predicate-consistency checks cover predicated code.
            return
        live_in = liveness_analyze(function)[function.block_order[0]].live_in
        loose = {reg for reg in live_in if reg not in set(function.params)}
        for reg in sorted(loose, key=str):
            self._issue(f"{reg} is live into the entry block but is not "
                        "a parameter (use without a definition on some "
                        "path)", block=function.block_order[0])

    # -- driver --------------------------------------------------------
    def run(self) -> list[VerifyIssue]:
        if not self._check_structure():
            return self.issues
        for label in self.function.block_order:
            for instr in self.function.blocks[label].instrs:
                self._check_instr(label, instr)
        self._check_vreg_uids()
        if self.issues:
            # Operand-level breakage makes dataflow results unreliable.
            return self.issues
        reach = reachable(self.function)
        if reach:
            self._check_dataflow()
            self._check_entry_liveness()
        return self.issues


def _note_guarded_def(reg, guard, avail: set, cond_defs: dict,
                      pairs: dict) -> None:
    """Record a write of ``reg`` under ``guard``; when both halves of a
    complementary predicate pair have written it, promote the register
    to definitely-assigned (one half is always true).  A pair whose
    cmpp was itself guarded promotes to a def under the cmpp's guard
    instead, which handles nested if-conversion."""
    while True:
        guards = cond_defs.setdefault(reg, set())
        guards.add(guard)
        pair = pairs.get(guard)
        if pair is None:
            return
        partner, outer = pair
        if partner not in guards:
            return
        if outer is None:
            avail.add(reg)
            cond_defs.pop(reg, None)
            return
        guard = outer


def _definite_defs(block) -> set:
    """Registers definitely assigned by the end of ``block`` regardless
    of entry state: unguarded writes plus complement-pair writes."""
    avail: set = set()
    cond_defs: dict = {}
    pairs: dict = {}
    for instr in block.instrs:
        if instr.op is Opcode.CMPP and instr.dest is not None \
                and instr.dest2 is not None:
            pairs[instr.dest] = (instr.dest2, instr.guard)
            pairs[instr.dest2] = (instr.dest, instr.guard)
        for reg in instr.writes():
            if not is_register(reg):
                continue
            if instr.guard is None:
                avail.add(reg)
                cond_defs.pop(reg, None)
            elif reg not in avail:
                _note_guarded_def(reg, instr.guard, avail, cond_defs,
                                  pairs)
    return avail


def verify_function(
    function: Function,
    module: Module | None = None,
    allocated: bool = False,
    machine: MachineDescription | None = None,
) -> list[VerifyIssue]:
    """Check one function; returns the (possibly empty) issue list."""
    return _FunctionVerifier(function, module, allocated, machine).run()


def verify_module(
    module: Module,
    stage: str = "ir",
    allocated: bool = False,
    machine: MachineDescription | None = None,
) -> None:
    """Check every function in ``module``; raises :class:`IRVerifyError`
    (tagged with ``stage``) when any invariant is violated."""
    issues: list[VerifyIssue] = []
    for function in module.functions.values():
        issues.extend(verify_function(function, module,
                                      allocated=allocated, machine=machine))
    if issues:
        raise IRVerifyError(stage, issues)


def verify_scheduled(
    scheduled: ScheduledModule,
    machine: MachineDescription,
    stage: str = "schedule",
) -> None:
    """Bundle-level invariants of scheduled code.

    The simulator executes each bundle sequentially and relies on the
    scheduler emitting dependence-safe intra-bundle order; this check
    makes that contract explicit.
    """
    issues: list[VerifyIssue] = []

    def issue(func: str, block: str, instr: Instr | None,
              message: str) -> None:
        issues.append(VerifyIssue(
            function=func, block=block,
            instr=str(instr) if instr is not None else None,
            message=message))

    slots = machine.slots()
    for func in scheduled.functions.values():
        if set(func.block_order) != set(func.blocks):
            issue(func.name, "<layout>", None,
                  "block_order and block map disagree")
            continue
        for label in func.block_order:
            block = func.blocks[label]
            flat = block.flat_instructions()
            if not flat or not flat[-1].is_terminator:
                issue(func.name, label, None,
                      "scheduled block does not end with its terminator")
            for position, instr in enumerate(flat):
                if instr.is_terminator and position != len(flat) - 1:
                    issue(func.name, label, instr,
                          "terminator not in final bundle position")
            for succ in (flat[-1].targets if flat
                         and flat[-1].op in TERMINATORS else ()):
                if succ not in func.blocks:
                    issue(func.name, label, None,
                          f"branch to unknown block {succ!r}")
            for bundle in block.bundles:
                if len(bundle) > machine.issue_width:
                    issue(func.name, label, None,
                          f"bundle of {len(bundle)} ops exceeds issue "
                          f"width {machine.issue_width}")
                by_class: dict = {}
                written: set = set()
                for instr in bundle:
                    by_class[instr.fu_class] = \
                        by_class.get(instr.fu_class, 0) + 1
                    # RAW edges carry the producer's latency (>= 1), so
                    # a true dependence can never be satisfied inside
                    # one cycle; only WAR/WAW may share a bundle, and
                    # the scheduler keeps source order for those.  A
                    # sequential walk that reads a register written
                    # earlier in the same bundle is therefore a
                    # same-cycle RAW — exactly the hazard that would
                    # make the simulator's sequential execution diverge
                    # from VLIW timing.
                    reads = list(instr.reads())
                    if instr.guard is not None:
                        # A squashed write preserves the old value: a
                        # guarded def implicitly reads its destinations.
                        reads.extend(instr.writes())
                    for reg in reads:
                        if is_register(reg) and reg in written:
                            issue(func.name, label, instr,
                                  f"reads {reg} written earlier in the "
                                  "same bundle (same-cycle RAW)")
                    written.update(
                        reg for reg in instr.writes() if is_register(reg))
                for fu_class, used in by_class.items():
                    if used > slots[fu_class]:
                        issue(func.name, label, None,
                              f"bundle issues {used} {fu_class.value} "
                              f"op(s); machine has {slots[fu_class]}")
    if issues:
        raise IRVerifyError(stage, issues)
