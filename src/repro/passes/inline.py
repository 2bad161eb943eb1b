"""Function inlining.

Enabled in the paper's Trimaran configuration.  Inlining matters to the
hyperblock study indirectly: calls are *hazards* (IMPACT penalizes
paths containing ``jsr``), so inlining small leaf helpers converts
hazardous paths into predicatable ones.

Legality: a call site may be inlined only when it is unguarded, the
callee is known, is not the caller, allocates no stack frame, and is
not (mutually) recursive.  A legal site is inlined when the callee has
at most ``max_callee_ops`` instructions.

Bodies are cloned with fresh registers and labels; every ``ret``
becomes a move to the call's destination plus a jump to the split-off
continuation block.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.block import Block
from repro.ir.function import Function, Module
from repro.ir.instr import Instr, Opcode, jmp, mov
from repro.ir.values import VReg


@dataclass(frozen=True)
class InlineDecision:
    """One legal call site judged by the size threshold: ``priority``
    is ``max_callee_ops + 0.5`` minus the callee's instruction count,
    and the site is inlined iff it is positive."""

    caller: str
    callee: str
    priority: float
    inlined: bool


class InlineReport:
    def __init__(self, sites_seen: int = 0, sites_inlined: int = 0,
                 decisions: list[InlineDecision] | None = None) -> None:
        self.sites_seen = sites_seen
        self.sites_inlined = sites_inlined
        self.decisions = [] if decisions is None else decisions


def _call_graph(module: Module) -> dict[str, set[str]]:
    graph: dict[str, set[str]] = {name: set() for name in module.functions}
    for name, function in module.functions.items():
        for instr in function.instructions():
            if instr.op is Opcode.CALL:
                graph[name].add(instr.callee)
    return graph


def _reaches(graph: dict[str, set[str]], source: str, target: str) -> bool:
    """True when ``target`` is reachable from ``source`` through at
    least one call edge (so ``_reaches(g, f, f)`` detects recursion
    rather than trivially succeeding)."""
    seen: set[str] = set()
    stack = list(graph.get(source, ()))
    while stack:
        node = stack.pop()
        if node == target:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(graph.get(node, ()))
    return False


def _clone_into(caller: Function, callee: Function,
                tag: str) -> tuple[str, dict[str, str], dict[VReg, VReg]]:
    """Clone ``callee``'s blocks into ``caller`` with fresh registers
    and labels; returns (entry label, label map, register map)."""
    reg_map: dict[VReg, VReg] = {}

    def map_reg(reg):
        if isinstance(reg, VReg):
            mapped = reg_map.get(reg)
            if mapped is None:
                mapped = caller.new_vreg(reg.vtype, reg.name or "inl")
                reg_map[reg] = mapped
            return mapped
        return reg

    label_map: dict[str, str] = {}
    for label in callee.block_order:
        new_block = caller.new_block(f"{tag}_{label}_")
        label_map[label] = new_block.label

    for label in callee.block_order:
        target_block = caller.blocks[label_map[label]]
        for instr in callee.blocks[label].instrs:
            clone = instr.copy()
            clone.srcs = tuple(map_reg(src) for src in clone.srcs)
            if clone.dest is not None:
                clone.dest = map_reg(clone.dest)
            if clone.dest2 is not None:
                clone.dest2 = map_reg(clone.dest2)
            if clone.guard is not None:
                clone.guard = map_reg(clone.guard)
            if clone.targets:
                clone.targets = tuple(label_map[t] for t in clone.targets)
            target_block.instrs.append(clone)

    return label_map[callee.block_order[0]], label_map, reg_map


def inline_function(module: Module, caller: Function,
                    max_callee_ops: int = 24,
                    report: InlineReport | None = None) -> int:
    """Inline eligible call sites in ``caller``; returns sites inlined.

    Each physical call site is judged exactly once, at first encounter.
    """
    graph = _call_graph(module)
    inlined = 0
    judged: set[int] = set()
    changed = True
    guard_iterations = 0
    while changed and guard_iterations < 8:
        changed = False
        guard_iterations += 1
        for label in list(caller.block_order):
            block = caller.blocks[label]
            for index, instr in enumerate(block.instrs):
                if instr.op is not Opcode.CALL or instr.guard is not None:
                    continue
                callee = module.functions.get(instr.callee)
                if callee is None or callee is caller:
                    continue
                if callee.frame_words > 0:
                    continue
                if _reaches(graph, callee.name, callee.name):
                    continue  # self/mutually recursive
                if id(instr) in judged:
                    continue  # already rejected at first encounter
                judged.add(id(instr))

                value = (max_callee_ops + 0.5) - callee.instruction_count()
                accept = value > 0.0
                if report is not None:
                    report.decisions.append(InlineDecision(
                        caller=caller.name, callee=callee.name,
                        priority=value, inlined=accept))
                if not accept:
                    continue

                # Split the block at the call site.
                continuation = caller.new_block(f"after_{callee.name}_")
                continuation.instrs = block.instrs[index + 1:]
                entry_label, label_map, reg_map = _clone_into(
                    caller, callee, f"inl_{callee.name}"
                )
                prefix = block.instrs[:index]
                for param, arg in zip(callee.params, instr.srcs):
                    prefix.append(mov(reg_map.get(param,
                                                  caller.new_vreg(
                                                      param.vtype)),
                                      arg))
                prefix.append(jmp(entry_label))
                block.instrs = prefix

                # Rewrite cloned rets.
                for cloned_label in label_map.values():
                    cloned = caller.blocks[cloned_label]
                    term = cloned.instrs[-1]
                    if term.op is not Opcode.RET:
                        continue
                    replacement: list[Instr] = cloned.instrs[:-1]
                    if instr.dest is not None and term.srcs:
                        replacement.append(mov(instr.dest, term.srcs[0]))
                    replacement.append(jmp(continuation.label))
                    cloned.instrs = replacement

                inlined += 1
                changed = True
                break
            if changed:
                break
    return inlined


def inline_module(module: Module, max_callee_ops: int = 24) -> InlineReport:
    """Inline small calls across the whole module (callees first, so
    helper-of-helper chains flatten)."""
    report = InlineReport()
    for function in module.functions.values():
        for instr in function.instructions():
            if instr.op is Opcode.CALL:
                report.sites_seen += 1
    for function in module.functions.values():
        report.sites_inlined += inline_function(module, function,
                                                max_callee_ops,
                                                report=report)
    return report
