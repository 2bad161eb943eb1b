"""Control-flow-graph utilities over a :class:`~repro.ir.function.Function`.

The CFG is derived (not stored): block labels plus terminator targets
define it.  These helpers compute predecessor maps, traversal orders,
and perform the structural edits passes need (dead block removal,
straight-line merging).
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.instr import Opcode


def successors(function: Function) -> dict[str, tuple[str, ...]]:
    return {
        label: function.blocks[label].successors()
        for label in function.block_order
    }


def predecessors(function: Function) -> dict[str, list[str]]:
    preds: dict[str, list[str]] = {label: [] for label in function.block_order}
    for label in function.block_order:
        for succ in function.blocks[label].successors():
            preds[succ].append(label)
    return preds


def reachable(function: Function) -> set[str]:
    """Labels reachable from the entry block."""
    seen: set[str] = set()
    stack = [function.block_order[0]]
    while stack:
        label = stack.pop()
        if label in seen:
            continue
        seen.add(label)
        stack.extend(function.blocks[label].successors())
    return seen


def remove_unreachable(function: Function) -> int:
    """Delete unreachable blocks; returns how many were removed."""
    keep = reachable(function)
    dead = [label for label in function.block_order if label not in keep]
    for label in dead:
        function.remove_block(label)
    return len(dead)


def reverse_postorder(function: Function) -> list[str]:
    """Reverse postorder over reachable blocks (forward dataflow order)."""
    visited: set[str] = set()
    order: list[str] = []

    def visit(label: str) -> None:
        stack: list[tuple[str, int]] = [(label, 0)]
        visited.add(label)
        while stack:
            current, child_index = stack[-1]
            succs = function.blocks[current].successors()
            if child_index < len(succs):
                stack[-1] = (current, child_index + 1)
                nxt = succs[child_index]
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, 0))
            else:
                order.append(current)
                stack.pop()

    visit(function.block_order[0])
    order.reverse()
    return order


def merge_straightline(function: Function) -> int:
    """Merge ``a -> b`` pairs where a jmp-terminated ``a`` is ``b``'s only
    predecessor and ``b`` has exactly that predecessor.  Returns the
    number of merges performed (a simple cleanup after if-conversion)."""
    merges = 0
    changed = True
    while changed:
        changed = False
        preds = predecessors(function)
        for label in list(function.block_order):
            if label not in function.blocks:
                continue
            block = function.blocks[label]
            term = block.terminator
            if term.op is not Opcode.JMP:
                continue
            target = term.targets[0]
            if target == label or target == function.block_order[0]:
                continue
            if preds[target] != [label]:
                continue
            target_block = function.blocks[target]
            block.instrs = block.instrs[:-1] + target_block.instrs
            function.remove_block(target)
            merges += 1
            changed = True
            break
    return merges
