"""Natural-loop detection.

Loops drive two of the paper's case studies indirectly: loop unrolling
(one of the enabled classic optimizations) and data prefetching (Mowry's
algorithm inserts prefetches for affine accesses inside loops).
"""

from __future__ import annotations

from repro.ir.cfg import predecessors
from repro.ir.dominators import dominator_sets
from repro.ir.function import Function


class Loop:
    """A natural loop: ``header`` plus the body reached by back edges."""

    def __init__(self, header: str, body: set[str],
                 back_edges: list[tuple[str, str]] | None = None,
                 parent: Loop | None = None,
                 children: list[Loop] | None = None) -> None:
        self.header = header
        self.body = body  # includes the header
        self.back_edges = [] if back_edges is None else back_edges
        self.parent = parent
        self.children = [] if children is None else children

    @property
    def depth(self) -> int:
        """Nesting depth; an outermost loop has depth 1."""
        level = 1
        walker = self.parent
        while walker is not None:
            level += 1
            walker = walker.parent
        return level

    def exits(self, function: Function) -> list[tuple[str, str]]:
        """Edges leaving the loop body."""
        leaving = []
        for label in sorted(self.body):
            for succ in function.blocks[label].successors():
                if succ not in self.body:
                    leaving.append((label, succ))
        return leaving

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Loop(header={self.header}, blocks={len(self.body)})"


def find_loops(function: Function) -> list[Loop]:
    """All natural loops, nesting resolved, outermost first.

    Back edges are edges ``tail -> head`` where ``head`` dominates
    ``tail``; the loop body is everything that can reach ``tail``
    without passing through ``head``.
    """
    dom_sets = dominator_sets(function)
    preds = predecessors(function)

    loops_by_header: dict[str, Loop] = {}
    for tail in function.block_order:
        if tail not in dom_sets:  # unreachable
            continue
        for head in function.blocks[tail].successors():
            if head not in dom_sets[tail]:
                continue
            body = {head}
            stack = [tail]
            while stack:
                label = stack.pop()
                if label in body:
                    continue
                body.add(label)
                stack.extend(p for p in preds[label] if p in dom_sets)
            loop = loops_by_header.setdefault(head, Loop(head, set()))
            loop.body |= body
            loop.back_edges.append((tail, head))

    loops = list(loops_by_header.values())
    # Resolve nesting: the parent of L is the smallest loop strictly
    # containing L's header among other loops.
    by_size = sorted(loops, key=lambda lp: len(lp.body))
    for loop in by_size:
        for candidate in by_size:
            if candidate is loop:
                continue
            if loop.header in candidate.body and loop.body <= candidate.body:
                if loop.parent is None or len(candidate.body) < len(
                    loop.parent.body
                ):
                    loop.parent = candidate
    for loop in loops:
        if loop.parent is not None:
            loop.parent.children.append(loop)
    return sorted(loops, key=lambda lp: (lp.depth, lp.header))


def loop_depth_of_blocks(function: Function) -> dict[str, int]:
    """Loop-nesting depth of every block (0 when outside all loops)."""
    depth: dict[str, int] = {label: 0 for label in function.block_order}
    for loop in find_loops(function):
        for label in loop.body:
            depth[label] = max(depth[label], loop.depth)
    return depth
