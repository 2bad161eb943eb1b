"""The calibration slice: a frozen kernel that tells how fast this box
is *right now*.

The box the benchmark runs on swings by a quarter in phases of 30-90 s
(bench/NOISE.md), so every timed operation is bracketed by one slice
and reported at reference speed: ``raw * REF_SLICE_S / slice``.

The kernel must slow down when the program slows down, and by as much,
so it is made of what the program is made of: a recursive walk over a
small expression tree (``Node.evaluate``), and ``exec``-generated block
functions over a register list that call a tiny ``wi()`` and read and
write a dict "memory" through a method (the simulator's generated code
and its cache model).  It allocates almost nothing: an allocation-heavy
slice was measured to slow by 30 % while campaigns slowed by 10-25 %.

**Frozen.**  Changing anything below changes what a "reference second"
means and orphans ``ref_slice_s`` in ``config.json`` and every recorded
number.  The slice imports nothing from the program.
"""

from __future__ import annotations

_MASK = 0xFFFFFFFF


def wi(value: int) -> int:
    """Wrap to a signed 32-bit integer, like the simulator's ``wi``."""
    value &= _MASK
    return value - 0x100000000 if value & 0x80000000 else value


class _Node:
    """Expression-tree node with the program's recursive evaluate()."""

    __slots__ = ("op", "left", "right", "value")

    def __init__(self, op, left=None, right=None, value=0.0):
        self.op = op
        self.left = left
        self.right = right
        self.value = value

    def evaluate(self, env):
        op = self.op
        if op == "const":
            return self.value
        if op == "var":
            return env[self.value]
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        if op == "add":
            return left + right
        if op == "sub":
            return left - right
        if op == "mul":
            return left * right
        return left / right if right else 1.0


def _build_tree(depth: int, counter: list) -> _Node:
    counter[0] += 1
    serial = counter[0]
    if depth == 0:
        if serial % 3:
            return _Node("var", value=("a", "b", "c", "d")[serial % 4])
        return _Node("const", value=0.5 + (serial % 7))
    op = ("add", "sub", "mul", "div")[serial % 4]
    return _Node(op, _build_tree(depth - 1, counter),
                 _build_tree(depth - 1, counter))


class _Memory:
    """Dict-backed memory behind methods, like the cache hierarchy."""

    def __init__(self):
        self.cells = {}
        self.loads = 0
        self.stores = 0

    def load(self, address):
        self.loads += 1
        return self.cells.get(address, 0)

    def store(self, address, value):
        self.stores += 1
        self.cells[address] = value


class _State:
    __slots__ = ("cycles", "ops")

    def __init__(self):
        self.cycles = 0
        self.ops = 0


_BLOCK_COUNT = 6


def _block_source(position: int) -> str:
    """One generated block, shaped like the simulator's ``__bind_N``."""
    nxt = (position + 1) % _BLOCK_COUNT
    return "\n".join((
        f"def bind_{position}(S, LOAD, STORE, wi):",
        "    def block(R):",
        f"        S.cycles += {3 + position}",
        "        S.ops += 5",
        f"        R[1] = wi(R[0] * {7 + 2 * position} + R[2])",
        "        _a = R[1] & 255",
        "        R[3] = LOAD(_a)",
        f"        R[2] = wi(R[3] + R[1] - {position})",
        "        STORE(_a, R[2])",
        "        R[0] = R[0] - 1",
        "        if R[0] > 0:",
        f"            return {nxt}",
        "        return -1",
        "    return block",
    ))


def _build_blocks(state: _State, memory: _Memory) -> list:
    namespace: dict = {}
    for position in range(_BLOCK_COUNT):
        exec(compile(_block_source(position), f"<slice:{position}>", "exec"),
             namespace)
    return [namespace[f"bind_{position}"](state, memory.load, memory.store, wi)
            for position in range(_BLOCK_COUNT)]


class Slice:
    """The kernel, built once per driver process, run many times."""

    #: Tree walks and block-chain trips per slice; sized for ~0.15 s at
    #: reference speed.  Frozen with the kernel.
    TREE_WALKS = 4000
    BLOCK_TRIPS = 110000

    def __init__(self) -> None:
        self._tree = _build_tree(6, [0])
        self._env = {"a": 1.5, "b": -2.25, "c": 3.0, "d": 0.125}
        self._state = _State()
        self._memory = _Memory()
        self._blocks = _build_blocks(self._state, self._memory)

    def run(self) -> float:
        """Run the kernel once; returns a checksum (same every time)."""
        tree, env = self._tree, self._env
        total = 0.0
        for walk in range(self.TREE_WALKS):
            env["a"] = 1.5 + (walk & 15)
            total += tree.evaluate(env)
        self._state.cycles = 0
        self._state.ops = 0
        self._memory.cells.clear()
        blocks = self._blocks
        regs = [self.BLOCK_TRIPS, 0, 1, 0]
        label = 0
        while label >= 0:
            label = blocks[label](regs)
        return total + self._state.cycles + regs[2]
