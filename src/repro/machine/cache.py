"""Cache hierarchy model.

Set-associative, LRU, write-back/write-allocate levels with inclusive
fills.  Stores are buffered (Table 3: "stores are buffered, and thus
require 1 cycle") — a store updates the hierarchy but never stalls.

Prefetches fill the hierarchy like loads but charge no latency; their
cost is the memory-unit issue slot they occupy plus the *pollution*
they may cause by evicting live lines — exactly the trade-off the
prefetching case study's priority function must learn.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.values import WORD_BYTES
from repro.machine.descr import CacheLevelConfig, MachineDescription


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    prefetch_fills: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class CacheLevel:
    """One set-associative level with true-LRU replacement.

    ``sets``, ``index_mask``, ``word_shift`` and ``stats`` are public
    because the simulator's generated code does the L1 hit itself
    (docs/MACHINE.md): a line lives in ``sets[line & index_mask]``, a
    plain ``dict`` keyed by line number whose insertion order is the
    LRU order, most recent last; a hit deletes and re-inserts its key.

    A ``lazy`` level makes each set when a line is first filled into
    it; until then its entry in ``sets`` is ``None``, and every lookup
    in it misses.  The hierarchy makes the levels below L1 lazy: a
    simulation touches few of their thousands of sets, and L1's must
    all exist for the generated lookup.
    """

    def __init__(self, config: CacheLevelConfig,
                 lazy: bool = False) -> None:
        self.config = config
        self.sets_count = config.size_bytes // (config.line_bytes * config.assoc)
        self.index_mask = self.sets_count - 1
        self.line_shift = config.line_bytes.bit_length() - 1
        #: word address -> line number, for callers that address words
        self.word_shift = self.line_shift - (WORD_BYTES.bit_length() - 1)
        self.sets: list[dict[int, None] | None] = (
            [None] * self.sets_count if lazy
            else [{} for _ in range(self.sets_count)])
        self.stats = CacheStats()

    def probe(self, byte_addr: int) -> bool:
        """Look up without updating statistics; refreshes LRU on hit."""
        line = byte_addr >> self.line_shift
        cache_set = self.sets[line & self.index_mask]
        if cache_set is not None and line in cache_set:
            del cache_set[line]
            cache_set[line] = None
            return True
        return False

    def access(self, byte_addr: int) -> bool:
        """Demand access: returns hit/miss and updates stats."""
        if self.probe(byte_addr):
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, byte_addr: int, from_prefetch: bool = False) -> None:
        """Install the line, evicting LRU if needed."""
        line = byte_addr >> self.line_shift
        index = line & self.index_mask
        cache_set = self.sets[index]
        if cache_set is None:
            cache_set = self.sets[index] = {}
        elif line in cache_set:
            del cache_set[line]
            cache_set[line] = None
            return
        elif len(cache_set) >= self.config.assoc:
            del cache_set[next(iter(cache_set))]
        cache_set[line] = None
        if from_prefetch:
            self.stats.prefetch_fills += 1

    def flush(self) -> None:
        for cache_set in self.sets:
            if cache_set is not None:
                cache_set.clear()


class CacheHierarchy:
    """L1/L2/L3 + memory, with Table 3 latencies."""

    def __init__(self, machine: MachineDescription) -> None:
        self.machine = machine
        self.levels = [CacheLevel(config, lazy=depth > 0)
                       for depth, config in enumerate(machine.cache_levels)]
        self.prefetches = 0

    @property
    def loads(self) -> int:
        """Demand loads so far: each one accesses L1 exactly once, and
        nothing else does (stores and prefetches only probe)."""
        return self.levels[0].stats.accesses

    def load(self, word_addr: int) -> int:
        """Demand load: returns total latency in cycles and fills all
        missed levels (inclusive hierarchy)."""
        level1 = self.levels[0]
        if level1.probe(word_addr * WORD_BYTES):
            level1.stats.hits += 1
            return level1.config.latency
        return self.load_miss(word_addr)

    def load_miss(self, word_addr: int) -> int:
        """The rest of a demand load whose L1 lookup missed."""
        byte_addr = word_addr * WORD_BYTES
        levels = self.levels
        levels[0].stats.misses += 1
        for depth, level in enumerate(levels[1:], 1):
            if level.access(byte_addr):
                for upper in levels[:depth]:
                    upper.fill(byte_addr)
                return level.config.latency
        for level in levels:
            level.fill(byte_addr)
        return self.machine.memory_latency

    def store(self, word_addr: int) -> int:
        """Buffered store: 1 cycle, allocates into L1."""
        if not self.levels[0].probe(word_addr * WORD_BYTES):
            self.store_miss(word_addr)
        return 1

    def store_miss(self, word_addr: int) -> None:
        """The rest of a store whose L1 lookup missed: write-allocate
        without charging miss latency (buffered)."""
        byte_addr = word_addr * WORD_BYTES
        levels = self.levels
        for depth, level in enumerate(levels[1:], 1):
            if level.probe(byte_addr):
                for upper in levels[:depth]:
                    upper.fill(byte_addr)
                return
        for level in levels:
            level.fill(byte_addr)

    def prefetch(self, word_addr: int) -> None:
        """Software prefetch: fills every level, charges no latency."""
        self.prefetches += 1
        byte_addr = word_addr * WORD_BYTES
        for level in self.levels:
            if not level.probe(byte_addr):
                level.fill(byte_addr, from_prefetch=True)

    def flush(self) -> None:
        for level in self.levels:
            level.flush()
