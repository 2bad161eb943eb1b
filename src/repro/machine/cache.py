"""Cache hierarchy model.

Set-associative, LRU, write-back/write-allocate levels with inclusive
fills.  Stores are buffered (Table 3: "stores are buffered, and thus
require 1 cycle") — a store updates the hierarchy but never stalls.

Prefetches fill the hierarchy like loads but charge no latency; their
cost is the memory-unit issue slot they occupy plus the *pollution*
they may cause by evicting live lines — exactly the trade-off the
prefetching case study's priority function must learn.

Two hot paths do the levels' work without calling their methods: the
simulator's generated code does the L1 lookup, LRU refresh and hit
count itself, and :meth:`CacheHierarchy.load_miss` / ``store_miss``
walk the levels below L1 in one frame.  ``CacheLevel.probe``,
``access`` and ``fill`` stay: they are the reference both paths are
tested against, and the prefetch path.
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

    A line lives in ``sets[line & index_mask]``, a plain ``dict`` keyed
    by line number whose insertion order is the LRU order, most recent
    last; a hit deletes and re-inserts its key.  ``sets``,
    ``index_mask``, ``word_shift`` and ``stats`` are public because two
    hot paths do a level's work without calling its methods: the
    simulator's generated code does the L1 lookup and LRU refresh
    itself (docs/MACHINE.md), and :class:`CacheHierarchy`'s miss walks
    do the lookups, refreshes, counts and fills below it.  ``probe``,
    ``access`` and ``fill`` stay as the reference both are tested
    against (``tests/machine/test_cache_property.py``,
    ``tests/machine/test_sim_inline_differential.py``), and as the
    prefetch path.

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
    """L1/L2/L3 + memory, with Table 3 latencies.

    A demand load or store whose L1 lookup misses costs one call:
    :meth:`load_miss` or :meth:`store_miss` walks the levels below L1
    in its own frame, on the levels' sets, and calls no
    :class:`CacheLevel` method.  The walk finds the first level holding
    the line and refreshes its LRU (a load counts a hit there and a
    miss at each level above it), then fills every level above it, or
    every level when none holds the line.  A level above the one that
    answered has just missed, so its fill never finds the line there.
    """

    def __init__(self, machine: MachineDescription) -> None:
        self.machine = machine
        self.levels = [CacheLevel(config, lazy=depth > 0)
                       for depth, config in enumerate(machine.cache_levels)]
        self.prefetches = 0
        #: each level's (sets, index mask, word-to-line shift,
        #: associativity): what a fill reads
        self._fills = tuple(
            (level.sets, level.index_mask, level.word_shift,
             level.config.assoc) for level in self.levels)
        #: per level below L1, what its lookup reads, then its stats,
        #: its latency and the fills of the levels above it
        self._below = tuple(
            (level.sets, level.index_mask, level.word_shift, level.stats,
             level.config.latency, self._fills[:depth])
            for depth, level in enumerate(self.levels[1:], 1))

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
        """The rest of a demand load whose L1 lookup missed: counts the
        L1 miss, walks the levels below and returns the latency of the
        one that held the line, or memory's."""
        self.levels[0].stats.misses += 1
        latency, fills = self.machine.memory_latency, self._fills
        for sets, mask, shift, stats, level_latency, above in self._below:
            line = word_addr >> shift
            cache_set = sets[line & mask]
            if cache_set is not None and line in cache_set:
                del cache_set[line]
                cache_set[line] = None
                stats.hits += 1
                latency, fills = level_latency, above
                break
            stats.misses += 1
        for sets, mask, shift, assoc in fills:
            line = word_addr >> shift
            index = line & mask
            cache_set = sets[index]
            if cache_set is None:
                sets[index] = {line: None}
                continue
            if len(cache_set) >= assoc:
                for lru in cache_set:
                    break
                del cache_set[lru]
            cache_set[line] = None
        return latency

    def store(self, word_addr: int) -> int:
        """Buffered store: 1 cycle, allocates into L1."""
        if not self.levels[0].probe(word_addr * WORD_BYTES):
            self.store_miss(word_addr)
        return 1

    def store_miss(self, word_addr: int) -> None:
        """The rest of a store whose L1 lookup missed: write-allocate
        without charging miss latency (buffered) or counting a hit or
        miss anywhere.  The same walk as :meth:`load_miss`."""
        fills = self._fills
        for sets, mask, shift, _stats, _latency, above in self._below:
            line = word_addr >> shift
            cache_set = sets[line & mask]
            if cache_set is not None and line in cache_set:
                del cache_set[line]
                cache_set[line] = None
                fills = above
                break
        for sets, mask, shift, assoc in fills:
            line = word_addr >> shift
            index = line & mask
            cache_set = sets[index]
            if cache_set is None:
                sets[index] = {line: None}
                continue
            if len(cache_set) >= assoc:
                for lru in cache_set:
                    break
                del cache_set[lru]
            cache_set[line] = None

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
