"""Property-based cache tests: the set-associative LRU model agrees
with a naive reference simulation on arbitrary access traces, and the
hierarchy's walk below L1 agrees with the same walk composed from each
level's own ``access``, ``probe`` and ``fill``."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import MACHINES
from repro.ir.values import WORD_BYTES
from repro.machine.cache import CacheHierarchy, CacheLevel
from repro.machine.descr import CacheLevelConfig


class ReferenceLRU:
    """Obviously-correct model: per-set ordered dicts over line ids."""

    def __init__(self, sets, assoc, line_bytes):
        self.sets = sets
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.state = [OrderedDict() for _ in range(sets)]

    def access(self, addr):
        line = addr // self.line_bytes
        index = line % self.sets
        tag = line // self.sets
        cache_set = self.state[index]
        if tag in cache_set:
            cache_set.move_to_end(tag)
            return True
        if len(cache_set) >= self.assoc:
            cache_set.popitem(last=False)
        cache_set[tag] = None
        return False


CONFIG = CacheLevelConfig("t", 1024, 64, 2, 1)  # 8 sets, 2-way
SETS = 1024 // (64 * 2)

addresses = st.lists(
    st.integers(min_value=0, max_value=64 * 64 * 4),
    min_size=1, max_size=200,
)


class TestLRUEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(addresses)
    def test_hit_miss_sequence_matches_reference(self, trace):
        level = CacheLevel(CONFIG)
        reference = ReferenceLRU(SETS, CONFIG.assoc, CONFIG.line_bytes)
        for addr in trace:
            hit = level.access(addr)
            if not hit:
                level.fill(addr)
            assert hit == reference.access(addr), trace

    @settings(max_examples=50, deadline=None)
    @given(addresses)
    def test_occupancy_bounded_by_associativity(self, trace):
        level = CacheLevel(CONFIG)
        for addr in trace:
            if not level.access(addr):
                level.fill(addr)
        for cache_set in level.sets:
            assert len(cache_set) <= CONFIG.assoc

    @settings(max_examples=50, deadline=None)
    @given(addresses)
    def test_stats_consistent(self, trace):
        level = CacheLevel(CONFIG)
        for addr in trace:
            if not level.access(addr):
                level.fill(addr)
        stats = level.stats
        assert stats.accesses == len(trace)
        assert stats.hits + stats.misses == stats.accesses


class TestHierarchyProperties:
    @settings(max_examples=50, deadline=None)
    @given(addresses)
    def test_latency_is_one_of_the_levels(self, trace):
        from repro.machine.cache import CacheHierarchy
        from repro.machine.descr import DEFAULT_EPIC

        hierarchy = CacheHierarchy(DEFAULT_EPIC)
        valid = {c.latency for c in DEFAULT_EPIC.cache_levels}
        valid.add(DEFAULT_EPIC.memory_latency)
        for addr in trace:
            assert hierarchy.load(addr) in valid

    @settings(max_examples=50, deadline=None)
    @given(addresses)
    def test_repeat_load_is_l1_hit(self, trace):
        from repro.machine.cache import CacheHierarchy
        from repro.machine.descr import DEFAULT_EPIC

        hierarchy = CacheHierarchy(DEFAULT_EPIC)
        for addr in trace:
            hierarchy.load(addr)
            assert hierarchy.load(addr) \
                == DEFAULT_EPIC.cache_levels[0].latency


class ReferenceHierarchy(CacheHierarchy):
    """The hierarchy with its walk below L1 composed level by level
    from ``CacheLevel.access``, ``probe`` and ``fill``: the reference
    the one-frame walk and the simulator's generated code are held
    to."""

    def load_miss(self, word_addr: int) -> int:
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

    def store_miss(self, word_addr: int) -> None:
        byte_addr = word_addr * WORD_BYTES
        levels = self.levels
        for depth, level in enumerate(levels[1:], 1):
            if level.probe(byte_addr):
                for upper in levels[:depth]:
                    upper.fill(byte_addr)
                return
        for level in levels:
            level.fill(byte_addr)


def hierarchy_state(hierarchy: CacheHierarchy):
    """Every level's sets in LRU order (a set no fill made yet is
    ``None``) and every counter."""
    return ([[None if cache_set is None else list(cache_set)
              for cache_set in level.sets] for level in hierarchy.levels],
            [level.stats for level in hierarchy.levels],
            hierarchy.prefetches)


def apply(hierarchy: CacheHierarchy, kind: str, word_addr: int):
    if kind == "load":
        return hierarchy.load(word_addr)
    if kind == "store":
        return hierarchy.store(word_addr)
    return hierarchy.prefetch(word_addr)


def level_strides(machine) -> list[int]:
    """Per level, the words between two lines in the same set of that
    level (and of every level above it, whose set counts divide it)."""
    return [config.line_bytes // WORD_BYTES
            * (config.size_bytes // (config.line_bytes * config.assoc))
            for config in machine.cache_levels]


def sweep(machine) -> list[tuple[int | None, int | None]]:
    """Loads that evict a line from the levels down to each level in
    turn and then load it again, with the latency that load must see.
    Per level, from flushed caches: the line, then as many more lines
    one stride apart as the largest associativity down to that level,
    all in one set there and in every level above, so the line is
    evicted from each of them but held by the next, which answers its
    reload (memory does, below the last).  ``None`` is a flush."""
    levels = machine.cache_levels
    latencies = [config.latency for config in levels[1:]]
    latencies.append(machine.memory_latency)
    events = []
    for depth, (stride, latency) in enumerate(
            zip(level_strides(machine), latencies)):
        ways = max(config.assoc for config in levels[:depth + 1])
        events.append((None, None))
        events += [(stride * k, None) for k in range(ways + 1)]
        events.append((0, latency))
    return events


@st.composite
def hierarchy_events(draw, machine):
    """Loads, stores and prefetches a few lines or a few set strides
    apart, so each level's sets conflict and evict."""
    line_words = machine.cache_levels[0].line_bytes // WORD_BYTES
    address = st.builds(
        lambda stride, multiple, offset: stride * multiple + offset,
        st.sampled_from([line_words, *level_strides(machine)]),
        st.integers(0, 12), st.integers(0, line_words * 2))
    return draw(st.lists(
        st.tuples(st.sampled_from(["load", "store", "prefetch"]), address),
        min_size=1, max_size=80))


class TestWalkBelowL1:
    """``CacheHierarchy.load_miss`` / ``store_miss`` walk L2 and L3 in
    one frame; each trace must give the same latency per load and the
    same hits, misses and LRU order at every level as
    :class:`ReferenceHierarchy`.  Every trace starts with
    :func:`sweep`, so L2 and L3 hits and full-set evictions at every
    level are in every example, and most sets below L1 are never
    filled."""

    @pytest.mark.parametrize("machine", MACHINES.values(),
                             ids=MACHINES.keys())
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_walk_matches_the_composed_levels(self, machine, data):
        walk, reference = CacheHierarchy(machine), ReferenceHierarchy(machine)
        for address, expected in sweep(machine):
            if address is None:
                walk.flush()
                reference.flush()
                continue
            latency = reference.load(address)
            assert walk.load(address) == latency
            assert expected in (None, latency)
        below = reference.levels[1:]
        assert all(level.stats.hits for level in below)
        assert all(None in level.sets for level in below)
        trace = data.draw(hierarchy_events(machine))
        for kind, address in trace:
            assert apply(walk, kind, address) \
                == apply(reference, kind, address), trace
        assert hierarchy_state(walk) == hierarchy_state(reference), trace
