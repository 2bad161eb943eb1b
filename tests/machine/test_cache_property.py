"""Property-based cache tests: the set-associative LRU model agrees
with a naive reference simulation on arbitrary access traces."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.machine.cache import CacheLevel
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
