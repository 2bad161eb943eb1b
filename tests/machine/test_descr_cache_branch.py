"""Machine description (Table 3), cache hierarchy, branch predictor."""

import pytest

from repro.ir.instr import FUClass, Opcode, binop, jmp, load, mov, prefetch, store
from repro.ir.values import FLOAT, INT, VReg, WORD_BYTES
from repro.machine.branch import TwoBitPredictor
from repro.machine.cache import CacheHierarchy, CacheLevel
from repro.machine.descr import (
    DEFAULT_EPIC,
    ITANIUM_MACHINE,
    REGALLOC_MACHINE,
    CacheLevelConfig,
    MachineDescription,
)


def vr(uid, vtype=INT):
    return VReg(uid, vtype)


class TestTable3:
    """The default machine matches the paper's Table 3."""

    def test_register_files(self):
        assert DEFAULT_EPIC.gp_registers == 64
        assert DEFAULT_EPIC.fp_registers == 64
        assert DEFAULT_EPIC.pred_registers == 256

    def test_functional_units(self):
        assert DEFAULT_EPIC.int_units == 4
        assert DEFAULT_EPIC.fp_units == 2
        assert DEFAULT_EPIC.mem_units == 2
        assert DEFAULT_EPIC.branch_units == 1

    def test_integer_latencies(self):
        assert DEFAULT_EPIC.latency(binop(Opcode.ADD, vr(0), vr(1), vr(2))) == 1
        assert DEFAULT_EPIC.latency(binop(Opcode.MUL, vr(0), vr(1), vr(2))) == 3
        assert DEFAULT_EPIC.latency(binop(Opcode.DIV, vr(0), vr(1), vr(2))) == 8
        assert DEFAULT_EPIC.latency(binop(Opcode.REM, vr(0), vr(1), vr(2))) == 8

    def test_float_latencies(self):
        f = lambda op: binop(op, vr(0, FLOAT), vr(1, FLOAT), vr(2, FLOAT))
        assert DEFAULT_EPIC.latency(f(Opcode.FADD)) == 3
        assert DEFAULT_EPIC.latency(f(Opcode.FMUL)) == 3
        assert DEFAULT_EPIC.latency(f(Opcode.FDIV)) == 8

    def test_memory_latencies(self):
        assert DEFAULT_EPIC.latency(load(vr(0), vr(1))) == 2  # L1
        assert DEFAULT_EPIC.latency(store(vr(0), vr(1))) == 1  # buffered
        cache_latencies = [c.latency for c in DEFAULT_EPIC.cache_levels]
        assert cache_latencies == [2, 7, 35]

    def test_branch_model(self):
        assert DEFAULT_EPIC.mispredict_penalty == 5

    def test_units_for(self):
        assert DEFAULT_EPIC.units_for(FUClass.INT) == 4
        assert DEFAULT_EPIC.units_for(FUClass.BRANCH) == 1

    def test_latency_override(self):
        machine = MachineDescription(
            name="m", latency_overrides={Opcode.MUL: 9})
        assert machine.latency(binop(Opcode.MUL, vr(0), vr(1), vr(2))) == 9

    def test_variant_machines(self):
        assert REGALLOC_MACHINE.gp_registers < DEFAULT_EPIC.gp_registers
        assert ITANIUM_MACHINE.cache_levels[0].size_bytes \
            < DEFAULT_EPIC.cache_levels[0].size_bytes

    def test_bad_cache_geometry_rejected(self):
        # 64KiB / (64B * 6-way) = 170 sets: not a power of two.
        with pytest.raises(ValueError):
            CacheLevelConfig("x", 64 * 1024, 64, 6, 2)

    @pytest.mark.parametrize("line_bytes", [4, 48])
    def test_bad_line_size_rejected(self, line_bytes):
        # lines hold whole words and are found by shifting: the
        # simulator's inline L1 lookup shifts word addresses
        with pytest.raises(ValueError):
            CacheLevelConfig("x", 1024, line_bytes, 2, 2)


class TestCacheLevel:
    def _level(self, size=1024, line=64, assoc=2):
        return CacheLevel(CacheLevelConfig("t", size, line, assoc, 1))

    def test_miss_then_hit(self):
        level = self._level()
        assert not level.access(0)
        level.fill(0)
        assert level.access(0)

    def test_line_granularity(self):
        level = self._level(line=64)
        level.fill(0)
        assert level.probe(63)
        assert not level.probe(64)

    def test_lru_eviction(self):
        level = self._level(size=256, line=64, assoc=2)  # 2 sets
        # set 0 receives lines 0, 128, 256 (same set, stride 2 lines)
        level.fill(0)
        level.fill(128)
        level.probe(0)        # refresh 0: 128 is now LRU
        level.fill(256)       # evicts 128
        assert level.probe(0)
        assert not level.probe(128)
        assert level.probe(256)

    def test_stats(self):
        level = self._level()
        level.access(0)
        level.fill(0)
        level.access(0)
        assert level.stats.accesses == 2
        assert level.stats.hits == 1
        assert level.stats.misses == 1
        assert level.stats.hit_rate == 0.5


class TestHierarchy:
    def test_cold_load_costs_memory_latency(self):
        hierarchy = CacheHierarchy(DEFAULT_EPIC)
        assert hierarchy.load(5000) == DEFAULT_EPIC.memory_latency

    def test_warm_load_costs_l1(self):
        hierarchy = CacheHierarchy(DEFAULT_EPIC)
        hierarchy.load(5000)
        assert hierarchy.load(5000) == 2

    def test_same_line_neighbour_hits(self):
        hierarchy = CacheHierarchy(DEFAULT_EPIC)
        hierarchy.load(5000)
        line_words = 64 // WORD_BYTES
        base = (5000 // line_words) * line_words
        assert hierarchy.load(base) == 2

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = CacheHierarchy(DEFAULT_EPIC)
        hierarchy.load(0)
        # Touch enough distinct lines to evict line 0 from L1 (16KB,
        # 4-way, 64B lines -> 64 sets; lines conflict every 64 lines).
        line_words = 64 // WORD_BYTES
        for i in range(1, 6):
            hierarchy.load(i * 64 * line_words)  # same set as 0
        latency = hierarchy.load(0)
        assert latency == 7  # L2 hit

    def test_prefetch_hides_latency(self):
        hierarchy = CacheHierarchy(DEFAULT_EPIC)
        hierarchy.prefetch(9000)
        assert hierarchy.load(9000) == 2
        assert hierarchy.prefetches == 1

    def test_prefetch_can_pollute(self):
        hierarchy = CacheHierarchy(DEFAULT_EPIC)
        hierarchy.load(0)
        line_words = 64 // WORD_BYTES
        # Fill the set with prefetches until line 0 is evicted from L1.
        for i in range(1, 5):
            hierarchy.prefetch(i * 64 * line_words)
        assert not hierarchy.would_hit_l1(0)

    def test_store_is_buffered(self):
        hierarchy = CacheHierarchy(DEFAULT_EPIC)
        assert hierarchy.store(7777) == 1  # cold store still 1 cycle
        assert hierarchy.load(7777) == 2   # write-allocated into L1

    def test_flush(self):
        hierarchy = CacheHierarchy(DEFAULT_EPIC)
        hierarchy.load(123)
        hierarchy.flush()
        assert hierarchy.load(123) == DEFAULT_EPIC.memory_latency


class TestPredictor:
    def test_initial_prediction_weakly_taken(self):
        predictor = TwoBitPredictor()
        assert predictor.predict(1) is True

    def test_two_not_taken_flip_prediction(self):
        predictor = TwoBitPredictor()
        predictor.update(1, False)
        predictor.update(1, False)
        assert predictor.predict(1) is False

    def test_saturation(self):
        predictor = TwoBitPredictor()
        for _ in range(10):
            predictor.update(1, True)
        predictor.update(1, False)  # one blip
        assert predictor.predict(1) is True  # still taken

    def test_update_returns_correctness(self):
        predictor = TwoBitPredictor()
        assert predictor.update(1, True) is True   # predicted taken
        assert predictor.update(1, False) is False

    def test_accuracy_tracking(self):
        predictor = TwoBitPredictor()
        predictor.update(1, True)
        predictor.update(1, True)
        predictor.update(1, False)
        assert predictor.accuracy_of(1) == pytest.approx(2 / 3)
        assert predictor.stats.predictions == 3
        assert predictor.stats.mispredictions == 1

    def test_branches_independent(self):
        predictor = TwoBitPredictor()
        predictor.update(1, False)
        predictor.update(1, False)
        assert predictor.predict(2) is True

    def test_alternating_branch_poor_accuracy(self):
        predictor = TwoBitPredictor()
        outcomes = [i % 2 == 0 for i in range(100)]
        for taken in outcomes:
            predictor.update(7, taken)
        assert predictor.accuracy_of(7) < 0.6
