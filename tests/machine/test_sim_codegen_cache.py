"""The module-level codegen cache: repeated simulations of the same
binary reuse compiled block code, per-instance state stays isolated,
and results are bit-identical with and without cache hits."""

import pytest

from repro.frontend import compile_source
from repro.machine.descr import (
    DEFAULT_EPIC,
    CacheLevelConfig,
    MachineDescription,
)
from repro.machine.sim import (
    Simulator,
    clear_codegen_cache,
    codegen_cache_stats,
)
from repro.passes.regalloc import allocate_module
from repro.passes.schedule import schedule_module

SOURCE = """
int data[64];
int n;
void main() {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) {
    if (data[i] > 3) { acc = acc + data[i]; } else { acc = acc - 2; }
  }
  out(acc);
}
"""

INPUTS = {"data": [(i * 7) % 11 for i in range(64)], "n": [60]}


def build():
    module = compile_source(SOURCE)
    allocate_module(module, DEFAULT_EPIC)
    return schedule_module(module, DEFAULT_EPIC)


def simulate(scheduled, machine=DEFAULT_EPIC, **kwargs):
    simulator = Simulator(scheduled, machine, **kwargs)
    for name, values in INPUTS.items():
        simulator.set_global(name, values)
    return simulator.run()


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_codegen_cache()
    yield
    clear_codegen_cache()


class TestCodegenCache:
    def test_second_simulator_hits_cache(self):
        scheduled = build()
        first = simulate(scheduled)
        after_first = codegen_cache_stats()
        assert after_first["misses"] >= 1
        second = simulate(scheduled)
        after_second = codegen_cache_stats()
        assert after_second["hits"] > after_first["hits"]
        assert after_second["misses"] == after_first["misses"]
        assert second.cycles == first.cycles
        assert second.output_signature() == first.output_signature()
        assert second.branch_stall_cycles == first.branch_stall_cycles
        assert second.memory_stall_cycles == first.memory_stall_cycles

    def test_recompiled_binary_hits_cache(self):
        # A fresh compile of the same source produces new Instr uids;
        # the cache must still recognise the binary as identical.
        first = simulate(build())
        second = simulate(build())
        stats = codegen_cache_stats()
        assert stats["hits"] >= 1
        assert first.cycles == second.cycles
        assert first.output_signature() == second.output_signature()

    def test_instance_state_not_shared(self):
        scheduled = build()
        sim_a = Simulator(scheduled, DEFAULT_EPIC)
        sim_b = Simulator(scheduled, DEFAULT_EPIC)
        for name, values in INPUTS.items():
            sim_a.set_global(name, values)
        sim_b.set_global("data", [0] * 64)
        sim_b.set_global("n", [60])
        result_a = sim_a.run()
        result_b = sim_b.run()
        # Same compiled code, different memory/caches/predictor state.
        assert result_a.outputs != result_b.outputs
        assert sim_a.memory is not sim_b.memory

    def test_machine_constants_bound_per_instance(self):
        # The generated source is machine-independent (L1 latency and
        # mispredict penalty bind at Simulator construction), so two
        # machines share one cache entry yet disagree on timing.
        scheduled = build()
        slow_branches = MachineDescription(name="slow-branches",
                                           mispredict_penalty=50)
        fast = simulate(scheduled)
        entries_after_first = codegen_cache_stats()["entries"]
        slow = simulate(scheduled, machine=slow_branches)
        assert codegen_cache_stats()["entries"] == entries_after_first
        assert slow.output_signature() == fast.output_signature()
        assert slow.cycles > fast.cycles

    def test_l1_geometry_bound_per_instance(self):
        # The inline L1 lookup takes its sets, mask and shift from the
        # binding too: a machine with a smaller L1 and another penalty
        # reuses the cached code and still gets its own timing.
        scheduled = build()
        small = MachineDescription(
            name="small-l1",
            mispredict_penalty=11,
            cache_levels=(
                CacheLevelConfig("L1", 128, 64, 1, 2),
                *DEFAULT_EPIC.cache_levels[1:],
            ),
        )
        default = simulate(scheduled)
        before = codegen_cache_stats()
        warm = simulate(scheduled, machine=small)
        after = codegen_cache_stats()
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]
        clear_codegen_cache()
        assert simulate(scheduled, machine=small) == warm
        assert warm.output_signature() == default.output_signature()
        assert warm.l1_hit_rate < default.l1_hit_rate
        assert warm.memory_stall_cycles > default.memory_stall_cycles
        assert warm.branch_stall_cycles * 5 == default.branch_stall_cycles * 11

    def test_noise_still_per_instance(self):
        scheduled = build()
        clean = simulate(scheduled)
        noisy = simulate(scheduled, noise_stddev=0.3, noise_seed=7)
        noisy_again = simulate(scheduled, noise_stddev=0.3, noise_seed=7)
        assert noisy.cycles == noisy_again.cycles  # seeded => reproducible
        assert noisy.output_signature() == clean.output_signature()

    def test_clear_resets_stats(self):
        simulate(build())
        clear_codegen_cache()
        stats = codegen_cache_stats()
        assert stats == {"hits": 0, "misses": 0, "entries": 0}
