"""Data prefetching: stream detection, feature extraction, decision
hooks, insertion mechanics, and the ORC baseline."""

import pytest

from repro.frontend import compile_source
from repro.ir.instr import Opcode
from repro.ir.interp import Interpreter
from repro.machine.descr import ITANIUM_MACHINE
from repro.machine.sim import Simulator
from repro.metaopt.psets import (
    PREFETCH_BOOL_FEATURES,
    PREFETCH_REAL_FEATURES,
)
from repro.passes.cleanup import cleanup_module
from repro.passes.prefetch import (
    always_prefetch,
    insert_prefetches,
    never_prefetch,
    orc_confidence,
)
from repro.passes.regalloc import allocate_module
from repro.passes.schedule import schedule_module
from repro.profile.profiler import collect_profile

STREAM_SOURCE = """
float src[2048];
float dst[2048];
void main() {
  float acc = 0.0;
  int i;
  for (i = 0; i < 2048; i = i + 1) {
    dst[i] = src[i] * 2.0;
    acc = acc + dst[i];
  }
  out(acc);
}
"""

STREAM_INPUTS = {"src": [0.25 * i for i in range(2048)]}


def prepared_function(source, inputs, priority=orc_confidence):
    module = compile_source(source)
    cleanup_module(module)
    profile = collect_profile(module, inputs)
    func = module.functions["main"]
    report = insert_prefetches(func, ITANIUM_MACHINE,
                               profile.function("main"), priority)
    return module, func, report


def simulate(module, inputs):
    working = module.clone()
    allocate_module(working, ITANIUM_MACHINE)
    scheduled = schedule_module(working, ITANIUM_MACHINE)
    simulator = Simulator(scheduled, ITANIUM_MACHINE)
    for name, values in inputs.items():
        simulator.set_global(name, values)
    return simulator.run()


def reference(source, inputs):
    module = compile_source(source)
    interp = Interpreter(module)
    for name, values in inputs.items():
        interp.set_global(name, values)
    return interp.run()


class TestStreamDetection:
    def test_unit_stride_loads_found(self):
        _module, _func, report = prepared_function(STREAM_SOURCE,
                                                   STREAM_INPUTS)
        assert report.candidates >= 2  # src[i] and dst[i] reload

    def test_no_candidates_without_loops(self):
        source = "float x; void main() { out(x * 2.0); }"
        _module, _func, report = prepared_function(source, {})
        assert report.candidates == 0

    def test_indirect_stream_not_affine(self):
        source = """
        int idx[256];
        float data[256];
        void main() {
          float acc = 0.0;
          int i;
          for (i = 0; i < 256; i = i + 1) {
            acc = acc + data[idx[i]];
          }
          out(acc);
        }
        """
        inputs = {"idx": list(range(256)), "data": [1.0] * 256}
        _module, _func, report = prepared_function(source, inputs)
        decisions = dict(report.decisions)
        # idx[i] itself is affine; data[idx[i]] is not.  At least one
        # candidate exists (idx) but not every load qualifies.
        loads = 2  # idx[i] and data[idx[i]]
        assert report.candidates < loads * 1 + 1

    def test_strided_access(self):
        source = STREAM_SOURCE.replace("i = i + 1", "i = i + 8")
        _module, _func, report = prepared_function(source, STREAM_INPUTS)
        assert report.candidates >= 1


class TestFeatures:
    def _first_env(self, source, inputs):
        captured = []

        def recorder(env):
            captured.append(dict(env))
            return False

        prepared_function(source, inputs, priority=recorder)
        return captured

    def test_declared_features_present(self):
        envs = self._first_env(STREAM_SOURCE, STREAM_INPUTS)
        assert envs
        for env in envs:
            assert set(env) == {*PREFETCH_REAL_FEATURES,
                                *PREFETCH_BOOL_FEATURES}

    def test_static_trip_known_for_constant_bounds(self):
        envs = self._first_env(STREAM_SOURCE, STREAM_INPUTS)
        assert any(env["trip_known"] for env in envs)
        # The loop was unroll-eligible upstream but here raw: trips 2048
        assert any(env["static_trip"] >= 1024 for env in envs)

    def test_estimated_trips_from_profile(self):
        source = """
        int n;
        float src[2048];
        void main() {
          float acc = 0.0;
          int i;
          for (i = 0; i < n; i = i + 1) { acc = acc + src[i]; }
          out(acc);
        }
        """
        inputs = {"n": [600], "src": [1.0] * 2048}
        envs = self._first_env(source, inputs)
        assert any(not env["trip_known"] for env in envs)
        assert any(550 <= env["est_trip_count"] <= 650 for env in envs)

    def test_unit_stride_flag(self):
        envs = self._first_env(STREAM_SOURCE, STREAM_INPUTS)
        assert any(env["unit_stride"] for env in envs)


class TestInsertion:
    def test_prefetch_instructions_inserted(self):
        module, func, report = prepared_function(
            STREAM_SOURCE, STREAM_INPUTS, priority=always_prefetch
        )
        assert report.inserted == report.candidates > 0
        prefetches = [i for i in func.instructions()
                      if i.op is Opcode.PREFETCH]
        assert len(prefetches) == report.inserted

    def test_never_prefetch_inserts_nothing(self):
        _module, func, report = prepared_function(
            STREAM_SOURCE, STREAM_INPUTS, priority=never_prefetch
        )
        assert report.inserted == 0
        assert not any(i.op is Opcode.PREFETCH
                       for i in func.instructions())

    def test_semantics_unchanged(self):
        ref = reference(STREAM_SOURCE, STREAM_INPUTS)
        module, _func, _report = prepared_function(
            STREAM_SOURCE, STREAM_INPUTS, priority=always_prefetch
        )
        result = simulate(module, STREAM_INPUTS)
        assert result.output_signature() == ref.output_signature()

    def test_prefetching_improves_streaming_loop(self):
        module_on, _f, _r = prepared_function(
            STREAM_SOURCE, STREAM_INPUTS, priority=always_prefetch
        )
        module_off, _f2, _r2 = prepared_function(
            STREAM_SOURCE, STREAM_INPUTS, priority=never_prefetch
        )
        on = simulate(module_on, STREAM_INPUTS)
        off = simulate(module_off, STREAM_INPUTS)
        assert on.prefetch_count > 0
        assert on.cycles < off.cycles
        assert on.memory_stall_cycles < off.memory_stall_cycles

    def test_priority_exceptions_mean_no_prefetch(self):
        def broken(env):
            raise ArithmeticError("boom")

        _module, _func, report = prepared_function(
            STREAM_SOURCE, STREAM_INPUTS, priority=broken
        )
        assert report.inserted == 0


class TestORCBaseline:
    def test_long_known_trips_prefetched(self):
        assert orc_confidence({
            "trip_known": True, "static_trip": 100.0,
            "est_trip_count": 0.0,
        })

    def test_short_known_trips_not_prefetched(self):
        assert not orc_confidence({
            "trip_known": True, "static_trip": 4.0,
            "est_trip_count": 4.0,
        })

    def test_profiled_trips_used_when_unknown(self):
        assert orc_confidence({
            "trip_known": False, "static_trip": 0.0,
            "est_trip_count": 50.0,
        })
        assert not orc_confidence({
            "trip_known": False, "static_trip": 0.0,
            "est_trip_count": 2.0,
        })
