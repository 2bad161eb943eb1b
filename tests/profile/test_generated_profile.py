"""The training profile comes from generated code; the interpreter's
decode counters are its reference.

``collect_profile`` runs the module's generated code in profiling form
(``ProfilingRun``).  These tests hold its profile to
``profile_from_counts`` of an interpreter run of the same module on the
same inputs and step budget, compared as the differential oracle's
``profile`` channel compares them (``compare_profiles``: function
order, every count in its order, and the run's observables, steps and
blocks): over every suite program on both datasets, the regression
corpus, random ``repro fuzz`` programs, and every step budget of a
program whose overrun can fall inside a nested call."""

import json
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.frontend import compile_source
from repro.ir.interp import Interpreter, InterpError
from repro.passes.pipeline import prepare
from repro.profile.profiler import collect_profile
from repro.profile.profiler import profile_from_counts
from repro.suite.registry import all_benchmarks, get as get_benchmark
from repro.verify.differential import compare_profiles
from repro.verify.fuzz import generate_program

PHASES = (Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink)

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def reference_profile(module, inputs, max_steps=10_000_000):
    """The profile the interpreter's counters give for one run."""
    interp = Interpreter(module, max_steps=max_steps)
    for name, values in inputs.items():
        interp.set_global(name, values)
    try:
        result = interp.run()
    except InterpError:
        result = None
    return profile_from_counts(module, interp.control_counts(), result)


def assert_profiles_equal(generated, module, inputs, max_steps=10_000_000):
    assert compare_profiles(
        generated, reference_profile(module, inputs, max_steps)) == []


@pytest.mark.parametrize("bench_name", sorted(all_benchmarks()))
def test_suite_profiles_equal_the_interpreters(bench_name):
    bench = get_benchmark(bench_name)
    train = bench.inputs("train")
    prepared = prepare(compile_source(bench.source, bench.name), train)
    assert_profiles_equal(prepared.profile, prepared.module, train)
    novel = bench.inputs("novel")
    assert_profiles_equal(collect_profile(prepared.module, novel),
                          prepared.module, novel)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.mc")),
                         ids=lambda path: path.stem)
def test_corpus_profiles_equal_the_interpreters(path):
    inputs = json.loads(path.with_suffix(".inputs.json").read_text())
    prepared = prepare(compile_source(path.read_text(), path.stem), inputs)
    assert_profiles_equal(prepared.profile, prepared.module, inputs)


@settings(max_examples=25, deadline=None, phases=PHASES)
@given(seed=st.integers(0, 2**32 - 1))
def test_fuzz_profiles_equal_the_interpreters(seed):
    program = generate_program(seed)
    prepared = prepare(compile_source(program.source, "fuzz"),
                       program.inputs)
    assert_profiles_equal(prepared.profile, prepared.module, program.inputs)


NESTED = """
int leaf(int x) {
  int i; int s;
  s = 0;
  for (i = 0; i < x; i = i + 1) { s = s + i; }
  return s;
}
int mid(int x) { return leaf(x) + leaf(x + 1); }
void main() { out(mid(3)); out(mid(50)); }
"""


def test_every_step_budget_cuts_the_profile_where_the_interpreter_does():
    """913 steps run ``NESTED`` to the end; each smaller budget faults
    at some instruction of ``main``, ``mid`` or ``leaf``, a ``CALL``
    included, and the counts up to there must be the interpreter's."""
    module = compile_source(NESTED)
    for budget in range(915):
        generated = collect_profile(module, max_steps=budget)
        assert (generated.run_result is None) == (budget < 913), budget
        assert compare_profiles(
            generated, reference_profile(module, {}, budget)) == [], budget
