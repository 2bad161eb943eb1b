"""End-to-end validation: for every suite benchmark, the fully
optimized, scheduled, register-allocated binary produces exactly the
reference interpreter's outputs — on both datasets.

This is the master correctness gate for the whole compiler: it
exercises inlining, unrolling, cleanup, if-conversion, prefetching,
spilling and scheduling together.
"""

import pytest

from repro.frontend import compile_source
from repro.ir.interp import Interpreter
from repro.machine.descr import DEFAULT_EPIC, ITANIUM_MACHINE, REGALLOC_MACHINE
from repro.machine.sim import Simulator
from repro.passes.pipeline import CompilerOptions, compile_backend, prepare
from repro.suite import all_benchmarks, get

#: A cross-section of the suite: every program family, both categories.
FAST_BENCHMARKS = (
    "codrle4", "decodrle4", "huff_enc", "huff_dec", "rawcaudio",
    "rawdaudio", "g721encode", "g721decode", "mpeg2dec", "toast",
    "129.compress", "124.m88ksim", "130.li", "147.vortex", "085.cc1",
    "023.eqntott", "unepic", "mipmap", "osdemo", "rasta",
    "146.wave5", "183.equake", "178.galgel", "189.lucas",
)


def reference(bench, dataset):
    module = compile_source(bench.source, bench.name)
    interp = Interpreter(module)
    for name, values in bench.inputs(dataset).items():
        interp.set_global(name, values)
    return interp.run()


def compiled(bench, options):
    module = compile_source(bench.source, bench.name)
    prepared = prepare(module, bench.inputs("train"), options)
    scheduled, _report = compile_backend(prepared)
    return scheduled


def simulate(scheduled, machine, bench, dataset):
    simulator = Simulator(scheduled, machine)
    for name, values in bench.inputs(dataset).items():
        simulator.set_global(name, values)
    return simulator.run()


@pytest.mark.parametrize("name", FAST_BENCHMARKS)
def test_default_pipeline_equivalence(name):
    bench = get(name)
    options = CompilerOptions(machine=DEFAULT_EPIC)
    scheduled = compiled(bench, options)
    for dataset in ("train", "novel"):
        ref = reference(bench, dataset)
        result = simulate(scheduled, DEFAULT_EPIC, bench, dataset)
        assert result.output_signature() == ref.output_signature(), \
            f"{name}/{dataset}"
        assert result.cycles > 0


@pytest.mark.parametrize("name", ("129.compress", "huff_enc", "g721encode",
                                  "huff_dec", "mpeg2dec"))
def test_regalloc_machine_equivalence(name):
    """The 12-register machine forces spilling on most of these."""
    bench = get(name)
    options = CompilerOptions(machine=REGALLOC_MACHINE)
    scheduled = compiled(bench, options)
    ref = reference(bench, "train")
    result = simulate(scheduled, REGALLOC_MACHINE, bench, "train")
    assert result.output_signature() == ref.output_signature()


@pytest.mark.parametrize("name", ("102.swim", "107.mgrid", "146.wave5",
                                  "183.equake", "178.galgel", "301.apsi"))
def test_prefetch_pipeline_equivalence(name):
    bench = get(name)
    options = CompilerOptions(machine=ITANIUM_MACHINE, prefetch=True)
    scheduled = compiled(bench, options)
    ref = reference(bench, "train")
    result = simulate(scheduled, ITANIUM_MACHINE, bench, "train")
    assert result.output_signature() == ref.output_signature()


def test_every_benchmark_compiles_through_backend():
    """Every benchmark survives the full pipeline with the IR verifier
    on at each stage boundary and on the schedule (no simulation —
    that is covered by the sampled equivalence tests above)."""
    for name, bench in sorted(all_benchmarks().items()):
        options = CompilerOptions(
            machine=ITANIUM_MACHINE if bench.category == "fp"
            else DEFAULT_EPIC,
            prefetch=bench.category == "fp",
            verify_ir=True,
        )
        module = compile_source(bench.source, name)
        prepared = prepare(module, bench.inputs("train"), options)
        compile_backend(prepared)
