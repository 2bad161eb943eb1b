"""Benchmark registry: Table 5 coverage, dataset determinism, and the
experiment groupings."""

import pytest

from repro.frontend import compile_source
from repro.suite import (
    HYPERBLOCK_TEST_SET,
    HYPERBLOCK_TRAINING_SET,
    PREFETCH_TEST_SET,
    PREFETCH_TRAINING_SET,
    REGALLOC_TEST_SET,
    REGALLOC_TRAINING_SET,
    all_benchmarks,
    by_category,
    by_suite,
    get,
)
from repro.verify.ir_verifier import verify_module

#: Table 5's benchmark names (plus the FP suites of Sections 7).
TABLE5_NAMES = {
    "codrle4", "decodrle4", "huff_enc", "huff_dec", "djpeg",
    "g721encode", "g721decode", "mpeg2dec", "rasta", "rawcaudio",
    "rawdaudio", "toast", "unepic", "085.cc1", "osdemo", "mipmap",
    "129.compress", "132.ijpeg", "130.li", "124.m88ksim", "147.vortex",
}


class TestCoverage:
    def test_table5_names_present(self):
        names = set(all_benchmarks())
        missing = TABLE5_NAMES - names
        assert not missing, f"missing Table 5 benchmarks: {missing}"

    def test_prefetch_suites_present(self):
        names = set(all_benchmarks())
        assert set(PREFETCH_TRAINING_SET) <= names
        assert set(PREFETCH_TEST_SET) <= names

    def test_experiment_sets_are_registered(self):
        names = set(all_benchmarks())
        for group in (HYPERBLOCK_TRAINING_SET, HYPERBLOCK_TEST_SET,
                      REGALLOC_TRAINING_SET, REGALLOC_TEST_SET,
                      PREFETCH_TRAINING_SET, PREFETCH_TEST_SET):
            assert set(group) <= names

    def test_training_and_test_sets_disjoint(self):
        assert not set(HYPERBLOCK_TRAINING_SET) & set(HYPERBLOCK_TEST_SET)
        assert not set(REGALLOC_TRAINING_SET) & set(REGALLOC_TEST_SET)
        assert not set(PREFETCH_TRAINING_SET) & set(PREFETCH_TEST_SET)

    def test_suite_sizes(self):
        assert len(all_benchmarks()) >= 40
        assert len(by_suite("spec2000")) == 12
        assert len(by_category("fp")) >= 20

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            get("no-such-benchmark")


class TestDatasets:
    def test_inputs_deterministic(self):
        bench = get("codrle4")
        assert bench.inputs("train") == bench.inputs("train")
        assert bench.inputs("novel") == bench.inputs("novel")

    def test_train_differs_from_novel(self):
        # Promoted reproducers are exempt: they pin adversarial control
        # flow, not dataset generalization, and may carry one input set.
        organic = {name: bench for name, bench in all_benchmarks().items()
                   if bench.suite != "promoted"}
        different = 0
        for name, bench in organic.items():
            if bench.inputs("train") != bench.inputs("novel"):
                different += 1
        assert different >= len(organic) - 1

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            get("codrle4").inputs("validation")

    def test_inputs_fit_declared_globals(self):
        for name, bench in sorted(all_benchmarks().items()):
            module = compile_source(bench.source, name)
            for dataset in ("train", "novel"):
                for key, values in bench.inputs(dataset).items():
                    array = module.globals.get(key)
                    assert array is not None, f"{name}: no global {key}"
                    assert len(values) <= array.size, \
                        f"{name}.{key}: {len(values)} > {array.size}"


class TestSources:
    def test_all_sources_compile(self):
        for name, bench in sorted(all_benchmarks().items()):
            verify_module(compile_source(bench.source, name))

    def test_descriptions_nonempty(self):
        for bench in all_benchmarks().values():
            assert bench.description
            assert bench.suite in ("mediabench", "spec92", "spec95",
                                   "spec2000", "misc", "promoted")
            assert bench.category in ("int", "fp")
