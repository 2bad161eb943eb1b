"""The fuzzer-promoted benchmark suite (``repro suite promote``).

Covers the committed registry (``promoted_programs.json``): the
train/novel split partitions, registration as first-class suite
benchmarks, the promotion gate, the CLI — and the headline regression:
a promoted program compiled from the registry produces exactly the
cycle count of the original corpus file compiled directly, so
promotion can never silently change what a reproducer measures.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.frontend import compile_source
from repro.machine.sim import Simulator
from repro.passes.pipeline import CompilerOptions, compile_backend, prepare
from repro.suite import (
    PROMOTED_NOVEL_SET,
    PROMOTED_TRAINING_SET,
    all_benchmarks,
    get,
)
from repro.suite.promoted import (
    PROMOTED_SCHEMA,
    PromotedProgram,
    PromotionError,
    load_promoted,
    promote_corpus_entry,
    save_promoted,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

OPTIONS = CompilerOptions()


def pipeline_cycles(source: str, inputs: dict, name: str) -> int:
    """Source + inputs through the full default pipeline; the one
    measurement both promotion paths must agree on."""
    module = compile_source(source, name)
    prep = prepare(module, inputs, OPTIONS)
    scheduled, _report = compile_backend(prep, OPTIONS)
    simulator = Simulator(scheduled, OPTIONS.machine)
    for key, values in inputs.items():
        simulator.set_global(key, values)
    return simulator.run().cycles


class TestCommittedRegistry:
    def test_splits_partition_the_registry(self):
        programs = load_promoted()
        assert len(programs) >= 6
        names = sorted(program.name for program in programs)
        assert sorted(PROMOTED_TRAINING_SET + PROMOTED_NOVEL_SET) == names
        assert not set(PROMOTED_TRAINING_SET) & set(PROMOTED_NOVEL_SET)
        assert PROMOTED_TRAINING_SET and PROMOTED_NOVEL_SET

    def test_promoted_programs_are_registered_benchmarks(self):
        benchmarks = all_benchmarks()
        for program in load_promoted():
            bench = benchmarks[program.name]
            assert bench.suite == "promoted"
            assert program.split in bench.description
            assert program.origin in bench.description

    def test_reproducer_datasets_coincide(self):
        """Reproducers pin adversarial control flow, not dataset
        generalization: both datasets are the reproducing inputs."""
        for program in load_promoted():
            bench = get(program.name)
            assert bench.inputs("novel") == bench.inputs("train")

    def test_inputs_are_fresh_copies(self):
        bench = get(PROMOTED_TRAINING_SET[0])
        first = bench.inputs("train")
        next(iter(first.values())).append(999)
        assert bench.inputs("train") != first


class TestCorpusSuiteAgreement:
    """The regression the promotion workflow exists to uphold."""

    @pytest.mark.parametrize("stem", ["diamond-join", "unused-param",
                                      "nested-predication",
                                      "guarded-load-prefetch"])
    def test_corpus_path_and_suite_path_cycles_identical(self, stem):
        source = (CORPUS_DIR / f"{stem}.mc").read_text()
        inputs = json.loads(
            (CORPUS_DIR / f"{stem}.inputs.json").read_text())
        corpus_cycles = pipeline_cycles(source, inputs, stem)

        bench = get(stem)
        suite_cycles = pipeline_cycles(bench.source,
                                       bench.inputs("train"), stem)
        assert suite_cycles == corpus_cycles

    @pytest.mark.parametrize("seed", [7340032, 7340033])
    def test_fuzz_path_and_suite_path_cycles_identical(self, seed):
        from repro.verify.fuzz import generate_program

        fuzz = generate_program(seed)
        fuzz_cycles = pipeline_cycles(fuzz.source, fuzz.inputs,
                                      f"fuzz-{seed}")
        bench = get(f"fuzz-{seed}")
        suite_cycles = pipeline_cycles(bench.source,
                                       bench.inputs("train"),
                                       f"fuzz-{seed}")
        assert suite_cycles == fuzz_cycles


class TestPromotionGate:
    def test_corpus_entry_promotes(self):
        program = promote_corpus_entry(CORPUS_DIR / "unused-param.mc",
                                       split="novel")
        assert program.name == "unused-param"
        assert program.split == "novel"
        assert program.origin == "corpus:unused-param"
        assert program.train_inputs == program.novel_inputs

    def test_missing_inputs_file_rejected(self, tmp_path):
        orphan = tmp_path / "orphan.mc"
        orphan.write_text("void main() { out(1); }")
        with pytest.raises(PromotionError, match="inputs"):
            promote_corpus_entry(orphan)

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError, match="split"):
            PromotedProgram(name="x", description="d", origin="o",
                            split="test", source="void main() {}",
                            train_inputs={}, novel_inputs={})

    def test_schema_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "promoted.json"
        bad.write_text(json.dumps({"schema": 99, "programs": []}))
        with pytest.raises(ValueError, match="schema"):
            load_promoted(bad)

    def test_save_load_round_trip(self, tmp_path):
        program = promote_corpus_entry(CORPUS_DIR / "diamond-join.mc")
        path = tmp_path / "promoted.json"
        save_promoted([program], path)
        assert load_promoted(path) == [program]


class TestPromoteCLI:
    def test_promote_corpus_file_to_scratch_registry(self, tmp_path,
                                                     capsys):
        registry = tmp_path / "promoted.json"
        assert main(["suite", "promote",
                     "--corpus", str(CORPUS_DIR / "unused-param.mc"),
                     "--split", "novel",
                     "--registry-file", str(registry), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1
        assert report["promoted"] == ["unused-param"]
        assert report["total"] == 1
        data = json.loads(registry.read_text())
        assert data["schema"] == PROMOTED_SCHEMA
        assert data["programs"][0]["split"] == "novel"

    def test_repromotion_replaces_not_duplicates(self, tmp_path):
        registry = tmp_path / "promoted.json"
        corpus = str(CORPUS_DIR / "unused-param.mc")
        base = ["suite", "promote", "--corpus", corpus,
                "--registry-file", str(registry)]
        assert main(base + ["--split", "train"]) == 0
        assert main(base + ["--split", "novel"]) == 0
        programs = load_promoted(registry)
        assert len(programs) == 1
        assert programs[0].split == "novel"

    def test_promote_corpus_directory(self, tmp_path, capsys):
        registry = tmp_path / "promoted.json"
        assert main(["suite", "promote", "--corpus", str(CORPUS_DIR),
                     "--registry-file", str(registry), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == len(list(CORPUS_DIR.glob("*.mc")))

    def test_promote_without_sources_rejected(self):
        with pytest.raises(SystemExit, match="nothing to promote"):
            main(["suite", "promote"])

    def test_promote_empty_directory_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit, match="no .mc"):
            main(["suite", "promote", "--corpus", str(empty),
                  "--registry-file", str(tmp_path / "r.json")])
