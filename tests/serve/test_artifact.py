"""Artifact document + registry: content addressing, round-trip,
verification, and the compile-under-artifact hook."""

import json

import pytest

from repro.gp.parse import unparse
from repro.machine.descr import DEFAULT_EPIC, ITANIUM_MACHINE
from repro.metaopt.baselines import BASELINE_TREES
from repro.metaopt.harness import EvaluationHarness, case_study
from repro.serve.artifact import (
    ARTIFACT_SCHEMA,
    ArtifactError,
    HeuristicArtifact,
    build_artifact,
)
from repro.serve.registry import ArtifactRegistry, registry_from_env


def hyperblock_artifact(**overrides):
    defaults = dict(
        case="hyperblock",
        expression=unparse(BASELINE_TREES["hyperblock"]()),
        machine=DEFAULT_EPIC,
        training_config={"mode": "specialize", "benchmark": "codrle4"},
        metrics={"train_speedup": 1.0},
        created_at=1_700_000_000.0,
    )
    defaults.update(overrides)
    return build_artifact(**defaults)


class TestArtifactDocument:
    def test_round_trip(self):
        artifact = hyperblock_artifact()
        clone = HeuristicArtifact.from_json_dict(artifact.to_json_dict())
        assert clone == artifact
        assert clone.artifact_id == artifact.artifact_id

    def test_content_addressed(self):
        one = hyperblock_artifact()
        two = hyperblock_artifact(metrics={"train_speedup": 2.0})
        assert one.artifact_id != two.artifact_id
        assert hyperblock_artifact().artifact_id == one.artifact_id

    def test_schema_stamp(self):
        assert hyperblock_artifact().schema == ARTIFACT_SCHEMA

    def test_tampered_id_rejected(self):
        data = hyperblock_artifact().to_json_dict()
        data["expression"] = "(add blk_ops blk_ops)"
        with pytest.raises(ArtifactError, match="does not match"):
            HeuristicArtifact.from_json_dict(data)

    def test_unknown_field_rejected(self):
        data = hyperblock_artifact().to_json_dict()
        data["surprise"] = 1
        with pytest.raises(ArtifactError, match="unknown artifact"):
            HeuristicArtifact.from_json_dict(data)

    def test_unknown_case_rejected(self):
        with pytest.raises(ArtifactError, match="unknown case"):
            build_artifact(case="linker", expression="(add 1 1)",
                           machine=DEFAULT_EPIC)

    def test_expression_canonicalized(self):
        artifact = hyperblock_artifact()
        spaced = build_artifact(
            case="hyperblock",
            expression="  " + artifact.expression.replace("(", "( "),
            machine=DEFAULT_EPIC,
            training_config=artifact.training_config,
            metrics=artifact.metrics,
            created_at=artifact.created_at,
        )
        assert spaced.expression == artifact.expression
        assert spaced.artifact_id == artifact.artifact_id


class TestArtifactVerify:
    def test_valid_artifact_verifies(self):
        assert hyperblock_artifact().verify() == []

    def test_bad_expression_flagged(self):
        artifact = hyperblock_artifact()
        broken = HeuristicArtifact(
            **{**artifact.to_json_dict(include_id=False),
               "expression": "(not_a_primitive 1)"})
        problems = broken.verify()
        assert any("parse" in p for p in problems)

    def test_wrong_type_flagged(self):
        # hyperblock wants a real-valued priority; a comparison is BOOL
        artifact = hyperblock_artifact()
        wrong = HeuristicArtifact(
            **{**artifact.to_json_dict(include_id=False),
               "expression": "(lt 1.0000 2.0000)"})
        problems = wrong.verify()
        assert any("needs" in p for p in problems)

    def test_stale_pipeline_fingerprint_flagged(self):
        artifact = hyperblock_artifact()
        stale = HeuristicArtifact(
            **{**artifact.to_json_dict(include_id=False),
               "pipeline_fingerprint": "0" * 16})
        problems = stale.verify()
        assert any("stale pipeline" in p for p in problems)

    def test_future_schema_flagged(self):
        artifact = hyperblock_artifact()
        future = HeuristicArtifact(
            **{**artifact.to_json_dict(include_id=False),
               "schema": ARTIFACT_SCHEMA + 1})
        assert any("schema" in p for p in future.verify())


class TestRegistry:
    def test_save_load_list(self, tmp_path):
        registry = ArtifactRegistry(tmp_path / "store")
        artifact = hyperblock_artifact()
        artifact_id = registry.save(artifact)
        assert artifact_id == artifact.artifact_id
        assert artifact_id in registry
        assert registry.load(artifact_id) == artifact
        rows = registry.list()
        assert len(rows) == 1 == len(registry)
        assert rows[0]["artifact_id"] == artifact_id
        assert rows[0]["case"] == "hyperblock"

    def test_save_idempotent(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        artifact = hyperblock_artifact()
        assert registry.save(artifact) == registry.save(artifact)
        assert len(registry) == 1

    def test_prefix_resolution(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        artifact = hyperblock_artifact()
        registry.save(artifact)
        assert registry.load(artifact.artifact_id[:8]) == artifact

    def test_temp_file_debris_is_not_an_artifact(self, tmp_path):
        """A writer killed before its rename leaves a dot-file in the
        shard (here the name older releases used); it is no entry."""
        registry = ArtifactRegistry(tmp_path)
        artifact_id = registry.save(hyperblock_artifact())
        registry.path_for(artifact_id).with_name(
            ".tmp-k3j2.json").write_text("{")
        assert len(registry) == 1
        assert [row["artifact_id"] for row in registry.list()] == \
            [artifact_id]
        assert registry.resolve(artifact_id[:8]) == artifact_id

    def test_ambiguous_prefix_rejected(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        # 17 distinct ids must collide on the first hex character
        # (pigeonhole over 16 buckets), making that prefix ambiguous.
        by_first_char = {}
        for n in range(17):
            saved = registry.save(
                hyperblock_artifact(metrics={"round": n}))
            by_first_char.setdefault(saved[0], []).append(saved)
        shared = next(ids for ids in by_first_char.values()
                      if len(ids) > 1)
        with pytest.raises(ArtifactError, match="ambiguous"):
            registry.load(shared[0][0])

    def test_empty_reference_rejected(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        with pytest.raises(ArtifactError, match="empty artifact"):
            registry.load("")

    def test_missing_artifact_rejected(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        with pytest.raises(ArtifactError, match="no artifact"):
            registry.load("deadbeef")

    def test_corrupt_document_flagged_by_verify(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        artifact_id = registry.save(hyperblock_artifact())
        path = registry.path_for(artifact_id)
        data = json.loads(path.read_text())
        data["metrics"] = {"train_speedup": 99.0}  # tamper, keep id
        path.write_text(json.dumps(data))
        problems = registry.verify(artifact_id)
        assert problems and "does not match" in problems[0]

    def test_registry_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_STORE", str(tmp_path / "env"))
        assert registry_from_env().root == tmp_path / "env"
        assert registry_from_env(str(tmp_path / "flag")).root == \
            tmp_path / "flag"


class TestCompileUnderArtifact:
    def test_install_matches_direct_simulation(self):
        """CompilerOptions(heuristic_artifact=...) must produce the
        same binary as installing the expression by hand."""
        artifact = hyperblock_artifact()
        harness = EvaluationHarness(case_study("hyperblock"))
        direct = harness.simulate(artifact.tree(), "codrle4", "train")

        from dataclasses import replace

        from repro.machine.sim import Simulator
        from repro.passes.pipeline import compile_backend
        from repro.suite.registry import get as get_benchmark

        prep = harness.prepared("codrle4")
        options = replace(harness.case.options,
                          heuristic_artifact=artifact)
        scheduled, _ = compile_backend(prep, options)
        simulator = Simulator(scheduled, harness.case.machine)
        bench = get_benchmark("codrle4")
        for name, values in bench.inputs("train").items():
            simulator.set_global(name, values)
        assert simulator.run().cycles == direct.cycles

    def test_install_respects_case(self):
        """A prefetch artifact must land in prefetch_priority, not the
        hyperblock hook."""
        from repro.passes.pipeline import CompilerOptions

        artifact = build_artifact(
            case="prefetch",
            expression=unparse(BASELINE_TREES["prefetch"]()),
            machine=ITANIUM_MACHINE,
            created_at=0.0,
        )
        options = CompilerOptions(machine=ITANIUM_MACHINE, prefetch=True,
                                  heuristic_artifact=artifact)
        installed = artifact.install(options)
        assert installed.heuristic_artifact is None
        assert installed.prefetch_priority is not options.prefetch_priority
        assert installed.hyperblock_priority is options.hyperblock_priority
