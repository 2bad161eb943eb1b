"""CLI surface of the serving subsystem: the publish → artifacts →
simulate round trip, plus the uniform ``--json`` error contract."""

import json

import pytest

from repro.cli import main


def only_json(capsys):
    """Assert stdout holds exactly one JSON document and return it."""
    output = capsys.readouterr().out
    return json.loads(output)


class TestPublishRoundTrip:
    def test_evolve_publish_artifacts_simulate(self, tmp_path, capsys):
        store = str(tmp_path / "store")

        # evolve --publish: campaign JSON carries the artifact id
        assert main(["evolve", "hyperblock", "codrle4",
                     "--pop", "8", "--gens", "2",
                     "--publish", store, "--json"]) == 0
        campaign = only_json(capsys)
        artifact_id = campaign["artifact_id"]
        assert len(artifact_id) == 64

        # artifacts list sees it
        assert main(["artifacts", "list", "--store", store,
                     "--json"]) == 0
        listing = only_json(capsys)
        assert [row["artifact_id"] for row in listing["artifacts"]] == \
            [artifact_id]

        # artifacts show resolves a prefix to the full document
        assert main(["artifacts", "show", artifact_id[:10],
                     "--store", store, "--json"]) == 0
        document = only_json(capsys)
        assert document["artifact_id"] == artifact_id
        assert document["case"] == "hyperblock"
        assert document["expression"] == campaign["best_expression"]

        # artifacts verify: freshly published artifacts are valid
        assert main(["artifacts", "verify", artifact_id,
                     "--store", store, "--json"]) == 0
        verdict = only_json(capsys)
        assert verdict["ok"] is True and verdict["problems"] == []

        # simulate --artifact deploys it
        assert main(["simulate", "codrle4",
                     "--artifact", artifact_id[:8],
                     "--artifact-store", store, "--json"]) == 0
        payload = only_json(capsys)
        assert payload["artifact"] == artifact_id
        assert payload["case"] == "hyperblock"
        assert payload["benchmark"] == "codrle4"
        assert payload["cycles"] > 0

        # human mode mentions the deployed artifact
        assert main(["simulate", "codrle4",
                     "--artifact", artifact_id[:8],
                     "--artifact-store", store]) == 0
        human = capsys.readouterr().out
        assert f"artifact         : {artifact_id[:12]}" in human

        # human-mode listing is a table, not JSON
        assert main(["artifacts", "list", "--store", store]) == 0
        table = capsys.readouterr().out
        assert "artifact store:" in table
        assert artifact_id[:12] in table

    def test_artifacts_list_empty_store(self, tmp_path, capsys):
        assert main(["artifacts", "list",
                     "--store", str(tmp_path / "empty"), "--json"]) == 0
        listing = only_json(capsys)
        assert listing["artifacts"] == []


class TestUniformJsonFailures:
    """Every subcommand failing under ``--json`` prints exactly one
    JSON object — ``{"schema": 1, "ok": false, "error": ...}`` — on
    stdout and exits non-zero."""

    def assert_failure_doc(self, capsys, code, expect_code=1):
        assert code == expect_code
        document = only_json(capsys)
        assert document["schema"] == 1
        assert document["ok"] is False
        assert document["error"]
        return document

    def test_simulate_unknown_benchmark(self, capsys):
        code = main(["simulate", "no-such-benchmark", "--json"])
        document = self.assert_failure_doc(capsys, code)
        assert "no-such-benchmark" in document["error"]

    def test_simulate_missing_artifact(self, tmp_path, capsys):
        code = main(["simulate", "codrle4", "--artifact", "feedface",
                     "--artifact-store", str(tmp_path), "--json"])
        document = self.assert_failure_doc(capsys, code)
        assert "feedface" in document["error"]

    def test_simulate_explicit_case_must_match_artifact(self, tmp_path,
                                                         capsys):
        """An explicit ``--case hyperblock`` (the default case's name)
        is still an explicit choice: against a regalloc artifact it is
        refused, not silently overridden."""
        from repro.gp.parse import unparse
        from repro.machine.descr import REGALLOC_MACHINE
        from repro.metaopt.baselines import BASELINE_TREES
        from repro.serve.artifact import build_artifact
        from repro.serve.registry import ArtifactRegistry

        artifact = build_artifact(
            case="regalloc",
            expression=unparse(BASELINE_TREES["regalloc"]()),
            machine=REGALLOC_MACHINE,
            training_config={"mode": "manual"}, metrics={},
            created_at=1.0)
        ArtifactRegistry(tmp_path).save(artifact)
        code = main(["simulate", "codrle4", "--case", "hyperblock",
                     "--artifact", artifact.artifact_id,
                     "--artifact-store", str(tmp_path), "--json"])
        document = self.assert_failure_doc(capsys, code)
        assert document["error"].startswith("ArtifactError")
        assert "--case says hyperblock" in document["error"]

    def test_artifacts_show_missing(self, tmp_path, capsys):
        code = main(["artifacts", "show", "feedface",
                     "--store", str(tmp_path), "--json"])
        self.assert_failure_doc(capsys, code)

    def test_evolve_usage_error(self, capsys):
        code = main(["evolve", "hyperblock", "codrle4",
                     "--processes", "0", "--json"])
        document = self.assert_failure_doc(capsys, code, expect_code=2)
        assert "--processes" in document["error"]

    def test_submit_unreachable_server(self, capsys):
        code = main(["submit", "codrle4",
                     "--url", "http://127.0.0.1:9",  # discard port
                     "--retries", "0", "--json"])
        self.assert_failure_doc(capsys, code)

    def test_without_json_errors_keep_raising(self):
        with pytest.raises(SystemExit):
            main(["evolve", "hyperblock", "codrle4", "--processes", "0"])
        with pytest.raises(Exception):
            main(["simulate", "no-such-benchmark"])
