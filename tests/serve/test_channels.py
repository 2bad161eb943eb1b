"""Artifact lineage and deployment channels: versioned tracks, atomic
stable/canary pointer moves, ancestry chains, filtered listings, and
the HTTP channel-pointer API."""

import json

import pytest

from repro.gp.parse import unparse
from repro.machine.descr import DEFAULT_EPIC
from repro.metaopt.baselines import BASELINE_TREES
from repro.serve.artifact import ArtifactError, build_artifact
from repro.serve.client import ServeClient, ServeError
from repro.serve.registry import ArtifactRegistry
from repro.serve.server import ReproServer

CASE = "hyperblock"
MACHINE = DEFAULT_EPIC.name


def make_artifact(expression=None, parent_id=None, created_at=1.0):
    return build_artifact(
        case=CASE,
        expression=expression or unparse(BASELINE_TREES[CASE]()),
        machine=DEFAULT_EPIC,
        training_config={"mode": "manual"},
        metrics={},
        created_at=created_at,
        parent_id=parent_id,
    )


@pytest.fixture()
def registry(tmp_path):
    return ArtifactRegistry(tmp_path / "store")


@pytest.fixture()
def family(registry):
    """grandparent -> parent -> child, all saved."""
    grandparent = make_artifact(created_at=1.0)
    parent = make_artifact(created_at=2.0,
                           parent_id=grandparent.artifact_id)
    child = make_artifact(created_at=3.0, parent_id=parent.artifact_id)
    for artifact in (grandparent, parent, child):
        registry.save(artifact)
    return grandparent, parent, child


class TestParentId:
    def test_parent_changes_content_address(self):
        base = make_artifact()
        derived = make_artifact(parent_id="f" * 64)
        assert base.artifact_id != derived.artifact_id

    def test_no_parent_serializes_without_key(self):
        # pre-lineage artifacts keep their digests: the field is only
        # part of the canonical form when set
        assert "parent_id" not in make_artifact().to_json_dict()
        assert make_artifact(parent_id="f" * 64).to_json_dict()[
            "parent_id"] == "f" * 64

    def test_malformed_parent_rejected(self):
        artifact = make_artifact(parent_id="not-a-digest")
        assert any("parent_id" in problem
                   for problem in artifact.verify())


class TestChannels:
    def test_versions_are_monotonic_and_idempotent(self, registry, family):
        _, parent, child = family
        assert registry.register_version(CASE, MACHINE,
                                         parent.artifact_id) == 1
        assert registry.register_version(CASE, MACHINE,
                                         child.artifact_id) == 2
        # re-registering is a no-op
        assert registry.register_version(CASE, MACHINE,
                                         parent.artifact_id) == 1

    def test_set_channel_returns_move(self, registry, family):
        _, parent, _ = family
        move = registry.set_channel(CASE, MACHINE, "stable",
                                    parent.artifact_id)
        assert move == {"channel": "stable",
                        "artifact_id": parent.artifact_id,
                        "version": 1, "previous": None}
        assert registry.get_channel(CASE, MACHINE,
                                    "stable") == parent.artifact_id

    def test_set_channel_rejects_wrong_track(self, registry, family):
        _, parent, _ = family
        with pytest.raises(ArtifactError, match="track"):
            registry.set_channel(CASE, "other-machine", "stable",
                                 parent.artifact_id)

    def test_unknown_channel_rejected(self, registry, family):
        with pytest.raises(ArtifactError, match="unknown channel"):
            registry.set_channel(CASE, MACHINE, "beta",
                                 family[1].artifact_id)

    def test_promote_swaps_pointers_atomically(self, registry, family):
        _, parent, child = family
        registry.set_channel(CASE, MACHINE, "stable", parent.artifact_id)
        registry.set_channel(CASE, MACHINE, "canary", child.artifact_id)
        move = registry.promote(CASE, MACHINE)
        assert move["stable"] == child.artifact_id
        assert move["previous_stable"] == parent.artifact_id
        assert registry.get_channel(CASE, MACHINE, "canary") is None

    def test_promote_without_canary_refused(self, registry, family):
        with pytest.raises(ArtifactError, match="no canary"):
            registry.promote(CASE, MACHINE)

    def test_rollback_keeps_stable(self, registry, family):
        _, parent, child = family
        registry.set_channel(CASE, MACHINE, "stable", parent.artifact_id)
        registry.set_channel(CASE, MACHINE, "canary", child.artifact_id)
        move = registry.rollback(CASE, MACHINE)
        assert move["rolled_back"] == child.artifact_id
        assert registry.get_channel(CASE, MACHINE,
                                    "stable") == parent.artifact_id
        assert registry.get_channel(CASE, MACHINE, "canary") is None

    def test_pointer_moves_are_logged_without_timestamps(self, registry,
                                                         family):
        _, parent, child = family
        registry.set_channel(CASE, MACHINE, "stable", parent.artifact_id)
        registry.set_channel(CASE, MACHINE, "canary", child.artifact_id)
        registry.promote(CASE, MACHINE)
        track = registry.channels()[f"{CASE}/{MACHINE}"]
        actions = [entry["action"] for entry in track["log"]]
        assert actions == ["version", "set", "version", "set", "promote"]
        assert [entry["seq"] for entry in track["log"]] == [1, 2, 3, 4, 5]
        assert all("time" not in entry and "timestamp" not in entry
                   for entry in track["log"])

    def test_pointers_survive_reopening_the_store(self, registry, family,
                                                  tmp_path):
        _, parent, _ = family
        registry.set_channel(CASE, MACHINE, "stable", parent.artifact_id)
        reopened = ArtifactRegistry(tmp_path / "store")
        assert reopened.get_channel(CASE, MACHINE,
                                    "stable") == parent.artifact_id

    def test_pointers_survive_a_kill_right_after_set_channel(
            self, registry, family, tmp_path, kill_after_write):
        _, parent, child = family
        registry.set_channel(CASE, MACHINE, "stable", parent.artifact_id)
        kill_after_write(lambda path: path.name == "channels.json")
        with pytest.raises(KeyboardInterrupt):
            registry.set_channel(CASE, MACHINE, "canary",
                                 child.artifact_id)
        reopened = ArtifactRegistry(tmp_path / "store")
        assert reopened.get_channel(CASE, MACHINE,
                                    "stable") == parent.artifact_id
        assert reopened.get_channel(CASE, MACHINE,
                                    "canary") == child.artifact_id

    def test_pointers_survive_a_kill_right_after_promote(
            self, registry, family, tmp_path, kill_after_write):
        _, parent, child = family
        registry.set_channel(CASE, MACHINE, "stable", parent.artifact_id)
        registry.set_channel(CASE, MACHINE, "canary", child.artifact_id)
        kill_after_write(lambda path: path.name == "channels.json")
        with pytest.raises(KeyboardInterrupt):
            registry.promote(CASE, MACHINE)
        reopened = ArtifactRegistry(tmp_path / "store")
        assert reopened.get_channel(CASE, MACHINE,
                                    "stable") == child.artifact_id
        assert reopened.get_channel(CASE, MACHINE, "canary") is None
        assert [entry["action"] for entry in
                reopened.channels()[f"{CASE}/{MACHINE}"]["log"]][-1] == \
            "promote"


class TestLineage:
    def test_chain_walks_parents(self, registry, family):
        grandparent, parent, child = family
        chain = registry.lineage(child.artifact_id)
        assert [row["artifact_id"] for row in chain] == [
            child.artifact_id, parent.artifact_id,
            grandparent.artifact_id]
        assert chain[-1]["parent_id"] is None

    def test_missing_parent_reported(self, registry):
        orphan = make_artifact(parent_id="e" * 64)
        registry.save(orphan)
        chain = registry.lineage(orphan.artifact_id)
        assert chain[1] == {"artifact_id": "e" * 64, "error": "missing"}

    def test_prefix_resolution(self, registry, family):
        _, _, child = family
        chain = registry.lineage(child.artifact_id[:10])
        assert chain[0]["artifact_id"] == child.artifact_id


class TestFilteredList:
    def test_sorted_by_version(self, registry, family):
        grandparent, parent, child = family
        registry.register_version(CASE, MACHINE, child.artifact_id)
        registry.register_version(CASE, MACHINE, parent.artifact_id)
        rows = registry.list()
        # versioned artifacts first (1, 2), unversioned last
        assert [row["artifact_id"] for row in rows] == [
            child.artifact_id, parent.artifact_id,
            grandparent.artifact_id]
        assert [row["version"] for row in rows] == [1, 2, None]

    def test_channel_filter(self, registry, family):
        _, parent, child = family
        registry.set_channel(CASE, MACHINE, "stable", parent.artifact_id)
        registry.set_channel(CASE, MACHINE, "canary", child.artifact_id)
        stable_rows = registry.list(channel="stable")
        assert [row["artifact_id"] for row in stable_rows] == [
            parent.artifact_id]
        assert stable_rows[0]["channels"] == ["stable"]
        assert registry.list(channel="canary")[0][
            "artifact_id"] == child.artifact_id

    def test_case_and_machine_filters(self, registry, family):
        assert len(registry.list(case=CASE)) == 3
        assert registry.list(case="nonesuch") == []
        assert len(registry.list(machine=MACHINE)) == 3
        assert registry.list(machine="nonesuch") == []


class TestChannelHttpApi:
    @pytest.fixture()
    def server(self, registry, family):
        srv = ReproServer(port=0, workers=1, capacity=8,
                          registry=registry,
                          handler=lambda kind, params: {})
        srv.start()
        yield srv
        srv.drain(timeout=10.0)

    @pytest.fixture()
    def client(self, server):
        return ServeClient(server.url, timeout=10.0)

    def test_full_pointer_lifecycle_over_http(self, client, family):
        _, parent, child = family
        move = client.set_channel(CASE, MACHINE, "stable",
                                  parent.artifact_id)
        assert move["ok"] is True and move["version"] == 1
        client.set_channel(CASE, MACHINE, "canary", child.artifact_id)
        track = client.channel_track(CASE, MACHINE)
        assert track["stable"] == parent.artifact_id
        assert track["canary"] == child.artifact_id
        promoted = client.promote(CASE, MACHINE)
        assert promoted["stable"] == child.artifact_id
        assert client.channel_track(CASE, MACHINE)["canary"] is None
        assert f"{CASE}/{MACHINE}" in client.channels()

    def test_promote_without_canary_409(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.promote(CASE, MACHINE)
        assert excinfo.value.status == 409

    def test_unknown_track_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.channel_track("nonesuch", "nowhere")
        assert excinfo.value.status == 404

    def test_lineage_over_http(self, client, family):
        grandparent, parent, child = family
        chain = client.lineage(child.artifact_id[:10])
        assert [row["artifact_id"] for row in chain] == [
            child.artifact_id, parent.artifact_id,
            grandparent.artifact_id]

    def test_autopilot_status_disabled(self, client):
        status = client.autopilot_status()
        assert status == {"schema": 1, "ok": True, "enabled": False}


class TestChannelsCli:
    def test_list_filters_and_lineage(self, registry, family, tmp_path,
                                      capsys):
        from repro.cli import main

        _, parent, child = family
        registry.set_channel(CASE, MACHINE, "stable", parent.artifact_id)
        store = str(registry.root)
        assert main(["artifacts", "list", "--store", store,
                     "--channel", "stable", "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert [row["artifact_id"] for row in listed["artifacts"]] == [
            parent.artifact_id]
        assert main(["artifacts", "lineage", child.artifact_id[:10],
                     "--store", store, "--json"]) == 0
        chain = json.loads(capsys.readouterr().out)["lineage"]
        assert chain[1]["artifact_id"] == parent.artifact_id
        assert main(["artifacts", "channels", "--store", store]) == 0
        assert f"{CASE}/{MACHINE}" in capsys.readouterr().out
