"""Content-addressed on-disk store of heuristic artifacts.

Layout mirrors the fitness cache: one JSON document per artifact under
``root/<id[:2]>/<id>.json``, written by
:func:`repro.experiments.checkpoint.atomic_write` so concurrent
publishers can never leave a torn document (identical content produces
identical bytes, so the last writer wins benignly).
Lookup accepts unambiguous id prefixes, like git.

On top of the content-addressed documents the registry keeps one small
mutable index, ``channels.json``: per-(case, machine) *tracks* that
assign each published artifact a monotonically increasing version and
hold two channel pointers, ``stable`` and ``canary``.  Pointer moves
(publish / promote / rollback) are appended to the track's log and the
whole file is rewritten atomically under the registry lock, so a
killed daemon can never leave a torn index and the pointers survive
restarts.  Content documents stay immutable; only the index moves.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from repro.serve.artifact import ArtifactError, HeuristicArtifact

#: Environment variable naming the default artifact store directory.
ARTIFACT_STORE_ENV = "REPRO_ARTIFACT_STORE"

#: Fallback store location when neither a flag nor the env var is set.
DEFAULT_STORE_DIR = "artifacts"

#: Version of the ``channels.json`` index format.
CHANNELS_SCHEMA = 1

#: Channel pointer names a track maintains.
CHANNELS = ("stable", "canary")


class ArtifactRegistry:
    """Save/load/list/verify heuristic artifacts under one directory."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    # -- paths -----------------------------------------------------------
    def path_for(self, artifact_id: str) -> Path:
        return self.root / artifact_id[:2] / f"{artifact_id}.json"

    @property
    def channels_path(self) -> Path:
        return self.root / "channels.json"

    def _iter_paths(self):
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or len(shard.name) != 2:
                continue
            # a dot-file is a writer's temp file, never an artifact
            yield from sorted(path for path in shard.glob("*.json")
                              if not path.name.startswith("."))

    # -- store -----------------------------------------------------------
    def save(self, artifact: HeuristicArtifact) -> str:
        """Write the artifact; returns its content-address id.
        Idempotent: re-saving identical content rewrites identical
        bytes."""
        from repro.experiments.checkpoint import atomic_write

        artifact_id = artifact.artifact_id
        path = self.path_for(artifact_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(artifact.to_json_dict(), indent=2,
                             sort_keys=True) + "\n"
        with self._lock:
            atomic_write(path, payload.encode())
        return artifact_id

    # -- lookup ----------------------------------------------------------
    def resolve(self, ref: str) -> str:
        """Expand an id or unambiguous prefix to the full artifact id."""
        if not ref:
            raise ArtifactError("empty artifact reference")
        exact = self.path_for(ref)
        if exact.exists():
            return ref
        matches = [path.stem for path in self._iter_paths()
                   if path.stem.startswith(ref)]
        if not matches:
            raise ArtifactError(
                f"no artifact matching {ref!r} in {self.root}")
        if len(matches) > 1:
            raise ArtifactError(
                f"ambiguous artifact reference {ref!r}: matches "
                f"{', '.join(m[:12] for m in sorted(matches))}")
        return matches[0]

    def load(self, ref: str) -> HeuristicArtifact:
        artifact_id = self.resolve(ref)
        path = self.path_for(artifact_id)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ArtifactError(f"cannot read artifact {ref!r}: {exc}")
        artifact = HeuristicArtifact.from_json_dict(data)
        if artifact.artifact_id != artifact_id:
            raise ArtifactError(
                f"store corruption: {path} holds content "
                f"{artifact.short_id}, filed under {artifact_id[:12]}")
        return artifact

    def __contains__(self, artifact_id: str) -> bool:
        return self.path_for(artifact_id).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_paths())

    # -- channel tracks ---------------------------------------------------
    @staticmethod
    def track_key(case: str, machine: str) -> str:
        return f"{case}/{machine}"

    def _read_channels_locked(self) -> dict:
        try:
            data = json.loads(self.channels_path.read_text())
        except OSError:
            return {"schema": CHANNELS_SCHEMA, "tracks": {}}
        except ValueError as exc:
            raise ArtifactError(
                f"corrupt channel index {self.channels_path}: {exc}")
        if data.get("schema") != CHANNELS_SCHEMA:
            raise ArtifactError(
                f"unsupported channel index schema {data.get('schema')!r} "
                f"(this build reads {CHANNELS_SCHEMA})")
        return data

    def _write_channels_locked(self, data: dict) -> None:
        from repro.experiments.checkpoint import atomic_write

        payload = json.dumps(data, indent=2, sort_keys=True) + "\n"
        atomic_write(self.channels_path, payload.encode())

    def _track_locked(self, data: dict, case: str, machine: str) -> dict:
        return data["tracks"].setdefault(self.track_key(case, machine), {
            "case": case,
            "machine": machine,
            "next_version": 1,
            "versions": {},
            "stable": None,
            "canary": None,
            "log": [],
        })

    @staticmethod
    def _log_locked(track: dict, action: str, channel: str | None,
                    artifact_id: str | None, version: int | None) -> None:
        track["log"].append({
            "schema": CHANNELS_SCHEMA,
            "seq": len(track["log"]) + 1,
            "action": action,
            "channel": channel,
            "artifact_id": artifact_id,
            "version": version,
        })

    def register_version(self, case: str, machine: str,
                         artifact_id: str) -> int:
        """Assign the artifact the track's next version (idempotent)."""
        with self._lock:
            data = self._read_channels_locked()
            track = self._track_locked(data, case, machine)
            if artifact_id in track["versions"]:
                return track["versions"][artifact_id]
            version = track["next_version"]
            track["next_version"] = version + 1
            track["versions"][artifact_id] = version
            self._log_locked(track, "version", None, artifact_id, version)
            self._write_channels_locked(data)
            return version

    def set_channel(self, case: str, machine: str, channel: str,
                    artifact_id: str | None) -> dict:
        """Point ``stable``/``canary`` at an artifact (or clear it).

        The artifact must exist in the store and is assigned a track
        version if it does not have one yet.  Returns the move:
        ``{"channel", "artifact_id", "version", "previous"}``.
        """
        if channel not in CHANNELS:
            raise ArtifactError(
                f"unknown channel {channel!r} (expected one of "
                f"{', '.join(CHANNELS)})")
        if artifact_id is not None:
            artifact_id = self.resolve(artifact_id)
            loaded = self.load(artifact_id)
            if loaded.case != case or loaded.machine_name != machine:
                raise ArtifactError(
                    f"artifact {artifact_id[:12]} is for "
                    f"{loaded.case}/{loaded.machine_name}, not the "
                    f"{case}/{machine} track")
        with self._lock:
            data = self._read_channels_locked()
            track = self._track_locked(data, case, machine)
            version = None
            if artifact_id is not None:
                version = track["versions"].get(artifact_id)
                if version is None:
                    version = track["next_version"]
                    track["next_version"] = version + 1
                    track["versions"][artifact_id] = version
                    self._log_locked(track, "version", None, artifact_id,
                                     version)
            previous = track[channel]
            track[channel] = artifact_id
            self._log_locked(track, "set", channel, artifact_id, version)
            self._write_channels_locked(data)
            return {"channel": channel, "artifact_id": artifact_id,
                    "version": version, "previous": previous}

    def get_channel(self, case: str, machine: str,
                    channel: str) -> str | None:
        if channel not in CHANNELS:
            raise ArtifactError(
                f"unknown channel {channel!r} (expected one of "
                f"{', '.join(CHANNELS)})")
        with self._lock:
            data = self._read_channels_locked()
            track = data["tracks"].get(self.track_key(case, machine))
            return track[channel] if track else None

    def promote(self, case: str, machine: str) -> dict:
        """Atomically make the canary the new stable (canary cleared)."""
        with self._lock:
            data = self._read_channels_locked()
            track = data["tracks"].get(self.track_key(case, machine))
            if not track or track["canary"] is None:
                raise ArtifactError(
                    f"no canary to promote on the {case}/{machine} track")
            canary = track["canary"]
            previous = track["stable"]
            track["stable"] = canary
            track["canary"] = None
            self._log_locked(track, "promote", "stable", canary,
                             track["versions"].get(canary))
            self._write_channels_locked(data)
            return {"stable": canary, "previous_stable": previous,
                    "version": track["versions"].get(canary)}

    def rollback(self, case: str, machine: str) -> dict:
        """Atomically discard the canary; stable is untouched."""
        with self._lock:
            data = self._read_channels_locked()
            track = data["tracks"].get(self.track_key(case, machine))
            if not track or track["canary"] is None:
                raise ArtifactError(
                    f"no canary to roll back on the {case}/{machine} track")
            canary = track["canary"]
            track["canary"] = None
            self._log_locked(track, "rollback", "canary", canary,
                             track["versions"].get(canary))
            self._write_channels_locked(data)
            return {"rolled_back": canary, "stable": track["stable"],
                    "version": track["versions"].get(canary)}

    def channels(self) -> dict:
        """Deep copy of every track, for the status/channels APIs."""
        with self._lock:
            data = self._read_channels_locked()
        return json.loads(json.dumps(data["tracks"]))

    # -- lineage ----------------------------------------------------------
    def lineage(self, ref: str, limit: int = 64) -> list[dict]:
        """Ancestry chain, artifact first then parents.

        Each row is a :meth:`list`-style summary plus ``parent_id``;
        a parent missing from the store ends the chain with a
        ``{"artifact_id": ..., "error": "missing"}`` row.
        """
        chain: list[dict] = []
        seen: set[str] = set()
        artifact_id: str | None = self.resolve(ref)
        while artifact_id is not None and len(chain) < limit:
            if artifact_id in seen:
                chain.append({"artifact_id": artifact_id, "error": "cycle"})
                break
            seen.add(artifact_id)
            try:
                artifact = self.load(artifact_id)
            except ArtifactError:
                chain.append({"artifact_id": artifact_id,
                              "error": "missing"})
                break
            row = self._summary_row(artifact)
            chain.append(row)
            artifact_id = artifact.parent_id
        return chain

    # -- listing / verification ------------------------------------------
    def _summary_row(self, artifact: HeuristicArtifact) -> dict:
        return {
            "artifact_id": artifact.artifact_id,
            "case": artifact.case,
            "machine": artifact.machine_name,
            "expression": artifact.expression,
            "metrics": artifact.metrics,
            "created_at": artifact.created_at,
            "parent_id": artifact.parent_id,
        }

    def list(self, case: str | None = None, machine: str | None = None,
             channel: str | None = None) -> list[dict]:
        """Summaries of stored artifacts, sorted by (case, version).

        Filters are conjunctive; ``channel`` keeps only artifacts a
        ``stable``/``canary`` pointer currently names.  Every row is
        annotated with its track ``version`` (None if never published
        to a track) and the ``channels`` pointing at it.  The sort —
        (case, machine, version, created_at, id) — is total and stable
        so scripted consumers see a deterministic order.
        """
        tracks = self.channels()
        by_id_version: dict[str, int] = {}
        by_id_channels: dict[str, list[str]] = {}
        for track in tracks.values():
            for artifact_id, version in track["versions"].items():
                by_id_version[artifact_id] = version
            for name in CHANNELS:
                if track[name] is not None:
                    by_id_channels.setdefault(track[name], []).append(name)
        rows = []
        for path in self._iter_paths():
            try:
                artifact = HeuristicArtifact.from_json_dict(
                    json.loads(path.read_text()))
            except (OSError, ValueError):
                if case is None and machine is None and channel is None:
                    rows.append({"artifact_id": path.stem, "case": "?",
                                 "error": "unreadable", "created_at": 0.0,
                                 "version": None, "channels": []})
                continue
            if case is not None and artifact.case != case:
                continue
            if machine is not None and artifact.machine_name != machine:
                continue
            pointers = sorted(by_id_channels.get(artifact.artifact_id, []))
            if channel is not None and channel not in pointers:
                continue
            row = self._summary_row(artifact)
            row["version"] = by_id_version.get(artifact.artifact_id)
            row["channels"] = pointers
            rows.append(row)
        rows.sort(key=lambda row: (
            row.get("case") or "",
            row.get("machine") or "",
            row.get("version") if row.get("version") is not None else 1 << 30,
            row.get("created_at", 0.0),
            row["artifact_id"],
        ))
        return rows

    def verify(self, ref: str) -> list[str]:
        """Problems with one stored artifact (empty list = valid)."""
        try:
            artifact = self.load(ref)
        except ArtifactError as exc:
            return [str(exc)]
        return artifact.verify()


def registry_from_env(explicit_dir: str | None = None) -> ArtifactRegistry:
    """Resolve the artifact store: explicit flag beats
    ``$REPRO_ARTIFACT_STORE`` beats ``./artifacts``."""
    directory = (explicit_dir or os.environ.get(ARTIFACT_STORE_ENV)
                 or DEFAULT_STORE_DIR)
    return ArtifactRegistry(directory)
