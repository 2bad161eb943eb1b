"""Persistent, content-addressed fitness cache.

The paper memoizes benchmark fitnesses in memory because "fitness
evaluations for our problem are costly".  That memo (the harness's
cycles memo) dies with the process, so every figure script and every
resumed run re-simulates the same candidates from scratch.  This module
is the layer below it: a disk store of
:class:`~repro.machine.descr.SimResult` records, content-addressed by
everything that determines a simulation's outcome:

* the candidate expression's structural key (native-callable
  priorities are *never* persisted — their identity is process-local);
* the benchmark name and dataset;
* a fingerprint of the machine description;
* a fingerprint of the compiler + simulator source ("pipeline
  fingerprint"), so any change to a pass, the IR, the frontend or the
  simulator invalidates the whole cache rather than serving stale
  cycle counts;
* the harness noise level (noisy measurements are seeded from the memo
  key, hence reproducible, hence cacheable — but only at the same
  noise setting).

Entries are one JSON file each under ``root/<xx>/<digest>.json`` (two-
level fan-out keeps directories small); each is written by
:func:`repro.experiments.checkpoint.atomic_write`, so concurrent workers
sharing a cache directory can never observe a torn entry — last writer
wins with identical bytes.  The store keeps no state beyond the
directory: the one caller, the harness, asks only after its own memo
missed (so every :meth:`FitnessCache.get` reads the disk), and counts
hits, misses and stores from the answer of each evaluation.

Every entry carries a ``meta`` sidecar (expression text, case,
benchmark, dataset, noise, verified flag, and the pipeline and machine
fingerprints of the key) so the cache can be mined offline —
:meth:`FitnessCache.scan` iterates every persisted record, and that
stream is the training corpus for the learned surrogate fitness model
(:mod:`repro.surrogate.train`), which keeps only the records a current
compile could produce.  A file in any other shape (a bare
``SimResult`` dict written before the envelope, or an envelope without
``meta``) is a miss in :meth:`get` and skipped by :meth:`scan`: the
harness, the one writer, always stores ``meta``, and a bare dict's key
hashed an older pipeline fingerprint, so no ``get`` could reach it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple

from repro.machine.descr import MachineDescription, SimResult

#: Bump manually on semantic changes that the source fingerprint cannot
#: see (e.g. a change in how cache keys themselves are formed).
CACHE_FORMAT_VERSION = 1

#: On-disk envelope version: the ``SimResult`` wrapped with the
#: provenance that lets :meth:`FitnessCache.scan` recover the
#: expression behind each cycle count.
ENTRY_SCHEMA = 2


class CacheRecord(NamedTuple):
    """One persisted simulation, as yielded by :meth:`FitnessCache.scan`."""

    key: str
    result: SimResult
    meta: dict

_PIPELINE_FINGERPRINT: str | None = None


def pipeline_fingerprint() -> str:
    """Digest of every ``repro`` source file that can affect a cycle
    count.  Computed once per process; any edit to the compiler, IR,
    simulator, suite or GP evaluation semantics changes the digest and
    therefore invalidates all previously cached fitnesses."""
    global _PIPELINE_FINGERPRINT
    if _PIPELINE_FINGERPRINT is None:
        import repro

        _PIPELINE_FINGERPRINT = _source_digest(os.path.dirname(repro.__file__))
    return _PIPELINE_FINGERPRINT


def _source_digest(root: str) -> str:
    """SHA-256 (16 hex digits) over each ``.py`` file under ``root``:
    relative path, NUL, bytes, NUL, in the order of
    ``sorted(Path(root).rglob("*.py"))`` (part by part), which is how
    it has always been computed, but without a ``Path`` per file."""
    files = []
    for directory, _subdirs, names in os.walk(root):
        relative = os.path.relpath(directory, root)
        parts = () if relative == os.curdir else tuple(
            relative.split(os.sep))
        files += [(*parts, name) for name in names if name.endswith(".py")]
    digest = hashlib.sha256()
    for parts in sorted(files):
        digest.update(os.sep.join(parts).encode())
        digest.update(b"\x00")
        with open(os.path.join(root, *parts), "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def machine_fingerprint(machine: MachineDescription) -> str:
    """Stable digest of a machine description (frozen dataclass repr)."""
    return hashlib.sha256(repr(machine).encode()).hexdigest()[:16]


def is_persistable_priority_key(priority_key: tuple) -> bool:
    """Only expression trees have process-independent identity; native
    callables are keyed per process and are never persisted."""
    return bool(priority_key) and priority_key[0] == "tree"


class FitnessCache:
    """Simulation-result store in the directory ``root`` (created if
    missing)."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- keys -----------------------------------------------------------
    def result_key(
        self,
        case_name: str,
        machine: MachineDescription,
        noise_stddev: float,
        priority_key: tuple,
        benchmark: str,
        dataset: str,
        verified: bool = False,
    ) -> str | None:
        """Content address for one simulation, or ``None`` when the
        priority has no stable cross-process identity.

        ``verified`` marks entries produced under the harness's
        differential guard (``verify_outputs=True``).  It is part of
        the key so a guarded run never reuses an unverified entry —
        and vice versa — even for the same candidate.
        """
        if not is_persistable_priority_key(priority_key):
            return None
        payload = repr((
            CACHE_FORMAT_VERSION,
            pipeline_fingerprint(),
            case_name,
            machine_fingerprint(machine),
            float(noise_stddev),
            priority_key,
            benchmark,
            dataset,
            bool(verified),
        ))
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- lookup / store -------------------------------------------------
    def _path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    @staticmethod
    def _parse_entry(data) -> tuple[SimResult, dict] | None:
        """Decode one on-disk ``{"schema", "result", "meta"}`` entry.
        Anything else parses to ``None`` — a stale or foreign file is
        a miss, never an error."""
        if not isinstance(data, dict) or data.get("schema") != ENTRY_SCHEMA:
            return None
        raw, meta = data.get("result"), data.get("meta")
        if not isinstance(raw, dict) or not isinstance(meta, dict):
            return None
        try:
            return SimResult(**raw), meta
        except TypeError:
            return None

    def get(self, key: str) -> SimResult | None:
        try:
            data = json.loads(self._path_for(key).read_text())
        except (OSError, ValueError):
            return None
        entry = self._parse_entry(data)
        return None if entry is None else entry[0]

    def put(self, key: str, result: SimResult, meta: dict) -> None:
        """Store ``result`` under ``key``.  ``meta`` is free-form
        provenance (expression text, case, benchmark, dataset, …)
        persisted alongside the result for :meth:`scan`; it never
        affects lookups."""
        from repro.experiments.checkpoint import atomic_write

        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "schema": ENTRY_SCHEMA,
            "result": dataclasses.asdict(result),
            "meta": meta,
        }
        atomic_write(path, json.dumps(data).encode())

    # -- offline mining --------------------------------------------------
    def scan(self) -> Iterator[CacheRecord]:
        """Iterate every decodable persisted record, read-only.

        Yields :class:`CacheRecord` in deterministic (sorted-path)
        order.  Undecodable or stale-schema files are skipped silently,
        matching :meth:`get`'s treatment of them as misses; so are
        dot-files, which are a writer's temp files, never entries.
        """
        for path in sorted(self.root.glob("??/*.json")):
            if path.name.startswith("."):
                continue
            try:
                data = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            entry = self._parse_entry(data)
            if entry is not None:
                yield CacheRecord(path.stem, *entry)


def resolve_cache_dir(explicit_dir: str | None = None,
                      disabled: bool = False) -> str | None:
    """Resolve CLI/env configuration into a cache directory (or
    ``None``), creating nothing.

    Precedence: ``disabled`` beats everything; an explicit directory
    beats the ``REPRO_FITNESS_CACHE`` environment variable; with
    neither set, persistence is off.
    """
    if disabled:
        return None
    directory = explicit_dir or os.environ.get("REPRO_FITNESS_CACHE")
    # Spelled the way FitnessCache.root spells it: the string lands in
    # config.json, and "cache/" and "cache" are one store.
    return str(Path(directory)) if directory else None
