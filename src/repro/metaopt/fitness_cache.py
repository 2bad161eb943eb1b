"""Persistent, content-addressed fitness cache.

The paper memoizes benchmark fitnesses in memory because "fitness
evaluations for our problem are costly".  That memo (the harness's
cycles memo) dies with the process, so every figure script and every
resumed run re-simulates the same candidates from scratch.  This module
is the layer below it: a disk store of
:class:`~repro.machine.sim.SimResult` records, content-addressed by
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

Entries written by this version carry a ``meta`` sidecar (expression
text, case, benchmark, dataset, noise, verified flag, and the pipeline
and machine fingerprints of the key) so the cache can be mined offline
— :meth:`FitnessCache.scan` iterates every persisted record, and that
stream is the training corpus for the learned surrogate fitness model
(:mod:`repro.surrogate.train`), which keeps only the records a current
compile could produce.  Pre-meta entries (bare ``SimResult`` dicts)
still load through :meth:`get`; the key schema is unchanged, only the
on-disk envelope grew.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple

from repro.machine.descr import MachineDescription
from repro.machine.sim import SimResult

#: Bump manually on semantic changes that the source fingerprint cannot
#: see (e.g. a change in how cache keys themselves are formed).
CACHE_FORMAT_VERSION = 1

#: On-disk envelope version for entries that carry a ``meta`` record.
#: Version 1 entries were bare ``SimResult`` dicts; version 2 wraps the
#: result and adds provenance so :meth:`FitnessCache.scan` can recover
#: the expression behind each cycle count.
ENTRY_SCHEMA = 2


class CacheRecord(NamedTuple):
    """One persisted simulation, as yielded by :meth:`FitnessCache.scan`.

    ``meta`` is ``None`` for entries written before the meta envelope
    existed (they are still valid results, just unattributable).
    """

    key: str
    result: SimResult
    meta: dict | None

_PIPELINE_FINGERPRINT: str | None = None


def pipeline_fingerprint() -> str:
    """Digest of every ``repro`` source file that can affect a cycle
    count.  Computed once per process; any edit to the compiler, IR,
    simulator, suite or GP evaluation semantics changes the digest and
    therefore invalidates all previously cached fitnesses."""
    global _PIPELINE_FINGERPRINT
    if _PIPELINE_FINGERPRINT is None:
        import repro

        package_root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _PIPELINE_FINGERPRINT = digest.hexdigest()[:16]
    return _PIPELINE_FINGERPRINT


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
    def _parse_entry(data) -> tuple[SimResult | None, dict | None]:
        """Decode one on-disk entry in either envelope: a version-2
        ``{"schema", "result", "meta"}`` wrapper or a legacy bare
        ``SimResult`` dict.  Undecodable entries parse to ``None`` —
        a stale schema is a miss, never an error."""
        if not isinstance(data, dict):
            return None, None
        meta = None
        if "schema" in data and "result" in data:
            raw = data.get("result")
            candidate_meta = data.get("meta")
            if isinstance(candidate_meta, dict):
                meta = candidate_meta
            if not isinstance(raw, dict):
                return None, None
        else:
            raw = data
        try:
            return SimResult(**raw), meta
        except TypeError:
            return None, None

    def get(self, key: str) -> SimResult | None:
        try:
            data = json.loads(self._path_for(key).read_text())
        except (OSError, ValueError):
            return None
        return self._parse_entry(data)[0]

    def put(self, key: str, result: SimResult,
            meta: dict | None = None) -> None:
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
        }
        if meta is not None:
            data["meta"] = meta
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
            result, meta = self._parse_entry(data)
            if result is None:
                continue
            yield CacheRecord(key=path.stem, result=result, meta=meta)


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
