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
* the machine description's fingerprint
  (:attr:`~repro.machine.descr.MachineDescription.fingerprint`);
* a fingerprint of the compiler + simulator source ("pipeline
  fingerprint"), so any change to a pass, the IR, the frontend or the
  simulator invalidates the whole cache rather than serving stale
  cycle counts;
* the harness noise level (noisy measurements are seeded from the memo
  key, hence reproducible, hence cacheable — but only at the same
  noise setting).

Entries are one JSON file each under ``root/<xx>/<digest>.json`` (two-
level fan-out keeps directories small); each is written by
:func:`repro.experiments.checkpoint.atomic_write` (temp file, then
rename), so concurrent workers sharing a cache directory, and a process
killed mid-write, can never observe a torn entry — last writer wins
with identical bytes.  An entry is written without an fsync: only an
operating-system crash can then tear one (empty or cut short), a torn
entry fails to parse and reads as a miss, and the miss is simulated
and stored again.  Run state is what must survive a crash, and it
keeps its fsync.  The store keeps no state beyond the directory and
what it was built with: the one caller, the harness, asks only after
its own memo missed (so every :meth:`FitnessCache.get` reads the
disk), and counts hits, misses and stores from the answer of each
evaluation.

The cache is the one writer of an entry, address and record alike.
A harness builds it once with what every simulation it stores shares
(format version, pipeline fingerprint, case, machine fingerprint,
noise, verified flag); from then on :meth:`FitnessCache.address` names
a simulation by (priority key, benchmark, dataset) alone, and
:meth:`FitnessCache.put` takes the result and the expression text.
Each entry carries a ``meta`` record (expression text, case, pipeline
and machine fingerprints of the key, benchmark, dataset, noise,
verified flag) so the cache can be mined offline —
:meth:`FitnessCache.scan` iterates every persisted record, and that
stream is the training corpus for the learned surrogate fitness model
(:mod:`repro.surrogate.train`), which keeps only the records a current
compile could produce; ``repro cache`` reports on it too.  A file in
any other shape (a bare ``SimResult`` dict written before the
envelope, or an envelope without ``meta``) is a miss in :meth:`get`
and skipped by :meth:`scan`: every ``put`` stores ``meta``, and a bare
dict's key hashed an older pipeline fingerprint, so no ``get`` could
reach it.
"""

from __future__ import annotations

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


def is_persistable_priority_key(priority_key: tuple) -> bool:
    """Only expression trees have process-independent identity; native
    callables are keyed per process and are never persisted."""
    return bool(priority_key) and priority_key[0] == "tree"


#: An address: the entry's key (a sha256 hex digest), and the benchmark
#: and dataset its record names.
CacheAddress = tuple[str, str, str]

#: ``SimResult``'s fields, in the order an entry lists them (a
#: dataclass's ``__match_args__`` names its ``__init__`` parameters).
_RESULT_FIELDS = SimResult.__match_args__


class FitnessCache:
    """Simulation-result store in the directory ``root`` (created if
    missing).

    A writer names what every simulation it stores shares: the case,
    the machine, the noise level and ``verified``, which marks entries
    produced under the harness's differential guard
    (``verify_outputs=True``) so a guarded run never reuses an
    unverified entry — and vice versa — even for the same candidate.
    A reader passes ``root`` alone and may only :meth:`get` and
    :meth:`scan`.
    """

    def __init__(self, root: str | os.PathLike,
                 case_name: str | None = None,
                 machine: MachineDescription | None = None,
                 noise_stddev: float = 0.0,
                 verified: bool = False) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if case_name is None:  # a reader
            return
        pipeline = pipeline_fingerprint()
        #: every address's leading fields and its trailing flag
        self._key_head = (CACHE_FORMAT_VERSION, pipeline, case_name,
                          machine.fingerprint, float(noise_stddev))
        self._verified = bool(verified)
        #: every record's constant ``meta`` values, as given
        self._meta = (case_name, pipeline, machine.fingerprint,
                      noise_stddev, verified)

    # -- keys -----------------------------------------------------------
    def address(self, priority_key: tuple, benchmark: str,
                dataset: str) -> CacheAddress | None:
        """Content address for one simulation, or ``None`` when the
        priority has no stable cross-process identity."""
        if not is_persistable_priority_key(priority_key):
            return None
        payload = repr((*self._key_head, priority_key, benchmark, dataset,
                        self._verified))
        return (hashlib.sha256(payload.encode()).hexdigest(), benchmark,
                dataset)

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

    def get(self, address: CacheAddress) -> SimResult | None:
        try:
            data = json.loads(self._path_for(address[0]).read_text())
        except (OSError, ValueError):
            return None
        entry = self._parse_entry(data)
        return None if entry is None else entry[0]

    def put(self, address: CacheAddress, result: SimResult,
            expression: str) -> None:
        """Store ``result`` at ``address``, with the ``meta`` record
        :meth:`scan` yields (the expression text is its provenance; it
        never affects lookups).  Not fsynced (the module docstring says
        why)."""
        from repro.experiments.checkpoint import atomic_write

        key, benchmark, dataset = address
        case, pipeline, machine, noise_stddev, verified = self._meta
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "schema": ENTRY_SCHEMA,
            "result": {name: getattr(result, name)
                       for name in _RESULT_FIELDS},
            "meta": {"expression": expression, "case": case,
                     "pipeline": pipeline, "machine": machine,
                     "benchmark": benchmark, "dataset": dataset,
                     "noise_stddev": noise_stddev, "verified": verified},
        }
        atomic_write(path, json.dumps(data).encode(), durable=False)

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
