"""Persistent fitness cache: disk round-trips, key discrimination,
invalidation, and the warm-rerun guarantee (a second run touching only
cached candidates performs zero compiles and zero simulations)."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.machine.descr import DEFAULT_EPIC, REGALLOC_MACHINE
from repro.machine.sim import SimResult
from repro.metaopt.fitness_cache import (
    FitnessCache,
    _source_digest,
    pipeline_fingerprint,
    resolve_cache_dir,
)
from repro.metaopt.harness import EvaluationHarness, case_study
from repro.metaopt.settings import EvalSettings


def pathlib_digest(root: Path) -> str:
    """The source digest as ``pathlib`` computes it."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def sample_result(cycles=1234):
    return SimResult(cycles=cycles, return_value=None, outputs=[7, 8],
                     dynamic_ops=10, bundles=5)


def writer(root):
    return FitnessCache(root, "hyperblock", DEFAULT_EPIC)


def at(key):
    """An address whose key is ``key``, as no expression hashes."""
    return key, "codrle4", "train"


class TestKeying:
    def test_tree_keys_stable_and_discriminating(self, tmp_path):
        bound = dict(case_name="hyperblock", machine=DEFAULT_EPIC,
                     noise_stddev=0.0)
        where = (("tree", ("rconst", 1.0)), "codrle4", "train")
        key = FitnessCache(tmp_path, **bound).address(*where)[0]
        assert key == FitnessCache(tmp_path, **bound).address(*where)[0]
        for change in (
            {"case_name": "regalloc"},
            {"machine": REGALLOC_MACHINE},
            {"noise_stddev": 0.02},
            {"verified": True},
        ):
            changed = FitnessCache(tmp_path, **{**bound, **change})
            assert changed.address(*where)[0] != key
        cache = FitnessCache(tmp_path, **bound)
        for other in (
            (("tree", ("rconst", 2.0)), "codrle4", "train"),
            (("tree", ("rconst", 1.0)), "codrle5", "train"),
            (("tree", ("rconst", 1.0)), "codrle4", "novel"),
        ):
            assert cache.address(*other)[0] != key

    def test_native_priorities_never_persisted(self, tmp_path):
        address = writer(tmp_path).address(
            ("native", "<lambda>", 12345), "codrle4", "train")
        assert address is None

    def test_pipeline_fingerprint_is_the_pathlib_digest(self):
        """The fingerprint is the digest ``Path.rglob`` and a sort of
        the paths have always given, so no cache entry goes stale."""
        import repro

        root = Path(repro.__file__).parent
        assert pipeline_fingerprint() == pathlib_digest(root)
        assert _source_digest(str(root)) == pathlib_digest(root)

    def test_source_digest_sorts_paths_part_by_part(self, tmp_path):
        """``a/z.py`` sorts before ``a-b.py`` as paths, after it as
        strings; names that only end in ``py`` are not sources."""
        for relative in ("a/z.py", "a-b.py", "a/b/c.py", "a.py",
                         "B.py", "a/b.py", "x.pyc", "copy", "notpy"):
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(f"# {relative}\n")
        assert _source_digest(str(tmp_path)) == pathlib_digest(tmp_path)

    def test_fingerprints_are_stable(self):
        assert pipeline_fingerprint() == pipeline_fingerprint()
        # an equal description has the same fingerprint, computed anew
        assert (dataclasses.replace(DEFAULT_EPIC).fingerprint
                == DEFAULT_EPIC.fingerprint)
        assert DEFAULT_EPIC.fingerprint != REGALLOC_MACHINE.fingerprint


class TestRoundTrip:
    def test_disk_roundtrip_across_instances(self, tmp_path):
        cache = writer(tmp_path)
        address = cache.address(("tree", ("rconst", 1.0)), "codrle4",
                                "train")
        result = sample_result()
        cache.put(address, result, "1.0")

        reader = FitnessCache(tmp_path)
        recalled = reader.get(address)
        assert recalled == result
        assert reader.get(at("0" * 64)) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = writer(tmp_path)
        cache.put(at("b" * 64), sample_result(), "1.0")
        path = cache._path_for("b" * 64)
        path.write_text("not json {")
        fresh = FitnessCache(tmp_path)
        assert fresh.get(at("b" * 64)) is None

    def test_put_makes_no_fsync(self, tmp_path, monkeypatch):
        """An entry is renamed into place unsynced: an operating-system
        crash may tear it, and a torn entry is a miss (below)."""
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        cache = writer(tmp_path)
        cache.put(at("d" * 64), sample_result(), "1.0")
        assert synced == []
        assert cache.get(at("d" * 64)) == sample_result()

    @pytest.mark.parametrize("torn", ["empty", "truncated"])
    def test_torn_entry_is_a_miss_and_put_rewrites_it(self, tmp_path,
                                                      torn):
        """What a crash can leave of an unsynced entry — no bytes, or
        the first part — reads as a miss, is skipped by ``scan`` and is
        replaced by the next ``put``."""
        cache = writer(tmp_path)
        address = at("e" * 64)
        cache.put(address, sample_result(), "1.0")
        path = cache._path_for(address[0])
        whole = path.read_bytes()
        path.write_bytes(b"" if torn == "empty" else whole[:len(whole) // 2])
        assert cache.get(address) is None
        assert list(cache.scan()) == []
        cache.put(address, sample_result(), "1.0")
        assert path.read_bytes() == whole
        assert cache.get(address) == sample_result()

    def test_stale_schema_is_a_miss(self, tmp_path):
        cache = FitnessCache(tmp_path)
        key = "c" * 64
        path = cache._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"cycles": 1, "no_such_field": 2}))
        assert cache.get(at(key)) is None


def pinned_harness(root):
    return EvaluationHarness(case_study("hyperblock"), EvalSettings(
        noise_stddev=1, verify_outputs=True, fitness_cache_dir=root))


#: The tree :class:`TestAddressAndEntryPin` stores, and its address.
PINNED_TEXT = "(add exec_ratio 2.0)"
PINNED_WHERE = ("codrle4", "novel")

#: :func:`pinned_harness`'s address of ``PINNED_TEXT``, in a fresh
#: process (``argv[1]`` is the cache directory).
PINNED_ADDRESS = f"""
import sys
from repro.metaopt.harness import EvaluationHarness, case_study
from repro.metaopt.priority import PriorityFunction
from repro.metaopt.settings import EvalSettings

harness = EvaluationHarness(case_study("hyperblock"), EvalSettings(
    noise_stddev=1, verify_outputs=True, fitness_cache_dir=sys.argv[1]))
tree = PriorityFunction.from_text({PINNED_TEXT!r}, harness.case.pset).tree
print(harness.fitness_cache.address(
    ("tree",) + tree.structural_key(), *{PINNED_WHERE!r})[0])
"""

#: The entry's bytes; ``%s`` is the pipeline fingerprint, which every
#: source edit changes.  90d6c12a226a177f is ``DEFAULT_EPIC``'s.
PINNED_ENTRY = (
    b'{"schema": 2, "result": {"cycles": 1234, "return_value": -3, '
    b'"outputs": [7, 2.5], "dynamic_ops": 10, "squashed_ops": 0, '
    b'"bundles": 5, "memory_stall_cycles": 0, "branch_stall_cycles": 0, '
    b'"load_count": 0, "l1_hit_rate": 0.75, "branch_accuracy": 0.0, '
    b'"prefetch_count": 0}, "meta": {"expression": '
    b'"(add exec_ratio 2.0000)", "case": "hyperblock", "pipeline": "%s", '
    b'"machine": "90d6c12a226a177f", "benchmark": "codrle4", '
    b'"dataset": "novel", "noise_stddev": 1, "verified": true}}')


class TestAddressAndEntryPin:
    """A harness-built cache's address and entry, byte for byte: the
    cache directories written so far stay readable only while both
    hold.  The integer noise level is a float in the key and stays an
    integer in ``meta``."""

    def test_address_and_entry_bytes(self, tmp_path):
        from repro.gp.genome import expression_text
        from repro.metaopt.priority import PriorityFunction

        cache = pinned_harness(tmp_path).fitness_cache
        tree = PriorityFunction.from_text(
            PINNED_TEXT, case_study("hyperblock").pset).tree
        priority_key = ("tree",) + tree.structural_key()
        address = cache.address(priority_key, *PINNED_WHERE)
        payload = repr((
            1, pipeline_fingerprint(), "hyperblock",
            hashlib.sha256(repr(DEFAULT_EPIC).encode()).hexdigest()[:16],
            1.0, priority_key, "codrle4", "novel", True))
        key = hashlib.sha256(payload.encode()).hexdigest()
        assert address == (key, *PINNED_WHERE)

        result = SimResult(cycles=1234, return_value=-3, outputs=[7, 2.5],
                           dynamic_ops=10, bundles=5, l1_hit_rate=0.75)
        cache.put(address, result, expression_text(tree))
        path = tmp_path / key[:2] / f"{key}.json"
        assert path.read_bytes() == \
            PINNED_ENTRY % pipeline_fingerprint().encode()
        assert cache.get(address) == result

    def test_address_is_independent_of_hash_seed(self, tmp_path):
        src = Path(__file__).resolve().parents[2] / "src"
        keys = {
            subprocess.run(
                [sys.executable, "-c", PINNED_ADDRESS, str(tmp_path)],
                check=True, capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(src),
                         PYTHONHASHSEED=seed)).stdout.strip()
            for seed in ("0", "1")
        }
        tree_key = ("tree", "add", ("rarg", "exec_ratio"), ("rconst", 2.0))
        assert keys == {pinned_harness(tmp_path).fitness_cache.address(
            tree_key, *PINNED_WHERE)[0]}


class TestEnvResolution:
    def test_disabled_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FITNESS_CACHE", str(tmp_path))
        assert resolve_cache_dir(disabled=True) is None

    def test_explicit_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FITNESS_CACHE", str(tmp_path / "env"))
        assert resolve_cache_dir(
            explicit_dir=str(tmp_path / "explicit")) == \
            str(tmp_path / "explicit")

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FITNESS_CACHE", str(tmp_path / "env"))
        # spelled like FitnessCache.root (it lands in config.json),
        # and resolving creates nothing
        assert resolve_cache_dir() == str(tmp_path / "env")
        monkeypatch.setenv("REPRO_FITNESS_CACHE", f"{tmp_path}/env/")
        assert resolve_cache_dir() == str(tmp_path / "env")
        assert not (tmp_path / "env").exists()

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FITNESS_CACHE", raising=False)
        assert resolve_cache_dir() is None


class TestHarnessIntegration:
    def test_warm_rerun_skips_all_simulation(self, tmp_path):
        from repro.metaopt.priority import PriorityFunction

        case = case_study("hyperblock")
        tree = PriorityFunction.from_text(
            "(add exec_ratio 2.0)", case.pset).tree

        cold = EvaluationHarness(
            case, EvalSettings(fitness_cache_dir=tmp_path))
        cold_speedup = cold.speedup(tree, "codrle4")
        assert (cold.stats()["sims"], cold.stats()["compiles"]) == (2, 2)

        warm = EvaluationHarness(
            case, EvalSettings(fitness_cache_dir=tmp_path))
        warm_speedup = warm.speedup(tree, "codrle4")
        assert warm_speedup == cold_speedup  # bit-identical
        stats = warm.stats()
        assert (stats["sims"], stats["compiles"]) == (0, 0)
        assert stats["persistent_cache_hits"] == 2  # baseline + candidate

    def test_noise_levels_do_not_cross_contaminate(self, tmp_path):
        case = case_study("hyperblock")
        tree = case.baseline_tree()
        clean = EvaluationHarness(
            case, EvalSettings(fitness_cache_dir=tmp_path))
        noisy = EvaluationHarness(case, EvalSettings(
            noise_stddev=0.5, fitness_cache_dir=tmp_path))
        clean_cycles = clean.simulate(tree, "codrle4").cycles
        noisy_cycles = noisy.simulate(tree, "codrle4").cycles
        assert noisy.stats()["persistent_cache_hits"] == 0
        # and the noisy measurement is reproducible from its own entry
        noisy_again = EvaluationHarness(case, EvalSettings(
            noise_stddev=0.5, fitness_cache_dir=tmp_path))
        assert noisy_again.simulate(tree, "codrle4").cycles == noisy_cycles
        assert noisy_again.stats()["sims"] == 0
        assert clean_cycles == clean.simulate(tree, "codrle4").cycles


class TestScan:
    def put_with_meta(self, cache, key, cycles):
        cache.put(at(key), sample_result(cycles), "(add reg_count 1.0)")
        return dict(expression="(add reg_count 1.0)", case="regalloc",
                    pipeline=pipeline_fingerprint(),
                    machine=REGALLOC_MACHINE.fingerprint,
                    benchmark="codrle4", dataset="train",
                    noise_stddev=0.0, verified=True)

    def writer(self, root):
        return FitnessCache(root, "regalloc", REGALLOC_MACHINE, 0.0, True)

    def test_scan_yields_records_with_meta(self, tmp_path):
        cache = self.writer(tmp_path)
        meta = self.put_with_meta(cache, "d" * 64, cycles=500)
        records = list(FitnessCache(tmp_path).scan())
        assert len(records) == 1
        assert records[0].key == "d" * 64
        assert records[0].result.cycles == 500
        assert records[0].meta == meta
        assert list(records[0].meta) == list(meta)  # the entry's order

    def test_scan_order_is_path_sorted(self, tmp_path):
        cache = self.writer(tmp_path)
        for key in ("f" * 64, "a" * 64, "c" * 64):
            self.put_with_meta(cache, key, cycles=100)
        keys = [record.key for record in FitnessCache(tmp_path).scan()]
        assert keys == sorted(keys)

    def test_scan_and_get_skip_meta_less_and_legacy_entries(self,
                                                            tmp_path):
        """One entry format: an envelope without ``meta`` and a
        pre-envelope flat ``SimResult`` are neither records nor hits."""
        cache = self.writer(tmp_path)
        flat = {"cycles": 9, "return_value": None, "outputs": [],
                "dynamic_ops": 1, "bundles": 1}
        for key, data in (("e" * 64, {"schema": 2, "result": flat}),
                          ("1" * 64, flat)):
            path = cache._path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(data))
        self.put_with_meta(cache, "b" * 64, cycles=100)
        fresh = FitnessCache(tmp_path)
        assert [r.key for r in fresh.scan()] == ["b" * 64]
        assert fresh.get(at("e" * 64)) is None
        assert fresh.get(at("1" * 64)) is None
        assert fresh.get(at("b" * 64)).cycles == 100

    def test_scan_skips_corrupt_entries(self, tmp_path):
        cache = self.writer(tmp_path)
        self.put_with_meta(cache, "b" * 64, cycles=100)
        cache._path_for("9" * 64).parent.mkdir(parents=True,
                                               exist_ok=True)
        cache._path_for("9" * 64).write_text("not json {")
        records = list(FitnessCache(tmp_path).scan())
        assert [r.key for r in records] == ["b" * 64]

    def test_harness_writes_meta(self, tmp_path):
        case = case_study("hyperblock")
        harness = EvaluationHarness(
            case, EvalSettings(fitness_cache_dir=tmp_path))
        harness.speedup(case.baseline_tree(), "codrle4")
        metas = [r.meta for r in FitnessCache(tmp_path).scan()]
        assert metas
        for meta in metas:
            assert meta["case"] == "hyperblock"
            assert meta["benchmark"] == "codrle4"
            assert meta["expression"]
