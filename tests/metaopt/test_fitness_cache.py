"""Persistent fitness cache: disk round-trips, key discrimination,
invalidation, and the warm-rerun guarantee (a second run touching only
cached candidates performs zero compiles and zero simulations)."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.machine.descr import DEFAULT_EPIC, REGALLOC_MACHINE
from repro.machine.sim import SimResult
from repro.metaopt.fitness_cache import (
    FitnessCache,
    _source_digest,
    machine_fingerprint,
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


class TestKeying:
    def test_tree_keys_stable_and_discriminating(self, tmp_path):
        cache = FitnessCache(tmp_path)
        base = dict(case_name="hyperblock", machine=DEFAULT_EPIC,
                    noise_stddev=0.0,
                    priority_key=("tree", ("rconst", 1.0)),
                    benchmark="codrle4", dataset="train")
        key = cache.result_key(**base)
        assert key == cache.result_key(**base)
        for change in (
            {"case_name": "regalloc"},
            {"machine": REGALLOC_MACHINE},
            {"noise_stddev": 0.02},
            {"priority_key": ("tree", ("rconst", 2.0))},
            {"benchmark": "codrle5"},
            {"dataset": "novel"},
        ):
            assert cache.result_key(**{**base, **change}) != key

    def test_native_priorities_never_persisted(self, tmp_path):
        cache = FitnessCache(tmp_path)
        key = cache.result_key(
            case_name="hyperblock", machine=DEFAULT_EPIC, noise_stddev=0.0,
            priority_key=("native", "<lambda>", 12345),
            benchmark="codrle4", dataset="train")
        assert key is None

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
        assert (machine_fingerprint(DEFAULT_EPIC)
                == machine_fingerprint(DEFAULT_EPIC))
        assert (machine_fingerprint(DEFAULT_EPIC)
                != machine_fingerprint(REGALLOC_MACHINE))


class TestRoundTrip:
    def test_disk_roundtrip_across_instances(self, tmp_path):
        writer = FitnessCache(tmp_path)
        key = writer.result_key(
            case_name="hyperblock", machine=DEFAULT_EPIC, noise_stddev=0.0,
            priority_key=("tree", ("rconst", 1.0)),
            benchmark="codrle4", dataset="train")
        result = sample_result()
        writer.put(key, result, meta={})

        reader = FitnessCache(tmp_path)
        recalled = reader.get(key)
        assert recalled == result
        assert reader.get("0" * 64) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = FitnessCache(tmp_path)
        key = "b" * 64
        cache.put(key, sample_result(), meta={})
        path = cache._path_for(key)
        path.write_text("not json {")
        fresh = FitnessCache(tmp_path)
        assert fresh.get(key) is None

    def test_stale_schema_is_a_miss(self, tmp_path):
        cache = FitnessCache(tmp_path)
        key = "c" * 64
        path = cache._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"cycles": 1, "no_such_field": 2}))
        assert cache.get(key) is None


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
    def put_with_meta(self, cache, key, cycles, **meta_overrides):
        meta = dict(expression="(add reg_count 1.0)", case="regalloc",
                    benchmark="codrle4", dataset="train",
                    noise_stddev=0.0, verified=True)
        meta.update(meta_overrides)
        cache.put(key, sample_result(cycles), meta=meta)
        return meta

    def test_scan_yields_records_with_meta(self, tmp_path):
        cache = FitnessCache(tmp_path)
        meta = self.put_with_meta(cache, "d" * 64, cycles=500)
        records = list(FitnessCache(tmp_path).scan())
        assert len(records) == 1
        assert records[0].key == "d" * 64
        assert records[0].result.cycles == 500
        assert records[0].meta == meta

    def test_scan_order_is_path_sorted(self, tmp_path):
        cache = FitnessCache(tmp_path)
        for key in ("f" * 64, "a" * 64, "c" * 64):
            self.put_with_meta(cache, key, cycles=100)
        keys = [record.key for record in FitnessCache(tmp_path).scan()]
        assert keys == sorted(keys)

    def test_scan_and_get_skip_meta_less_and_legacy_entries(self,
                                                            tmp_path):
        """One entry format: an envelope without ``meta`` and a
        pre-envelope flat ``SimResult`` are neither records nor hits."""
        cache = FitnessCache(tmp_path)
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
        assert fresh.get("e" * 64) is None
        assert fresh.get("1" * 64) is None
        assert fresh.get("b" * 64).cycles == 100

    def test_scan_skips_corrupt_entries(self, tmp_path):
        cache = FitnessCache(tmp_path)
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
