"""Mining training pairs out of the persistent fitness cache: label
computation against the baseline record, group hygiene, and the
too-few-pairs cold-start path."""

import dataclasses
import json
import random

from repro.gp.generate import TreeGenerator
from repro.gp.parse import unparse
from repro.machine.sim import SimResult
from repro.metaopt.baselines import BASELINE_TREES
from repro.machine.descr import REGALLOC_MACHINE_B
from repro.metaopt.fitness_cache import FitnessCache, pipeline_fingerprint
from repro.metaopt.harness import case_study
from repro.metaopt.psets import PSETS
from repro.surrogate.train import mine_pairs, train_from_cache

CASE = case_study("regalloc")
BASELINE_TEXT = unparse(BASELINE_TREES[CASE.name]())


def result(cycles):
    return SimResult(cycles=cycles, return_value=None, outputs=[],
                     dynamic_ops=1, bundles=1)


def put(root, key, cycles, expression, benchmark="codrle4", case=CASE.name,
        dataset="train", noise_stddev=0.0, verified=True,
        machine=CASE.machine):
    """Store an entry at ``key`` as a harness of that case, machine,
    noise and guard would."""
    FitnessCache(root, case, machine, noise_stddev, verified).put(
        (key, benchmark, dataset), result(cycles), expression)


def put_raw(root, key, cycles, meta):
    """Store an entry with ``meta`` as written: one another pipeline,
    or an older writer, left behind."""
    path = root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema": 2, "meta": meta,
                                "result": dataclasses.asdict(result(cycles))}))


def expressions(count, seed=0):
    generator = TreeGenerator(PSETS[CASE.name], rng=random.Random(seed))
    texts, seen = [], {BASELINE_TEXT}
    while len(texts) < count:
        text = unparse(generator.grow(4))
        if text not in seen:
            seen.add(text)
            texts.append(text)
    return texts


def fill_cache(tmp_path, candidates=10, baseline_cycles=1000):
    put(tmp_path, f"{0:064x}", baseline_cycles, BASELINE_TEXT)
    cycles_by_text = {}
    for i, text in enumerate(expressions(candidates), start=1):
        cycles = 800 + 40 * i
        cycles_by_text[text] = cycles
        put(tmp_path, f"{i:064x}", cycles, text)
    return FitnessCache(tmp_path), cycles_by_text, baseline_cycles


class TestMinePairs:
    def test_labels_are_speedups_against_the_baseline(self, tmp_path):
        cache, cycles_by_text, baseline_cycles = fill_cache(tmp_path)
        pairs, report = mine_pairs(cache, CASE)
        labels = {text: label for text, _, label in pairs}
        assert labels[BASELINE_TEXT] == 1.0
        for text, cycles in cycles_by_text.items():
            assert labels[text] == baseline_cycles / cycles
        assert report.usable == len(cycles_by_text) + 1
        assert report.benchmarks == ["codrle4"]

    def test_group_without_baseline_contributes_nothing(self, tmp_path):
        for i, text in enumerate(expressions(3)):
            put(tmp_path, f"{i:064x}", 900, text)
        pairs, report = mine_pairs(FitnessCache(tmp_path), CASE)
        assert pairs == []
        assert report.skipped_no_baseline == 3

    def test_other_cases_and_meta_less_records_skipped(self, tmp_path):
        cache, _, _ = fill_cache(tmp_path, candidates=2)
        put_raw(tmp_path, "a" * 64, 700, {})  # no expression
        put(tmp_path, "b" * 64, 700, "(add exec_ratio 1.0)",
            case="hyperblock")
        pairs, report = mine_pairs(cache, CASE)
        assert report.skipped_no_expression == 1
        assert report.skipped_other_case == 1
        assert len(pairs) == 3  # baseline + 2 candidates

    def test_groups_keyed_by_noise_and_dataset(self, tmp_path):
        """A baseline measured at one noise level must not become the
        denominator for another group's records."""
        put(tmp_path, "0" * 64, 1000, BASELINE_TEXT)
        text = expressions(1)[0]
        put(tmp_path, "1" * 64, 500, text, noise_stddev=0.5)
        pairs, report = mine_pairs(FitnessCache(tmp_path), CASE)
        assert [p[0] for p in pairs] == [BASELINE_TEXT]
        assert report.skipped_no_baseline == 1

    def test_records_of_another_pipeline_or_machine_are_stale(
            self, tmp_path):
        """Records ``get`` could never return again, written before a
        source edit or for another machine of the case, are never a
        label or a denominator."""
        cache = FitnessCache(tmp_path)
        text = expressions(1)[0]
        put(tmp_path, "0" * 64, 1000, BASELINE_TEXT)
        put(tmp_path, "1" * 64, 10, BASELINE_TEXT, benchmark="other")
        current = next(cache.scan()).meta
        put_raw(tmp_path, "2" * 64, 500,
                dict(current, expression=text, pipeline="0" * 16))
        put(tmp_path, "3" * 64, 400, text, machine=REGALLOC_MACHINE_B)
        put_raw(tmp_path, "4" * 64, 5,
                dict(current, expression=text, benchmark="other",
                     pipeline="0" * 16))
        legacy = dict(current, expression=text)
        del legacy["pipeline"], legacy["machine"]
        put_raw(tmp_path, "5" * 64, 300, legacy)
        assert current["pipeline"] == pipeline_fingerprint()
        pairs, report = mine_pairs(cache, CASE)
        assert sorted(pairs) == [(BASELINE_TEXT, "codrle4", 1.0),
                                 (BASELINE_TEXT, "other", 1.0)]
        assert report.skipped_stale == 4
        assert report.skipped_no_baseline == 0
        # the other machine's records pair up under its own case
        other = case_study("regalloc", machine=REGALLOC_MACHINE_B)
        put(tmp_path, "6" * 64, 800, BASELINE_TEXT,
            machine=REGALLOC_MACHINE_B)
        pairs, report = mine_pairs(cache, other)
        assert sorted(pairs) == sorted([(BASELINE_TEXT, "codrle4", 1.0),
                                        (text, "codrle4", 2.0)])

    def test_report_serializes(self, tmp_path):
        cache, _, _ = fill_cache(tmp_path, candidates=2)
        _, report = mine_pairs(cache, CASE)
        payload = report.to_json_dict()
        assert payload["scanned"] == 3
        assert payload["usable"] == 3
        assert payload["skipped_no_expression"] == 0
        assert payload["benchmarks"] == ["codrle4"]


class TestTrainFromCache:
    def test_trains_when_enough_pairs(self, tmp_path):
        cache, _, _ = fill_cache(tmp_path, candidates=10)
        model, report = train_from_cache(cache, CASE)
        assert model is not None and model.trained
        assert report.usable == 11

    def test_cold_cache_returns_none(self, tmp_path):
        cache, _, _ = fill_cache(tmp_path, candidates=3)
        model, report = train_from_cache(cache, CASE)
        assert model is None
        assert report.usable == 4

    def test_training_is_deterministic(self, tmp_path):
        cache, _, _ = fill_cache(tmp_path, candidates=12)
        first, _ = train_from_cache(cache, CASE)
        second, _ = train_from_cache(cache, CASE)
        assert first.to_json() == second.to_json()
