"""Mining training pairs out of the persistent fitness cache: label
computation against the baseline record, group hygiene, and the
too-few-pairs cold-start path."""

import random

from repro.gp.generate import TreeGenerator
from repro.gp.parse import unparse
from repro.machine.sim import SimResult
from repro.metaopt.baselines import BASELINE_TREES
from repro.metaopt.fitness_cache import FitnessCache
from repro.metaopt.psets import PSETS
from repro.surrogate.train import mine_pairs, train_from_cache

CASE = "regalloc"
BASELINE_TEXT = unparse(BASELINE_TREES[CASE]())


def result(cycles):
    return SimResult(cycles=cycles, return_value=None, outputs=[],
                     dynamic_ops=1, bundles=1)


def meta(expression, benchmark="codrle4", case=CASE, dataset="train",
         noise_stddev=0.0, verified=True):
    return dict(expression=expression, case=case, benchmark=benchmark,
                dataset=dataset, noise_stddev=noise_stddev,
                verified=verified)


def expressions(count, seed=0):
    generator = TreeGenerator(PSETS[CASE], rng=random.Random(seed))
    texts, seen = [], {BASELINE_TEXT}
    while len(texts) < count:
        text = unparse(generator.grow(4))
        if text not in seen:
            seen.add(text)
            texts.append(text)
    return texts


def fill_cache(tmp_path, candidates=10, baseline_cycles=1000):
    cache = FitnessCache(tmp_path)
    cache.put(f"{0:064x}", result(baseline_cycles),
              meta=meta(BASELINE_TEXT))
    cycles_by_text = {}
    for i, text in enumerate(expressions(candidates), start=1):
        cycles = 800 + 40 * i
        cycles_by_text[text] = cycles
        cache.put(f"{i:064x}", result(cycles), meta=meta(text))
    return cache, cycles_by_text, baseline_cycles


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
        cache = FitnessCache(tmp_path)
        for i, text in enumerate(expressions(3)):
            cache.put(f"{i:064x}", result(900), meta=meta(text))
        pairs, report = mine_pairs(cache, CASE)
        assert pairs == []
        assert report.skipped_no_baseline == 3

    def test_other_cases_and_meta_less_records_skipped(self, tmp_path):
        cache, _, _ = fill_cache(tmp_path, candidates=2)
        cache.put("a" * 64, result(700))  # no meta
        cache.put("b" * 64, result(700),
                  meta=meta("(add exec_ratio 1.0)", case="hyperblock"))
        pairs, report = mine_pairs(cache, CASE)
        assert report.skipped_no_meta == 1
        assert report.skipped_other_case == 1
        assert len(pairs) == 3  # baseline + 2 candidates

    def test_groups_keyed_by_noise_and_dataset(self, tmp_path):
        """A baseline measured at one noise level must not become the
        denominator for another group's records."""
        cache = FitnessCache(tmp_path)
        cache.put("0" * 64, result(1000), meta=meta(BASELINE_TEXT))
        text = expressions(1)[0]
        cache.put("1" * 64, result(500),
                  meta=meta(text, noise_stddev=0.5))
        pairs, report = mine_pairs(cache, CASE)
        assert [p[0] for p in pairs] == [BASELINE_TEXT]
        assert report.skipped_no_baseline == 1

    def test_report_serializes(self, tmp_path):
        cache, _, _ = fill_cache(tmp_path, candidates=2)
        _, report = mine_pairs(cache, CASE)
        payload = report.to_json_dict()
        assert payload["scanned"] == 3
        assert payload["usable"] == 3
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
