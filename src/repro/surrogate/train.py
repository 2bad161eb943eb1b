"""Mine surrogate training pairs from the persistent fitness cache.

Every simulation a campaign ever persisted is a free labeled example:
the cache's meta records (:meth:`FitnessCache.scan`) carry the
expression behind each cycle count, and speedup labels fall out by
dividing against the baseline expression's record in the same
(benchmark, dataset, noise, verified) group.  A warm cache from one
exact campaign therefore trains a model with zero additional
simulator time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.gp.parse import parse, unparse
from repro.metaopt.baselines import BASELINE_TREES
from repro.metaopt.fitness_cache import FitnessCache
from repro.metaopt.psets import PSETS
from repro.surrogate.features import FeatureExtractor
from repro.surrogate.model import MIN_TOTAL_PAIRS, SurrogateModel


@dataclass
class TrainingReport:
    """What the miner found and the fit that came out of it."""

    scanned: int = 0
    usable: int = 0
    skipped_no_meta: int = 0
    skipped_other_case: int = 0
    skipped_no_baseline: int = 0
    benchmarks: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "usable": self.usable,
            "skipped_no_meta": self.skipped_no_meta,
            "skipped_other_case": self.skipped_other_case,
            "skipped_no_baseline": self.skipped_no_baseline,
            "benchmarks": sorted(self.benchmarks),
        }


def mine_pairs(
    cache: FitnessCache,
    case_name: str,
) -> tuple[list[tuple[str, str, float]], TrainingReport]:
    """Scan ``cache`` for ``(expression, benchmark, speedup)`` pairs
    belonging to ``case_name``.

    Records group by (benchmark, dataset, noise, verified); a group
    without a baseline-expression record contributes nothing (no
    denominator).  Baseline records themselves become pairs too — the
    model should know what speedup 1.0 looks like.
    """
    report = TrainingReport()
    baseline_text = unparse(BASELINE_TREES[case_name]())
    groups: dict[tuple, list] = {}
    for record in cache.scan():
        report.scanned += 1
        meta = record.meta
        if meta is None or "expression" not in meta:
            report.skipped_no_meta += 1
            continue
        if meta.get("case") != case_name:
            report.skipped_other_case += 1
            continue
        group_key = (meta.get("benchmark"), meta.get("dataset"),
                     meta.get("noise_stddev"), meta.get("verified"))
        groups.setdefault(group_key, []).append(record)
    pairs: list[tuple[str, str, float]] = []
    benchmarks: set[str] = set()
    for group_key, records in sorted(groups.items(),
                                     key=lambda item: repr(item[0])):
        benchmark = group_key[0]
        baseline_cycles = None
        for record in records:
            if record.meta["expression"] == baseline_text:
                baseline_cycles = record.result.cycles
                break
        if baseline_cycles is None or baseline_cycles <= 0:
            report.skipped_no_baseline += len(records)
            continue
        for record in records:
            cycles = record.result.cycles
            if cycles <= 0:
                continue
            pairs.append((record.meta["expression"], str(benchmark),
                          baseline_cycles / cycles))
            benchmarks.add(str(benchmark))
    report.usable = len(pairs)
    report.benchmarks = sorted(benchmarks)
    return pairs, report


def train_from_cache(
    cache: FitnessCache,
    case_name: str,
) -> tuple[SurrogateModel | None, TrainingReport]:
    """Train a :class:`SurrogateModel` from everything ``cache`` holds
    for ``case_name``.

    Returns ``(model, report)``; ``model`` is ``None`` when the cache
    has too few usable pairs (the evaluator then starts cold and fits
    from its own exact evaluations once enough accumulate).
    """
    pset = PSETS[case_name]
    extractor = FeatureExtractor(pset)
    text_pairs, report = mine_pairs(cache, case_name)
    obs.inc("surrogate.train_scanned", report.scanned)
    obs.inc("surrogate.train_pairs", report.usable)
    if len(text_pairs) < MIN_TOTAL_PAIRS:
        return None, report
    bool_features = pset.bool_feature_set()
    vector_pairs = [
        (extractor.vector(parse(text, bool_features)), benchmark, label)
        for text, benchmark, label in text_pairs
    ]
    model = SurrogateModel(feature_names=extractor.names)
    model.fit(vector_pairs)
    return model, report
