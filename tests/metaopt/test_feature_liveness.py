"""Every feature a hook offers carries information (ROADMAP item 17).

A feature that never changes over a case's programs is a dead terminal:
GP spends tree nodes and mutations on it and learns nothing from it.
For each case with a hook, the stock heuristic is installed behind a
recorder and every program of the case is compiled (frontend,
``prepare`` on the train inputs, the whole backend); each feature of
the case's primitive set must take at least two values over the calls.

The programs are the case's training and cross-validation sets, and the
whole suite for ``scheduling`` and ``unroll``, which have none.  The
only features allowed to be constant are named in
``CONSTANT_BY_DEFINITION``, each with its reason.  Today's dead
features are listed in ``DEAD_TODAY``: the liveness test is a strict
xfail on those cases until item 17(b)/(c) revives or drops them, and
``test_dead_features_are_the_known_ones`` holds the list exact.
"""

import functools

import pytest

from repro.frontend import compile_source
from repro.machine.descr import CASE_NAMES
from repro.metaopt.harness import _as_hook, case_study
from repro.passes.pipeline import compile_backend, prepare
from repro.suite.registry import (
    HYPERBLOCK_TEST_SET,
    HYPERBLOCK_TRAINING_SET,
    PREFETCH_TEST_SET,
    PREFETCH_TRAINING_SET,
    REGALLOC_TEST_SET,
    REGALLOC_TRAINING_SET,
    all_benchmarks,
    get as get_benchmark,
)

HOOKED_CASES = tuple(name for name in CASE_NAMES
                     if case_study(name).hook is not None)

#: a case's programs: its training and cross-validation sets, or the
#: whole suite for a case that has none
CASE_PROGRAMS = {
    "hyperblock": HYPERBLOCK_TRAINING_SET + HYPERBLOCK_TEST_SET,
    "regalloc": REGALLOC_TRAINING_SET + REGALLOC_TEST_SET,
    "prefetch": PREFETCH_TRAINING_SET + PREFETCH_TEST_SET,
}

#: features that are constant by definition, not by accident
CONSTANT_BY_DEFINITION = {
    ("regalloc", "ld_save"):
        "Equation 2's cost of one reload: a constant of the machine",
    ("regalloc", "st_save"):
        "Equation 2's cost of one spill store: a constant of the machine",
}

#: features with fewer than two values today, by case
DEAD_TODAY = {
    # regions have two paths, so num_paths is 2 and exec_ratio_mean
    # 0.5; num_branches_min is always 1 and predict_product_max 0.5;
    # no program has a memory hazard or an unsafe call
    "hyperblock": ("exec_ratio_mean", "has_unsafe_jsr", "mem_hazard",
                   "num_branches_min", "num_paths",
                   "predict_product_max"),
    # forbidden_ratio is passed as 0.0 at its only call site; no
    # program of the case's sets has a call or floating-point code
    "regalloc": ("forbidden_ratio", "has_call", "is_float"),
    # every loop the hook is asked about touches memory
    "unroll": ("has_memory",),
}


@functools.lru_cache(maxsize=None)
def dead_features(name: str) -> tuple[str, ...]:
    """The features of ``name``'s primitive set that took fewer than
    two values over its programs, excluding the allow-list."""
    case = case_study(name)
    stock = _as_hook(case.baseline_tree())
    features = case.pset.real_features + case.pset.bool_features
    values = {feature: set() for feature in features}

    def recorded(env):
        for feature in features:
            values[feature].add(env[feature])
        return stock(env)

    options = case.options_for(recorded)
    for program in CASE_PROGRAMS.get(name, tuple(all_benchmarks())):
        bench = get_benchmark(program)
        prepared = prepare(compile_source(bench.source, bench.name),
                           bench.inputs("train"), options)
        compile_backend(prepared, options)
    assert any(values[feature] for feature in features), \
        f"the {case.hook} hook was never asked"
    return tuple(sorted(
        feature for feature in features
        if len(values[feature]) < 2
        and (name, feature) not in CONSTANT_BY_DEFINITION))


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="dead today: " + ", ".join(DEAD_TODAY[name])))
    if name in DEAD_TODAY else name
    for name in HOOKED_CASES])
def test_every_feature_takes_two_values(name):
    dead = dead_features(name)
    assert not dead, f"{name}: features with one value: {dead}"


@pytest.mark.parametrize("name", HOOKED_CASES)
def test_dead_features_are_the_known_ones(name):
    """A feature that dies, or revives, changes ``DEAD_TODAY``."""
    assert dead_features(name) == DEAD_TODAY.get(name, ())
