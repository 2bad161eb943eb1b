"""A case study is one row of ``repro.metaopt.harness._CASE_TABLE``.

Everything else a case can or cannot do — its backend stage, whether it
steers ``prepare``, whether its candidates are trees, whether a
champion deploys as an artifact, which campaign options it refuses — is
derived from that row.  These tests walk the rows and prove the
derivations, so adding a tree-valued case is one row plus its pset and
baseline (docs/CASES.md), and the capability matrix in that document is
regenerated from the table and compared.
"""

import random
from dataclasses import fields
from pathlib import Path

import pytest

from repro.experiments import config as experiments_config
from repro.gp.generate import PrimitiveSet, TreeGenerator
from repro.gp.genome import expression_text
from repro.machine.descr import CASE_NAMES
from repro.metaopt.baselines import BASELINE_TREES
from repro.metaopt.harness import _CASE_TABLE, _as_hook, case_study
from repro.metaopt.psets import PSETS
from repro.passes.pipeline import (
    BACKEND_STAGES,
    STAGE_BY_HOOK,
    CompilerOptions,
)
from repro.serve.artifact import ArtifactError, build_artifact

CASES_DOC = Path(__file__).resolve().parents[2] / "docs" / "CASES.md"


def _refused(case, **options) -> bool:
    try:
        case.check_campaign(**options)
    except ValueError:
        return True
    return False


def test_every_name_list_is_the_table():
    assert tuple(_CASE_TABLE) == CASE_NAMES
    assert experiments_config.CASES == CASE_NAMES
    assert tuple(PSETS) == CASE_NAMES
    assert tuple(BASELINE_TREES) == CASE_NAMES


@pytest.mark.parametrize("name", CASE_NAMES)
class TestRow:
    def test_builds_from_its_row(self, name):
        hook, machine, adapter = _CASE_TABLE[name]
        case = case_study(name)
        assert (case.name, case.hook, case.machine, case.adapter) == \
            (name, hook, machine, adapter)
        assert case.options.machine is machine
        assert hook is None or hook in {
            field.name for field in fields(CompilerOptions)}
        assert case.pset is PSETS[name]
        assert expression_text(case.baseline_tree())

    def test_derived_capabilities(self, name):
        case = case_study(name)
        assert case.stage is None or case.stage in BACKEND_STAGES
        assert case.steers_prepare == (case.stage is None)
        assert case.tree_valued == isinstance(PSETS[name], PrimitiveSet)
        assert case.deployable == (case.tree_valued
                                   and not case.steers_prepare)
        if case.tree_valued:
            assert case.require_tree_valued() is case
        else:
            with pytest.raises(ValueError, match=name):
                case.require_tree_valued()
        # the prefetch pass runs exactly when the hook steers it
        assert case.options.prefetch == (case.stage == "prefetch")

    def test_campaign_gate_follows_the_capabilities(self, name):
        case = case_study(name)
        case.check_campaign()
        assert _refused(case, processes=2, fleet="127.0.0.1:8347")
        for options in ({"processes": 2}, {"fleet": "127.0.0.1:8347"},
                        {"surrogate": True},
                        {"seed_expressions": ("(add 1.0 1.0)",)}):
            assert _refused(case, **options) == (not case.tree_valued), \
                options
        assert _refused(case, publish=True) == (not case.deployable)

    def test_deployable_means_an_artifact_installs_in_the_hook(self, name):
        case = case_study(name)
        expression = expression_text(case.baseline_tree())
        if not case.deployable:
            with pytest.raises(ArtifactError, match=name):
                build_artifact(case=name, expression=expression,
                               machine=case.machine)
            return
        artifact = build_artifact(case=name, expression=expression,
                                  machine=case.machine, created_at=0.0)
        assert artifact.verify() == []
        stock = CompilerOptions(machine=case.machine,
                                heuristic_artifact=artifact)
        installed = artifact.install(stock)
        assert installed.heuristic_artifact is None
        changed = {field.name for field in fields(CompilerOptions)
                   if getattr(installed, field.name)
                   is not getattr(stock, field.name)}
        assert changed == {case.hook, "heuristic_artifact"}
        assert callable(getattr(installed, case.hook))

    def test_candidates_differ_only_in_the_hook_option(self, name):
        """What keys a harness's prefix snapshots by program alone: two
        candidates of a case get options that differ in ``case.hook``
        and nowhere else, so everything upstream of the hook's stage is
        a constant of the case."""
        case = case_study(name)
        if case.hook is None:
            # the genome IS the options delta; nothing is forked
            assert case.stage is None
            return
        generator = TreeGenerator(case.pset, random.Random(2))
        options_a, options_b = (
            case.options_for(_as_hook(tree))
            for tree in generator.ramped_half_and_half(2))
        differing = {field.name for field in fields(CompilerOptions)
                     if getattr(options_a, field.name)
                     is not getattr(options_b, field.name)}
        assert differing == {case.hook}
        assert (case.stage is None) == (case.hook not in STAGE_BY_HOOK)


def _matrix_lines() -> list[str]:
    def mark(flag: bool) -> str:
        return "yes" if flag else "no"

    def gate(case, **options) -> str:
        return "refused" if _refused(case, **options) else "yes"

    lines = [
        "| case | backend stage | steers prepare | tree-valued "
        "| deployable | `--processes` / `--fleet` | `--surrogate` "
        "| `--publish` |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name in CASE_NAMES:
        case = case_study(name)
        pool = {gate(case, processes=2), gate(case, fleet="127.0.0.1:8347")}
        assert len(pool) == 1
        lines.append(
            f"| `{name}` | {case.stage or '—'} "
            f"| {mark(case.steers_prepare)} | {mark(case.tree_valued)} "
            f"| {mark(case.deployable)} | {pool.pop()} "
            f"| {gate(case, surrogate=True)} "
            f"| {gate(case, publish=True)} |")
    return lines


def test_capability_matrix_in_the_docs_is_the_table():
    """docs/CASES.md carries the matrix verbatim; on a mismatch the
    assertion message is the block to paste."""
    matrix = "\n".join(_matrix_lines())
    assert matrix in CASES_DOC.read_text(), "\n" + matrix
