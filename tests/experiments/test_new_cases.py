"""Campaign-level acceptance for the two extension case studies.

``unroll`` evolves a prepare-stage priority function; ``flags`` runs
the FOGA-style GA over ``CompilerOptions``.  Both must behave exactly
like the established cases at the experiments layer: a short verified
campaign completes with the champion at least matching the seeded
baseline (fitness 1.0 by construction), and a killed run resumes
byte-identically.

The flags case additionally carries explicit capability gates — it is
serial-only (workers exchange s-expression text) and its genome cannot
ride the tree-feature surrogate or the artifact store — and neither
can be published.  Those gates must fail loudly at session open,
not corrupt (or waste) a campaign.
"""

import json

import pytest

from repro.experiments import ExperimentRunner

NEW_CASES = ("unroll", "flags")


class TestNewCaseCampaigns:
    @pytest.mark.parametrize("case", NEW_CASES)
    def test_verified_campaign_completes_at_or_above_baseline(
            self, campaign_run, case):
        """2 generations with the differential guard on: the champion
        is never worse than the seeded baseline heuristic."""
        config = campaign_run.config(case=case, generations=2,
                                     verify_outputs=True)
        result = json.loads(campaign_run.run_full(config, name=case))
        assert result["mode"] == "specialize"
        assert result["case"] == case
        assert result["train_speedup"] >= 1.0 - 1e-9
        assert result["best_expression"]
        assert result["history"][-1]["best_fitness"] >= 1.0 - 1e-9

    @pytest.mark.parametrize("case", NEW_CASES)
    def test_kill_resume_byte_identical(self, campaign_run, case):
        config = campaign_run.config(case=case, generations=3)
        full = campaign_run.run_full(config)
        resumed = campaign_run.run_killed_then_resumed(config,
                                                       stop_after=0)
        assert resumed == full

    def test_flags_champion_serializes_as_flags_line(self, campaign_run):
        config = campaign_run.config(case="flags", generations=2)
        result = json.loads(campaign_run.run_full(config))
        assert result["best_expression"].startswith("(flags ")
        # Population snapshots carry the same textual form.
        lines = [json.loads(line) for line in
                 (campaign_run.base / "full" / "populations" /
                  "gen_0000.jsonl").read_text().splitlines()]
        assert all(entry["expression"].startswith("(flags ")
                   for entry in lines)


class TestPromotedSuiteCampaigns:
    def test_generalize_over_promoted_split(self, campaign_run):
        """The widened suite plugs straight into the existing
        generalize path: train on the promoted train partition,
        cross-validate on the promoted novel partition."""
        from repro.suite import PROMOTED_NOVEL_SET, PROMOTED_TRAINING_SET

        config = campaign_run.config(
            benchmark=None, mode="generalize", generations=2,
            population=6, training_set=PROMOTED_TRAINING_SET[:2],
            test_set=PROMOTED_NOVEL_SET[:1], subset_size=1)
        result = json.loads(campaign_run.run_full(config))
        assert result["average_train_speedup"] >= 1.0 - 1e-9
        trained = {score["benchmark"] for score in result["training"]}
        assert trained == set(PROMOTED_TRAINING_SET[:2])
        validated = {score["benchmark"]
                     for score in result["cross_validation"]["scores"]}
        assert validated == set(PROMOTED_NOVEL_SET[:1])


class TestFlagsGates:
    """The flags case refuses backends its genome cannot ride."""

    def test_rejects_process_pool(self, campaign_run):
        config = campaign_run.config(case="flags", generations=2,
                                     processes=2)
        with pytest.raises(ValueError, match="serial"):
            campaign_run.run_full(config)

    def test_rejects_fleet(self, campaign_run):
        config = campaign_run.config(case="flags", generations=2)
        with pytest.raises(ValueError, match="serial"):
            ExperimentRunner(config, run_dir=campaign_run.base / "run",
                             fleet="127.0.0.1:8347").run()

    def test_rejects_surrogate(self, campaign_run):
        config = campaign_run.config(case="flags", generations=2)
        with pytest.raises(ValueError, match="surrogate"):
            ExperimentRunner(config, run_dir=campaign_run.base / "run",
                             surrogate=True).run()

    @pytest.mark.parametrize("case", NEW_CASES)
    def test_rejects_publish(self, campaign_run, case):
        """No case here can be deployed as an artifact (a genome is no
        tree; an unroll tree would be installed after prepare,
        too late to act), so ``--publish`` is refused at session open —
        not by ``build_artifact`` after the whole campaign has run."""
        from repro.metaopt.harness import EvaluationHarness, case_study

        config = campaign_run.config(case=case, generations=2)
        harness = EvaluationHarness(case_study(case))
        with pytest.raises(ValueError, match="publish"):
            ExperimentRunner(config, run_dir=campaign_run.base / "run",
                             harness=harness,
                             publish_dir=campaign_run.base / "art").run()
        assert harness.stats()["compiles"] == 0
        assert not (campaign_run.base / "run" / "result.json").exists()
