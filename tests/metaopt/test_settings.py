"""EvalSettings: the unified evaluation-settings record."""

import dataclasses
import json

import pytest

from repro.metaopt.harness import EvaluationHarness, case_study
from repro.metaopt.settings import EvalSettings


class TestEvalSettings:
    def test_defaults(self):
        settings = EvalSettings()
        assert settings.noise_stddev == 0.0
        assert settings.fitness_cache_dir is None
        assert settings.verify_outputs is False
        assert settings.use_snapshots is True

    def test_frozen_and_hashable(self):
        settings = EvalSettings(noise_stddev=0.01)
        with pytest.raises(dataclasses.FrozenInstanceError):
            settings.noise_stddev = 0.5
        assert settings == EvalSettings(noise_stddev=0.01)
        assert hash(settings) == hash(EvalSettings(noise_stddev=0.01))

    def test_json_round_trip(self):
        settings = EvalSettings(noise_stddev=0.02, verify_outputs=True,
                                fitness_cache_dir="/tmp/cache")
        wire = settings.to_json_dict()
        assert wire == {
            "noise_stddev": 0.02,
            "fitness_cache_dir": "/tmp/cache",
            "verify_outputs": True,
            "use_snapshots": True,
        }
        assert EvalSettings.from_json_dict(wire) == settings

    def test_from_json_rejects_unknown_fields(self):
        # a typo, and a field the record no longer has
        for text in ('{"noise": 0.1}', '{"collect_metrics": false}'):
            with pytest.raises(ValueError, match="unknown EvalSettings"):
                EvalSettings.from_json_dict(json.loads(text))
        # wire values JSON admits and the record must not
        for text, field in (('{"noise_stddev": Infinity}', "noise_stddev"),
                            ('{"noise_stddev": NaN}', "noise_stddev"),
                            ('{"noise_stddev": true}', "noise_stddev"),
                            ('{"noise_stddev": "0.1"}', "noise_stddev"),
                            ('{"verify_outputs": "yes"}', "verify_outputs"),
                            ('{"use_snapshots": 1}', "use_snapshots")):
            with pytest.raises(ValueError, match=field):
                EvalSettings.from_json_dict(json.loads(text))
        assert EvalSettings.from_json_dict(
            json.loads('{"noise_stddev": 1}')).noise_stddev == 1

    def test_path_normalized_for_equality(self, tmp_path):
        assert (EvalSettings(fitness_cache_dir=tmp_path)
                == EvalSettings(fitness_cache_dir=str(tmp_path)))

    def test_negative_noise_rejected(self):
        for noise in (-0.1, float("inf"), float("nan"), True, None):
            with pytest.raises(ValueError, match="noise_stddev"):
                EvalSettings(noise_stddev=noise)

    def test_replace(self):
        settings = EvalSettings().replace(use_snapshots=False)
        assert settings.use_snapshots is False
        assert settings != EvalSettings()


class TestDeprecatedKwargs:
    """The per-flag keyword arguments ``EvalSettings`` replaced are
    gone: the harness takes a settings object or nothing."""

    def test_plain_settings_pass_through(self):
        settings = EvalSettings(noise_stddev=0.3)
        harness = EvaluationHarness(case_study("hyperblock"), settings)
        assert harness.settings is settings

    def test_no_args_yields_defaults(self):
        harness = EvaluationHarness(case_study("hyperblock"))
        assert harness.settings == EvalSettings()

    def test_unknown_kwarg_is_an_error(self):
        case = case_study("hyperblock")
        for retired in ("noise_stddev", "fitness_cache_dir",
                        "verify_outputs", "use_snapshots",
                        "collect_metrics", "typo"):
            with pytest.raises(TypeError, match="unexpected keyword"):
                EvaluationHarness(case, **{retired: 1})

    def test_harness_rejects_settings_plus_kwargs(self):
        case = case_study("hyperblock")
        with pytest.raises(TypeError, match="unexpected keyword"):
            EvaluationHarness(case, EvalSettings(), noise_stddev=0.1)
