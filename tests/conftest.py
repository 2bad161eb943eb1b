"""Shared pytest configuration for the whole suite."""

import sys
from pathlib import Path

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite golden files (tests/golden/*.json) with the "
             "current behaviour instead of comparing against them",
    )


@pytest.fixture(scope="session")
def update_goldens(request):
    """True when the run should rewrite golden files."""
    return request.config.getoption("--update-goldens")


class CampaignDriver:
    """The shared tempdir campaign runner of the experiments, fleet,
    and surrogate suites (formerly three copy-pasted helpers).

    ``runner_kwargs`` (``surrogate=True``, ``fleet="host:8347"``, ...)
    pass straight through to :class:`repro.experiments.
    ExperimentRunner` on the initial run *and* on the resume leg, so a
    killed run always resumes under the same evaluation backend.
    """

    def __init__(self, base: Path) -> None:
        self.base = Path(base)

    def config(self, case="hyperblock", benchmark="codrle4",
               generations=4, seed=0, population=8, **overrides):
        from repro.experiments import ExperimentConfig
        from repro.gp.engine import GPParams

        defaults = dict(
            mode="specialize", case=case, benchmark=benchmark,
            params=GPParams(population_size=population,
                            generations=generations, seed=seed))
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    def run_full(self, config, name="full", **runner_kwargs) -> bytes:
        """Run ``config`` to completion; returns result.json's bytes."""
        from repro.experiments import ExperimentRunner

        run_dir = self.base / name
        ExperimentRunner(config, run_dir=run_dir, **runner_kwargs).run()
        return (run_dir / "result.json").read_bytes()

    def run_killed_then_resumed(self, config, stop_after, name="killed",
                                **runner_kwargs) -> bytes:
        """Stop after generation ``stop_after`` (the deterministic
        SIGKILL stand-in), then resume to completion; returns
        result.json's bytes."""
        from repro.experiments import ExperimentRunner

        run_dir = self.base / name
        outcome = ExperimentRunner(
            config, run_dir=run_dir, stop_after_generation=stop_after,
            **runner_kwargs).run()
        assert outcome.interrupted
        assert outcome.next_generation == stop_after + 1
        assert not (run_dir / "result.json").exists()
        ExperimentRunner.from_run_dir(
            run_dir, **runner_kwargs).run(resume=True)
        return (run_dir / "result.json").read_bytes()


@pytest.fixture
def campaign_run(tmp_path):
    """A :class:`CampaignDriver` rooted in this test's tmp dir."""
    return CampaignDriver(tmp_path)


@pytest.fixture
def kill_after_write(monkeypatch):
    """The fault point of the one write path: ``kill_after_write(
    matches)`` makes the first :func:`repro.experiments.checkpoint.
    atomic_write` whose target satisfies ``matches`` complete and then
    raise :class:`KeyboardInterrupt` — a kill landing right after that
    write.  Later writes run unharmed.  Returns the list that receives
    the target killed at."""
    from repro.experiments import checkpoint

    real = checkpoint.atomic_write

    def arm(matches):
        killed = []

        def write_then_die(path, data):
            real(path, data)
            if not killed and matches(Path(path)):
                killed.append(Path(path))
                raise KeyboardInterrupt

        # every module that bound the function, and the lazy importers
        # that read it off the checkpoint module at call time
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get("atomic_write") is real:
                monkeypatch.setattr(module, "atomic_write",
                                    write_then_die)
        return killed

    return arm
