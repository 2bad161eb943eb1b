"""Shared pytest configuration for the whole suite."""

import sys
import time
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


def wait_until(predicate, what: str, timeout: float = 30.0):
    """Poll ``predicate`` until it returns a true value, and return
    that value.  After ``timeout`` seconds, raise ``AssertionError``
    naming ``what`` and the last value seen.  The poll interval starts
    at 1 ms and doubles up to 100 ms, so a condition that holds at
    once costs no sleep and one that takes seconds (a daemon, a
    campaign) is not asked more than ten times a second."""
    deadline = time.monotonic() + timeout
    interval = 0.001
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise AssertionError(
                f"timed out after {timeout:g} s waiting for {what}; "
                f"last value: {value!r}")
        time.sleep(interval)
        interval = min(2 * interval, 0.1)


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
def hook_calls(monkeypatch):
    """Calls of candidate priority functions (``PriorityFunction``),
    by any hook, while the test runs: a check that a case's hook is
    asked on the program it compiles."""
    from repro.metaopt.priority import PriorityFunction

    calls = []
    call = PriorityFunction.__call__

    def counted(self, env):
        calls.append(1)
        return call(self, env)

    monkeypatch.setattr(PriorityFunction, "__call__", counted)
    return calls


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

        def write_then_die(path, data, **keywords):
            real(path, data, **keywords)
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
