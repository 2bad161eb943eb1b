"""JobQueue lifecycle: backpressure, cancellation, timeouts, drain.

All tests inject tiny synchronous handlers (gated on events where
ordering matters) so they run in milliseconds and never touch the
compiler."""

import threading
import time

import pytest

from repro.serve.jobs import Job, JobQueue, QueueFull
from tests.conftest import wait_until


def finished_job(queue, job_id):
    """The job once its worker has written its last field, for the
    caller to assert on.  ``Job.finished`` turns true when ``state`` is
    written, before ``result`` and ``error``; ``finished_at`` is written
    last, under the queue's lock, on every path to a final state, so a
    job that shows it changes no more."""
    job = queue.get(job_id)
    wait_until(lambda: job.finished_at is not None,
               f"{job_id} to write finished_at")
    return job


def echo_handler(kind, params):
    return {"kind": kind, **params}


class TestHappyPath:
    def test_submit_runs_to_done(self):
        queue = JobQueue(echo_handler, workers=1, capacity=4)
        job = queue.submit("evaluate", {"x": 1})
        assert job.id.startswith("job-")
        done = finished_job(queue, job.id)
        assert done.state == "done"
        assert done.result == {"kind": "evaluate", "x": 1}
        assert done.error is None
        assert done.started_at is not None
        assert done.finished_at is not None
        queue.drain(timeout=5.0)

    def test_handler_exception_becomes_failed(self):
        def boom(kind, params):
            raise ValueError("no such benchmark")

        queue = JobQueue(boom, workers=1, capacity=4)
        job = queue.submit("evaluate", {})
        failed = finished_job(queue, job.id)
        assert failed.state == "failed"
        assert failed.result is None
        assert "ValueError: no such benchmark" == failed.error
        assert queue.stats()["failed"] == 1
        queue.drain(timeout=5.0)

    def test_jobs_run_in_fifo_order(self):
        order = []
        queue = JobQueue(lambda kind, params: order.append(params["n"]),
                         workers=1, capacity=16)
        for n in range(5):
            queue.submit("evaluate", {"n": n})
        assert queue.drain(timeout=5.0)
        assert order == [0, 1, 2, 3, 4]

    def test_job_json_shape(self):
        job = Job(id="job-000001", kind="evaluate", params={},
                  deadline=None)
        assert set(job.to_json_dict()) == {
            "id", "kind", "priority", "state", "result", "error",
            "cancel_requested", "created_at", "started_at",
            "finished_at"}


class TestBackpressure:
    def test_queue_full_raises_with_retry_after(self):
        gate = threading.Event()
        queue = JobQueue(lambda kind, params: gate.wait(10),
                         workers=1, capacity=2)
        queue.submit("evaluate", {})  # occupies the worker
        wait_until(lambda: queue.stats()["running"] == 1, "a running job")
        queue.submit("evaluate", {})
        queue.submit("evaluate", {})  # queue now at capacity
        with pytest.raises(QueueFull) as excinfo:
            queue.submit("evaluate", {})
        assert excinfo.value.capacity == 2
        assert excinfo.value.retry_after > 0
        assert queue.stats()["rejected"] == 1
        gate.set()
        assert queue.drain(timeout=5.0)

    def test_recovers_after_shedding(self):
        gate = threading.Event()
        queue = JobQueue(lambda kind, params: gate.wait(10) and {},
                         workers=1, capacity=1)
        queue.submit("evaluate", {})
        wait_until(lambda: queue.stats()["running"] == 1, "a running job")
        queue.submit("evaluate", {})
        with pytest.raises(QueueFull):
            queue.submit("evaluate", {})
        gate.set()
        wait_until(lambda: queue.depth() == 0, "an empty queue")
        job = queue.submit("evaluate", {})  # accepted again
        wait_until(lambda: queue.get(job.id).finished, f"{job.id} to finish")
        assert queue.drain(timeout=5.0)


class TestCancel:
    def test_cancel_queued_job(self):
        gate = threading.Event()
        queue = JobQueue(lambda kind, params: gate.wait(10),
                         workers=1, capacity=4)
        queue.submit("evaluate", {})
        wait_until(lambda: queue.stats()["running"] == 1, "a running job")
        queued = queue.submit("evaluate", {})
        assert queue.cancel(queued.id) is True
        assert queue.get(queued.id).state == "cancelled"
        gate.set()
        assert queue.drain(timeout=5.0)
        # the cancelled job never ran
        assert queue.stats()["done"] == 1
        assert queue.stats()["cancelled"] == 1

    def test_cancel_running_or_unknown_is_refused(self):
        gate = threading.Event()
        queue = JobQueue(lambda kind, params: gate.wait(10),
                         workers=1, capacity=4)
        job = queue.submit("evaluate", {})
        wait_until(lambda: queue.get(job.id).state == "running",
                   f"{job.id} to run")
        assert queue.cancel(job.id) is False
        # ... but the running job is flagged for cooperative cancel
        assert queue.get(job.id).cancel_requested is True
        assert queue.cancel("job-999999") is False
        gate.set()
        assert queue.drain(timeout=5.0)
        assert queue.get(job.id).state == "done"

    def test_cooperative_cancel_seen_by_handler(self):
        flagged = threading.Event()
        observed = []

        def handler(kind, params):
            current = queue.current_job()
            flagged.wait(10)
            observed.append(current.cancel_requested)
            return {"stopped_early": current.cancel_requested}

        queue = JobQueue(handler, workers=1, capacity=4)
        job = queue.submit("campaign-step", {})
        wait_until(lambda: queue.get(job.id).state == "running",
                   f"{job.id} to run")
        queue.cancel(job.id)  # running: flag only
        flagged.set()
        done = finished_job(queue, job.id)
        assert observed == [True]
        # the handler honored the flag and still finished normally
        assert done.state == "done"
        assert done.result == {"stopped_early": True}
        assert queue.drain(timeout=5.0)


class TestPriority:
    def test_interactive_preempts_queued_background(self):
        order = []
        gate = threading.Event()

        def handler(kind, params):
            if params.get("hold"):
                gate.wait(10)
            order.append(params["n"])

        queue = JobQueue(handler, workers=1, capacity=16)
        queue.submit("evaluate", {"n": "hold", "hold": True})
        wait_until(lambda: queue.stats()["running"] == 1, "a running job")
        queue.submit("autopilot-step", {"n": "bg1"},
                     priority="background")
        queue.submit("autopilot-step", {"n": "bg2"},
                     priority="background")
        queue.submit("evaluate", {"n": "fg1"})
        queue.submit("evaluate", {"n": "fg2"})
        gate.set()
        # drain would cancel queued background work, so wait for the
        # backlog to empty first
        wait_until(lambda: len(order) == 5, "five jobs to run")
        assert queue.drain(timeout=10.0)
        # both interactive jobs ran before any queued background job
        assert order == ["hold", "fg1", "fg2", "bg1", "bg2"]

    def test_unknown_priority_rejected(self):
        queue = JobQueue(echo_handler, workers=1, capacity=4)
        with pytest.raises(ValueError, match="priority"):
            queue.submit("evaluate", {}, priority="urgent")
        queue.drain(timeout=5.0)

    def test_capacity_accounted_per_class(self):
        gate = threading.Event()
        queue = JobQueue(lambda kind, params: gate.wait(10),
                         workers=1, capacity=1)
        queue.submit("evaluate", {})
        wait_until(lambda: queue.stats()["running"] == 1, "a running job")
        queue.submit("evaluate", {})
        with pytest.raises(QueueFull):
            queue.submit("evaluate", {})
        # the background class has its own accounting: still room
        queue.submit("autopilot-step", {}, priority="background")
        with pytest.raises(QueueFull):
            queue.submit("autopilot-step", {}, priority="background")
        assert queue.stats()["background_depth"] == 1
        gate.set()
        assert queue.drain(timeout=5.0)

    def test_background_jobs_have_no_deadline(self):
        queue = JobQueue(echo_handler, workers=1, capacity=4,
                         job_timeout=0.05)
        fg = queue.submit("evaluate", {})
        bg = queue.submit("autopilot-step", {}, priority="background")
        assert fg.deadline is not None
        assert bg.deadline is None
        queue.drain(timeout=5.0)

    def test_drain_cancels_queued_background_jobs(self):
        gate = threading.Event()
        ran = []

        def handler(kind, params):
            if params.get("hold"):
                gate.wait(10)
            ran.append(params["n"])

        queue = JobQueue(handler, workers=1, capacity=16)
        queue.submit("evaluate", {"n": "hold", "hold": True})
        wait_until(lambda: queue.stats()["running"] == 1, "a running job")
        queued_bg = queue.submit("autopilot-step", {"n": "bg"},
                                 priority="background")
        queued_fg = queue.submit("evaluate", {"n": "fg"})
        drainer = threading.Thread(
            target=lambda: queue.drain(timeout=10.0))
        drainer.start()
        gate.set()
        drainer.join(timeout=10.0)
        assert not drainer.is_alive()
        # queued interactive work finished; queued background work was
        # cancelled (it is a resumable checkpointed step)
        assert ran == ["hold", "fg"]
        assert queue.get(queued_fg.id).state == "done"
        assert queue.get(queued_bg.id).state == "cancelled"
        assert "drain" in queue.get(queued_bg.id).error


class TestTimeout:
    def test_queued_past_deadline_never_runs(self):
        gate = threading.Event()
        ran = []
        queue = JobQueue(
            lambda kind, params: (gate.wait(10), ran.append(params))[0],
            workers=1, capacity=4, job_timeout=0.05)
        queue.submit("evaluate", {"first": True})
        wait_until(lambda: queue.stats()["running"] == 1, "a running job")
        stale = queue.submit("evaluate", {"second": True})
        time.sleep(0.15)  # let the queued job's deadline lapse
        gate.set()
        expired = finished_job(queue, stale.id)
        assert expired.state == "timeout"
        assert "waiting in queue" in expired.error
        assert {"second": True} not in ran
        queue.drain(timeout=5.0)

    def test_running_past_deadline_discards_result(self):
        queue = JobQueue(
            lambda kind, params: time.sleep(0.15) or {"late": True},
            workers=1, capacity=4, job_timeout=0.05)
        job = queue.submit("evaluate", {})
        finished = finished_job(queue, job.id)
        assert finished.state == "timeout"
        assert finished.result is None
        assert "result discarded" in finished.error
        assert queue.stats()["timeout"] == 1
        queue.drain(timeout=5.0)

    def test_no_timeout_by_default(self):
        queue = JobQueue(echo_handler, workers=1, capacity=4)
        job = queue.submit("evaluate", {})
        assert job.deadline is None
        queue.drain(timeout=5.0)


class TestDrain:
    def test_drain_finishes_backlog(self):
        done = []
        queue = JobQueue(lambda kind, params: done.append(params["n"]),
                         workers=2, capacity=16)
        for n in range(10):
            queue.submit("evaluate", {"n": n})
        assert queue.drain(timeout=10.0) is True
        assert sorted(done) == list(range(10))
        assert queue.stats()["depth"] == 0
        assert queue.stats()["running"] == 0

    def test_drain_rejects_new_submissions(self):
        queue = JobQueue(echo_handler, workers=1, capacity=4)
        assert queue.drain(timeout=5.0)
        assert queue.accepting is False
        with pytest.raises(RuntimeError, match="draining"):
            queue.submit("evaluate", {})

    def test_drain_times_out_on_stuck_job(self):
        gate = threading.Event()
        queue = JobQueue(lambda kind, params: gate.wait(30),
                         workers=1, capacity=4)
        queue.submit("evaluate", {})
        wait_until(lambda: queue.stats()["running"] == 1, "a running job")
        assert queue.drain(timeout=0.1) is False
        gate.set()
        assert queue.drain(timeout=5.0) is True

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            JobQueue(echo_handler, workers=0)
        with pytest.raises(ValueError):
            JobQueue(echo_handler, capacity=0)

    def test_stats_shape(self):
        queue = JobQueue(echo_handler, workers=3, capacity=7)
        stats = queue.stats()
        assert stats["capacity"] == 7
        assert stats["workers"] == 3
        assert stats["accepting"] is True
        assert {"submitted", "rejected", "done", "failed", "cancelled",
                "timeout", "depth", "running"} <= set(stats)
        queue.drain(timeout=5.0)
