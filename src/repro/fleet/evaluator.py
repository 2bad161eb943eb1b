"""The fleet coordinator: sharded fitness evaluation over serve workers.

"GP is a distributed algorithm" (Section 3) — the paper evolved its
heuristics on 15–20 machines.  :class:`FleetEvaluator` is that tier:
it implements the same :class:`~repro.metaopt.harness.
EvaluatorProtocol` as the in-process evaluators, but ships each
batch of distinct candidates (the GP engine owns the fitness memo) to
``repro serve`` workers over ``POST /v1/evaluate-batch``.

Design invariants (docs/FLEET.md):

* **Bit-identity.**  Workers evaluate with the coordinator's
  :class:`~repro.metaopt.settings.EvalSettings` (host-local fields
  pinned worker-side); noise seeds derive from memo keys, not from
  which host runs a candidate.  A fleet run's result.json is
  byte-identical to the serial run's.
* **Order-independent reduction.**  Results carry the coordinator's
  item indices; shards may complete in any order, on any worker,
  evaluated any number of times.
* **One queue.**  Shards wait in one shared queue and whichever
  worker is free takes the front one; a retried shard goes back to the
  front — so a straggler bounds only its own last shard, not the
  generation.
* **Fault tolerance.**  Each worker is one
  :class:`~repro.serve.client.ServeClient` built with ``retries=0``,
  so the shard-level policy here is the only retry policy in force,
  read off the client's one taxonomy: ``ServerBusy`` without a status
  (no reply arrived) triggers a health probe — a sick-but-alive worker
  gets the shard back after a backoff, a dead worker is retired and
  its shard redispatched to the survivors; ``ServerBusy`` with a
  429/503 sleeps the server's ``Retry-After`` and requeues; any other
  ``ServeError`` is permanent.  If the whole fleet dies mid-batch, the
  coordinator finishes the remaining shards in-process, on the
  campaign's own harness — a campaign never loses a generation to
  infrastructure.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Iterable

from repro import obs
from repro.fleet.workers import (
    FleetError,
    FleetTarget,
    LocalWorkerProcess,
    parse_fleet_spec,
)
from repro.gp.nodes import Node
from repro.gp.parse import unparse
from repro.serve.client import ServeClient, ServeError, ServerBusy

if TYPE_CHECKING:
    from repro.metaopt.harness import EvaluationHarness

#: Shards cut per worker per batch (smaller shards balance better,
#: larger ones amortize HTTP round-trips).
_SHARDS_PER_WORKER = 4
#: Upper bound on items per shard, so huge generations still redispatch
#: at a useful granularity after a worker loss.
_MAX_SHARD_ITEMS = 32
#: Per-shard HTTP timeout, seconds.
_TIMEOUT = 300.0
#: Attempts a shard may fail before the batch fails permanently.
_RETRIES = 3
#: Retry backoff: doubles per attempt from the first value, capped at
#: the second, seconds.
_BACKOFF = 0.25
_MAX_BACKOFF = 4.0


class _ShardItemFailed(FleetError):
    """A worker answered ``{"ok": false}`` for an item, or left one
    out — possibly a worker-local hiccup, so the shard gets its normal
    retries before the failure is declared permanent."""


class _Shard:
    __slots__ = ("index", "items", "attempts")

    def __init__(self, index: int,
                 items: list[tuple[int, str, str]]) -> None:
        self.index = index
        self.items = items  # (coordinator item index, tree text, benchmark)
        self.attempts = 0


class _WorkerSlot:
    __slots__ = ("index", "client", "process", "alive", "busy_seconds")

    def __init__(self, index: int, client: ServeClient,
                 process: LocalWorkerProcess | None) -> None:
        self.index = index
        self.client = client
        self.process = process
        self.alive = True
        self.busy_seconds = 0.0


class _BatchState:
    """Everything one ``evaluate_batch`` call's threads share."""

    def __init__(self, shards: list[_Shard]) -> None:
        self.cond = threading.Condition()
        self.queue: deque[_Shard] = deque(shards)
        self.outstanding = len(shards)
        self.results: dict[int, float] = {}
        self.failures: list[str] = []


class FleetEvaluator:
    """Distributed :class:`~repro.metaopt.harness.EvaluatorProtocol`
    implementation over a fleet of serve workers.

    ``harness`` names the case and settings the workers evaluate with
    (and is where the dead-fleet fallback runs); ``fleet`` is a spec
    string (``"local:2"``, ``"host:8347,host:8348"``) or a pre-parsed
    target list.  Workers spawn lazily on the first batch (or eagerly
    via ``__enter__``), so constructing an evaluator is free.
    """

    def __init__(self, harness: "EvaluationHarness",
                 fleet: str | list[FleetTarget], *,
                 dataset: str = "train",
                 sleep=time.sleep) -> None:
        self.harness = harness
        self.targets = (parse_fleet_spec(fleet)
                        if isinstance(fleet, str) else list(fleet))
        self.dataset = dataset
        self._sleep = sleep
        self._slots: list[_WorkerSlot] | None = None
        self._fingerprint = None
        self._closed = False
        self.jobs_dispatched = 0
        self.batches_dispatched = 0
        self.shards_dispatched = 0
        self.shards_retried = 0
        self.workers_lost = 0
        self.local_fallback_jobs = 0

    # -- lifecycle ------------------------------------------------------
    def start(self) -> list["_WorkerSlot"]:
        """Spawn local workers, connect, and verify capabilities."""
        if self._slots is not None:
            return self._slots
        if self._closed:
            raise FleetError("evaluator is closed")
        slots: list[_WorkerSlot] = []
        try:
            for index, target in enumerate(self.targets):
                process = None
                if target.kind == "local":
                    process = LocalWorkerProcess()
                    address = process.address
                else:
                    address = target.address
                client = ServeClient(address, timeout=_TIMEOUT, retries=0)
                self._check_capabilities(client)
                slots.append(_WorkerSlot(index, client, process))
        except BaseException:
            for slot in slots:
                self._retire(slot)
            raise
        self._slots = slots
        obs.set_gauge("fleet.workers", len(slots))
        return slots

    @staticmethod
    def _check_capabilities(client: ServeClient) -> None:
        """A worker that cannot be reached or cannot speak the batch
        protocol is a misconfiguration, not a transient fault — fail
        loudly now."""
        try:
            capabilities = client.capabilities()
        except ServeError as exc:
            raise FleetError(f"worker {client.address}: {exc}") from exc
        if capabilities.get("schema") != 1:
            raise FleetError(
                f"worker {client.address} speaks API schema "
                f"{capabilities.get('schema')!r}, coordinator needs 1")
        endpoints = capabilities.get("endpoints", ())
        if "POST /v1/evaluate-batch" not in endpoints:
            raise FleetError(
                f"worker {client.address} does not serve "
                f"/v1/evaluate-batch")

    def _retire(self, slot: _WorkerSlot) -> None:
        slot.alive = False
        slot.client.close()
        if slot.process is not None:
            slot.process.terminate()

    def close(self) -> None:
        """Idempotent: disconnect every worker, reap local children."""
        self._closed = True
        slots, self._slots = self._slots, None
        for slot in slots or ():
            self._retire(slot)

    def __enter__(self) -> "FleetEvaluator":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- evaluation ------------------------------------------------------
    def evaluate_batch(
            self, jobs: Iterable[tuple[Node, str]]) -> list[float]:
        """Evaluate distinct ``(tree, benchmark)`` pairs across the
        fleet; values come back in job order whatever the completion
        order."""
        pending = [(unparse(tree), benchmark) for tree, benchmark in jobs]
        if not pending:
            return []
        slots = [slot for slot in self.start() if slot.alive]
        state = _BatchState(self._deal(pending, max(1, len(slots))))
        for slot in slots:
            slot.busy_seconds = 0.0
        threads = [
            threading.Thread(target=self._worker_loop,
                             args=(slot, state), daemon=True)
            for slot in slots
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        if state.queue:
            # Every worker died mid-batch: finish in-process rather
            # than lose the generation.
            obs.inc("fleet.local_fallback_batches")
            while state.queue:
                self._evaluate_locally(state.queue.popleft(), state)
        if state.failures:
            raise FleetError(
                "fleet evaluation failed permanently: "
                + "; ".join(state.failures[:5]))
        if len(slots) > 1:
            busy = [slot.busy_seconds for slot in slots]
            obs.set_gauge("fleet.straggler_seconds",
                          max(busy) - min(busy))
        self.jobs_dispatched += len(pending)
        self.batches_dispatched += 1
        obs.inc("fleet.jobs", len(pending))
        obs.inc("fleet.batches")
        return [state.results[index] for index in range(len(pending))]

    @staticmethod
    def _deal(pending: list[tuple[str, str]], slots: int) -> list[_Shard]:
        per_shard = min(_MAX_SHARD_ITEMS,
                        -(-len(pending) // (slots * _SHARDS_PER_WORKER)))
        shards = []
        for start in range(0, len(pending), per_shard):
            items = [(index, text, benchmark)
                     for index, (text, benchmark) in enumerate(
                         pending[start:start + per_shard], start)]
            shards.append(_Shard(len(shards), items))
        return shards

    # -- the per-worker thread -------------------------------------------
    def _worker_loop(self, slot: _WorkerSlot,
                     state: _BatchState) -> None:
        while True:
            shard = self._take(slot, state)
            if shard is None:
                return
            started = time.monotonic()
            try:
                self._run_shard(slot, shard, state)
            except ServerBusy as exc:
                error = f"{slot.client.address}: {exc}"
                if exc.status is not None:  # 429/503 backpressure
                    self._sleep(min(exc.retry_after or _BACKOFF,
                                    _MAX_BACKOFF))
                    self._requeue(state, shard, error)
                elif self._probe(slot):
                    self._backoff(shard)
                    self._requeue(state, shard, error)
                else:
                    self.workers_lost += 1
                    obs.inc("fleet.workers_lost")
                    self._retire(slot)
                    # The shard pays no attempt for our dead worker.
                    self._requeue(state, shard, error,
                                  count_attempt=False)
                    return
            except ServeError as exc:
                self._fail(state, shard, f"{slot.client.address}: {exc}")
            except _ShardItemFailed as exc:
                self._backoff(shard)
                self._requeue(state, shard, str(exc))
            else:
                elapsed = time.monotonic() - started
                slot.busy_seconds += elapsed
                obs.observe(f"fleet.shard_seconds.{slot.client.address}",
                            elapsed)
                self._complete(state, shard)

    def _run_shard(self, slot: _WorkerSlot, shard: _Shard,
                   state: _BatchState) -> None:
        self.shards_dispatched += 1
        obs.inc("fleet.shards_dispatched")
        payload = self._payload(shard)
        records = {record.get("index"): record
                   for record in slot.client.evaluate_batch(payload)}
        values: dict[int, float] = {}
        for index, _text, _benchmark in shard.items:
            record = records.get(index)
            if record is None:
                raise _ShardItemFailed(
                    f"{slot.client.address}: shard {shard.index} came "
                    f"back without item {index}")
            if not record.get("ok"):
                raise _ShardItemFailed(
                    f"{slot.client.address}: item {index}: "
                    f"{record.get('error')}")
            values[index] = record["value"]
        with state.cond:
            state.results.update(values)

    def _payload(self, shard: _Shard) -> dict:
        # Host-local fields stay home: the worker pins its own cache
        # directory and snapshot switch (neither affects values).
        wire = self.harness.settings.replace(fitness_cache_dir=None)
        return {
            "schema": 1,
            "case": self.harness.case.name,
            "dataset": self.dataset,
            "settings": wire.to_json_dict(),
            "fingerprint": self._fingerprints(),
            "items": [
                {"index": index, "tree": text, "benchmark": benchmark}
                for index, text, benchmark in shard.items
            ],
        }

    def _fingerprints(self) -> dict:
        if self._fingerprint is None:
            from repro.metaopt.fitness_cache import (
                machine_fingerprint,
                pipeline_fingerprint,
            )

            self._fingerprint = {
                "pipeline": pipeline_fingerprint(),
                "machine": machine_fingerprint(self.harness.case.machine),
            }
        return self._fingerprint

    # -- scheduling ------------------------------------------------------
    @staticmethod
    def _take(slot: _WorkerSlot, state: _BatchState) -> _Shard | None:
        """The front of the shared queue, once there is one."""
        with state.cond:
            while True:
                if state.outstanding == 0 or not slot.alive:
                    return None
                if state.queue:
                    return state.queue.popleft()
                # Everything is in flight elsewhere; a failure may yet
                # requeue work for us.
                state.cond.wait(0.05)

    def _backoff(self, shard: _Shard) -> None:
        self._sleep(min(_BACKOFF * (2 ** shard.attempts), _MAX_BACKOFF))

    def _requeue(self, state: _BatchState, shard: _Shard, error: str,
                 count_attempt: bool = True) -> None:
        with state.cond:
            if count_attempt:
                shard.attempts += 1
            if shard.attempts > _RETRIES:
                state.failures.append(
                    f"shard {shard.index} exhausted "
                    f"{_RETRIES} retries: {error}")
                state.outstanding -= 1
            else:
                self.shards_retried += 1
                obs.inc("fleet.shards_retried")
                state.queue.appendleft(shard)
            state.cond.notify_all()

    def _complete(self, state: _BatchState, shard: _Shard) -> None:
        with state.cond:
            state.outstanding -= 1
            state.cond.notify_all()

    def _fail(self, state: _BatchState, shard: _Shard,
              error: str) -> None:
        with state.cond:
            state.failures.append(f"shard {shard.index}: {error}")
            state.outstanding -= 1
            state.cond.notify_all()

    def _probe(self, slot: _WorkerSlot) -> bool:
        """Is the worker still there after a transport error?"""
        if slot.process is not None and not slot.process.alive():
            return False
        try:
            slot.client.health()
            return True
        except ServeError:
            return False

    # -- the in-process safety net ---------------------------------------
    def _evaluate_locally(self, shard: _Shard,
                          state: _BatchState) -> None:
        from repro.metaopt.priority import PriorityFunction

        for index, text, benchmark in shard.items:
            priority = PriorityFunction.from_text(
                text, self.harness.case.pset)
            state.results[index] = self.harness.speedup(
                priority.tree, benchmark, self.dataset)
            self.local_fallback_jobs += 1
            obs.inc("fleet.local_fallback_jobs")
        state.outstanding -= 1

    # -- telemetry -------------------------------------------------------
    def stats(self) -> dict[str, int]:
        return {
            "workers": len(self.targets),
            "workers_lost": self.workers_lost,
            "jobs_dispatched": self.jobs_dispatched,
            "batches_dispatched": self.batches_dispatched,
            "shards_dispatched": self.shards_dispatched,
            "shards_retried": self.shards_retried,
            "local_fallback_jobs": self.local_fallback_jobs,
        }
