"""Atomic experiment checkpoints.

A checkpoint is one pickle file holding the engine snapshot
(:meth:`repro.gp.engine.GPEngine.state_dict` — population, RNG state,
fitness memo, DSS state, history) plus the config it belongs to and,
for a ``--surrogate`` run, the surrogate's
:meth:`~repro.surrogate.SurrogateEvaluator.state_dict` under
``"surrogate"``, so the two can never fall out of step.  The
write is :func:`atomic_write`, so a run killed mid-checkpoint leaves
the previous checkpoint intact and a run killed between checkpoints
simply replays the last completed generation's successor on resume —
either way the resumed run is bit-identical to an uninterrupted one.

:func:`atomic_write` is also the one write path of every other file a
run or the daemon must keep: ``config.json``, population snapshots,
``result.json``, fitness-cache entries, artifact documents,
``channels.json``, the autopilot's records and the promoted-program
registry.
"""

from __future__ import annotations

import os
import pickle
import threading
from contextlib import suppress
from pathlib import Path

#: Format version of the checkpoint payload.
CHECKPOINT_VERSION = 1


def atomic_write(path, data: bytes, *, durable: bool = True) -> None:
    """Replace the file ``path`` with ``data``: a reader, or a process
    killed at any instant, finds the old bytes or the new, never part.

    ``data`` goes to ``.<name>.<pid>.<thread id>.tmp`` in ``path``'s
    directory — a name no other live writer uses, and one that no
    store's ``*.json``/``*.jsonl`` listing matches — and is renamed
    over ``path``.  The temp file is removed on any exception.

    ``durable`` fsyncs the temp file before the rename, so the new
    bytes also survive an operating-system crash or power loss, which
    may otherwise leave ``path`` empty or cut short.  Every file a run
    cannot recompute is durable: run state (config, populations,
    checkpoint, result), the daemon's registry and channels, promoted
    programs and the autopilot's records.  A fitness-cache entry is not
    (``FitnessCache.put``): a torn entry reads as a miss and is
    simulated and written again, so an fsync per entry would buy
    nothing.
    """
    path = Path(path)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def save_checkpoint(path, config_dict: dict, engine_state: dict,
                    surrogate_state: dict | None = None) -> None:
    """Atomically write a checkpoint next to its final location."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": config_dict,
        "engine": engine_state,
    }
    if surrogate_state is not None:
        payload["surrogate"] = surrogate_state
    atomic_write(path, pickle.dumps(payload,
                                    protocol=pickle.HIGHEST_PROTOCOL))


def load_checkpoint(path) -> dict:
    """Read a checkpoint; raises :class:`FileNotFoundError` when the
    run has never checkpointed and :class:`ValueError` on a version the
    runner does not understand."""
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {payload.get('version')!r}")
    return payload
