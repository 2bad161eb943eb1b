"""Atomic experiment checkpoints.

A checkpoint is one pickle file holding the engine snapshot
(:meth:`repro.gp.engine.GPEngine.state_dict` — population, RNG state,
fitness memo, DSS state, history) plus the config it belongs to and,
for a ``--surrogate`` run, the surrogate's
:meth:`~repro.surrogate.SurrogateEvaluator.state_dict` under
``"surrogate"``, so the two can never fall out of step.  The
write is atomic (temp file + ``os.replace`` in the same directory), so
a run killed mid-checkpoint leaves the previous checkpoint intact and a
run killed between checkpoints simply replays the last completed
generation's successor on resume — either way the resumed run is
bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

#: Format version of the checkpoint payload.
CHECKPOINT_VERSION = 1


def save_checkpoint(path, config_dict: dict, engine_state: dict,
                    surrogate_state: dict | None = None) -> None:
    """Atomically write a checkpoint next to its final location."""
    path = Path(path)
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": config_dict,
        "engine": engine_state,
    }
    if surrogate_state is not None:
        payload["surrogate"] = surrogate_state
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


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
