"""Where a ``stop_after`` probe on ``hyperblock`` sees the IR.

The hyperblock stage is if-conversion followed by the module-wide
cleanup after it, and a probe on ``hyperblock`` runs after both.
Pinned here on two programs: the probe sees exactly the cleaned-up
if-converted IR; a probe that declines changes neither the binary nor
the report under either backend order; and the ``verify_ir``
checkpoints keep their labels and order.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

import dataclasses

import pytest

from repro.metaopt.harness import EvaluationHarness, _as_hook, case_study
from repro.metaopt.settings import EvalSettings
from repro.passes.cleanup import cleanup_module
from repro.passes.hyperblock import form_hyperblocks
from repro.passes.pipeline import compile_backend
from repro.verify import ir_verifier

PROGRAMS = ("codrle4", "huff_dec")
ORDERS = (("hyperblock", "prefetch", "regalloc", "schedule"),
          ("prefetch", "hyperblock", "regalloc", "schedule"))


def baseline(program: str):
    """The hyperblock case's prepared program and baseline options."""
    case = case_study("hyperblock")
    harness = EvaluationHarness(case, EvalSettings(use_snapshots=False))
    return (harness.prepared(program),
            case.options_for(_as_hook(case.baseline_tree())))


@pytest.mark.parametrize("program", PROGRAMS)
def test_probe_sees_if_converted_ir_after_its_cleanup(program):
    prep, options = baseline(program)
    seen = []
    scheduled, _ = compile_backend(prep, options, stop_after=(
        "hyperblock", lambda ir: not seen.append(ir.content_digest())))
    assert scheduled is None

    converted = prep.module.clone()
    for name, function in converted.functions.items():
        form_hyperblocks(function, options.machine,
                         prep.profile.function(name),
                         options.hyperblock_priority,
                         rel_threshold=options.hyperblock_threshold)
    # the cleanup has work to do here, so the check below can tell
    before_cleanup = converted.content_digest()
    cleanup_module(converted)
    assert seen == [converted.content_digest()] != [before_cleanup]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_declining_probe_changes_nothing(program, order):
    prep, options = baseline(program)
    options = dataclasses.replace(options, prefetch=True,
                                  backend_order=order)
    plain, plain_report = compile_backend(prep, options)
    calls = []
    probed, probed_report = compile_backend(prep, options, stop_after=(
        "hyperblock", lambda ir: bool(calls.append(ir))))
    assert len(calls) == 1
    assert probed.content_digest() == plain.content_digest()
    assert probed_report == plain_report


@pytest.mark.parametrize("order", ORDERS)
def test_verify_ir_checkpoint_labels_keep_their_order(order, monkeypatch):
    prep, options = baseline("codrle4")
    options = dataclasses.replace(options, prefetch=True,
                                  backend_order=order, verify_ir=True)
    labels = []
    verify = ir_verifier.verify_module

    def recording(module, stage, **kwargs):
        labels.append(stage)
        return verify(module, stage=stage, **kwargs)

    monkeypatch.setattr(ir_verifier, "verify_module", recording)
    compile_backend(prep, options)
    # "hyperblock" is checked once, after the cleanup that follows it
    assert labels == [*order[:2], "regalloc"]
