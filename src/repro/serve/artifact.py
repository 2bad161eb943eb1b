"""The heuristic artifact: a deployable evolved priority function.

An artifact is the unit the train-to-deploy loop moves around: the
evolved s-expression, the case study (pass kind) whose hook it fills,
fingerprints of the machine description, compiler pipeline, and
training configuration that produced it, and the fitness metadata the
campaign measured.  The document is plain JSON; its identity is the
SHA-256 of the canonical serialization minus the id itself, so an
artifact can always be re-verified against its own content
(:meth:`HeuristicArtifact.verify`).

``heuristic_artifact=`` on :class:`~repro.passes.pipeline.
CompilerOptions` accepts one of these; :meth:`HeuristicArtifact.
install` swaps the artifact's compiled priority into the matching hook
so any compile — CLI, harness, or serving daemon — runs under the
deployed heuristic.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

#: Version of the artifact document format.  Bump on any change a
#: loader of the previous version could misread.
ARTIFACT_SCHEMA = 1


class ArtifactError(ValueError):
    """A malformed, corrupt, or unusable artifact document."""


def _deployable_case(name: str):
    """The case study an artifact may target: the case itself says
    whether its champions deploy (``CaseStudy.deployable``)."""
    from repro.metaopt.harness import case_study

    try:
        case = case_study(name)
    except ValueError:
        raise ArtifactError(f"unknown case {name!r}") from None
    if not case.deployable:
        raise ArtifactError(
            f"the {name} case is not deployable as an artifact: only "
            "an expression tree in a backend hook can be installed")
    return case


def _config_fingerprint(config_dict: dict) -> str:
    canonical = json.dumps(config_dict, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class HeuristicArtifact:
    """One packaged evolved heuristic, immutable and JSON-round-trip.

    ``expression`` is canonical s-expression text (``unparse(parse(
    text))``); ``training_config`` is the full
    :class:`~repro.experiments.config.ExperimentConfig` JSON dict of
    the campaign that evolved it (self-describing provenance), and
    ``metrics`` carries whatever fitness/speedup numbers the campaign
    measured.  Everything participates in the content address.
    """

    case: str
    expression: str
    machine_name: str
    machine_fingerprint: str
    pipeline_fingerprint: str
    config_fingerprint: str
    training_config: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    created_at: float = 0.0
    schema: int = ARTIFACT_SCHEMA
    #: Content id of the artifact this one was evolved from (autopilot
    #: re-optimization campaigns seed from an incumbent).  ``None`` for
    #: root artifacts; serialized only when set, so pre-lineage
    #: documents keep their content digests.
    parent_id: str | None = None

    # -- identity --------------------------------------------------------
    def content_digest(self) -> str:
        """SHA-256 of the canonical document (everything but the id)."""
        canonical = json.dumps(self.to_json_dict(include_id=False),
                               sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def artifact_id(self) -> str:
        return self.content_digest()

    @property
    def short_id(self) -> str:
        return self.artifact_id[:12]

    # -- serialization ---------------------------------------------------
    def to_json_dict(self, include_id: bool = True) -> dict:
        data = {
            "schema": self.schema,
            "case": self.case,
            "expression": self.expression,
            "machine_name": self.machine_name,
            "machine_fingerprint": self.machine_fingerprint,
            "pipeline_fingerprint": self.pipeline_fingerprint,
            "config_fingerprint": self.config_fingerprint,
            "training_config": self.training_config,
            "metrics": self.metrics,
            "created_at": self.created_at,
        }
        if self.parent_id is not None:
            data["parent_id"] = self.parent_id
        if include_id:
            data["artifact_id"] = self.content_digest()
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "HeuristicArtifact":
        data = dict(data)
        stored_id = data.pop("artifact_id", None)
        unknown = set(data) - {
            "schema", "case", "expression", "machine_name",
            "machine_fingerprint", "pipeline_fingerprint",
            "config_fingerprint", "training_config", "metrics",
            "created_at", "parent_id",
        }
        if unknown:
            raise ArtifactError(
                f"unknown artifact fields: {sorted(unknown)}")
        try:
            artifact = cls(**data)
        except TypeError as exc:
            raise ArtifactError(f"malformed artifact document: {exc}")
        if stored_id is not None and stored_id != artifact.content_digest():
            raise ArtifactError(
                f"artifact id {stored_id[:12]} does not match content "
                f"digest {artifact.short_id} — document was tampered "
                "with or corrupted")
        return artifact

    # -- validation ------------------------------------------------------
    def verify(self) -> list[str]:
        """Deep check; returns a list of problems (empty = valid).

        Checks the schema version, the case name, that the expression
        parses and typechecks against the case's primitive set, that
        its text is canonical, and that the pipeline fingerprint still
        matches the current source tree (a mismatch is a *warning*-
        grade problem: the artifact is usable but its recorded
        fitnesses were measured by a different compiler).
        """
        problems: list[str] = []
        if self.schema != ARTIFACT_SCHEMA:
            problems.append(
                f"unsupported schema {self.schema!r} "
                f"(this build reads {ARTIFACT_SCHEMA})")
            return problems
        try:
            pset = _deployable_case(self.case).pset
        except ArtifactError as exc:
            problems.append(str(exc))
            return problems
        if self.parent_id is not None and not (
                len(self.parent_id) == 64
                and all(ch in "0123456789abcdef" for ch in self.parent_id)):
            problems.append(
                f"parent_id {self.parent_id!r} is not a content digest")
        from repro.gp.parse import parse, unparse

        try:
            tree = parse(self.expression, pset.bool_feature_set())
        except Exception as exc:
            problems.append(f"expression does not parse: {exc}")
            return problems
        if tree.result_type is not pset.result_type:
            problems.append(
                f"expression returns {tree.result_type.value}, the "
                f"{self.case} hook needs {pset.result_type.value}")
        if unparse(tree) != self.expression:
            problems.append("expression text is not canonical "
                            "(unparse(parse(text)) != text)")
        from repro.metaopt.fitness_cache import pipeline_fingerprint

        if self.pipeline_fingerprint != pipeline_fingerprint():
            problems.append(
                "stale pipeline fingerprint: artifact was trained "
                f"under {self.pipeline_fingerprint}, this tree is "
                f"{pipeline_fingerprint()} (recorded fitnesses may "
                "not reproduce)")
        return problems

    # -- deployment ------------------------------------------------------
    def tree(self):
        """The parsed expression tree (typechecked for the case)."""
        from repro.metaopt.psets import PSETS
        from repro.metaopt.priority import PriorityFunction

        priority = PriorityFunction.from_text(
            self.expression, PSETS[self.case], name=self.short_id)
        return priority.tree

    def priority(self):
        """The expression as a callable compiler hook."""
        from repro.metaopt.psets import PSETS
        from repro.metaopt.priority import PriorityFunction

        return PriorityFunction.from_text(
            self.expression, PSETS[self.case], name=self.short_id)

    def install(self, options):
        """Compiler options with this artifact's priority in its hook.

        The duck-typed counterpart of ``CompilerOptions(
        heuristic_artifact=...)``: :func:`repro.passes.pipeline.
        compile_backend` calls this to resolve the hook swap without
        the pipeline importing the serving layer.
        """
        from dataclasses import replace

        case = _deployable_case(self.case)
        return replace(options, heuristic_artifact=None,
                       **{case.hook: case.adapter(self.priority())})


def build_artifact(
    case: str,
    expression: str,
    machine,
    training_config: dict | None = None,
    metrics: dict | None = None,
    created_at: float | None = None,
    parent_id: str | None = None,
) -> HeuristicArtifact:
    """Assemble an artifact from campaign outputs, canonicalizing the
    expression and computing every fingerprint."""
    from repro.gp.parse import parse, unparse
    from repro.metaopt.fitness_cache import (
        machine_fingerprint,
        pipeline_fingerprint,
    )

    pset = _deployable_case(case).pset
    canonical = unparse(parse(expression, pset.bool_feature_set()))
    training_config = dict(training_config or {})
    return HeuristicArtifact(
        case=case,
        expression=canonical,
        machine_name=machine.name,
        machine_fingerprint=machine_fingerprint(machine),
        pipeline_fingerprint=pipeline_fingerprint(),
        config_fingerprint=_config_fingerprint(training_config),
        training_config=training_config,
        metrics=dict(metrics or {}),
        created_at=time.time() if created_at is None else created_at,
        parent_id=parent_id,
    )
