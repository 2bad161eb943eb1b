"""Fuzzer-promoted and adversarial benchmarks.

``repro suite promote`` elevates programs that earned their keep as
correctness reproducers — the differential-regression corpus under
``tests/corpus/`` and interesting fuzzer generations — into first-class
suite benchmarks, so evolution campaigns also train and validate on
the adversarial control flow that once broke the pipeline.

Promoted programs live in ``promoted_programs.json`` next to this
module (committed package data, not a runtime side file).  Each entry
records the program source, its train and novel input sets, a
provenance string, and a **split** — ``train`` entries join
:data:`PROMOTED_TRAINING_SET`, ``novel`` entries join
:data:`PROMOTED_NOVEL_SET`, giving campaigns an explicit
seen/held-out partition of the adversarial suite.

Promotion is gated: a program must pass the differential oracle
(interpreter vs fully optimized simulation, IR verifier on) before it
is written to the registry file, so the suite can never absorb a
program the pipeline miscompiles.

Reproducers are promoted with ``novel`` inputs equal to their
``train`` inputs when no second dataset exists — they measure
robustness on adversarial control flow, not dataset generalization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.suite.registry import Benchmark, register

#: Schema version of ``promoted_programs.json``.
PROMOTED_SCHEMA = 1

#: The two split values a promoted program may carry.
SPLITS = ("train", "novel")


def promoted_path() -> Path:
    """The committed registry file (package data)."""
    return Path(__file__).parent / "promoted_programs.json"


@dataclass(frozen=True)
class PromotedProgram:
    """One promoted benchmark: source, datasets, and provenance."""

    name: str
    description: str
    #: where the program came from, e.g. ``corpus:unused-param`` or
    #: ``fuzz:seed=1057`` — display metadata only
    origin: str
    #: experiment-set membership: ``train`` or ``novel``
    split: str
    source: str
    train_inputs: dict[str, list]
    novel_inputs: dict[str, list]

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise ValueError(
                f"split must be one of {SPLITS}, got {self.split!r}")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "origin": self.origin,
            "split": self.split,
            "source": self.source,
            "train_inputs": self.train_inputs,
            "novel_inputs": self.novel_inputs,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PromotedProgram":
        return cls(
            name=data["name"],
            description=data["description"],
            origin=data["origin"],
            split=data["split"],
            source=data["source"],
            train_inputs=dict(data["train_inputs"]),
            novel_inputs=dict(data["novel_inputs"]),
        )

    def category(self) -> str:
        """MiniC reproducers are integer kernels unless the source
        declares floats."""
        return "fp" if "float" in self.source else "int"

    def benchmark(self) -> Benchmark:
        train = self.train_inputs
        novel = self.novel_inputs
        return Benchmark(
            name=self.name,
            suite="promoted",
            category=self.category(),
            description=f"{self.description} [{self.origin}, "
                        f"{self.split} split]",
            source=self.source,
            make_inputs=lambda dataset, _t=train, _n=novel: {
                key: list(values)
                for key, values in (_t if dataset == "train"
                                    else _n).items()
            },
        )


def load_promoted(path: Path | None = None) -> list[PromotedProgram]:
    """Parse the registry file; an absent file is an empty registry."""
    path = path if path is not None else promoted_path()
    if not path.exists():
        return []
    data = json.loads(path.read_text())
    if data.get("schema") != PROMOTED_SCHEMA:
        raise ValueError(
            f"{path}: unsupported promoted-programs schema "
            f"{data.get('schema')!r} (expected {PROMOTED_SCHEMA})")
    programs = [PromotedProgram.from_json_dict(entry)
                for entry in data["programs"]]
    names = [program.name for program in programs]
    if len(names) != len(set(names)):
        raise ValueError(f"{path}: duplicate promoted program names")
    return programs


def save_promoted(programs: list[PromotedProgram],
                  path: Path | None = None) -> Path:
    """Write the registry file atomically, sorted by name."""
    from repro.experiments.checkpoint import atomic_write

    path = path if path is not None else promoted_path()
    payload = {
        "schema": PROMOTED_SCHEMA,
        "programs": [program.to_json_dict()
                     for program in sorted(programs,
                                           key=lambda p: p.name)],
    }
    atomic_write(path, (json.dumps(payload, indent=1, sort_keys=True)
                        + "\n").encode())
    return path


class PromotionError(ValueError):
    """A program failed the promotion gate."""


def check_promotable(program: PromotedProgram) -> None:
    """The promotion gate: both datasets must pass the differential
    oracle (IR verifier on) under the default configuration."""
    from repro.passes.pipeline import CompilerOptions
    from repro.verify.differential import run_differential

    options = CompilerOptions(verify_ir=True)
    for dataset, inputs in (("train", program.train_inputs),
                            ("novel", program.novel_inputs)):
        result = run_differential(program.source, inputs, options,
                                  name=program.name)
        if not result.equivalent:
            raise PromotionError(
                f"{program.name}: {dataset} inputs diverge under the "
                f"differential oracle ({result.first}) — fix the "
                "miscompile before promoting")


def promote_corpus_entry(mc_path, split: str = "train",
                         name: str | None = None) -> PromotedProgram:
    """Build a promoted program from a corpus ``NAME.mc`` +
    ``NAME.inputs.json`` pair (does not write the registry file)."""
    mc_path = Path(mc_path)
    inputs_path = mc_path.with_suffix("").with_suffix(".inputs.json")
    if not inputs_path.exists():
        raise PromotionError(f"{mc_path}: no {inputs_path.name} beside it")
    inputs = json.loads(inputs_path.read_text())
    source = mc_path.read_text()
    # The corpus README's one-line description, when present: the
    # first comment line of the program, else a generic line.
    description = f"corpus reproducer {mc_path.stem}"
    for line in source.splitlines():
        stripped = line.strip()
        if stripped.startswith("//"):
            description = stripped.lstrip("/ ").rstrip(".")
            break
    program = PromotedProgram(
        name=name if name is not None else mc_path.stem,
        description=description,
        origin=f"corpus:{mc_path.stem}",
        split=split,
        source=source,
        train_inputs=inputs,
        novel_inputs=inputs,
    )
    check_promotable(program)
    return program


def promote_fuzz_program(seed: int,
                         split: str = "train") -> PromotedProgram:
    """Build a promoted program from one fuzzer generation (does not
    write the registry file)."""
    from repro.verify.fuzz import generate_program

    fuzz = generate_program(seed)
    program = PromotedProgram(
        name=f"fuzz-{seed}",
        description=f"fuzzer-generated program (case seed {seed})",
        origin=f"fuzz:seed={seed}",
        split=split,
        source=fuzz.source,
        train_inputs=fuzz.inputs,
        novel_inputs=fuzz.inputs,
    )
    check_promotable(program)
    return program


def add_promoted(programs: list[PromotedProgram],
                 path: Path | None = None) -> list[PromotedProgram]:
    """Merge ``programs`` into the registry file; re-promoting an
    existing name replaces that entry."""
    existing = {program.name: program for program in load_promoted(path)}
    for program in programs:
        existing[program.name] = program
    merged = sorted(existing.values(), key=lambda p: p.name)
    save_promoted(merged, path)
    return merged


def register_promoted() -> None:
    """Register every committed promoted program with the suite
    (called from ``repro.suite.programs.promoted`` at load time)."""
    for program in load_promoted():
        register(program.benchmark())


def _split_members(split: str) -> tuple[str, ...]:
    return tuple(sorted(program.name for program in load_promoted()
                        if program.split == split))


#: Promoted benchmarks in the training partition.
PROMOTED_TRAINING_SET = _split_members("train")

#: Promoted benchmarks held out as the novel partition.
PROMOTED_NOVEL_SET = _split_members("novel")
