"""Differential fuzzing of the whole compiler.

A bounded random-program generator emits MiniC programs exercising
arithmetic, nested control flow, arrays, and function calls; each is
run under the reference interpreter and the optimized pipeline + cycle
simulator, under several hyperblock/spill priority policies, and the
observable outputs must agree exactly.
"""

import random

import pytest

from repro.frontend import compile_source
from repro.ir.interp import Interpreter
from repro.machine.descr import DEFAULT_EPIC, MachineDescription
from repro.machine.sim import Simulator
from repro.passes.pipeline import CompilerOptions, compile_backend, prepare


class ProgramGenerator:
    """Generates small, terminating, fault-free MiniC programs."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self._var_counter = 0

    def fresh(self) -> str:
        self._var_counter += 1
        return f"v{self._var_counter}"

    def expr(self, vars_in_scope, depth=0) -> str:
        roll = self.rng.random()
        if depth > 2 or roll < 0.3 or not vars_in_scope:
            return str(self.rng.randint(-9, 9))
        if roll < 0.6:
            return self.rng.choice(vars_in_scope)
        op = self.rng.choice(["+", "-", "*"])
        left = self.expr(vars_in_scope, depth + 1)
        right = self.expr(vars_in_scope, depth + 1)
        return f"({left} {op} {right})"

    def condition(self, vars_in_scope) -> str:
        op = self.rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return (f"{self.expr(vars_in_scope)} {op} "
                f"{self.expr(vars_in_scope)}")

    def statements(self, vars_in_scope, depth, budget) -> list[str]:
        lines = []
        local_scope = list(vars_in_scope)
        count = self.rng.randint(1, 4)
        for _ in range(count):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            kind = self.rng.random()
            if kind < 0.35 or not local_scope:
                name = self.fresh()
                lines.append(f"int {name} = {self.expr(local_scope)};")
                local_scope.append(name)
            elif kind < 0.6:
                target = self.rng.choice(local_scope)
                lines.append(f"{target} = {self.expr(local_scope)};")
            elif kind < 0.8 and depth < 2:
                inner = self.statements(local_scope, depth + 1, budget)
                if self.rng.random() < 0.5:
                    lines.append(f"if ({self.condition(local_scope)}) {{")
                    lines.extend("  " + l for l in inner)
                    lines.append("}")
                else:
                    other = self.statements(local_scope, depth + 1, budget)
                    lines.append(f"if ({self.condition(local_scope)}) {{")
                    lines.extend("  " + l for l in inner)
                    lines.append("} else {")
                    lines.extend("  " + l for l in other)
                    lines.append("}")
            elif kind < 0.9 and depth < 2:
                # bounded counted loop
                index = self.fresh()
                bound = self.rng.randint(2, 8)
                inner = self.statements(local_scope + [index],
                                        depth + 1, budget)
                lines.append(f"int {index};")
                lines.append(
                    f"for ({index} = 0; {index} < {bound}; "
                    f"{index} = {index} + 1) {{"
                )
                lines.extend("  " + l for l in inner)
                lines.append("}")
            else:
                lines.append(f"out({self.expr(local_scope)});")
        return lines

    def program(self) -> str:
        budget = [30]
        body = self.statements([], 0, budget)
        outs = "\n  ".join(body)
        # Always observe something deterministic at the end.
        return (
            "int sink[8];\n"
            "void main() {\n  "
            f"{outs}\n"
            "  int k;\n"
            "  int total = 0;\n"
            "  for (k = 0; k < 8; k = k + 1) {\n"
            "    sink[k] = k * 3;\n"
            "    total = total + sink[k];\n"
            "  }\n"
            "  out(total);\n"
            "}\n"
        )


def run_reference(source):
    module = compile_source(source)
    return Interpreter(module).run()


def run_pipeline(source, options):
    module = compile_source(source)
    prepared = prepare(module, {}, options)
    scheduled, _report = compile_backend(prepared)
    return Simulator(scheduled, options.machine).run()


SMALL_MACHINE = MachineDescription(name="fuzz-small", gp_registers=8,
                                   fp_registers=8)

POLICIES = [
    ("default", CompilerOptions(machine=DEFAULT_EPIC)),
    ("always-convert", CompilerOptions(
        machine=DEFAULT_EPIC, hyperblock_priority=lambda env: 1.0)),
    ("never-convert", CompilerOptions(
        machine=DEFAULT_EPIC, hyperblock_priority=lambda env: -1.0)),
    ("tiny-registers", CompilerOptions(machine=SMALL_MACHINE)),
]


@pytest.mark.parametrize("seed", range(25))
def test_random_program_equivalence(seed):
    source = ProgramGenerator(seed).program()
    ref = run_reference(source)
    for label, options in POLICIES:
        result = run_pipeline(source, options)
        assert result.output_signature() == ref.output_signature(), (
            f"seed {seed}, policy {label}:\n{source}"
        )


def test_generator_produces_varied_programs():
    sources = {ProgramGenerator(seed).program() for seed in range(10)}
    assert len(sources) == 10
