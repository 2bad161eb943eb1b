"""Make the frozen load-generator inputs.

    PYTHONPATH=src python bench/data/make_data.py

writes ``candidates_regalloc.txt`` beside itself and prints its SHA-256
for ``bench/config.json``.  Run it again only to freeze a new set on
purpose: the load generator reads the file and never calls
``repro.gp.generate``, so a change to the tree generator cannot change
the load a later commit is measured under.

The candidates are what a regalloc campaign's first generation looks
like: ramped half-and-half over the production feature and operator
names at the campaign's own depths (2-6), text as the program unparses
it, duplicates dropped, each checked to parse back.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from repro.gp.generate import TreeGenerator
from repro.gp.parse import unparse
from repro.metaopt.harness import case_study
from repro.metaopt.priority import PriorityFunction

SEED = 20261001
COUNT = 4096


def main() -> None:
    pset = case_study("regalloc").pset
    generator = TreeGenerator(pset, random.Random(SEED))
    seen: dict[str, None] = {}
    while len(seen) < COUNT:
        for tree in generator.ramped_half_and_half(256, 2, 6):
            text = unparse(tree)
            if len(text) < 12 or text in seen:
                continue  # bare terminals repeat and teach nothing
            assert PriorityFunction.from_text(text, pset).text == text
            seen[text] = None
    lines = list(seen)[:COUNT]
    path = Path(__file__).with_name("candidates_regalloc.txt")
    path.write_text("\n".join(lines) + "\n")
    print(path.name, hashlib.sha256(path.read_bytes()).hexdigest())


if __name__ == "__main__":
    main()
