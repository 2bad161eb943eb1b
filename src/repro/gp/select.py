"""Selection: tournament selection with parsimony pressure.

The paper uses tournament selection with tournament size 7 (Table 2) and
"rewards parsimony by selecting the smaller of two otherwise equally fit
expressions" (Section 3).  Fitness here follows the paper's convention:
*higher is better* (fitness is the average speedup over the baseline
heuristic).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.gp.nodes import Node


@dataclass
class Individual:
    """An expression paired with its evaluation results.

    ``fitness`` is ``None`` until evaluated.  ``evaluations`` counts how
    many distinct benchmark subsets contributed to the fitness (used by
    dynamic subset selection to keep running averages honest).
    """

    tree: Node
    fitness: float | None = None
    evaluations: int = 0
    origin: str = "random"
    metadata: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.tree.size()


def better(left: Individual, right: Individual) -> Individual:
    """Compare two evaluated individuals: higher fitness wins; ties go
    to the smaller expression (parsimony pressure)."""
    left_fit = left.fitness if left.fitness is not None else float("-inf")
    right_fit = right.fitness if right.fitness is not None else float("-inf")
    if left_fit > right_fit:
        return left
    if right_fit > left_fit:
        return right
    if left.size <= right.size:
        return left
    return right


def tournament(
    population: list[Individual],
    rng: random.Random,
    size: int = 7,
) -> Individual:
    """Draw ``size`` individuals uniformly and return the best.

    Small tournaments lower selection pressure: an expression only has
    to beat the other ``size - 1`` entrants, not the whole population.
    """
    if not population:
        raise ValueError("cannot select from an empty population")
    entrants = [population[rng.randrange(len(population))] for _ in range(size)]
    champion = entrants[0]
    for challenger in entrants[1:]:
        champion = better(champion, challenger)
    return champion


def best_of(population: list[Individual]) -> Individual:
    """The fittest evaluated individual (parsimony breaking ties)."""
    if not population:
        raise ValueError("empty population")
    champion = population[0]
    for challenger in population[1:]:
        champion = better(champion, challenger)
    return champion
