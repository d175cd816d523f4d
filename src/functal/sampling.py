"""Seeded random functionals and the sampling configuration shared by analyses.

Generic statements about functionals hold on Zariski-open sets, so witnesses
are found by sampling integer coordinate vectors; every report records the
seed and sample count that produced it.  Every sampled functional, and the
CLI's "random" one, is drawn by `random_functional`: coordinates uniform in
[-20, 20], one `randint` per basis element, so a seed gives the same stream
wherever it is drawn.  Analyses run in this one process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra
from .functional import Functional


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    samples: int = 8

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"--samples must be at least 1, got {self.samples}")


def random_functional(alg: Algebra, rng: random.Random) -> Functional:
    """The next functional of ``rng``'s stream, with integer coordinates in [-20, 20]."""
    return Functional(alg, tuple(Fraction(rng.randint(-20, 20)) for _ in range(alg.dim)))


def sample_functionals(alg: Algebra, cfg: SamplerConfig) -> list[Functional]:
    """The first ``cfg.samples`` functionals of the stream seeded by ``cfg.seed``."""
    rng = random.Random(cfg.seed)
    return [random_functional(alg, rng) for _ in range(cfg.samples)]
