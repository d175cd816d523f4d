"""Seeded random functionals and the sampling configuration shared by analyses.

Generic statements about functionals hold on Zariski-open sets, so witnesses
are found by sampling integer coordinate vectors; every report records the
seed and sample count that produced it.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra
from .functional import Functional


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    samples: int = 8
    coeff_bound: int = 20
    workers: int = 1

    def __post_init__(self):
        for flag, n in (("--samples", self.samples), ("--workers", self.workers)):
            if n < 1:
                raise ValueError(f"{flag} must be at least 1, got {n}")


def sample_functionals(alg: Algebra, cfg: SamplerConfig) -> list[Functional]:
    """Deterministic list of functionals with integer coordinates in [-bound, bound]."""
    rng = random.Random(cfg.seed)
    out = []
    for _ in range(cfg.samples):
        coords = tuple(Fraction(rng.randint(-cfg.coeff_bound, cfg.coeff_bound)) for _ in range(alg.dim))
        out.append(Functional(alg, coords))
    return out


def pmap(fn, items, workers: int = 1) -> list:
    """Map preserving order; uses a process pool when workers > 1."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
