"""Seeded corpora of CLI analyses, one per workload.

An analysis is the argument list of one `functal` call (verb and inputs);
the runner appends `--format json --workers 1`.  Every input is derived from
the workload seed, and no (verb, algebra, functional, alpha) input repeats
within a run, so a memo across calls pays off only where work is genuinely
shared.  A round is sized to take about ROUND_SECONDS on a 2-core x86 VM
(Python 3.11); `--seconds` sets how many rounds a run issues, never the
content of a round, so two commits always run identical work.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("spectral", "sampling", "identities", "suites")
ROUND_SECONDS = 20
INPUT_DIR = Path(".perfbench_out") / "inputs"
POOLS = json.loads((Path(__file__).with_name("pools.json")).read_text())

TENSOR_23 = "tensor:mat:2;ut:3"
SEAWEED_10 = "seaweed:2,2,1;1,3,1"


@dataclass(frozen=True)
class Analysis:
    argv: tuple[str, ...]
    # None: 0, or the CLI's by-design refusal (exit 1) on a degenerate pair
    expect_rc: int | None = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)


class _Draw:
    """Seeded source of distinct CLI seeds, pool picks and input files."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"perfbench:{seed}")
        self.used: set[tuple] = set()
        pools = {**POOLS["typical"], **{f"verify {suite}": s for suite, s in POOLS["suites"].items()}}
        # each pool has its own order, so adding a pool moves no other draw
        self.pools = {name: random.Random(f"perfbench:{seed}:{name}").sample(seeds, len(seeds))
                      for name, seeds in pools.items()}

    def seed_for(self, *what: str, pool: str | None = None) -> str:
        while True:
            if pool is not None:
                if not self.pools[pool]:
                    raise ValueError(f"the pool of {pool} is exhausted; lower --seconds")
                s = self.pools[pool].pop()
            else:
                s = self.rng.randrange(1_000_000)
            if (what, s) not in self.used:
                self.used.add((what, s))
                return str(s)

    def nilpotent_pair(self, k: int) -> str:
        """Write a random k x k scalar coefficient tensor; return its abc0 spec."""
        b = [[self.rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        text = json.dumps(b)
        name = f"abc0-{k}-{hashlib.sha256(text.encode()).hexdigest()[:12]}.json"
        INPUT_DIR.mkdir(parents=True, exist_ok=True)
        (INPUT_DIR / name).write_text(text + "\n")
        return f"abc0:{(INPUT_DIR / name).as_posix()}"


def _pair(draw: _Draw, verb: str, algebra: str, extra: tuple[str, ...] = (), pool: str | None = None):
    return (verb, "--algebra", algebra, *extra, "--seed", draw.seed_for(verb, algebra, *extra, pool=pool))


def _spectral_round(draw: _Draw, first: bool) -> list[Analysis]:
    # Counts are set so that the median and the tail percentile each fall
    # inside a group of like analyses rather than on the edge between two
    # groups: by cost, 12 mat(5) spectra (the tail percentile, 10 beyond it,
    # lands on the second cheapest), 3 Jordan and tensor analyses, 9 mat(4)
    # analyses (the median, between the 20th and 21st of 40, sits in their
    # middle) and 16 cheap ones.
    one = ("--alpha", "1")
    out = [_pair(draw, "spectrum", "mat:5", pool="mat:5") for _ in range(10)]
    if first:
        # the fixed heavy-tail panel: same functionals on every seed, so
        # analysis_max_s measures the same root search on every run
        out += [("spectrum", "--algebra", "mat:5", "--seed", str(s)) for s in POOLS["tail"]["mat:5"]]
    out += [_pair(draw, "jordan", "mat:5", one)]
    out += [_pair(draw, "jordan", TENSOR_23, one)]
    out += [_pair(draw, "spectrum", TENSOR_23, pool=TENSOR_23)]
    out += [_pair(draw, "spectrum", "mat:4", pool="mat:4") for _ in range(5)]
    out += [_pair(draw, "jordan", "mat:4", one) for _ in range(4)]
    out += [_pair(draw, "spectrum", "ut:5") for _ in range(4)]
    out += [_pair(draw, "jordan", "ut:5", one) for _ in range(2)]
    seaweeds = ("seaweed:1,2;2,1", SEAWEED_10, "seaweed:1,1,2;2,2")
    out += [_pair(draw, "spectrum", s) for s in seaweeds + seaweeds[1:]]
    out += [_pair(draw, "jordan", SEAWEED_10, one)]
    analyses = [Analysis(a, None) for a in out]
    # nilpotent pairs have a vanishing pencil: the CLI prints a degenerate
    # report and exits 1 by design
    analyses += [Analysis(_pair(draw, "spectrum", draw.nilpotent_pair(k)), 1) for k in (3, 4, 5, 6)]
    return analyses


def _sampling_round(draw: _Draw, first: bool) -> list[Analysis]:
    plan = [
        ("index", "mat:6", 1),
        ("index", "mat:5", 2),
        ("classify", "mat:5", 1),
        ("index", "ut:6", 3),
        ("classify", "ut:6", 1),
        ("index", TENSOR_23, 2),
        ("classify", TENSOR_23, 1),
        # cheap analyses: with 31 in all, the tail percentile (10 beyond it)
        # lands on the heavy algebras and the median among these
        ("index", SEAWEED_10, 10),
        ("classify", SEAWEED_10, 10),
    ]
    return [
        Analysis(_pair(draw, verb, alg, ("--samples", "8")))
        for verb, alg, count in plan
        for _ in range(count)
    ]


def _tensor_extra(draw: _Draw, a: str, b: str) -> tuple[str, ...]:
    if a != "mat:1":
        return ("--algebra-b", b)
    # a random mat(1) functional is 0 one time in 41, which skips the Cayley
    # check; hand the program a nonzero one instead
    coeff = draw.rng.choice([c for c in range(-20, 21) if c])
    return ("--algebra-b", b, "--functional", json.dumps({"E_{1,1}": str(coeff)}))


def _identities_round(draw: _Draw, first: bool) -> list[Analysis]:
    # (A, B) pairs with dim B from 3 to 9; the m! cofactor expansion in the
    # numeric Cayley check grows with m = dim B
    plan = [
        ("mat:1", "mat:3", 1),  # m = 9
        ("mat:1", "seaweed:1,2;3", 1),  # m = 7
        ("ut:2", "seaweed:1,1,2;2,2", 1),  # m = 7
        ("mat:1", "ut:3", 1),  # m = 6
        ("ut:2", "seaweed:1,1,1;3", 1),  # m = 6
        ("mat:2", "seaweed:1,2;2,1", 1),  # m = 5
        ("ut:2", "seaweed:2,1;1,2", 1),  # m = 5
        ("mat:2", "mat:2", 2),  # m = 4
        ("ut:2", "mat:2", 2),
        ("mat:2", "seaweed:1,1,1;2,1", 1),
        ("ut:2", "seaweed:1,1,1;2,1", 1),
        ("mat:2", "ut:2", 2),  # m = 3
        ("ut:2", "ut:2", 2),
        # cheap pairs (dim A = 1), so that the tail percentile sits above the median
        ("mat:1", "ut:2", 3),
        ("mat:1", "mat:2", 3),
        ("mat:1", "seaweed:1,1,1;2,1", 3),
        ("mat:1", "seaweed:1,2;2,1", 2),
    ]
    out = [
        Analysis(_pair(draw, "tensor", a, _tensor_extra(draw, a, b)))
        for a, b, count in plan
        for _ in range(count)
    ]
    out += [Analysis(("verify", "cayley", "--seed", draw.seed_for("verify", "cayley"))) for _ in range(2)]
    return out


def _suites_round(draw: _Draw, first: bool) -> list[Analysis]:
    # seeds come from the suites' passing pools: vk-props fails on a few
    # seeds (see make_pools.py), and a run must not fail
    plan = [("stab-props", 3), ("vk-props", 5), ("regular-corollaries", 8), ("tensor-stab", 4)]
    return [
        Analysis(("verify", suite, "--seed", draw.seed_for("verify", suite, pool=f"verify {suite}")))
        for suite, count in plan
        for _ in range(count)
    ]


ROUNDS = {
    "spectral": _spectral_round,
    "sampling": _sampling_round,
    "identities": _identities_round,
    "suites": _suites_round,
}


def build(workload: str, seed: int, seconds: int) -> list[Analysis]:
    """The run's corpus: max(1, seconds // ROUND_SECONDS) rounds, in seeded order."""
    draw = _Draw(seed)
    rounds = max(1, seconds // ROUND_SECONDS)
    corpus = [a for r in range(rounds) for a in ROUNDS[workload](draw, r == 0)]
    draw.rng.shuffle(corpus)
    return corpus


def smoke(workload: str, seed: int) -> list[Analysis]:
    """A tiny corpus, well under a second, touching every layer the workload's map names."""
    draw = _Draw(seed)
    one = ("--alpha", "1")
    plans = {
        "spectral": [
            Analysis(_pair(draw, "spectrum", "mat:3"), None),
            Analysis(_pair(draw, "jordan", "ut:3", one), None),
            Analysis(_pair(draw, "spectrum", draw.nilpotent_pair(2)), 1),
        ],
        "sampling": [
            Analysis(_pair(draw, "index", "seaweed:1,2;2,1", ("--samples", "8"))),
            Analysis(_pair(draw, "classify", "ut:3", ("--samples", "8"))),
        ],
        "identities": [
            Analysis(_pair(draw, "tensor", "mat:1", ("--algebra-b", "ut:2"))),
            Analysis(_pair(draw, "tensor", "ut:2", ("--algebra-b", "seaweed:1,1,1;2,1"))),
        ],
        "suites": [
            Analysis(("verify", "regular-corollaries", "--seed", draw.seed_for("verify", "rc"))),
        ],
    }
    return plans[workload]
