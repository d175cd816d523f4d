"""Regenerate perfbench/pools.json: which CLI seeds the spectral workload may draw.

The heavy tail of `spectrum` time on a random functional comes from the
rational-root search, which tries every pair of divisors of the two end
coefficients of each squarefree factor of the pencil polynomial.  Its cost
grows with d, the largest divisor count among those end coefficients, and a
random draw of mat(5) ranges from 1 s to minutes.  This script records d for the
functional `--functional random --seed s` (coordinates in [-20, 20], the CLI
default) for s = 0..N-1, and splits the seeds into a typical pool (small d)
and the fixed tail panel (the first seeds whose d falls in TAIL_BAND).

It also records, for each `verify` suite the suites workload runs, the
seeds in 0..SUITE_SCAN-1 on which the suite passes on the seed code.  Some
seeds fail: `verify vk-props` fails on seeds 32, 56, 69, 70 and 80 (and
879001), because it asserts "chi nonzero" on a sampled ut(2)(x)ut(2)
functional that can be degenerate.  That is a defect of the suite,
reported in perfbench/README.md; a benchmark run must not fail, so the
workload draws only from the passing seeds.

Run from the repository root:  python3 perfbench/make_pools.py
It takes about fifteen minutes on one core.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from functal.cli import load_algebra, load_functional  # noqa: E402
from functal.functional import gram  # noqa: E402
from functal.poly import _factorize, pencil_det, squarefree_decomposition  # noqa: E402
from functal.suites import run_suite  # noqa: E402

# spec -> (seeds scanned, largest d admitted to the typical pool)
SCAN = {"mat:5": (160, 150), "mat:4": (120, 200), "tensor:mat:2;ut:3": (120, 200)}
TAIL_SPEC = "mat:5"
TAIL_BAND = (1500, 2500)
TAIL_SIZE = 2
SUITES = ("stab-props", "vk-props", "regular-corollaries", "tensor-stab")
SUITE_SCAN = 100


def divisor_count(n: int) -> int:
    return math.prod(k + 1 for k in _factorize(n).values())


def root_search_width(spec: str, seed: int) -> int:
    """Largest divisor count of an end coefficient the root search meets."""
    alg = load_algebra(spec)
    m = gram(load_functional(alg, "random", seed))
    chi = pencil_det(m, m.transpose())
    if chi.is_zero():
        return 0
    p = chi.dehomogenize()
    core = p.shift_down(p.x_valuation())
    width = 0
    if core.degree > 0:
        for factor, _ in squarefree_decomposition(core):
            denom = math.lcm(*(c.denominator for c in factor.coeffs))
            ints = [int(c * denom) for c in factor.coeffs]
            content = math.gcd(*ints)
            ints = [c // content for c in ints]
            while ints and ints[0] == 0:
                ints = ints[1:]
            if len(ints) > 1:
                width = max(width, divisor_count(abs(ints[0])), divisor_count(abs(ints[-1])))
    return width


def passing_seeds(suite: str) -> list[int]:
    return [s for s in range(SUITE_SCAN) if run_suite(suite, seed=s, samples=8).passed]


def main() -> None:
    pools = {}
    tail = []
    for spec, (count, typical_max) in SCAN.items():
        widths = {s: root_search_width(spec, s) for s in range(count)}
        pools[spec] = [s for s, d in widths.items() if 0 < d <= typical_max]
        if spec == TAIL_SPEC:
            lo, hi = TAIL_BAND
            tail = [s for s, d in widths.items() if lo <= d <= hi][:TAIL_SIZE]
        print(spec, f"{len(pools[spec])}/{count} typical", file=sys.stderr)
    suites = {suite: passing_seeds(suite) for suite in SUITES}
    doc = {"typical": pools, "tail": {TAIL_SPEC: tail}, "suites": suites}
    (ROOT / "perfbench" / "pools.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
