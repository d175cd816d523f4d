"""Record perfbench/reference.json from the current program.

    python3 perfbench/reference.py --seeds 0-9 [--seconds 20] [--workload spectral ...]

Runs the corpus of each workload for each seed, and the smoke corpora, and
stores for every analysis the digest of its exact fields and its floats,
keyed by the analysis' arguments.  Entries already present are kept, so the
file can be filled one workload at a time.  An analysis that fails its
invariant check is not recorded and the script exits 1.  Record only from a
commit whose outputs are known good: the seed code, or a change that
CHANGES.md says alters a report field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9", help="first-last, inclusive")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--workload", action="append", help="default: every workload")
    args = ap.parse_args()
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus as corpora
    import functal.cli as cli
    from check import REFERENCE_PATH, load_reference, parse, problem, split_exact
    from run import run_corpus

    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    workloads = args.workload or list(corpora.WORKLOADS)
    reference = load_reference()
    failed = 0
    for workload in workloads:
        corpora_to_run = [corpora.smoke(workload, 0)]
        corpora_to_run += [corpora.build(workload, s, args.seconds) for s in seeds]
        for corpus in corpora_to_run:
            todo = [a for a in corpus if a.key not in reference]
            for analysis, (rc, out, _) in zip(todo, run_corpus(todo, cli).results):
                bad = problem(analysis, rc, out, {})
                if bad:
                    print(f"not recorded: {analysis.key}: {bad}", file=sys.stderr)
                    failed += 1
                    continue
                digest, floats = split_exact(parse(analysis.argv[0], rc, out))
                reference[analysis.key] = {"rc": rc, "digest": digest, "floats": floats}
            REFERENCE_PATH.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
        print(f"{workload}: {len(reference)} entries recorded so far", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
