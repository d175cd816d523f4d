"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/baseline.py --seeds 0-9 [--workload spectral ...] [--out perfbench/BASELINE.json]

For each workload: one untraced run per seed (end-to-end metrics), then one
traced run on the first seed (per-layer metrics).  For every end-to-end
metric it records the values, their median and quartiles
(statistics.quantiles, n=4) and the spread, (q3 - q1) / median, which
BENCHMARK.json's bounds must exceed.  Use it for the before/after numbers a
performance change cites: run it on the parent and on the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    result["meta"] = json.loads((ROOT / ".perfbench_out" / name).read_text())["meta"]
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9", help="first-last, inclusive")
    ap.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", type=Path, default=ROOT / "perfbench" / "BASELINE.json")
    args = ap.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    workloads = args.workload or [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    for workload in workloads:
        runs = [run(workload, s, args.seconds, 0) for s in seeds]
        traced = run(workload, seeds[0], args.seconds, 1)
        ok = all(r["correct"] for r in runs) and traced["correct"]
        doc[workload] = {
            "seeds": seeds,
            "correct": ok,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {
                name: summary([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]
            },
            "tail_percentile": [r["meta"]["analysis_tail_percentile"] for r in runs],
            "tail_n": [r["meta"]["analysis_tail_n"] for r in runs],
            "max_item": sorted({r["meta"]["analysis_max_item"] for r in runs}),
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "meta": {k: runs[0]["meta"][k] for k in ("src_lines", "python", "numpy", "nproc", "commit")},
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        spreads = ", ".join(f"{k} {v['spread']:.3f}" for k, v in doc[workload]["end_to_end"].items())
        print(f"{workload}: correct={ok}; spreads {spreads}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
