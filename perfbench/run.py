"""functal benchmark: seeded corpora of CLI analyses, timed end to end.

    python3 perfbench/run.py --workload spectral --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload spectral --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

Each analysis is one in-process call to `functal.cli.run([...])` with
`--format json --workers 1` and stdout captured, issued in a closed loop
from this one process.  Outputs are checked after the loop.  With --trace 0
the last line of stdout is the end-to-end result; with --trace 1 the corpus
runs under the layer tracer and the last line holds the per-layer metrics.
--smoke runs a tiny corpus of every workload, untraced and traced, through
the output check and the traced self-check.  Run from the root of a
checkout; the program is imported from its `src` directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(".perfbench_out")
SETUP_REPEATS = 5
END_TO_END = {
    "corpus_s": "s",
    "analysis_p50_s": "s",
    "analysis_tail_s": "s",
    "analysis_max_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# CPU seconds the calibration kernel takes on the reference machine (a
# 2-vCPU x86 VM, Python 3.11); reported times are scaled to that speed
CALIBRATION_REF_S = 0.021
# calibrate again once this much analysis CPU time has passed
CALIBRATE_EVERY_S = 0.5
_IMPORT_TIMER = (
    "import time; t = time.process_time(); import functal.cli; print(time.process_time() - t)"
)


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibration_sample() -> float:
    """CPU seconds of a fixed kernel of Fraction arithmetic, like the program's own work."""
    t0 = time.process_time()
    for _ in range(5):
        acc = Fraction(0)
        for i in range(1, 700):
            acc += Fraction(i, 7 * i + 3)
    return time.process_time() - t0


@dataclass
class Pass:
    """One closed-loop pass over a corpus.

    Analysis times are CPU seconds scaled by `speed`.  The analyses are
    single-threaded, CPU-bound and do no I/O, so CPU time is wall time on an
    idle core, minus the time a shared VM host steals from the vCPU.  The
    host also changes the vCPU's speed by up to 25% from one minute to the
    next; a calibration kernel timed between analyses measures that, and
    `speed` rescales every time to the reference machine's usual speed.
    """

    results: list[tuple[int, str, float]]  # exit code, output, CPU seconds
    calibration: list[float]
    wall_s: float

    @property
    def speed(self) -> float:
        return CALIBRATION_REF_S / statistics.median(self.calibration)

    @property
    def times(self) -> list[float]:
        return [dt * self.speed for _, _, dt in self.results]


def run_corpus(corpus, cli) -> Pass:
    """Closed loop over the corpus; output is stdout, or stderr when stdout is empty."""
    results, calibration = [], [calibration_sample()]
    since_calibration = 0.0
    wall_start = time.perf_counter()
    for analysis in corpus:
        out, err = io.StringIO(), io.StringIO()
        argv = [*analysis.argv, "--format", "json", "--workers", "1"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = cpu_seconds()
            try:
                rc = cli.run(argv)
            except Exception as e:  # a traceback escaping the CLI is a failed analysis
                rc = -1
                print(f"{type(e).__name__}: {e}", file=err)
            dt = cpu_seconds() - t0
        results.append((rc, out.getvalue() or err.getvalue(), dt))
        since_calibration += dt
        if since_calibration >= CALIBRATE_EVERY_S:
            calibration.append(calibration_sample())
            since_calibration = 0.0
    calibration.append(calibration_sample())
    return Pass(results, calibration, time.perf_counter() - wall_start)


def check_all(corpus, run: Pass, reference) -> list[str]:
    from check import problem

    failures = []
    for analysis, (rc, out, _) in zip(corpus, run.results):
        bad = problem(analysis, rc, out, reference)
        if bad:
            failures.append(f"{analysis.key}: {bad}")
    return failures


def tail(times: list[float]) -> tuple[float, int]:
    """Highest integer percentile with at least 10 analyses beyond it (nearest rank)."""
    n = len(times)
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)  # ceil(pct * n / 100)
    return sorted(times)[max(rank, 1) - 1], pct


def setup_cpu_seconds() -> float:
    """Median CPU time a fresh interpreter takes to import functal.cli."""
    env = dict(os.environ, PYTHONPATH="src")
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER], env=env, capture_output=True, text=True, check=True
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def commit() -> str:
    if not Path(".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def metadata(args, corpus, run: Pass) -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in Path("src/functal").glob("*.py"))
    return {
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "analyses": len(corpus),
        "speed": run.speed,
        "corpus_cpu_s": sum(dt for _, _, dt in run.results),
        "wall_s": run.wall_s,
    }


def emit(record: dict, metrics: dict, units: dict) -> None:
    """Human-readable lines, a results file, then the contract's JSON line last."""
    for key, value in record["meta"].items():
        print(f"# {key}: {value}")
    for problem in record["failures"] + record.get("self_check", []):
        print(f"# FAILED {problem}")
    meta = record["meta"]
    # failed_frac is 0 on correct code, so the result carries it as counts
    shown = {**metrics, "failed_frac": meta["failed_frac"]} if "failed_frac" in meta else metrics
    for name, value in shown.items():
        print(f"{name:34s} {value:>16.6f} {units.get(name, 'ratio')}")
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    (OUT_DIR / name).write_text(json.dumps({**record, "metrics": metrics}, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": not record["failures"] and not record.get("self_check"),
                "attempted": meta["analyses"],
                "failed": len(record["failures"]),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )


def untraced(args, corpus, cli, reference) -> None:
    setup_cpu_s = setup_cpu_seconds()
    run = run_corpus(corpus, cli)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = check_all(corpus, run, reference)
    times = run.times
    tail_s, pct = tail(times)
    worst = max(range(len(times)), key=times.__getitem__)
    metrics = {
        "corpus_s": sum(times),
        "analysis_p50_s": statistics.median(times),
        "analysis_tail_s": tail_s,
        "analysis_max_s": times[worst],
        "setup_s": setup_cpu_s * run.speed,
        "peak_rss_mb": peak_rss_mb,
    }
    meta = {
        **metadata(args, corpus, run),
        "analysis_tail_percentile": pct,
        "analysis_tail_n": len(times),
        "analysis_max_item": corpus[worst].key,
        "failed_frac": len(failures) / len(corpus),
    }
    record = {"meta": meta, "failures": failures, "analysis_s": {a.key: t for a, t in zip(corpus, times)}}
    emit(record, metrics, END_TO_END)


def traced(args, corpus, cli, reference) -> None:
    from layers import METRICS, Tracer, self_check

    # the untraced baseline for the overhead: the same corpus in a fresh
    # process, compared in raw CPU seconds, because the calibration kernel
    # can read the two processes' speeds differently by more than the
    # overhead itself
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    result = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace0.json"
    untraced_cpu_s = json.loads(result.read_text())["meta"]["corpus_cpu_s"]
    with Tracer() as tracer:
        run = run_corpus(corpus, cli)
    corpus_s = sum(run.times)
    traced_cpu_s = sum(dt for _, _, dt in run.results)
    failures = check_all(corpus, run, reference)
    metrics = tracer.metrics(speed=run.speed, overhead_frac=traced_cpu_s / untraced_cpu_s - 1)
    problems = self_check(args.workload, metrics, corpus_s)
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz")
    meta = {
        **metadata(args, corpus, run),
        "untraced_corpus_cpu_s": untraced_cpu_s,
        "spans": len(tracer.start),
    }
    emit({"meta": meta, "failures": failures, "self_check": problems}, metrics, METRICS)


def smoke(cli, reference) -> int:
    import corpus as corpora
    from layers import Tracer, self_check

    problems = []
    for workload in corpora.WORKLOADS:
        corpus = corpora.smoke(workload, seed=0)
        problems += check_all(corpus, run_corpus(corpus, cli), reference)
        with Tracer() as tracer:
            run = run_corpus(corpus, cli)
        problems += check_all(corpus, run, reference)
        problems += self_check(workload, tracer.metrics(run.speed, overhead_frac=0.0), sum(run.times))
        print(f"# smoke {workload}: {len(corpus)} analyses, {sum(run.times):.2f} s traced")
    for p in problems:
        print(f"# FAILED {p}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 0 if not problems else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("spectral", "sampling", "identities", "suites"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny corpus of every workload, checks only")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "functal" / "cli.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'functal'}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import functal.cli as cli
    from check import load_reference

    reference = load_reference()
    if args.smoke:
        return smoke(cli, reference)
    import corpus as corpora

    corpus = corpora.build(args.workload, args.seed, args.seconds)
    (traced if args.trace else untraced)(args, corpus, cli, reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
