"""The benchmark's own tests: smoke corpora, traced self-check, output checks.

    python3 -m pytest perfbench -q

They run in a few seconds, so the benchmark cannot rot unnoticed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus as corpora  # noqa: E402
import functal.cli as cli  # noqa: E402
from check import load_reference, problem  # noqa: E402
from layers import METRICS, PREDICTIONS, Tracer, self_check  # noqa: E402
from run import check_all, run_corpus, tail  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_smoke_corpus_passes_output_check(workload):
    corpus = corpora.smoke(workload, seed=0)
    assert check_all(corpus, run_corpus(corpus, cli), load_reference()) == []


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_traced_smoke_agrees_with_the_map(workload):
    corpus = corpora.smoke(workload, seed=0)
    with Tracer() as tracer:
        run = run_corpus(corpus, cli)
    metrics = tracer.metrics(run.speed, overhead_frac=0.0)
    assert set(metrics) == set(METRICS)
    assert check_all(corpus, run, load_reference()) == []
    assert self_check(workload, metrics, sum(run.times)) == []


def test_tracer_restores_every_binding():
    import functal.functional as functional
    import functal.linalg as linalg

    before = (functional.kernel, linalg.kernel, functional.Subspace.__init__)
    with Tracer():
        assert functional.kernel is not before[0]
        assert functional.kernel is linalg.kernel
    assert (functional.kernel, linalg.kernel, functional.Subspace.__init__) == before


def test_self_check_flags_a_missed_binding_a_wrong_map_and_excess_self_time():
    metrics = {name: 1.0 for name in METRICS}
    for name in PREDICTIONS["sampling"]["idle"]:
        metrics[name] = 0
    assert self_check("sampling", metrics, traced_corpus_s=1e9) == []
    missed = dict(metrics, **{"linalg.rref_calls": 0})
    assert any("linalg.rref_calls" in p for p in self_check("sampling", missed, 1e9))
    busy_idle = dict(metrics, **{"poly.uni_roots_calls": 3})
    assert any("poly.uni_roots_calls" in p for p in self_check("sampling", busy_idle, 1e9))
    assert any("self times" in p for p in self_check("sampling", metrics, traced_corpus_s=1.0))


def test_tail_leaves_at_least_ten_beyond():
    for n in (20, 21, 28, 40, 100):
        times = [float(i) for i in range(n)]
        value, pct = tail(times)
        assert sum(t > value for t in times) == 10
        assert 0 < pct < 100


def test_corpora_are_seeded_distinct_and_large_enough():
    for workload in corpora.WORKLOADS:
        a = corpora.build(workload, 3, 20)
        assert a == corpora.build(workload, 3, 20)
        assert a != corpora.build(workload, 4, 20)
        keys = [x.key for x in a]
        assert len(keys) == len(set(keys)) >= 20


def test_output_check_compares_exact_fields_and_floats_at_tolerance():
    from check import split_exact

    analysis = corpora.Analysis(("spectrum", "--algebra", "mat:3", "--seed", "7"), None)
    [(rc, out, _)] = run_corpus([analysis], cli).results
    rep = json.loads(out)
    digest, floats = split_exact(rep)
    reference = {analysis.key: {"rc": rc, "digest": digest, "floats": floats}}
    assert problem(analysis, rc, out, reference) is None

    wrong = json.loads(out)
    wrong["zero_entry"]["stab_dim"] += 1
    wrong["zero_entry"]["multiplicity"] += 1
    wrong["infinity_entry"]["multiplicity"] -= 1
    assert problem(analysis, rc, json.dumps(wrong), reference) is not None

    roots = [e for e in rep["entries"] if isinstance(e["alpha"], list)]
    if roots:
        roots[0]["alpha"][0] += 1e-9
        assert problem(analysis, rc, json.dumps(rep), reference) is None
        roots[0]["alpha"][0] += 1e-3
        assert "float" in problem(analysis, rc, json.dumps(rep), reference)
    assert "exit code" in problem(analysis, 2, out, reference)


def test_smoke_mode_and_refusal_without_the_program():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke ok"

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
