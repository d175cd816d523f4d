"""Spans around each layer's public functions, recorded from outside the program.

`Tracer` wraps the functions named in TARGETS.  Modules bind helpers with
`from .linalg import kernel`, so a wrapper replaces the name in every
`functal.*` module that bound the original, not only in the defining module.
Each call records a span (name, start, end, parent) in memory; the spans are
written out when the run ends, and per-layer metrics are derived from them.
A span's self time is its duration minus the time its child spans cover,
so the self times of all spans add up to the traced analysis time.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

from functal.scalars import ComplexApprox

# (span name, module, attribute path); run_suite spans are named per suite
# at call time, "suites.<name>"
TARGETS = [
    ("cli.run", "functal.cli", "run"),
    ("suites.run", "functal.suites", "run_suite"),
    *[
        ("algebra.build", "functal.algebra", name)
        for name in (
            "mat", "ut", "seaweed", "nilpotent_pair", "unital_extension",
            "tensor_product", "direct_sum", "opposite", "parse_algebra",
        )
    ],
    ("functional.gram", "functal.functional", "gram"),
    ("functional.stab", "functal.functional", "stab"),
    *[
        ("functional.subspace", "functal.functional", name)
        for name in (
            "Subspace.__init__", "Subspace.contains", "Subspace.contains_subspace",
            "Subspace.intersect", "subspace_product",
        )
    ],
    ("linalg.rref", "functal.linalg", "rref"),
    ("linalg.kernel", "functal.linalg", "kernel"),
    ("linalg.det", "functal.linalg", "det"),
    ("linalg.inverse", "functal.linalg", "inverse"),
    ("poly.pencil_det", "functal.poly", "pencil_det"),
    ("poly.uni_roots", "functal.poly", "uni_roots"),
    ("poly.squarefree", "functal.poly", "squarefree_decomposition"),
    ("spectrum.spectrum", "functal.spectrum", "spectrum"),
    ("spectrum.jordan", "functal.spectrum", "jordan_spaces"),
    ("spectrum.index", "functal.spectrum", "index"),
    ("spectrum.classify", "functal.spectrum", "classify"),
    ("spectrum.char_poly_raw", "functal.spectrum", "char_poly_raw"),
    ("tensor.cayley", "functal.tensor", "extended_cayley_check"),
    ("tensor.char_check", "functal.tensor", "tensor_char_check"),
    ("tensor.stab_suite", "functal.tensor", "tensor_stab_suite"),
    ("tensor.vk_suite", "functal.tensor", "tensor_vk_suite"),
    ("sampling.draw", "functal.sampling", "sample_functionals"),
]
# the suites the corpora run; tensor-chi (55 s) is not run
TRACED_SUITES = ("stab-props", "vk-props", "regular-corollaries", "tensor-stab", "cayley")

# metric name -> unit, in report order
METRICS = {
    "algebra.build_calls": "count",
    "algebra.build_s": "s",
    "functional.gram_calls": "count",
    "functional.gram_s": "s",
    "functional.gram_redundancy": "ratio",
    "functional.stab_calls": "count",
    "functional.stab_s": "s",
    "functional.subspace_ops": "count",
    "functional.subspace_s": "s",
    "linalg.rref_calls": "count",
    "linalg.rref_s": "s",
    "linalg.rref_us_per_call": "us",
    "linalg.kernel_calls": "count",
    "linalg.kernel_s": "s",
    "linalg.det_calls": "count",
    "linalg.det_s": "s",
    "linalg.det_max_bits": "bits",
    "linalg.inverse_s": "s",
    "poly.pencil_det_calls": "count",
    "poly.pencil_det_s": "s",
    "poly.pencil_det_dets": "count",
    "poly.uni_roots_calls": "count",
    "poly.uni_roots_s": "s",
    "poly.uni_roots_max_coeff_bits": "bits",
    "poly.squarefree_s": "s",
    "spectrum.spectrum_s": "s",
    "spectrum.jordan_s": "s",
    "spectrum.index_s": "s",
    "spectrum.classify_s": "s",
    "spectrum.classify_pencils": "ratio",
    "spectrum.irrational_roots": "count",
    "tensor.cayley_calls": "count",
    "tensor.cayley_s": "s",
    "tensor.cayley_max_m": "count",
    "tensor.char_check_s": "s",
    "tensor.stab_suite_s": "s",
    "tensor.vk_suite_s": "s",
    "sampling.functionals_drawn": "count",
    **{f"suites.{name}_s": "s" for name in TRACED_SUITES},
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Which layers each workload must keep busy and which it must leave idle,
# from the interaction map in README.md.  A busy layer reading 0 calls means a
# wrapper missed a binding; an idle one reading non-zero means the map is wrong.
PREDICTIONS = {
    "spectral": {
        "busy": ["poly.uni_roots_calls", "poly.squarefree_s", "poly.pencil_det_calls", "poly.pencil_det_dets",
                 "linalg.det_calls", "linalg.kernel_calls", "functional.gram_calls",
                 "spectrum.spectrum_s", "spectrum.jordan_s", "algebra.build_calls"],
        "idle": ["tensor.cayley_calls", "spectrum.index_s", "spectrum.classify_s",
                 "sampling.functionals_drawn"],
    },
    "sampling": {
        "busy": ["functional.gram_calls", "linalg.rref_calls", "linalg.kernel_calls",
                 "functional.stab_calls", "spectrum.index_s", "spectrum.classify_s",
                 "spectrum.classify_pencils", "sampling.functionals_drawn", "algebra.build_calls"],
        "idle": ["poly.uni_roots_calls", "poly.squarefree_s", "tensor.cayley_calls", "spectrum.jordan_s"],
    },
    "identities": {
        "busy": ["tensor.cayley_calls", "tensor.char_check_s", "poly.pencil_det_calls",
                 "linalg.det_calls", "functional.gram_calls"],
        "idle": ["spectrum.index_s", "spectrum.classify_s", "sampling.functionals_drawn"],
    },
    "suites": {
        "busy": ["linalg.rref_calls", "functional.gram_calls", "functional.stab_calls",
                 "functional.subspace_ops", "sampling.functionals_drawn"],
        "idle": ["tensor.cayley_calls", "suites.cayley_s"],
    },
}


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._functionals: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # per-span observers feeding the counters that spans alone cannot give

    def _gram(self, args, result) -> None:
        f = args[0]
        self._functionals.add((f.algebra.labels, f.coords))

    def _det(self, args, result) -> None:
        c = self.counters
        c["linalg.det_max_bits"] = max(c["linalg.det_max_bits"], _bits(result))

    def _uni_roots(self, args, result) -> None:
        coeffs = args[0].coeffs
        denom = math.lcm(*(x.denominator for x in coeffs))
        bits = max(abs(int(x * denom)).bit_length() for x in (coeffs[0], coeffs[-1]))
        c = self.counters
        c["poly.uni_roots_max_coeff_bits"] = max(c["poly.uni_roots_max_coeff_bits"], bits)

    def _spectrum(self, args, result) -> None:
        self.counters["spectrum.irrational_roots"] += sum(
            isinstance(e.alpha, ComplexApprox) for e in result.entries
        )

    def _cayley(self, args, result) -> None:
        c = self.counters
        c["tensor.cayley_max_m"] = max(c["tensor.cayley_max_m"], args[2].rows)

    def _draw(self, args, result) -> None:
        self.counters["sampling.functionals_drawn"] += len(result)

    _OBSERVERS = {
        "functional.gram": _gram,
        "linalg.det": _det,
        "poly.uni_roots": _uni_roots,
        "spectrum.spectrum": _spectrum,
        "tensor.cayley": _cayley,
        "sampling.draw": _draw,
    }

    def _wrap(self, name: str, fn):
        tracer = self
        observe = self._OBSERVERS.get(name)
        fixed_id = None if name == "suites.run" else self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = fixed_id if fixed_id is not None else tracer._name_id(f"suites.{args[0]}")
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name_of.append(sid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.process_time()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "functal" or n.startswith("functal.")]
        for name, mod_name, path in TARGETS:
            owner = sys.modules[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            if cls_path:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name_of[i]]
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
        return self_s, calls

    def _count_children(self, child: str, parent: str) -> int:
        """Spans named `child` whose nearest traced ancestor chain holds `parent`."""
        cid, pid = self._name_ids.get(child), self._name_ids.get(parent)
        if cid is None or pid is None:
            return 0
        count = 0
        for i in range(len(self.start)):
            if self.name_of[i] != cid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != pid:
                p = self.parent[p]
            count += p >= 0
        return count

    def metrics(self, speed: float, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics; times are scaled by `speed` like the end-to-end ones."""
        self_s, calls = self.self_times()
        c = self.counters
        rref_calls = calls["linalg.rref"]
        out = {
            "algebra.build_calls": calls["algebra.build"],
            "algebra.build_s": self_s["algebra.build"],
            "functional.gram_calls": calls["functional.gram"],
            "functional.gram_s": self_s["functional.gram"],
            "functional.gram_redundancy": calls["functional.gram"] / max(1, len(self._functionals)),
            "functional.stab_calls": calls["functional.stab"],
            "functional.stab_s": self_s["functional.stab"],
            "functional.subspace_ops": calls["functional.subspace"],
            "functional.subspace_s": self_s["functional.subspace"],
            "linalg.rref_calls": rref_calls,
            "linalg.rref_s": self_s["linalg.rref"],
            "linalg.rref_us_per_call": 1e6 * self_s["linalg.rref"] / max(1, rref_calls),
            "linalg.kernel_calls": calls["linalg.kernel"],
            "linalg.kernel_s": self_s["linalg.kernel"],
            "linalg.det_calls": calls["linalg.det"],
            "linalg.det_s": self_s["linalg.det"],
            "linalg.det_max_bits": c["linalg.det_max_bits"],
            "linalg.inverse_s": self_s["linalg.inverse"],
            "poly.pencil_det_calls": calls["poly.pencil_det"],
            "poly.pencil_det_s": self_s["poly.pencil_det"],
            "poly.pencil_det_dets": self._count_children("linalg.det", "poly.pencil_det"),
            "poly.uni_roots_calls": calls["poly.uni_roots"],
            "poly.uni_roots_s": self_s["poly.uni_roots"],
            "poly.uni_roots_max_coeff_bits": c["poly.uni_roots_max_coeff_bits"],
            "poly.squarefree_s": self_s["poly.squarefree"],
            "spectrum.spectrum_s": self_s["spectrum.spectrum"],
            "spectrum.jordan_s": self_s["spectrum.jordan"],
            "spectrum.index_s": self_s["spectrum.index"],
            "spectrum.classify_s": self_s["spectrum.classify"],
            "spectrum.classify_pencils": self._count_children("spectrum.char_poly_raw", "spectrum.classify")
            / max(1, calls["spectrum.classify"]),
            "spectrum.irrational_roots": c["spectrum.irrational_roots"],
            "tensor.cayley_calls": calls["tensor.cayley"],
            "tensor.cayley_s": self_s["tensor.cayley"],
            "tensor.cayley_max_m": c["tensor.cayley_max_m"],
            "tensor.char_check_s": self_s["tensor.char_check"],
            "tensor.stab_suite_s": self_s["tensor.stab_suite"],
            "tensor.vk_suite_s": self_s["tensor.vk_suite"],
            "sampling.functionals_drawn": c["sampling.functionals_drawn"],
            **{f"suites.{s}_s": self_s[f"suites.{s}"] for s in TRACED_SUITES},
            "cli.self_s": self_s["cli.run"],
            "trace.overhead_frac": overhead_frac,
        }
        return {k: v * speed if METRICS[k] in ("s", "us") else v for k, v in out.items()}

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON: parallel arrays indexed by span."""
        doc = {
            "names": self.names,
            "name": self.name_of.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def self_check(workload: str, metrics: dict[str, float], traced_corpus_s: float) -> list[str]:
    """Problems with the traced run: missed bindings, a wrong map, or self time beyond wall time."""
    problems = []
    pred = PREDICTIONS[workload]
    problems += [f"{m} reads 0 on {workload}, predicted busy" for m in pred["busy"] if not metrics[m]]
    problems += [f"{m} reads {metrics[m]} on {workload}, predicted idle" for m in pred["idle"] if metrics[m]]
    self_total = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "linalg.rref_us_per_call")
    if self_total > traced_corpus_s * (1 + 1e-9):
        problems.append(f"self times sum to {self_total:.6f} s, more than the traced corpus_s {traced_corpus_s:.6f} s")
    return problems
