"""Command-line interface.

Algebras come from constructor specs ("mat:3", "ut:2", "seaweed:1,2;2,1",
"abc0:<file>") or from algebra JSON files; functionals from JSON files
(label -> rational), inline JSON, "random" (seeded) or "diag:a,b,..."
(trace pairing on mat(n)).  Exit codes: 0 success, 1 analysis refusal
(out of memory included), 2 input error, and 141 (128 + SIGPIPE, as for a
process the signal ends) when the reader closes stdout early.  Reports print
human-readable by default and as canonical JSON with --format json.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import random
from pathlib import Path

from . import algebra as ac
from .algebra import Algebra, parse_algebra, read_algebra, serialize_algebra, validate
from .errors import (
    AlgebraParseError,
    FunctalError,
    NoRegularAlpha0,
    NotMatrixAlgebra,
    NotType1,
    ZeroPolynomial,
)
from .functional import Alpha, Functional, stab, trace_functional
from .gallery import write_gallery
from .linalg import RatMatrix
from .report import to_json
from .sampling import SamplerConfig, random_functional
from .scalars import rat, rat_str
from .spectrum import (
    char_poly,
    classify,
    index,
    jordan_spaces,
    spectrum,
)
from .suites import SUITES, run_suite
from .tensor import conjecture_probe, tensor_char_check, tensor_functional, tensor_stab_suite

ANALYSIS_ERRORS = (NoRegularAlpha0, NotType1, ZeroPolynomial)
INPUT_ERRORS = (AlgebraParseError, NotMatrixAlgebra, OSError, json.JSONDecodeError, ValueError, KeyError)


def load_algebra(spec: str) -> Algebra:
    if ":" in spec and not Path(spec).exists():
        kind, _, arg = spec.partition(":")
        if kind == "mat":
            return ac.mat(int(arg))
        if kind == "ut":
            return ac.ut(int(arg))
        if kind == "seaweed":
            top_s, _, bottom_s = arg.partition(";")
            if not bottom_s:
                raise AlgebraParseError("seaweed spec needs 'seaweed:top;bottom'")
            top = [int(x) for x in top_s.split(",")]
            bottom = [int(x) for x in bottom_s.split(",")]
            return ac.seaweed(top, bottom)
        if kind == "abc0":
            data = json.loads(Path(arg).read_text())
            return ac.nilpotent_pair(data)
        if kind == "tensor":
            left, _, right = arg.partition(";")
            if not left or not right:
                raise AlgebraParseError("tensor spec needs 'tensor:left;right'")
            return ac.tensor_product(load_algebra(left), load_algebra(right))
        raise AlgebraParseError(f"unknown constructor spec {spec!r}")
    return parse_algebra(Path(spec).read_text())


def load_functional(alg: Algebra, spec: str, seed: int) -> Functional:
    if spec == "random":
        return random_functional(alg, random.Random(seed))
    if spec.startswith("diag:"):
        entries = [rat(x) for x in spec[len("diag:") :].split(",")]
        n = len(entries)
        f_hat = RatMatrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])
        return trace_functional(alg, f_hat)
    if spec.lstrip().startswith("{"):
        data = json.loads(spec)
    else:
        data = json.loads(Path(spec).read_text())
    return Functional.from_dict(alg, data)


def _emit(args, report, text: str) -> None:
    if args.format == "json":
        print(json.dumps(to_json(report), sort_keys=True))
    else:
        print(text)


def _spectrum_text(rep) -> str:
    lines = [f"pencil degree {rep.pencil_degree} on dim {rep.algebra_dim}"]
    if rep.degenerate:
        lines.append("characteristic polynomial vanishes identically (degenerate pair)")
    for e in rep.all_entries():
        lines.append(
            f"  alpha={to_json(e.alpha)}  multiplicity={e.multiplicity}  "
            f"stab_dim={e.stab_dim}  precise={e.precise}"
        )
    return "\n".join(lines)


def _add_common(p: argparse.ArgumentParser, functional: bool = False, alpha: bool = False):
    p.add_argument("--algebra", required=True, help="constructor spec or algebra JSON file")
    if functional:
        p.add_argument(
            "--functional",
            default="random",
            help='functional file/JSON, "random", or "diag:a,b,..." (default: random)',
        )
    if alpha:
        p.add_argument("--alpha", required=True, help='rational value or "inf"')


class _Given(argparse.Action):
    """Stores the value and records that the flag was given, as `given_<dest>`."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        setattr(namespace, f"given_{self.dest}", True)


def _common_flags(suppress: bool) -> argparse.ArgumentParser:
    # Registered on the main parser with real defaults and on every
    # subparser with SUPPRESS, so flags work on either side of the verb.
    # --seed defaults to None: `run` reads FUNCTAL_SEED on each call.
    d = argparse.SUPPRESS if suppress else None
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=d, help="RNG seed (default: env FUNCTAL_SEED, else 0)")
    p.add_argument("--samples", type=int, action=_Given, default=d if suppress else 8, help="sample count for generic searches")
    p.add_argument("--format", choices=("text", "json"), default=d if suppress else "text")
    p.add_argument("--tol", type=float, action=_Given, default=d if suppress else 1e-6, help="numeric tolerance")
    p.add_argument("--workers", type=int, default=d if suppress else 1, help="no effect: analyses run in one process")
    p.add_argument("--output", default=d if suppress else None, help="write primary output to this path")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `run` and kept for the process."""
    common = _common_flags(suppress=True)
    ap = argparse.ArgumentParser(
        prog="functal",
        description="Exact analysis of pairs (associative algebra, linear functional).",
        parents=[_common_flags(suppress=False)],
    )
    sub = ap.add_subparsers(dest="verb", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("new", help="build an algebra and write its JSON document")
    _add_common(p)

    p = sub.add_parser("show", help="print the multiplication table")
    _add_common(p)

    p = sub.add_parser("validate", help="check associativity and unity")
    _add_common(p)

    p = sub.add_parser("chi", help="characteristic polynomial")
    _add_common(p, functional=True)

    p = sub.add_parser("spectrum", help="pencil roots, multiplicities, stabilizer dims")
    _add_common(p, functional=True)

    p = sub.add_parser("stab", help="stabilizer subspace basis at alpha")
    _add_common(p, functional=True, alpha=True)

    p = sub.add_parser("jordan", help="ascending Jordan level spaces at alpha")
    _add_common(p, functional=True, alpha=True)

    p = sub.add_parser("classify", help="sampled type verdict")
    _add_common(p)

    p = sub.add_parser("index", help="minimal sampled dim stab(1)")
    _add_common(p)

    p = sub.add_parser("tensor", help="tensor-pair characteristic and stabilizer checks")
    _add_common(p, functional=True)
    p.add_argument("--algebra-b", required=True)
    p.add_argument("--functional-b", default="random")

    p = sub.add_parser("probe", help="product-index numbers and resonance sum")
    _add_common(p)
    p.add_argument("--algebra-b", required=True)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}")
    p.add_argument("--instances", type=int, action=_Given, default=30)

    p = sub.add_parser("gallery", help="write every desk example algebra as a file")
    p.add_argument("--output-dir", default="gallery")
    return ap


def run(argv: list[str] | None = None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a value such as "-1/2" as an option: pass it as --alpha=-1/2
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--alpha" and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1 : i + 1] = [f"--alpha={argv[i]}"]
    args = ap.parse_args(argv)
    out_path = getattr(args, "output", None)
    prev_stdout = sys.stdout
    try:
        if args.seed is None:
            env = os.environ.get("FUNCTAL_SEED", "0")
            try:
                args.seed = int(env)
            except ValueError:
                raise ValueError(f"FUNCTAL_SEED must be an integer, got {env!r}") from None
        if out_path:
            sys.stdout = open(out_path, "w")  # noqa: SIM115 - closed in the finally below
        return _dispatch(args)
    except ANALYSIS_ERRORS as e:
        print(f"analysis refused: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        # numpy's _ArrayMemoryError names the array it could not allocate
        print("analysis refused: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # a closed stdout is no bad input, though BrokenPipeError is an OSError
        raise
    except INPUT_ERRORS as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except FunctalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if sys.stdout is not prev_stdout:
            sys.stdout.close()
            sys.stdout = prev_stdout


def _dispatch(args) -> int:
    sampler = SamplerConfig(seed=args.seed, samples=args.samples)
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    if not 0 < args.tol < math.inf:
        raise ValueError(f"--tol must be a positive number, got {args.tol}")

    if args.verb == "new":
        alg = load_algebra(args.algebra)
        print(serialize_algebra(alg))
        return 0

    if args.verb == "show":
        alg = load_algebra(args.algebra)
        if args.format == "json":
            print(serialize_algebra(alg))
            return 0
        print(f"dim {alg.dim}; unital: {alg.is_unital()}")
        width = max(len(l) for l in alg.labels)
        for i, l in enumerate(alg.labels):
            row = []
            for j in range(alg.dim):
                parts = [
                    (f"{rat_str(c)}*" if c != 1 else "") + alg.labels[k]
                    for k, c in alg.table[i][j]
                ]
                row.append("+".join(parts) if parts else "0")
            print(f"{l:>{width}} | " + "  ".join(row))
        return 0

    if args.verb == "validate":
        # a file is read unchecked, so that its violations are the report
        path = Path(args.algebra)
        alg = read_algebra(path.read_text()) if path.exists() else load_algebra(args.algebra)
        violations = validate(alg)
        doc = {"kind": "validation", "ok": not violations, "violations": violations}
        _emit(args, doc, "ok" if not violations else "\n".join(v.detail for v in violations))
        return 0 if not violations else 1

    if args.verb == "chi":
        alg = load_algebra(args.algebra)
        chi = char_poly(load_functional(alg, args.functional, args.seed))
        print(json.dumps(chi.to_json_dict()) if args.format == "json" else chi.to_text())
        return 0

    if args.verb == "spectrum":
        alg = load_algebra(args.algebra)
        f = load_functional(alg, args.functional, args.seed)
        rep = spectrum(f)
        _emit(args, rep, _spectrum_text(rep))
        return 1 if rep.degenerate else 0

    if args.verb == "stab":
        alg = load_algebra(args.algebra)
        f = load_functional(alg, args.functional, args.seed)
        s = stab(f, Alpha.of(args.alpha))
        doc = {"kind": "stab", "alpha": args.alpha, "dim": s.dim, "basis": s.basis}
        text = f"dim {s.dim}\n" + "\n".join(
            "  (" + ", ".join(rat_str(c) for c in v) + ")" for v in s.basis
        )
        _emit(args, doc, text)
        return 0

    if args.verb == "jordan":
        alg = load_algebra(args.algebra)
        f = load_functional(alg, args.functional, args.seed)
        jf = jordan_spaces(f, Alpha.of(args.alpha))
        doc = {
            "kind": "jordan",
            "alpha": args.alpha,
            "alpha0": jf.alpha0_used,
            "levels": [{"k": k + 1, "dim": s.dim, "basis": s.basis} for k, s in enumerate(jf.levels)],
        }
        text = f"base point {rat_str(jf.alpha0_used)}; level dims: " + " < ".join(
            str(s.dim) for s in jf.levels
        )
        _emit(args, doc, text)
        return 0

    if args.verb == "classify":
        alg = load_algebra(args.algebra)
        rep = classify(alg, sampler)
        _emit(args, rep, f"{rep.verdict} (min nil dim {rep.min_nil_dim}, {rep.samples_used} samples, seed {rep.seed})")
        return 0

    if args.verb == "index":
        alg = load_algebra(args.algebra)
        rep = index(alg, sampler)
        _emit(args, rep, str(rep.value))
        return 0

    if args.verb == "tensor":
        alg_a = load_algebra(args.algebra)
        alg_b = load_algebra(args.algebra_b)
        f = load_functional(alg_a, args.functional, args.seed)
        g = load_functional(alg_b, args.functional_b, args.seed + 1)
        fg = tensor_functional(ac.tensor_product(alg_a, alg_b), f, g)
        chi_rep = tensor_char_check(f, g, fg, args.tol)
        stab_rep = tensor_stab_suite(f, g, fg, args.seed)
        doc = {"chi_check": chi_rep, "stab_suite": stab_rep}
        text = (
            f"chi routes agree: {chi_rep.pass_} (max rel err {chi_rep.max_relative_error})\n"
            f"stabilizer inclusions: {'pass' if stab_rep.passed else 'FAIL'} "
            f"({len(stab_rep.checks)} checks)"
        )
        _emit(args, doc, text)
        return 0 if chi_rep.pass_ and stab_rep.passed else 1

    if args.verb == "probe":
        alg_a = load_algebra(args.algebra)
        alg_b = load_algebra(args.algebra_b)
        rep = conjecture_probe(alg_a, alg_b, sampler)
        text = (
            f"ind(A(x)B) = {rep.product_index}; ind(A)*ind(B) = {rep.index_product}; "
            f"resonance sum = {rep.resonance_sum} over alphas {list(rep.resonant_alphas)}\n"
            f"{rep.hypothesis}"
        )
        _emit(args, rep, text)
        return 0

    if args.verb == "verify":
        if args.suite not in SUITES:
            print(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}", file=sys.stderr)
            return 2
        if args.instances < 1:
            raise ValueError(f"--instances must be at least 1, got {args.instances}")
        for name in ("samples", "instances", "tol"):
            if getattr(args, f"given_{name}", False) and name not in SUITES[args.suite][1]:
                raise ValueError(f"suite {args.suite} does not read --{name}")
        rep = run_suite(args.suite, seed=args.seed, samples=args.samples, instances=args.instances, tol=args.tol)
        text = f"suite {rep.name}: {'pass' if rep.passed else 'FAIL'} ({len(rep.checks)} checks)"
        _emit(args, rep, "\n".join([text] + [f"  FAIL {c.name}: {c.detail}" for c in rep.checks if not c.passed]))
        return 0 if rep.passed else 1

    if args.verb == "gallery":
        paths = write_gallery(args.output_dir)
        for p in paths:
            print(p)
        return 0

    raise AssertionError(f"unhandled verb {args.verb}")


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so that the
        # flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
