"""Command-line interface.

Algebras come from constructor specs ("mat:3", "ut:2", "seaweed:1,2;2,1",
"abc0:<file>") or from algebra JSON files; functionals from JSON files
(label -> rational), inline JSON, "random" (seeded) or "diag:a,b,..."
(trace pairing on mat(n)).  Exit codes: 0 success, 1 analysis refusal,
2 input error.  Reports print human-readable by default and as canonical
JSON with --format json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import random
from fractions import Fraction
from pathlib import Path

from . import algebra as ac
from .algebra import Algebra, parse_algebra, read_algebra, serialize_algebra, validate
from .errors import (
    AlgebraParseError,
    EnvelopeExceeded,
    FunctalError,
    NoRegularAlpha0,
    NotAnIdeal,
    NotMatrixAlgebra,
    NotType1,
    ZeroPolynomial,
)
from .functional import Alpha, Functional, stab, trace_functional
from .gallery import write_gallery
from .linalg import RatMatrix
from .sampling import SamplerConfig
from .scalars import rat, rat_str
from .spectrum import (
    char_poly,
    char_poly_symbolic,
    classify,
    index,
    jordan_spaces,
    spectrum,
)
from .suites import SUITES, run_suite
from .tensor import conjecture_probe, tensor_char_check, tensor_stab_suite

ANALYSIS_ERRORS = (NoRegularAlpha0, NotType1, NotAnIdeal, ZeroPolynomial)
INPUT_ERRORS = (AlgebraParseError, EnvelopeExceeded, NotMatrixAlgebra, FileNotFoundError, json.JSONDecodeError, ValueError, KeyError)


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
            return ac.tensor_product(load_algebra(left), load_algebra(right))
        raise AlgebraParseError(f"unknown constructor spec {spec!r}")
    return parse_algebra(Path(spec).read_text())


def load_functional(alg: Algebra, spec: str, seed: int, bound: int = 20) -> Functional:
    if spec == "random":
        rng = random.Random(seed)
        return Functional(alg, tuple(Fraction(rng.randint(-bound, bound)) for _ in range(alg.dim)))
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


def _emit(args, report_dict: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(report_dict, sort_keys=True))
    else:
        print(text)


def _spectrum_text(rep) -> str:
    lines = [f"pencil degree {rep.pencil_degree} on dim {rep.algebra_dim}"]
    if rep.degenerate:
        lines.append("characteristic polynomial vanishes identically (degenerate pair)")
    for e in rep.all_entries():
        lines.append(
            f"  alpha={e.alpha_json()}  multiplicity={e.multiplicity}  "
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


def _common_flags(suppress: bool) -> argparse.ArgumentParser:
    # Registered on the main parser with real defaults and on every
    # subparser with SUPPRESS, so flags work on either side of the verb.
    d = argparse.SUPPRESS if suppress else None
    default_seed = int(os.environ.get("FUNCTAL_SEED", "0"))
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=d if suppress else default_seed, help="RNG seed (env FUNCTAL_SEED)")
    p.add_argument("--samples", type=int, default=d if suppress else 8, help="sample count for generic searches")
    p.add_argument("--format", choices=("text", "json"), default=d if suppress else "text")
    p.add_argument("--tol", type=float, default=d if suppress else 1e-6, help="numeric tolerance")
    p.add_argument("--workers", type=int, default=d if suppress else 1, help="parallel workers for sampling")
    p.add_argument("--output", default=d if suppress else None, help="write primary output to this path")
    return p


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--symbolic", action="store_true", help="one variable per basis label")

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
    p.add_argument("--instances", type=int, default=30)

    p = sub.add_parser("gallery", help="write every desk example algebra as a file")
    p.add_argument("--output-dir", default="gallery")
    return ap


def run(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    out_path = getattr(args, "output", None)
    if out_path:
        sys.stdout = open(out_path, "w")  # noqa: SIM115 - restored by process exit
    try:
        return _dispatch(args)
    except ANALYSIS_ERRORS as e:
        print(f"analysis refused: {e}", file=sys.stderr)
        return 1
    except INPUT_ERRORS as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except FunctalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if out_path:
            sys.stdout.close()
            sys.stdout = sys.__stdout__


def _dispatch(args) -> int:
    sampler = SamplerConfig(seed=args.seed, samples=args.samples, workers=args.workers)

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
        doc = {
            "kind": "validation",
            "ok": not violations,
            "violations": [{"kind": v.kind, "triple": list(v.triple), "detail": v.detail} for v in violations],
        }
        _emit(args, doc, "ok" if not violations else "\n".join(v.detail for v in violations))
        return 0 if not violations else 1

    if args.verb == "chi":
        alg = load_algebra(args.algebra)
        chi = char_poly_symbolic(alg) if args.symbolic else char_poly(load_functional(alg, args.functional, args.seed))
        print(json.dumps(chi.to_json_dict()) if args.format == "json" else chi.to_text())
        return 0

    if args.verb == "spectrum":
        alg = load_algebra(args.algebra)
        f = load_functional(alg, args.functional, args.seed)
        rep = spectrum(f)
        _emit(args, rep.to_json_dict(), _spectrum_text(rep))
        return 1 if rep.degenerate else 0

    if args.verb == "stab":
        alg = load_algebra(args.algebra)
        f = load_functional(alg, args.functional, args.seed)
        s = stab(f, Alpha.of(args.alpha))
        doc = {
            "kind": "stab",
            "alpha": args.alpha,
            "dim": s.dim,
            "basis": [[rat_str(c) for c in v] for v in s.basis],
        }
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
            "alpha0": rat_str(jf.alpha0_used),
            "levels": [
                {"k": k + 1, "dim": s.dim, "basis": [[rat_str(c) for c in v] for v in s.basis]}
                for k, s in enumerate(jf.levels)
            ],
        }
        text = f"base point {rat_str(jf.alpha0_used)}; level dims: " + " < ".join(
            str(s.dim) for s in jf.levels
        )
        _emit(args, doc, text)
        return 0

    if args.verb == "classify":
        alg = load_algebra(args.algebra)
        rep = classify(alg, sampler)
        _emit(
            args,
            rep.to_json_dict(),
            f"{rep.verdict} (min nil dim {rep.min_nil_dim}, {rep.samples_used} samples, seed {rep.seed})",
        )
        return 0

    if args.verb == "index":
        alg = load_algebra(args.algebra)
        rep = index(alg, sampler)
        _emit(args, rep.to_json_dict(), str(rep.value))
        return 0

    if args.verb == "tensor":
        alg_a = load_algebra(args.algebra)
        alg_b = load_algebra(args.algebra_b)
        f = load_functional(alg_a, args.functional, args.seed)
        g = load_functional(alg_b, args.functional_b, args.seed + 1)
        chi_rep = tensor_char_check(alg_a, f, alg_b, g, args.tol)
        stab_rep = tensor_stab_suite(alg_a, f, alg_b, g, args.seed)
        doc = {"chi_check": chi_rep.to_json_dict(), "stab_suite": stab_rep.to_json_dict()}
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
        _emit(args, rep.to_json_dict(), text)
        return 0

    if args.verb == "verify":
        if args.suite not in SUITES:
            print(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}", file=sys.stderr)
            return 2
        rep = run_suite(args.suite, seed=args.seed, samples=args.samples, instances=args.instances, tol=args.tol)
        if args.format == "json":
            print(json.dumps(rep.to_json_dict(), sort_keys=True))
        else:
            print(f"suite {rep.name}: {'pass' if rep.passed else 'FAIL'} ({len(rep.checks)} checks)")
            for c in rep.checks:
                if not c.passed:
                    print(f"  FAIL {c.name}: {c.detail}")
        return 0 if rep.passed else 1

    if args.verb == "gallery":
        paths = write_gallery(args.output_dir)
        for p in paths:
            print(p)
        return 0

    raise AssertionError(f"unhandled verb {args.verb}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
