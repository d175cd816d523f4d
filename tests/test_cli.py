"""The command line through `cli.run`: exit codes, one-line errors, JSON output."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cli_corpus import sha256
from functal import cli
from functal.algebra import mat, parse_algebra, serialize_algebra, tensor_product, ut
from functal.functional import Alpha, stab
from functal.gallery import JORDAN_BLOCK_B, gallery_algebras
from functal.report import to_json
from functal.sampling import SamplerConfig, sample_functionals
from functal.spectrum import classify, index, jordan_spaces, regularity_corollary_suite, spectrum
from functal.suites import run_suite
from functal.tensor import (
    conjecture_probe,
    mat_tensor_index_experiment,
    tensor_char_check,
    tensor_functional,
    tensor_stab_suite,
)

BAD_TABLE_5 = json.dumps({"dim": 1, "basis": ["a"], "table": 5})
BAD_ROW_5 = json.dumps({"dim": 1, "basis": ["a"], "table": [5]})
TABLE_TRUE = json.dumps({"dim": 1, "basis": ["a"], "table": [[[True]]]})
DIM_TRUE = json.dumps({"dim": True, "basis": ["a"], "table": [[["1"]]]})


def run(capsys, *argv):
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def assert_one_line_error(err, *words):
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for w in words:
        assert w in err


@pytest.mark.parametrize(
    "argv, words",
    [
        (["index", "--algebra", "mat:2", "--samples", "0"], ["input error", "--samples"]),
        (["classify", "--algebra", "ut:3", "--samples", "-2"], ["input error", "--samples"]),
        (["stab", "--algebra", "mat:2", "--alpha", "1/0"], ["input error", "zero denominator"]),
        (["jordan", "--algebra", "mat:2", "--alpha=-3/0"], ["input error", "zero denominator"]),
        (["jordan", "--algebra", "mat:2", "--alpha", "-3/0"], ["input error", "zero denominator"]),
        (["spectrum", "--algebra", "mat:2", "--functional", '{"E_{1,1}": "1/0"}'], ["input error"]),
        (["spectrum", "--algebra", "mat:2", "--functional", '{"E_{1,1}": 1.5}'], ["input error", "E_{1,1}"]),
        (["spectrum", "--algebra", "mat:2", "--functional", '{"E_{2,1}": null}'], ["input error", "E_{2,1}"]),
        (["stab", "--algebra", "mat:2", "--functional", '{"E_{1,2}": true}', "--alpha", "1"], ["input error", "E_{1,2}"]),
        (["spectrum", "--algebra", "mat:2", "--functional", "diag:1,1/0"], ["input error"]),
        (["spectrum", "--algebra", "ut:2", "--functional", "diag:1,2"], ["input error", "mat(n)"]),
        (["chi", "--algebra", "mat:2", "--functional", "diag:1"], ["input error", "2x2"]),
        (["spectrum", "--algebra", "mat:2", "--functional", '{"nope": 1}'], ["input error", "nope"]),
        (["spectrum", "--algebra", "blob:3"], ["input error"]),
        (["spectrum", "--algebra", "no-such-file.json"], ["input error"]),
        (["verify", "no-such-suite"], ["no-such-suite"]),
        (["verify", "cayley", "--instances", "-3"], ["input error", "--instances"]),
        (["verify", "cayley", "--instances", "0"], ["input error", "--instances"]),
        (["index", "--algebra", "mat:2", "--workers", "-4"], ["input error", "--workers"]),
        (["verify", "stab-props", "--workers", "0"], ["input error", "--workers"]),
        (["verify", "cayley", "--tol", "nan"], ["input error", "--tol"]),
        (["verify", "cayley", "--tol", "-1"], ["input error", "--tol"]),
        # a suite that does not read a flag refuses it, even at its default value
        (["verify", "stab-props", "--samples", "3", "--instances", "5", "--tol", "0.5"], ["input error", "--samples"]),
        (["verify", "vk-props", "--instances", "5"], ["input error", "vk-props", "--instances"]),
        (["verify", "tensor-chi", "--tol", "1e-6"], ["input error", "tensor-chi", "--tol"]),
        (["verify", "regular-corollaries", "--tol", "0.5"], ["input error", "--tol"]),
        (["verify", "cayley", "--samples", "8"], ["input error", "cayley", "--samples"]),
        (["--samples", "3", "verify", "tensor-stab"], ["input error", "--samples"]),
        (["verify", "stab-props", "--sam", "3"], ["input error", "--samples"]),
        (["tensor", "--algebra", "mat:2", "--algebra-b", "ut:2", "--tol", "inf"], ["input error", "--tol"]),
        (["index", "--algebra", "mat:2", "--output", "/nonexistent/dir/x.json"], ["input error", "x.json"]),
        (["index", "--algebra", "mat:2", "--output", "."], ["input error", "directory"]),
        (["index", "--algebra", "tensor:mat:2"], ["input error", "tensor:left;right"]),
        (["index", "--algebra", "tensor:;mat:2"], ["input error", "tensor:left;right"]),
        # a (prefix, document) pair is written to a file and passed as prefix + its path
        (["index", "--algebra", ("abc0:", "5")], ["input error", "coefficient tensor", "5"]),
        (["index", "--algebra", ("abc0:", "[[null]]")], ["input error", "coefficient", "None"]),
        (["index", "--algebra", ("abc0:", "[[true]]")], ["input error", "coefficient", "True"]),
        (["spectrum", "--algebra", ("", BAD_TABLE_5)], ["input error", "table", "5"]),
        (["validate", "--algebra", ("", BAD_TABLE_5)], ["input error", "table", "5"]),
        (["spectrum", "--algebra", ("", BAD_ROW_5)], ["input error", "row 0", "array"]),
        (["validate", "--algebra", ("", BAD_ROW_5)], ["input error", "row 0", "array"]),
        (["validate", "--algebra", ("", TABLE_TRUE)], ["input error", "True"]),
        (["validate", "--algebra", ("", DIM_TRUE)], ["input error", "dim"]),
        (["spectrum", "--algebra", "mat:2", "--functional", ("", "5")], ["input error", "label: value", "5"]),
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, argv, words):
    def materialise(i, arg):
        if not isinstance(arg, tuple):
            return arg
        prefix, doc = arg
        path = tmp_path / f"input{i}.json"
        path.write_text(doc)
        return prefix + str(path)

    code, out, err = run(capsys, *(materialise(i, arg) for i, arg in enumerate(argv)))
    assert code == 2
    assert out == ""
    assert_one_line_error(err, *words)


def test_degenerate_spectrum_exits_1():
    # the zero functional has chi = 0; the report still prints
    code = cli.run(["spectrum", "--algebra", "ut:2", "--functional", "{}", "--format", "json"])
    assert code == 1


def test_refused_analysis_exits_1_with_one_line(capsys):
    code, out, err = run(capsys, "jordan", "--algebra", "ut:2", "--functional", "{}", "--alpha", "1")
    assert code == 1
    assert out == ""
    assert_one_line_error(err, "analysis refused")


def _array_memory_error():
    """numpy's MemoryError for the 4.83 GiB node stack that a 240-row pencil once asked for."""
    np = pytest.importorskip("numpy")
    try:
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # numpy < 2
        from numpy.core._exceptions import _ArrayMemoryError
    return _ArrayMemoryError((93, 121, 240, 240), np.dtype(np.int64))


@pytest.mark.parametrize("error", [MemoryError, _array_memory_error], ids=["MemoryError", "_ArrayMemoryError"])
def test_out_of_memory_exits_1_with_one_line(capsys, monkeypatch, error):
    def spectrum(*args):
        raise error()

    monkeypatch.setattr(cli, "spectrum", spectrum)
    code, out, err = run(capsys, "spectrum", "--algebra", "mat:2")
    assert code == 1
    assert out == ""
    assert_one_line_error(err, "analysis refused: out of memory")
    if error is _array_memory_error:
        assert "4.83 GiB" in err


def test_a_closed_stdout_exits_141_without_a_message():
    # the read end is closed before the process starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = [sys.executable, "-c", "from functal.cli import main; main()", "show", "--algebra", "mat:3", "--format", "json"]
    try:
        done = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert done.returncode == 141
    assert done.stderr == b""


@pytest.mark.parametrize("verb", ["stab", "jordan"])
@pytest.mark.parametrize("alpha", ["-1/2", "-1", "-7/3"])
def test_negative_alpha_parses_as_a_separate_argument(capsys, verb, alpha):
    base = [verb, "--algebra", "mat:2", "--seed", "3", "--format", "json"]
    joined = run(capsys, *base, f"--alpha={alpha}")
    assert joined[0] == 0 and joined[1] and joined[2] == ""
    assert run(capsys, *base, "--alpha", alpha) == joined


def test_output_file_restores_the_callers_stdout(tmp_path):
    path = tmp_path / "chi.json"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(["chi", "--algebra", "mat:2", "--output", str(path), "--format", "json"]) == 0
        print("after")
        assert cli.run(["chi", "--algebra", "mat:2", "--format", "json"]) == 0
    assert buf.getvalue() == "after\n" + path.read_text()


@pytest.mark.parametrize(
    "argv, suite, options",
    [
        (["verify", "cayley", "--instances", "2", "--tol", "0.5"], "cayley", {"instances": 2, "tol": 0.5}),
        (["--samples", "2", "verify", "regular-corollaries"], "regular-corollaries", {"samples": 2}),
        (["verify", "stab-props", "--seed", "1", "--workers", "2"], "stab-props", {"seed": 1}),
    ],
)
def test_verify_passes_the_flags_its_suite_reads(capsys, tmp_path, argv, suite, options):
    path = tmp_path / "report.json"
    assert run(capsys, *argv, "--format", "json", "--output", str(path)) == (0, "", "")
    assert path.read_text() == json.dumps(to_json(run_suite(suite, **options)), sort_keys=True) + "\n"


def test_bad_seed_in_the_environment_exits_2_with_one_line(capsys, monkeypatch):
    monkeypatch.setenv("FUNCTAL_SEED", "abc")
    code, out, err = run(capsys, "index", "--algebra", "mat:2")
    assert (code, out) == (2, "")
    assert_one_line_error(err, "input error", "FUNCTAL_SEED", "abc")
    # a --seed flag takes precedence and the variable is not read
    assert run(capsys, "index", "--algebra", "mat:2", "--seed", "1")[0] == 0


def test_one_parser_per_process_reads_the_seed_on_every_call(capsys, monkeypatch):
    monkeypatch.delenv("FUNCTAL_SEED", raising=False)
    cli.build_parser.cache_clear()
    argv = ["index", "--algebra", "mat:2", "--format", "json"]
    first = run(capsys, *argv)
    monkeypatch.setenv("FUNCTAL_SEED", "5")
    second = run(capsys, *argv)
    assert cli.build_parser.cache_info().misses == 1
    assert first == run(capsys, *argv, "--seed", "0") and json.loads(first[1])["seed"] == 0
    assert second == run(capsys, *argv, "--seed", "5") and json.loads(second[1])["seed"] == 5
    # a bad flag after good calls still exits 2, at once, and the parser still
    # works after it; chi has no --symbolic flag, so it is refused as any other
    for bad, flag in (
        (["index", "--algebra", "mat:2", "--no-such-flag"], "--no-such-flag"),
        (["chi", "--symbolic", "--algebra", "mat:3"], "--symbolic"),
    ):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exit_info:
            cli.run(bad)
        assert exit_info.value.code == 2 and time.perf_counter() - start < 1
        assert flag in capsys.readouterr().err
    assert run(capsys, *argv) == second
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("name", sorted(gallery_algebras()))
def test_the_random_functional_is_the_first_sample(name):
    alg = gallery_algebras()[name]
    for seed in range(10):
        assert cli.load_functional(alg, "random", seed) == sample_functionals(alg, SamplerConfig(seed=seed))[0]


def test_importing_the_cli_loads_no_process_pool_and_workers_changes_nothing(capsys):
    probe = "import sys, functal.cli; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "[]\n"
    argv = ["index", "--algebra", "mat:3", "--format", "json"]
    one = run(capsys, *argv, "--workers", "1")
    assert one[0] == 0 and one[1]
    assert run(capsys, *argv, "--workers", "4") == one


def test_sampler_config_rejects_empty_sample_counts():
    for n in (0, -1):
        with pytest.raises(ValueError, match="--samples"):
            SamplerConfig(samples=n)
    assert SamplerConfig(samples=1).samples == 1


def _json(doc):
    return json.loads(json.dumps(doc))


def _stab_doc(f, alpha):
    s = stab(f, Alpha.of(alpha))
    return {"kind": "stab", "alpha": alpha, "dim": s.dim, "basis": [[str(c) for c in v] for v in s.basis]}


def _jordan_doc(f, alpha):
    jf = jordan_spaces(f, Alpha.of(alpha))
    return {
        "kind": "jordan",
        "alpha": alpha,
        "alpha0": str(jf.alpha0_used),
        "levels": [
            {"k": k + 1, "dim": s.dim, "basis": [[str(c) for c in v] for v in s.basis]}
            for k, s in enumerate(jf.levels)
        ],
    }


def _tensor_doc(fa, fb, seed):
    fg = tensor_functional(tensor_product(fa.algebra, fb.algebra), fa, fb)
    return {
        "chi_check": to_json(tensor_char_check(fa, fb, fg, 1e-6)),
        "stab_suite": to_json(tensor_stab_suite(fa, fb, fg, seed)),
    }


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["spectrum", "--algebra", "mat:2", "--functional", "diag:1,2"],
            lambda load: to_json(spectrum(load("mat:2", "diag:1,2"))),
        ),
        (
            ["index", "--algebra", "ut:3", "--seed", "4", "--samples", "3"],
            lambda load: to_json(index(ut(3), SamplerConfig(seed=4, samples=3))),
        ),
        (
            ["classify", "--algebra", "mat:2", "--seed", "1", "--samples", "2"],
            lambda load: to_json(classify(mat(2), SamplerConfig(seed=1, samples=2))),
        ),
        (
            ["stab", "--algebra", "mat:2", "--functional", "diag:1,2", "--alpha", "1/2"],
            lambda load: _stab_doc(load("mat:2", "diag:1,2"), "1/2"),
        ),
        (
            ["jordan", "--algebra", "ut:3", "--seed", "2", "--alpha", "inf"],
            lambda load: _jordan_doc(load("ut:3", "random", 2), "inf"),
        ),
        (
            ["tensor", "--algebra", "mat:2", "--algebra-b", "ut:2", "--seed", "3"],
            lambda load: _tensor_doc(load("mat:2", "random", 3), load("ut:2", "random", 4), 3),
        ),
    ],
)
def test_json_output_round_trips_and_matches_the_library(capsys, argv, expected):
    def load(spec, functional, seed=0):
        return cli.load_functional(cli.load_algebra(spec), functional, seed)

    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert json.dumps(doc, sort_keys=True) + "\n" == out
    assert doc == _json(expected(load))
    # the text format exits the same way
    code, text, _ = run(capsys, *argv)
    assert code == 0 and text and text != out


def test_reports_no_verb_prints_serialise_byte_identically():
    algs = gallery_algebras()
    cfg = SamplerConfig(samples=4)
    # SHA-256 of each report's canonical JSON; the CLI's outputs are pinned in tests/cli_corpus.json
    reports = {
        "ce1c0ba0fe0c830030607efa4f35a4bc241943d3714dd28dc55903c42dfd2e6d":
            regularity_corollary_suite(algs["unital_ext_nondiag"], cfg),
        "86e81e6ea04eacd300ab62dc6e7be5571a0c7a5db417db3f870e1f463cf2a313":
            mat_tensor_index_experiment(2, ut(3), cfg),
        "bcfec7c0df15c39a1daf7541c6e584971275098c0b41f72d0245e790ade6062e":
            mat_tensor_index_experiment(2, algs["abc0_invertible"], cfg),
    }
    for digest, rep in reports.items():
        assert sha256(json.dumps(to_json(rep), sort_keys=True)) == digest, rep


def reserialises(out):
    return json.dumps(json.loads(out), sort_keys=True) + "\n" == out


@pytest.mark.parametrize("spec", ["mat:2", "ut:3", "seaweed:2,2,1;1,3,1"])
def test_new_and_show_print_the_algebra_document(capsys, spec):
    alg = cli.load_algebra(spec)
    code, out, err = run(capsys, "new", "--algebra", spec)
    assert code == 0 and err == ""
    assert out == serialize_algebra(alg) + "\n"
    assert serialize_algebra(parse_algebra(out)) + "\n" == out
    code, shown, _ = run(capsys, "show", "--algebra", spec, "--format", "json")
    assert code == 0 and shown == out
    code, text, _ = run(capsys, "show", "--algebra", spec)
    lines = text.splitlines()
    assert code == 0 and lines[0] == f"dim {alg.dim}; unital: True" and len(lines) == alg.dim + 1


def test_validate_exits_1_on_a_perturbed_table(capsys, tmp_path):
    assert run(capsys, "validate", "--algebra", "mat:2") == (0, "ok\n", "")
    code, out, _ = run(capsys, "validate", "--algebra", "mat:2", "--format", "json")
    assert code == 0 and reserialises(out)
    assert json.loads(out) == {"kind": "validation", "ok": True, "violations": []}
    doc = json.loads(serialize_algebra(mat(2)))
    doc["table"][0][0] = ["2", "0", "0", "0"]  # E11*E11 = 2 E11
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", "--algebra", str(bad), "--format", "json")
    assert code == 1 and err == "" and reserialises(out)
    rep = json.loads(out)
    assert not rep["ok"] and [0, 0, 1] in [v["triple"] for v in rep["violations"]]
    code, text, _ = run(capsys, "validate", "--algebra", str(bad))
    assert code == 1 and "(e0*e0)*e1 != e0*(e0*e1)" in text.splitlines()
    # every other verb refuses the file as input
    code, out, err = run(capsys, "spectrum", "--algebra", str(bad))
    assert code == 2 and out == ""
    assert_one_line_error(err, "input error", "(0, 0, 1)")


def test_probe_exit_codes_and_json(capsys, tmp_path):
    code, out, err = run(capsys, "probe", "--algebra", "mat:2", "--algebra-b", "ut:2", "--samples", "2", "--format", "json")
    assert code == 0 and err == "" and reserialises(out)
    assert json.loads(out) == to_json(conjecture_probe(mat(2), ut(2), SamplerConfig(samples=2)))
    # a nilpotent Jordan block pair is of type 3, so the probe is refused
    block = tmp_path / "block.json"
    block.write_text(json.dumps(JORDAN_BLOCK_B))
    code, out, err = run(capsys, "probe", "--algebra", "mat:1", "--algebra-b", f"abc0:{block}", "--samples", "2")
    assert code == 1 and out == ""
    assert_one_line_error(err, "analysis refused", "Type3")


def test_gallery_writes_the_corpus(capsys, tmp_path):
    code, out, err = run(capsys, "gallery", "--output-dir", str(tmp_path / "g"))
    assert code == 0 and err == ""
    files = sorted((tmp_path / "g").iterdir())
    assert len(files) == 13
    assert sorted(out.splitlines()) == [str(p) for p in files]
    for p in files:
        assert run(capsys, "new", "--algebra", str(p)) == (0, p.read_text(), "")
