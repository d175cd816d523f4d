"""The example corpus: one table of CLI runs, `cli_corpus.json` beside this file.

Each entry is {"argv": [...], "exit": code, "sha256": digest of stdout or
null}; "{tmp}" in an argument names the directory that `write_inputs` fills,
and an entry may read a file that an earlier one writes.  The entries marked
"profile": true lead the table; they are the commands whose calls
tests/test_corpus.py profiles, and together they run every def in
src/functal.  The test runs every entry once and checks its exit code and
its digest.  Some entries are there for what their argv does not show:
- `spectrum --algebra mat:4 --functional` with f_hat = diag(1, 2) +
  [[0, 2], [1, 0]] has the double irrational roots +-sqrt(2) and
  +-1/sqrt(2), the only spectrum here that takes a float rank;
- `spectrum --algebra mat:5 --seed 4` has a degree-20 factor with 74-bit end
  coefficients of up to 10,125 divisors, the worst case for the
  rational-root search over divisor pairs;
- `verify regular-corollaries --seed 7` draws degenerate samples;
- the float `max_relative_error` of `tensor` and `verify cayley` pins their
  balanced inputs bit for bit.

Run as a script, this file records: it runs every entry and rewrites the
digest of each entry whose stdout changed, printing its argv, so a named
change of output is one diff to `cli_corpus.json`:

    PYTHONPATH=src python tests/cli_corpus.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from functal import cli
from functal.algebra import mat, serialize_algebra
from functal.gallery import INVERTIBLE_B, JORDAN_BLOCK_B

TABLE = Path(__file__).with_name("cli_corpus.json")


def load() -> list[dict]:
    return json.loads(TABLE.read_text())


def write_inputs(tmp: Path) -> None:
    """The files that entries read from {tmp}."""
    violation = json.loads(serialize_algebra(mat(2)))
    violation["table"][0][0] = ["2", "0", "0", "0"]  # E11 * E11 = 2 E11: not associative
    files = {
        "invertible.json": INVERTIBLE_B,
        "block.json": JORDAN_BLOCK_B,
        "malformed.json": {"dim": 1, "basis": ["a"], "table": [5]},
        "violation.json": violation,
    }
    for name, doc in files.items():
        (tmp / name).write_text(json.dumps(doc))


def run(entry: dict, tmp: Path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one entry through `cli.run`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([arg.replace("{tmp}", str(tmp)) for arg in entry["argv"]])
    return code, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    os.environ.pop("FUNCTAL_SEED", None)  # an entry without --seed records the default seed 0
    entries, changed = load(), False
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for entry in entries:
            digest = sha256(run(entry, Path(tmp))[1])
            if entry["sha256"] not in (None, digest):
                entry["sha256"], changed = digest, True
                print(" ".join(entry["argv"]))
    if changed:
        TABLE.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n")


if __name__ == "__main__":
    main()
