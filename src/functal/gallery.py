"""The example corpus: the worked desk algebras, also written as files.

`gallery_algebras` builds every example; the invariant suites draw their
algebras from it, and `write_gallery` writes each one as an algebra JSON file
so all analyses can be driven from files as well as from constructor specs.
"""

from __future__ import annotations

from pathlib import Path

from . import algebra as ac
from .algebra import Algebra, serialize_algebra

# the invertible-and-generic coefficient matrix used for type-2 style pairs
INVERTIBLE_B = [[1, 2, 0], [0, 1, 3], [5, 0, 1]]
# block-antidiagonal coefficients whose pencil operator is not diagonalizable
NONDIAG_B = [[0, 0, 2, 0], [0, 0, 1, 2], [1, 0, 0, 0], [0, 1, 0, 0]]
# the 3x3 coefficient matrix whose two nonzero entries share the last column
SHARED_COLUMN_B = [[0, 0, 1], [0, 0, 1], [0, 0, 0]]
# a nilpotent single Jordan block: the pencil on the complement of W vanishes
JORDAN_BLOCK_B = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]


def gallery_algebras() -> dict[str, Algebra]:
    return {
        "mat1": ac.mat(1),
        "mat2": ac.mat(2),
        "mat3": ac.mat(3),
        "ut2": ac.ut(2),
        "ut3": ac.ut(3),
        "seaweed_12_21": ac.seaweed([1, 2], [2, 1]),
        "seaweed_21_12": ac.seaweed([2, 1], [1, 2]),
        "qq": ac.direct_sum(ac.mat(1), ac.mat(1)),
        "ut2_tensor_ut2": ac.tensor_product(ac.ut(2), ac.ut(2)),
        "abc0_invertible": ac.nilpotent_pair(INVERTIBLE_B),
        "abc0_shared_column": ac.nilpotent_pair(SHARED_COLUMN_B),
        "abc0_jordan_block": ac.nilpotent_pair(JORDAN_BLOCK_B),
        "unital_ext_nondiag": ac.unital_extension(ac.nilpotent_pair(NONDIAG_B)),
    }


def write_gallery(directory: str | Path) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, alg in gallery_algebras().items():
        path = directory / f"{name}.json"
        path.write_text(serialize_algebra(alg) + "\n")
        written.append(path)
    return written
