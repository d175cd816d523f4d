import hashlib
import json
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from functal.algebra import (
    Algebra,
    direct_sum,
    mat,
    nilpotent_pair,
    opposite,
    parse_algebra,
    seaweed,
    serialize_algebra,
    tensor_product,
    unital_extension,
    ut,
    validate,
)
from functal.errors import AlgebraParseError, AssociativityViolation
from functal.functional import Functional, gram
from functal.gallery import gallery_algebras
from functal.linalg import vec

FIXTURES = Path(__file__).parent / "fixtures"


def products_of(alg):
    """{(i, j): {k: coeff}} for nonzero table entries, label-independent."""
    out = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            cell = dict(alg.table[i][j])
            if cell:
                out[(i, j)] = cell
    return out


def unit_cell(k):
    return {k: Q(1)}


# ---------------------------------------------------------------------------
# mat / ut
# ---------------------------------------------------------------------------


def test_mat2_table_is_the_matrix_unit_table():
    m2 = mat(2)
    assert m2.labels == ("E_{1,1}", "E_{1,2}", "E_{2,1}", "E_{2,2}")
    # with (a, b, c, d) = indices (0, 1, 2, 3):
    # a*a=a a*b=b; b*c=a b*d=b; c*a=c c*b=d; d*c=c d*d=d
    assert products_of(m2) == {
        (0, 0): unit_cell(0),
        (0, 1): unit_cell(1),
        (1, 2): unit_cell(0),
        (1, 3): unit_cell(1),
        (2, 0): unit_cell(2),
        (2, 1): unit_cell(3),
        (3, 2): unit_cell(2),
        (3, 3): unit_cell(3),
    }
    assert m2.unity == (Q(1), Q(0), Q(0), Q(1))


def test_mat_dims_and_unity():
    assert mat(3).dim == 9
    u = mat(3).unity
    assert [i for i, c in enumerate(u) if c != 0] == [0, 4, 8]
    assert validate(mat(3)) == []
    with pytest.raises(ValueError):
        mat(0)


def test_ut2_table():
    u2 = ut(2)
    assert u2.dim == 3
    # (a, b, c) = (E11, E12, E22): a*a=a a*b=b b*c=b c*c=c
    assert products_of(u2) == {
        (0, 0): unit_cell(0),
        (0, 1): unit_cell(1),
        (1, 2): unit_cell(1),
        (2, 2): unit_cell(2),
    }


def test_ut_dims_and_unity():
    assert ut(3).dim == 6
    for n in (1, 2, 3, 4):
        alg = ut(n)
        assert alg.dim == n * (n + 1) // 2
        assert alg.is_unital()
        assert validate(alg) == []
    with pytest.raises(ValueError):
        ut(0)


# ---------------------------------------------------------------------------
# seaweed
# ---------------------------------------------------------------------------


def test_seaweed_12_21_table():
    sw = seaweed([1, 2], [2, 1])
    assert sw.dim == 5
    assert sw.labels == ("E_{1,1}", "E_{1,2}", "E_{2,2}", "E_{3,2}", "E_{3,3}")
    # (a..e) = indices 0..4: a*a=a a*b=b; b*c=b; c*c=c; d*c=d; e*d=d e*e=e
    assert products_of(sw) == {
        (0, 0): unit_cell(0),
        (0, 1): unit_cell(1),
        (1, 2): unit_cell(1),
        (2, 2): unit_cell(2),
        (3, 2): unit_cell(3),
        (4, 3): unit_cell(3),
        (4, 4): unit_cell(4),
    }
    assert validate(sw) == []


def test_seaweed_21_12_is_the_transpose_pattern():
    sw = seaweed([2, 1], [1, 2])
    assert sw.dim == 5
    assert sw.labels == ("E_{1,1}", "E_{2,1}", "E_{2,2}", "E_{2,3}", "E_{3,3}")
    # transpose-dual of the ([1,2],[2,1]) pattern: same structure tensor as
    # its opposite algebra, index for index
    assert opposite(sw).table == seaweed([1, 2], [2, 1]).table
    assert validate(sw) == []
    assert sw.is_unital()


def test_seaweed_full_composition_is_mat():
    assert seaweed([3], [3]) == mat(3)


def test_seaweed_rejects_mismatched_totals():
    with pytest.raises(ValueError):
        seaweed([1, 2], [2, 2])


# ---------------------------------------------------------------------------
# nilpotent pairs and unital extension
# ---------------------------------------------------------------------------


def test_nilpotent_pair_shared_column():
    alg = nilpotent_pair([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    assert alg.dim == 4
    assert alg.labels == ("v1", "v2", "v3", "w")
    assert products_of(alg) == {(0, 2): unit_cell(3), (1, 2): unit_cell(3)}
    assert not alg.is_unital()


def test_nilpotent_pair_triple_products_vanish():
    rng = random.Random(7)
    b = [[[rng.randint(-5, 5), rng.randint(-5, 5)] for _ in range(3)] for _ in range(3)]
    alg = nilpotent_pair(b)
    assert alg.dim == 5
    assert validate(alg) == []
    mul = alg.product_coords
    zero = (Q(0),) * alg.dim
    for _ in range(5):
        x, y, z = (vec([Q(rng.randint(-4, 4)) for _ in range(alg.dim)]) for _ in range(3))
        assert mul(mul(x, y), z) == zero
        assert mul(x, mul(y, z)) == zero


def test_unital_extension_table():
    alg = unital_extension(nilpotent_pair([[1, 0], [2, 3]]))
    assert alg.labels == ("one", "v1", "v2", "w")
    assert alg.unity == (Q(1), Q(0), Q(0), Q(0))
    assert products_of(alg) == {
        (0, 0): unit_cell(0),
        (0, 1): unit_cell(1),
        (0, 2): unit_cell(2),
        (0, 3): unit_cell(3),
        (1, 0): unit_cell(1),
        (2, 0): unit_cell(2),
        (3, 0): unit_cell(3),
        (1, 1): {3: Q(1)},
        (2, 1): {3: Q(2)},
        (2, 2): {3: Q(3)},
    }
    assert validate(alg) == []


def test_unital_extension_random_b_validates():
    rng = random.Random(8)
    b = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(4)]
    alg = unital_extension(nilpotent_pair(b))
    assert validate(alg) == []
    one = alg.unity
    for i in range(alg.dim):
        e = alg.basis_vector(i)
        assert alg.product_coords(one, e) == e
        assert alg.product_coords(e, one) == e


# ---------------------------------------------------------------------------
# multiply / validate
# ---------------------------------------------------------------------------


def test_multiply_matrix_units():
    m2 = mat(2)
    b = m2.basis_vector(1)  # E12
    c = m2.basis_vector(2)  # E21
    assert m2.product_coords(b, c) == m2.basis_vector(0)  # E11
    assert m2.product_coords(c, b) == m2.basis_vector(3)  # E22


def test_multiply_unity_fixes_everything():
    u2 = ut(2)
    one = u2.unity
    rng = random.Random(9)
    x = vec([Q(rng.randint(-9, 9)) for _ in range(3)])
    assert u2.product_coords(one, x) == x
    assert u2.product_coords(x, one) == x


def test_multiply_is_bilinear():
    m2 = mat(2)
    rng = random.Random(10)
    x, y, z = (vec([Q(rng.randint(-9, 9)) for _ in range(4)]) for _ in range(3))
    c = Q(3, 2)
    mul = m2.product_coords

    def add(u, v):
        return tuple(a + b for a, b in zip(u, v))

    def scale(u):
        return tuple(c * a for a in u)

    assert mul(add(x, y), z) == add(mul(x, z), mul(y, z))
    assert mul(scale(x), y) == scale(mul(x, y))


def test_validate_flags_perturbed_mat2():
    m2 = mat(2)
    table = [list(row) for row in m2.table]
    table[0][0] = ((0, Q(2)),)  # E11*E11 = 2 E11
    bad = Algebra(m2.labels, table, None)
    violations = validate(bad)
    assert violations
    # (E11 E11) E12 = 2 E12 but E11 (E11 E12) = E12
    assert (0, 0, 1) in {v.triple for v in violations}
    assert all(0 in v.triple for v in violations if v.kind == "associativity")


def test_validate_flags_wrong_unity():
    m2 = mat(2)
    bad = Algebra(m2.labels, m2.table, (Q(1), Q(0), Q(0), Q(0)))
    assert any(v.kind == "unity" for v in validate(bad))


# ---------------------------------------------------------------------------
# tensor product / direct sum / opposite
# ---------------------------------------------------------------------------

UT2_TENSOR_PRODUCTS = {
    # the 9x9 table with letters mapped to lexicographic pair indices:
    # a=(0,0) b=(0,1) e=(0,2) c=(1,0) d=(1,1) f=(1,2) g=(2,0) h=(2,1) p=(2,2)
    ("a", "a"): "a",
    ("a", "b"): "b",
    ("a", "c"): "c",
    ("a", "d"): "d",
    ("b", "e"): "b",
    ("b", "f"): "d",
    ("c", "g"): "c",
    ("c", "h"): "d",
    ("d", "p"): "d",
    ("e", "e"): "e",
    ("e", "f"): "f",
    ("f", "p"): "f",
    ("g", "g"): "g",
    ("g", "h"): "h",
    ("h", "p"): "h",
    ("p", "p"): "p",
}
UT2_TENSOR_LETTERS = {"a": 0, "b": 1, "e": 2, "c": 3, "d": 4, "f": 5, "g": 6, "h": 7, "p": 8}


def test_ut2_tensor_ut2_reproduces_the_9x9_table():
    ta = tensor_product(ut(2), ut(2))
    assert ta.dim == 9
    expected = {
        (UT2_TENSOR_LETTERS[x], UT2_TENSOR_LETTERS[y]): unit_cell(UT2_TENSOR_LETTERS[z])
        for (x, y), z in UT2_TENSOR_PRODUCTS.items()
    }
    assert products_of(ta) == expected
    assert validate(ta) == []


def test_tensor_product_dims_and_unity():
    ta = tensor_product(mat(2), mat(2))
    assert ta.dim == 16
    one = [x * y for x in mat(2).unity for y in mat(2).unity]
    assert ta.unity == tuple(one)
    assert tensor_product(ut(2), nilpotent_pair([[1]])).unity is None


def test_tensor_product_swap_is_a_basis_permutation():
    a, b = ut(2), mat(2)
    ab = tensor_product(a, b)
    ba = tensor_product(b, a)
    n, m = a.dim, b.dim

    def sigma(p):  # index of (b_j, a_i) in ba -> index of (a_i, b_j) in ab
        j, i = divmod(p, n)
        return i * m + j

    for p in range(n * m):
        for q in range(n * m):
            permuted = {sigma(r): c for r, c in ba.table[p][q]}
            assert permuted == dict(ab.table[sigma(p)][sigma(q)])


def test_direct_sum_and_opposite():
    s = direct_sum(mat(2), ut(2))
    assert s.dim == 7
    assert validate(s) == []
    assert opposite(opposite(mat(2))) == mat(2)
    # in the opposite of mat(2): b*c = E21 E12 = E22 = d
    op = opposite(mat(2))
    assert op.table[1][2] == ((3, Q(1)),)
    qq = direct_sum(mat(1), mat(1))
    assert qq.labels == ("E_{1,1}", "E_{1,1}'")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialize_parse_round_trip():
    small = (mat(2), ut(3), seaweed([2, 1], [1, 2]), nilpotent_pair([[0, 1], [1, 0]]))
    for alg in (*small, *cell_format_algebras().values()):
        assert parse_algebra(serialize_algebra(alg)) == alg


def test_parse_reports_missing_row():
    doc = json.loads(serialize_algebra(ut(2)))
    doc["table"] = doc["table"][:2]
    with pytest.raises(AlgebraParseError, match="2 rows"):
        parse_algebra(json.dumps(doc))
    doc2 = json.loads(serialize_algebra(ut(2)))
    doc2["table"][1] = doc2["table"][1][:1]
    with pytest.raises(AlgebraParseError, match="row 1"):
        parse_algebra(json.dumps(doc2))


def test_parse_rejects_nonassociative_table():
    # e1*e1 = e2, e1*e2 = e1, everything else zero:
    # (e1 e1) e1 = e2 e1 = 0 but e1 (e1 e1) = e1 e2 = e1
    doc = {
        "dim": 2,
        "basis": ["x", "y"],
        "table": [[["0", "1"], ["1", "0"]], [["0", "0"], ["0", "0"]]],
        "unity": None,
    }
    with pytest.raises(AssociativityViolation) as exc:
        parse_algebra(json.dumps(doc))
    assert exc.value.triple == (0, 0, 0)


def test_parse_rejects_bad_json():
    with pytest.raises(AlgebraParseError):
        parse_algebra("{not json")
    with pytest.raises(AlgebraParseError):
        parse_algebra(json.dumps({"dim": 1, "basis": ["x"]}))


def test_constructor_outputs_all_validate():
    rng = random.Random(11)
    b = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
    for alg in (
        mat(3),
        ut(4),
        seaweed([1, 2], [2, 1]),
        seaweed([2, 1], [1, 2]),
        nilpotent_pair(b),
        unital_extension(nilpotent_pair(b)),
        tensor_product(ut(2), ut(2)),
        direct_sum(mat(1), ut(2)),
        opposite(seaweed([2, 1], [1, 2])),
    ):
        assert validate(alg) == []


# ---------------------------------------------------------------------------
# the sparse cell format
# ---------------------------------------------------------------------------


def cell_format_algebras():
    """The example corpus plus larger and composite constructions."""
    algs = dict(gallery_algebras())
    # one is the unity, v1 v1 = w, and every other product of v1 and w is 0
    q_alg = Algebra(
        ["one", "v1", "w"],
        [[((0, 1),), ((1, 1),), ((2, 1),)], [((1, 1),), ((2, 1),), ()], [((2, 1),), (), ()]],
        (1, 0, 0),
    )
    algs.update(
        {
            "mat4": mat(4),
            "seaweed_221_131": seaweed([2, 2, 1], [1, 3, 1]),
            "mat2_tensor_ut3": tensor_product(mat(2), ut(3)),
            "direct_sum_ut2_nilpair": direct_sum(ut(2), nilpotent_pair([[1, 2], [3, 4]])),
            "unital_ext_seaweed_12_21": unital_extension(seaweed([1, 2], [2, 1])),
            "nilpair_vector": nilpotent_pair([[[1, 0], [0, 2]], [[3, -1], [0, 0]]]),
            "quotient_by_nil": q_alg,
        }
    )
    return algs


def test_serialized_documents_match_the_recorded_digests():
    # SHA-256 of each serialize_algebra document, recorded from the dense-table code
    expected = json.loads((FIXTURES / "serialized_algebras_sha256.json").read_text())
    algs = cell_format_algebras()
    assert sorted(algs) == sorted(expected)
    for name, alg in algs.items():
        digest = hashlib.sha256(serialize_algebra(alg).encode()).hexdigest()
        assert digest == expected[name], name


def test_gram_matches_the_dense_document():
    # independent oracle: M[i][j] = sum_k F_k * table[i][j][k] over the JSON cells
    rng = random.Random(12)
    for name, alg in cell_format_algebras().items():
        doc = json.loads(serialize_algebra(alg))
        f = Functional(alg, tuple(Q(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(alg.dim)))
        expected = [
            [sum(x * Q(c) for x, c in zip(f.coords, cell)) for cell in row] for row in doc["table"]
        ]
        assert gram(f).data == tuple(tuple(row) for row in expected), name


@pytest.mark.parametrize(
    "cell",
    [
        ((2, Q(1)),),  # index equal to n
        ((-1, Q(1)),),  # negative index
        ((0, Q(0)),),  # zero coefficient
        ((1, Q(1)), (1, Q(2))),  # repeated index
        ((1, Q(1)), (0, Q(2))),  # unsorted indices
        (Q(1), Q(0)),  # a dense coordinate vector
    ],
)
def test_constructor_rejects_malformed_cells(cell):
    table = [[(), ()], [(), cell]]
    with pytest.raises(ValueError):
        Algebra(["x", "y"], table)
    assert Algebra(["x", "y"], [[(), ()], [(), ((1, 1),)]]).table[1][1] == ((1, Q(1)),)
