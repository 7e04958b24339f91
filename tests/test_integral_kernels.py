"""The integer kernels against the residue loops they replaced.

Over Q the bracket and mat_mul clear each operand's denominators once, sum
products of ints and divide back once; over F_p they sum int residues and
reduce once.  The oracles below are the plain loops on residues (Fractions
over Q, ints in [0, p) over F_p), kept here verbatim.  Q inputs carry
denominators up to 12, so a lost or wrong division shows.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from liemap import linalg
from liemap.chevalley import build_algebra
from liemap.scalar import make_field

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)
FIELDS = [make_field(s) for s in ("Q", "F5", "F7")]
ALGEBRAS = [build_algebra(t, r, f) for t, r in (("A", 2), ("B", 2), ("G", 2))
            for f in FIELDS]


def residues(field):
    if field.characteristic:
        return st.integers(0, field.modulus - 1)
    return st.builds(Fraction, st.integers(-7, 7), st.sampled_from((1, 2, 3, 4, 6, 12)))


def reference_bracket(alg, x, y):
    """The residue loop over bracket_table, reduced once."""
    f, T = alg.field, alg.bracket_table
    out = [f.residue(0)] * alg.dim
    for i, ci in enumerate(x.coeffs):
        for j, cj in enumerate(y.coeffs):
            for k, n in T[i][j]:
                out[k] += ci * cj * n
    return tuple(f.reduce_row(out))


def reference_mat_mul(A, B, field):
    """Row by column on residues, reduced once per row."""
    zero = field.residue(0)
    return [field.reduce_row([sum((a * Bk[j] for a, Bk in zip(row, B)), zero)
                              for j in range(len(B[0]))]) for row in A]


def in_residue_form(row, field):
    if field.characteristic:
        return all(type(c) is int and 0 <= c < field.modulus for c in row)
    return all(type(c) is Fraction for c in row)


@st.composite
def element_pairs(draw):
    alg = draw(st.sampled_from(ALGEBRAS))
    coeffs = st.lists(residues(alg.field), min_size=alg.dim, max_size=alg.dim)
    return alg, alg.element(draw(coeffs)), alg.element(draw(coeffs))


@st.composite
def matrix_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    entry = residues(field)
    A = [[draw(entry) for _ in range(k)] for _ in range(n)]
    B = [[draw(entry) for _ in range(m)] for _ in range(k)]
    return field, A, B


@SETTINGS
@given(element_pairs())
def test_bracket_matches_the_residue_loop(case):
    alg, x, y = case
    xy = alg.bracket(x, y)
    assert xy.coeffs == reference_bracket(alg, x, y)
    assert in_residue_form(xy.coeffs, alg.field)


@SETTINGS
@given(matrix_pairs())
def test_mat_mul_matches_the_residue_loop(case):
    field, A, B = case
    AB = linalg.mat_mul(A, B, field)
    assert AB == reference_mat_mul(A, B, field)
    assert all(in_residue_form(row, field) for row in AB)


def test_integral_rows_round_trip():
    Q, F5 = make_field("Q"), make_field("F5")
    rows = [[Fraction(1, 2), Fraction(-2, 3)], [Fraction(0), Fraction(5, 4)]]
    ints, d = Q.integral_rows(rows)
    assert d == 12 and ints == [[6, -8], [0, 15]]
    assert [Q.from_integral_row(row, d) for row in ints] == rows
    assert Q.integral_rows([[Fraction(3), Fraction(-1)]]) == ([[3, -1]], 1)
    rows = [[1, 4], [0, 3]]
    assert F5.integral_rows(rows) == (rows, 1)
    assert F5.from_integral_row([7, -1, 10], 1) == [2, 4, 0]
