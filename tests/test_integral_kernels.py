"""The integer kernels against the residue loops they replaced.

Over Q the bracket and mat_mul clear each operand's denominators once, sum
products of ints and divide back once; over F_p they sum int residues and
reduce once.  The oracles below are the plain loops on residues (Fractions
over Q, ints in [0, p) over F_p), kept here verbatim.  Q inputs carry
denominators up to 12, so a lost or wrong division shows.  Evaluation on
integer rows is checked node by node against the walk on elements.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liemap import linalg
from liemap.chevalley import ChevalleyError, build_algebra
from liemap.freelie import Br, LiePoly, Sum, Var, evaluate, parse, walk
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


NVARS = 3
# denominators up to 12 that are invertible in F5 and F7
COEFFICIENTS = st.builds(Fraction, st.integers(-7, 7),
                         st.sampled_from((1, 2, 3, 4, 6, 8, 9, 11, 12)))


def nodes(depth, leaf=True):
    """Trees of depth at most `depth` over X1..X3, with nested and empty Sums;
    a bracket or a Sum at the root unless `leaf`."""
    variables = st.builds(Var, st.integers(1, NVARS))
    if not depth:
        return variables
    sub = nodes(depth - 1)
    inner = [st.builds(Br, sub, sub),
             st.builds(Sum, st.lists(st.tuples(COEFFICIENTS, sub), max_size=3))]
    return st.one_of([variables] + inner if leaf else inner)


@st.composite
def evaluations(draw):
    """An algebra, a tree and three elements whose coefficients come from a
    drawn Random, so that shrinking leaves them dense, with denominators."""
    alg = draw(st.sampled_from(ALGEBRAS))
    rng = draw(st.randoms(use_true_random=False))
    p = alg.field.characteristic
    if p:
        def coeff():
            return rng.randrange(p)
    else:
        def coeff():
            return Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 4, 6, 12)))
    xs = [alg.element([coeff() for _ in range(alg.dim)]) for _ in range(NVARS)]
    return alg, draw(nodes(4, leaf=False)), xs


def element_combine(terms, alg):
    return sum((v.scale_rational(c) for c, v in terms), alg.zero())


@settings(SETTINGS, max_examples=200)
@given(evaluations())
def test_integer_row_evaluation_matches_the_element_walk(case):
    # each node's integer row equals the oracle's value cleared of its
    # denominators, in lowest terms (alg.to_row), and the root's element is
    # the oracle's
    alg, node, xs = case
    rows, bracket, combine, finish = xs[0].integer_rows(xs)

    def checked(x, value):
        ints, d = value
        expected, de = alg.to_row(x)
        assert (list(ints), d) == (list(expected), de)
        return x, value

    def both_bracket(a, b):
        return checked(a[0].bracket(b[0]), bracket(a[1], b[1]))

    def both_combine(terms):
        return checked(element_combine([(c, v[0]) for c, v in terms], alg),
                       combine([(c, v[1]) for c, v in terms]))

    oracle, value = walk(node, list(zip(xs, rows)), both_bracket, both_combine, {})
    out = evaluate(LiePoly(node, NVARS), xs)
    assert finish(value).coeffs == out.coeffs == oracle.coeffs
    assert in_residue_form(out.coeffs, alg.field)


def test_integer_row_evaluation_error_cases():
    A2Q, B2Q = (build_algebra(t, 2, make_field("Q")) for t in "AB")
    A2F5 = build_algebra("A", 2, make_field("F5"))
    P = parse("[X1,X2]")
    for x, y in ((A2Q.basis_element(2), B2Q.basis_element(2)),
                 (A2Q.basis_element(2), A2F5.basis_element(2))):
        with pytest.raises(ChevalleyError, match="different algebras"):
            evaluate(P, [x, y])
    xs = [A2F5.basis_element(2), A2F5.basis_element(3)]
    with pytest.raises(ZeroDivisionError, match="^denominator 5 not invertible mod 5$"):
        evaluate(parse("1/5*[X1,X2]"), xs)
    for alg in (A2Q, A2F5):
        xs = [alg.basis_element(2), alg.basis_element(3)]
        zero = evaluate(LiePoly(Sum(()), 2), xs)
        assert zero == alg.zero() and in_residue_form(zero.coeffs, alg.field)
