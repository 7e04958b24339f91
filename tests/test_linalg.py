"""Property tests for linalg over F_2, F_3, F_5 residues and over Q.

The oracles are independent of linalg: exhaustive search over F_p^m, ranks
from the nonzero minors of the matrix (Leibniz determinants), and a
textbook Gauss-Jordan elimination in FpElement arithmetic.
"""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from liemap import linalg
from liemap.scalar import FpElement, make_field

FIELDS = [make_field(s) for s in ("F2", "F3", "F5", "Q")]
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def scalars(field):
    if field.characteristic:
        return st.integers(0, field.modulus - 1)
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def systems(draw, fields=FIELDS, max_rows=3, max_cols=4):
    """(field, A, b) with A of shape up to max_rows x max_cols."""
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, max_cols))
    entry = scalars(field)
    A = [[draw(entry) for _ in range(m)] for _ in range(n)]
    b = [draw(entry) for _ in range(n)]
    return field, A, b


def _det(M, field):
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i, j in enumerate(perm):
            term = term * M[i][j]
        total = total + term
    return field.reduce(total)


def minor_rank(A, field):
    """Largest k with a nonzero k x k minor."""
    n, m = len(A), len(A[0])
    for k in range(min(n, m), 0, -1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(m), k):
                if _det([[A[i][j] for j in cols] for i in rows], field):
                    return k
    return 0


def apply(A, x, field):
    return [field.reduce(sum((a * v for a, v in zip(row, x)), field.residue(0)))
            for row in A]


@SETTINGS
@given(systems())
def test_solve_matches_brute_force(system):
    field, A, b = system
    x = linalg.solve(A, b, field)
    if x is not None:
        assert apply(A, x, field) == b
    solvable = minor_rank([row + [v] for row, v in zip(A, b)], field) == \
        minor_rank(A, field)
    assert (x is not None) == solvable
    if field.characteristic:
        p, m = field.modulus, len(A[0])
        exists = any(apply(A, list(y), field) == b
                     for y in itertools.product(range(p), repeat=m))
        assert (x is not None) == exists


@SETTINGS
@given(systems(), st.data())
def test_rref_is_canonical(system, data):
    field, A, _ = system
    R, pivots = linalg.rref(A, field)
    assert len(pivots) == minor_rank(A, field)
    one, zero = field.residue(1), field.residue(0)
    for r, c in enumerate(pivots):
        assert [row[c] for row in R] == [one if i == r else zero for i in range(len(R))]
        assert not any(R[r][:c])
    assert not any(any(row) for row in R[len(pivots):])
    # B = G A for an invertible G = P L U (plus a zero row) spans the same rows
    n = len(A)
    entry, nonzero = scalars(field), scalars(field).filter(bool)
    L = [[one if i == j else data.draw(entry) if j < i else zero for j in range(n)]
         for i in range(n)]
    U = [[data.draw(nonzero) if i == j else data.draw(entry) if j > i else zero
          for j in range(n)] for i in range(n)]
    LU = linalg.mat_mul(L, U, field)
    G = [LU[k] for k in data.draw(st.permutations(range(n)))]
    B = linalg.mat_mul(G, A, field) + [[zero] * len(A[0])]
    RB, pivots_b = linalg.rref(B, field)
    assert pivots_b == pivots
    assert RB[:len(pivots)] == R[:len(pivots)]


def test_rref_canonical_mod_3_example():
    F3 = make_field("F3")
    for A in ([[1, 1], [0, 1]], [[1, 0], [0, 1]]):
        assert linalg.rref(A, F3) == ([[1, 0], [0, 1]], [0, 1])


def _gauss_jordan(rows):
    """Reduced row echelon form in the scalars' own arithmetic."""
    M = [list(r) for r in rows]
    r = 0
    for c in range(len(M[0])):
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        M[r] = [x / M[r][c] for x in M[r]]
        for i in range(len(M)):
            if i != r:
                M[i] = [a - M[i][c] * b for a, b in zip(M[i], M[r])]
        r += 1
    return M


@SETTINGS
@given(systems(fields=FIELDS[:3], max_rows=4), st.data())
def test_residues_agree_with_fp_elements(system, data):
    field, A, b = system

    def lift(x):
        return FpElement(x, field.modulus)

    LA = [[lift(x) for x in row] for row in A]
    R, _ = linalg.rref(A, field)
    assert [[lift(x) for x in row] for row in R] == _gauss_jordan(LA)
    B = [[data.draw(scalars(field)) for _ in range(2)] for _ in range(len(A[0]))]
    LB = [[lift(x) for x in row] for row in B]
    product = [[sum((a * LB[k][j] for k, a in enumerate(row)), lift(0))
                for j in range(2)] for row in LA]
    assert [[lift(x) for x in row] for row in linalg.mat_mul(A, B, field)] == product
    x = linalg.solve(A, b, field)
    if x is not None:
        Lx = [lift(v) for v in x]
        assert [sum((a * v for a, v in zip(row, Lx)), lift(0)) for row in LA] == \
            [lift(v) for v in b]
    for v in linalg.kernel_basis(A, field):
        Lv = [lift(c) for c in v]
        assert not any(sum((a * c for a, c in zip(row, Lv)), lift(0)) for row in LA)


P = linalg.CERTIFICATE_PRIME
Q = FIELDS[3]


def _kernel_by_fractions(A):
    """kernel_basis over Q as it was before the mod-p certificate: a
    Fraction elimination of every row."""
    A = [[Fraction(x) for x in row] for row in A]
    m = len(A[0])
    R, pivots = linalg.rref(A, Q)
    basis = []
    for fc in range(m):
        if fc not in pivots:
            v = [Fraction(0)] * m
            v[fc] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -R[r][fc]
            basis.append(v)
    return basis


@st.composite
def integer_matrices(draw):
    """Small int matrices, some with entries that are multiples of the
    certificate prime, so that the rank can drop mod p only; some with
    Fraction entries, which the certificate does not read."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.integers(-3, 3) | st.sampled_from((P, -P, 2 * P, 3 * P))
    if draw(st.booleans()):
        entry = entry | st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return [[draw(entry) for _ in range(m)] for _ in range(n)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(integer_matrices())
@example([[P]])
@example([[P, 0], [0, 1]])
@example([[1, P], [2, 0]])
@example([[P, 2 * P], [1, 2]])
@example([[0, 0, 0]])
def test_kernel_basis_over_q_matches_the_fraction_elimination(A):
    basis = linalg.kernel_basis(A, Q)
    assert basis == _kernel_by_fractions(A)
    assert all(type(x) is Fraction for v in basis for x in v)
    assert len(basis) == len(A[0]) - minor_rank(A, Q)


def test_kernel_certificate_falls_back_when_the_rank_drops_mod_p(monkeypatch):
    eliminated = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref",
                        lambda A, field: eliminated.append(A) or rref(A, field))
    # full column rank mod p: certified, no elimination
    assert linalg.kernel_basis([[2, 0], [1, 3], [0, 0]], Q) == []
    assert not eliminated
    # rank 2 over Q, 1 mod p: the Fraction elimination decides
    assert linalg.kernel_basis([[P, 0], [0, 1]], Q) == []
    assert eliminated
    assert linalg.kernel_basis([[P, P]], Q) == [[-1, 1]]
    assert not linalg._full_column_rank_mod_p([[P, 0], [0, 1]], 2)
    assert not linalg._full_column_rank_mod_p([[Fraction(1), 0], [0, 1]], 2)
