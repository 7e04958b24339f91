import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import matrix_commutator, scaled_matrix
from liemap import linalg
from liemap.chevalley import build_algebra
from liemap.matrixrep import (MatrixElement, MatrixRepError, char_invariants, char_poly,
                              dominance_witness_check, matrix_from_ints, matrix_from_json,
                              realize_chevalley, theta_separates, triples_from_json)
from liemap.fixtures import load_witness_triples
from liemap.rootsystem import RootSystemError
from liemap.scalar import FpElement, make_field

Q = make_field("Q")
F5 = make_field("F5")
F7 = make_field("F7")


def _rand_so5(rng, field):
    from liemap.matrixrep import _random_matrix
    return _random_matrix("so5", field, rng, 9)


def test_commutator_basics():
    # the integer commutator core that builds and checks the realizations
    X = matrix_from_ints("sl2", [[0, 1], [0, 0]], Q)
    Y = matrix_from_ints("sl2", [[0, 0], [1, 0]], Q)
    H = matrix_from_ints("sl2", [[1, 0], [0, -1]], Q)
    assert matrix_commutator(X, X).is_zero()
    assert matrix_commutator(X, Y) == H
    half = Fraction(1, 2)
    assert matrix_commutator(Y, scaled_matrix(X, half)) == scaled_matrix(H, -half)


def test_sl_trace_validation():
    with pytest.raises(MatrixRepError):
        matrix_from_ints("sl3", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], Q)


def test_so5_shape_validation_and_closure():
    rng = random.Random(17)
    # the fixtures themselves pass shape validation
    for key in ("paper-a2", "paper-b2"):
        load_witness_triples(key, Q)
    bad = [[1, 0, 0, 0, 0]] + [[0] * 5 for _ in range(4)]
    with pytest.raises(MatrixRepError):
        MatrixElement("so5", [[Q.residue(v) for v in r] for r in bad], Q)
    # one entry off the shape breaks exactly one block rule
    for (i, j), rule in (((0, 0), r"\(0,0\) entry"), ((1, 0), r"-c\^t block"),
                         ((3, 0), r"-b\^t block"), ((1, 3), "n block"),
                         ((2, 3), "n block"), ((3, 1), "p block"),
                         ((3, 2), "p block"), ((1, 1), r"-m\^t block")):
        rows = [[0] * 5 for _ in range(5)]
        rows[i][j] = 1
        with pytest.raises(MatrixRepError, match="so5 shape: " + rule):
            matrix_from_ints("so5", rows, Q)
    for realization, rows, message in (
            ("so5", [[0] * 5 for _ in range(4)], "not square"),
            ("so5", [[0] * 3 for _ in range(3)], "so5 elements are 5x5"),
            ("sl3", [[0, 0], [0, 0]], "size mismatch for sl3"),
            ("sl3", [[1, 0, 0], [0, 0, 0], [0, 0, 0]], r"sl\(3\) element must be traceless"),
            ("gl3", [[0] * 3 for _ in range(3)], "unknown realization")):
        with pytest.raises(MatrixRepError, match=message):
            matrix_from_ints(realization, rows, Q)
    for _ in range(100):
        X = _rand_so5(rng, Q)
        Y = _rand_so5(rng, Q)
        Z = matrix_commutator(X, Y)
        Z.validate()  # closed under the bracket


def test_char_invariants_sl3():
    D = matrix_from_ints("sl3", [[1, 0, 0], [0, 1, 0], [0, 0, -2]], Q)
    inv = char_invariants(D)
    assert (inv.f1, inv.f2) == (Fraction(-3), Fraction(2))
    assert (inv.deg_f1, inv.deg_f2) == (2, 3)
    D2 = matrix_from_ints("sl3", [[1, 0, 0], [0, -1, 0], [0, 0, 0]], Q)
    inv2 = char_invariants(D2)
    assert (inv2.f1, inv2.f2) == (Fraction(-1), Fraction(0))
    N = matrix_from_ints("sl3", [[0, 1, 0], [0, 0, 1], [0, 0, 0]], Q)
    invN = char_invariants(N)
    assert invN.f1 == 0 and invN.f2 == 0
    with pytest.raises(MatrixRepError):
        char_invariants(matrix_from_ints("sl2", [[0, 1], [0, 0]], Q))


def test_char_invariants_so5():
    rng = random.Random(4)
    X = _rand_so5(rng, Q)
    inv = char_invariants(X)
    assert (inv.deg_f1, inv.deg_f2) == (2, 4)
    # chi(-t) = -chi(t) for so5: checked by construction via vanishing coeffs


def test_char_poly_leaves_no_garbage_cycles():
    # the memo of minors is freed by reference counting when char_poly
    # returns, not left in a cycle for the cyclic collector
    X = _rand_so5(random.Random(4), Q)
    gc.collect()
    gc.disable()
    try:
        coeffs = char_poly(X)
        collected = gc.collect()
    finally:
        gc.enable()
    assert collected == 0
    assert len(coeffs) == 6 and coeffs[5] == 1


def test_invariant_homogeneity():
    # f1(lam X) = lam^2 f1(X); f2 scales by lam^(deg f2)
    rng = random.Random(6)
    from liemap.matrixrep import _random_matrix
    for realization, d2 in (("sl3", 3), ("so5", 4)):
        for _ in range(30):
            X = _random_matrix(realization, Q, rng, 7)
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            a = char_invariants(X)
            b = char_invariants(scaled_matrix(X, lam))
            assert b.f1 == lam ** 2 * a.f1
            assert b.f2 == lam ** d2 * a.f2


# sha256 of the so(5) images of the B2 Chevalley basis, recorded when the
# realization still searched eight generator sign assignments
B2_IMAGE_DIGESTS = {
    "Q": "5f505900f734917538c502aca1475cc573833e0c4fdd087cf1e03b81123333b1",
    "F3": "753f85d7a0c4add3939a26269065401498a9d32ab87e7596b2ad28fb435ece63",
    "F5": "6572da4c10a6d5f03146fc6e1ea80b8611171e6d58a9d1394bec70bba4ba9915",
    "F7": "32725f4a364a85daf57c7a5df8f59505bb464c8430da2091b68fe7c7c2e0e48c",
}


@pytest.mark.parametrize("name", sorted(B2_IMAGE_DIGESTS))
def test_b2_realization_images_are_pinned(name):
    import hashlib
    import json
    f = make_field(name)
    real = realize_chevalley(build_algebra("B", 2, f))
    text = json.dumps([[[f.format_scalar(x) for x in row] for row in B]
                       for B in real.images])
    assert real.tag == "so5"
    assert hashlib.sha256(text.encode()).hexdigest() == B2_IMAGE_DIGESTS[name]


def test_so5_shape_space_dimension_is_10():
    # the 10 realization images are independent and span every shaped matrix
    alg = build_algebra("B", 2, Q)
    real = realize_chevalley(alg)
    from liemap import linalg
    flat = [[real.images[k][i][j] for k in range(alg.dim)]
            for i in range(5) for j in range(5)]
    assert linalg.rank(flat, Q) == 10 == alg.dim
    rng = random.Random(9)
    for _ in range(25):
        X = _rand_so5(rng, Q)
        assert real.from_matrix(X) is not None  # solvable: X in the span


def test_theta_separates():
    D = matrix_from_ints("sl3", [[1, 0, 0], [0, 1, 0], [0, 0, -2]], Q)
    D2 = matrix_from_ints("sl3", [[1, 0, 0], [0, -1, 0], [0, 0, 0]], Q)
    assert theta_separates(D, D2) == "separated"
    assert char_invariants(D).theta_pair == (Fraction(-27), Fraction(4))
    assert char_invariants(D2).theta_pair == (Fraction(-1), Fraction(0))
    # scaling invariance (cone invariance of theta)
    assert theta_separates(D, scaled_matrix(D, 5)) == "equal"
    assert theta_separates(D2, scaled_matrix(D2, Fraction(-7, 3))) == "equal"
    # symmetric
    assert theta_separates(D2, D) == "separated"
    N = matrix_from_ints("sl3", [[0, 1, 0], [0, 0, 1], [0, 0, 0]], Q)
    assert theta_separates(N, D) == "undefined"
    with pytest.raises(MatrixRepError):
        theta_separates(matrix_from_ints("sl3", [[0] * 3] * 3, Q), D)


def test_theta_scaling_invariance_random():
    rng = random.Random(12)
    from liemap.matrixrep import _random_matrix
    for _ in range(50):
        X = _random_matrix("sl3", Q, rng, 8)
        Y = _random_matrix("sl3", Q, rng, 8)
        if X.is_zero() or Y.is_zero():
            continue
        base = theta_separates(X, Y)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert theta_separates(scaled_matrix(X, lam), Y) == base


def test_realize_sl2():
    alg = build_algebra("A", 1, Q)
    real = realize_chevalley(alg)
    h = real.to_matrix(alg.basis_element(0))
    e = real.to_matrix(alg.basis_element(1))
    f = real.to_matrix(alg.basis_element(2))
    assert e.rows == matrix_from_ints("sl2", [[0, 1], [0, 0]], Q).rows
    assert f.rows == matrix_from_ints("sl2", [[0, 0], [1, 0]], Q).rows
    assert h.rows == matrix_from_ints("sl2", [[1, 0], [0, -1]], Q).rows


def test_realize_constructions_verify():
    # Realization.__init__ checks every basis pair; reaching here means the
    # exhaustive bracket-vs-commutator sweep passed.
    realize_chevalley(build_algebra("A", 2, Q))
    realize_chevalley(build_algebra("B", 2, Q))
    realize_chevalley(build_algebra("A", 3, F5))
    realize_chevalley(build_algebra("B", 2, F7))
    # higher rank: 35^2 basis pairs against concrete 6x6 matrices
    realize_chevalley(build_algebra("A", 5, F7))
    with pytest.raises(MatrixRepError):
        realize_chevalley(build_algebra("G", 2, Q))
    # characteristic 2: type A realizes (every structure constant is +-1),
    # and B2 is refused when its root system is built
    f2 = make_field("F2")
    realize_chevalley(build_algebra("A", 2, f2))
    realize_chevalley(build_algebra("A", 3, f2))
    with pytest.raises(RootSystemError, match="characteristic 2"):
        build_algebra("B", 2, f2)


def _first_failing_pair(alg, images):
    """The Fraction loop that Realization._verify replaced: for each basis
    pair i < j in order, [phi(b_i), phi(b_j)] by _commutator against the
    combination of the images by the element bracket [b_i, b_j]."""
    from liemap.matrixrep import _commutator
    f = alg.field
    n = len(images[0])
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            lhs = _commutator(images[i], images[j], f)
            bij = alg.bracket(alg.basis_element(i), alg.basis_element(j))
            rhs = linalg.zero_matrix(f, n, n)
            for c, B in zip(bij.coeffs, images):
                for r in range(n):
                    for s in range(n):
                        rhs[r][s] = f.reduce(rhs[r][s] + c * B[r][s])
            if lhs != rhs:
                return i, j
    return None


@pytest.mark.parametrize("t,r", [("A", 2), ("A", 3), ("B", 2)])
@pytest.mark.parametrize("fs", ["Q", "F5", "F7"])
def test_realization_check_names_the_failing_pair(t, r, fs):
    from liemap.matrixrep import Realization
    f = make_field(fs)
    alg = build_algebra(t, r, f)
    real = realize_chevalley(alg)
    assert _first_failing_pair(alg, real.images) is None
    rng = random.Random(len(fs) * 10 + r)
    n = real.n
    for _ in range(6):
        images = [[list(row) for row in B] for B in real.images]
        k, a, b = rng.randrange(alg.dim), rng.randrange(n), rng.randrange(n)
        delta = f.residue(rng.choice((1, -1, 2, Fraction(1, 3))))
        images[k][a][b] = f.reduce(images[k][a][b] + delta)
        pair = _first_failing_pair(alg, images)
        assert pair is not None
        with pytest.raises(MatrixRepError,
                           match=r"realization fails on basis pair \(%d, %d\)$" % pair):
            Realization(alg, real.tag, images)


def test_realization_images_must_be_independent():
    # the zero map respects every bracket, but is no isomorphism: coordinates
    # could not be read back off it
    from liemap.matrixrep import Realization
    alg = build_algebra("A", 2, F5)
    with pytest.raises(MatrixRepError, match="linearly dependent"):
        Realization(alg, "sl3", [linalg.zero_matrix(F5, 3, 3)] * alg.dim)


def test_realize_round_trip():
    alg = build_algebra("A", 2, F5)
    real = realize_chevalley(alg)
    rng = random.Random(8)
    from helpers import random_element
    for _ in range(30):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        assert real.from_matrix(real.to_matrix(x)) == x
        assert real.to_matrix(alg.bracket(x, y)) == \
            matrix_commutator(real.to_matrix(x), real.to_matrix(y))
    # a matrix outside the image is refused: every entry is checked, not
    # only the entries the coordinates are read from
    for rows in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 0], [0, 0, 0], [0, 0, 1]]):
        with pytest.raises(MatrixRepError, match="outside the realized subalgebra"):
            real.from_matrix(matrix_from_ints("sl3", rows, F5, validate=False))
    so5 = realize_chevalley(build_algebra("B", 2, F5))
    for i, j in ((0, 0), (1, 0), (1, 3), (4, 4)):
        rows = [[0] * 5 for _ in range(5)]
        rows[i][j] = 1
        with pytest.raises(MatrixRepError, match="outside the realized subalgebra"):
            so5.from_matrix(matrix_from_ints("so5", rows, F5, validate=False))


def test_sum_node_evaluates_on_matrices():
    # the witness check's sl(3) value of a polynomial with a Sum node is the
    # image of its value in the Chevalley basis, and the element walk's
    from helpers import random_element
    from liemap.freelie import evaluate, parse
    alg = build_algebra("A", 2, Q)
    real = realize_chevalley(alg)
    P = parse("[X1,X2] - 2*[[X1,X2],X1]")
    rng = random.Random(12)
    for _ in range(10):
        xs, ys = ([random_element(alg, rng) for _ in range(2)] for _ in range(2))
        t1, t2 = [real.to_matrix(x) for x in xs], [real.to_matrix(y) for y in ys]
        verdict = dominance_witness_check(P, t1, t2)
        assert verdict.value1 == real.to_matrix(evaluate(P, xs)) == _element_walk(P, t1)
        assert verdict.value2 == real.to_matrix(evaluate(P, ys)) == _element_walk(P, t2)


def test_conjugation_invariance_sl3():
    rng = random.Random(100)
    from liemap.matrixrep import _random_matrix
    for _ in range(100):
        X = _random_matrix("sl3", Q, rng, 6)
        g = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        ginv = linalg.invert_matrix(g, Q)
        if ginv is None:
            continue
        rows = linalg.mat_mul(linalg.mat_mul(g, [list(r) for r in X.rows], Q), ginv, Q)
        Y = MatrixElement("sl3", rows, Q, validate=False)
        a, b = char_invariants(X), char_invariants(Y)
        assert (a.f1, a.f2) == (b.f1, b.f2)


def test_conjugation_invariance_so5_via_automorphisms():
    # conjugations induced by root automorphisms, transported through the
    # so5 realization
    alg = build_algebra("B", 2, Q)
    real = realize_chevalley(alg)
    rng = random.Random(200)
    roots = alg.rs.roots
    for _ in range(100):
        X = _rand_so5(rng, Q)
        g = alg.root_automorphism(roots[rng.randrange(len(roots))],
                                  Fraction(rng.randint(-3, 3)))
        Y = real.to_matrix(g.apply(real.from_matrix(X)))
        Y.validate()
        a, b = char_invariants(X), char_invariants(Y)
        assert (a.f1, a.f2) == (b.f1, b.f2)


def test_matrix_json_round_trip():
    X = matrix_from_ints("sl3", [[3, 1, 0], [1, -1, 1], [0, 1, -2]], Q)
    assert matrix_from_json(X.to_json(), Q) == X


# -- the integer-row paths against the field-scalar oracles ---------------------


def _scalar(field, x):
    """The oracles' scalar for the residue x: an FpElement over F_p, the
    Fraction itself over Q."""
    return FpElement(x, field.modulus) if field.characteristic else x


def _scalar_rows(X):
    return [[_scalar(X.field, x) for x in r] for r in X.rows]


def _scalar_commutator(X, Y):
    """AB - BA by the schoolbook product in FpElement (over Q Fraction)
    arithmetic, read back as residues."""
    f = X.field
    n, z = len(X.rows), _scalar(f, f.residue(0))
    A, B = _scalar_rows(X), _scalar_rows(Y)

    def prod(A, B, i, j):
        return sum((A[i][k] * B[k][j] for k in range(n)), z)

    return MatrixElement(X.realization, [[f.residue(prod(A, B, i, j) - prod(B, A, i, j))
                                          for j in range(n)] for i in range(n)],
                         f, validate=False)


def _element_walk(P, xs):
    """P on matrices by the schoolbook commutator and entrywise linear
    combinations of residues."""
    from liemap.freelie import walk
    f, n = xs[0].field, len(xs[0].rows)

    def combine(terms):
        rows = [[f.residue(0)] * n for _ in range(n)]
        for c, v in terms:
            c = f.residue(c)
            rows = [[f.reduce(a + c * b) for a, b in zip(r, vr)]
                    for r, vr in zip(rows, v.rows)]
        return MatrixElement(xs[0].realization, rows, f, validate=False)

    return walk(P.node, xs, _scalar_commutator, combine, {})


def _scalar_char_poly(X):
    """det(tI - X) by Laplace expansion along the first row, in FpElement
    (over Q Fraction) arithmetic, low degree first."""
    f = X.field
    zero, one = _scalar(f, f.residue(0)), _scalar(f, f.residue(1))

    def mul(p, q):
        out = [zero] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] = out[i + j] + a * b
        return out

    def det(M):
        if not M:
            return [one]
        acc = [zero] * (len(M) + 1)
        for j, entry in enumerate(M[0]):
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            for k, c in enumerate(mul(entry, det(minor))):
                acc[k] = acc[k] - c if j % 2 else acc[k] + c
        return acc

    n, R = len(X.rows), _scalar_rows(X)
    return det([[[-R[i][j], one] if i == j else [-R[i][j]]
                 for j in range(n)] for i in range(n)])


def _random_realized(alg, rng, count):
    """count matrices of alg's realization from random coefficients: over Q
    rationals with assorted denominators, over F_p all residues."""
    real = realize_chevalley(alg)
    f = alg.field
    out = []
    for _ in range(count):
        if f.characteristic:
            coeffs = [rng.randrange(f.modulus) for _ in range(alg.dim)]
        else:
            coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 6)))
                      for _ in range(alg.dim)]
        out.append(real.to_matrix(alg.element(coeffs)))
    return out


ORACLE_ALGEBRAS = [(t, r, f) for t, r in (("A", 2), ("A", 3), ("B", 2))
                   for f in ("Q", "F5", "F7")]


@pytest.mark.parametrize("t,r,fs", ORACLE_ALGEBRAS,
                         ids=["%s%d-%s" % c for c in ORACLE_ALGEBRAS])
def test_matrix_evaluation_matches_the_element_walk(t, r, fs):
    # evaluation in Chevalley coordinates, read in and mapped back through
    # the realization, against the schoolbook walk on the matrices; the
    # witness check does exactly this for sl3 and so5 and refuses sl4
    from liemap.fixtures import load_poly
    from liemap.freelie import engel_monomial, evaluate, parse
    alg = build_algebra(t, r, make_field(fs))
    real = realize_chevalley(alg)
    polys = [load_poly("razmyslov_bracket"), engel_monomial(3),
             parse("1/2*[X1,X2] - 3/4*[[X1,X2],X3] + 5/3*X3 + [[X3,X1],X1]")]
    rng = random.Random("%s%d/%s" % (t, r, fs))
    for _ in range(6):
        xs = _random_realized(alg, rng, 3)
        X, Y = xs[:2]
        assert matrix_commutator(X, Y) == _scalar_commutator(X, Y)
        for P in polys:
            args = xs[:P.nvars]
            value = real.to_matrix(evaluate(P, [real.from_matrix(M) for M in args]))
            assert value == _element_walk(P, args)
            assert value.realization == X.realization and value.field == X.field
            for row in value.rows:
                for x in row:
                    assert type(x) is type(alg.field.residue(1))
            if real.tag == "sl4":
                with pytest.raises(MatrixRepError, match="sl3 or so5 matrices, not sl4"):
                    dominance_witness_check(P, args, args)
            else:
                assert dominance_witness_check(P, args, args).value1 == value


@pytest.mark.parametrize("t,r,fs", ORACLE_ALGEBRAS,
                         ids=["%s%d-%s" % c for c in ORACLE_ALGEBRAS])
def test_char_poly_matches_the_scalar_laplace_expansion(t, r, fs):
    alg = build_algebra(t, r, make_field(fs))
    one = alg.field.residue(1)
    rng = random.Random(31)
    for X in _random_realized(alg, rng, 12) + [realize_chevalley(alg).to_matrix(alg.zero())]:
        coeffs = char_poly(X)
        assert coeffs == [alg.field.residue(c) for c in _scalar_char_poly(X)]
        assert all(type(c) is type(one) for c in coeffs) and coeffs[-1] == one


def _residues_of(field, xs):
    """xs is a list of residues of the field: ints in [0, p) over F_p,
    Fractions over Q."""
    if field.characteristic:
        return all(type(x) is int and 0 <= x < field.modulus for x in xs)
    return all(type(x) is Fraction for x in xs)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(("sl3", "so5")), st.sampled_from((5, 7, 11)),
       st.sampled_from(("generic", "scaled", "nilpotent")), st.data())
def test_invariants_match_the_fp_element_laplace_expansion(realization, p, kind, data):
    # char_poly, char_invariants and theta_separates on residue rows against
    # _scalar_char_poly, the Laplace expansion in FpElement arithmetic, and
    # theta's cross-product test in the same arithmetic
    f = make_field("F%d" % p)
    alg = build_algebra(*(("A", 2) if realization == "sl3" else ("B", 2)), f)
    real = realize_chevalley(alg)
    free = range(alg.dim) if kind != "nilpotent" else \
        range(alg.rank, alg.rank + len(alg.rs.positive_roots))
    coeffs = st.lists(st.integers(0, p - 1), min_size=len(free), max_size=len(free))

    def draw():
        c = [0] * alg.dim
        for k, v in zip(free, data.draw(coeffs)):
            c[k] = v
        return real.to_matrix(alg.element(c))

    X = draw()
    Y = scaled_matrix(X, data.draw(st.integers(1, p - 1))) if kind == "scaled" else draw()
    pairs = []
    for M in (X, Y):
        assert _residues_of(f, [x for r in M.rows for x in r])
        oracle = _scalar_char_poly(M)
        coeffs_ = char_poly(M)
        assert _residues_of(f, coeffs_) and coeffs_ == [f.residue(c) for c in oracle]
        f1, f2, m1, m2 = ((oracle[1], oracle[0], 3, 2) if realization == "sl3"
                          else (oracle[3], oracle[1], 4, 2))
        inv = char_invariants(M)
        assert _residues_of(f, [inv.f1, inv.f2])
        assert (inv.f1, inv.f2) == (f.residue(f1), f.residue(f2))
        pairs.append((f1 ** m1, f2 ** m2))
        assert _residues_of(f, inv.theta_pair)
        assert inv.theta_pair == tuple(f.residue(x) for x in pairs[-1])
    if X.is_zero() or Y.is_zero():
        with pytest.raises(MatrixRepError, match="zero matrix"):
            theta_separates(X, Y)
        return
    (x1, y1), (x2, y2) = pairs
    if (not x1 and not y1) or (not x2 and not y2):
        expected = "undefined"
    else:
        expected = "separated" if x1 * y2 != x2 * y1 else "equal"
    assert theta_separates(X, Y) == expected


@pytest.mark.parametrize("fs", ["Q", "F7"])
@pytest.mark.parametrize("realization", ["sl3", "so5"])
def test_random_matrices_hold_their_shape(realization, fs):
    # the witness search builds its matrices without validating them: the
    # shape holds by construction, over both entry spans
    from liemap.matrixrep import _random_matrix
    f = make_field(fs)
    rng = random.Random(realization + fs)
    for i in range(200):
        X = _random_matrix(realization, f, rng, 10 if i < 100 else 100)
        X.validate()
        assert _residues_of(f, [x for r in X.rows for x in r])


def test_evaluate_rejects_mixed_realizations_and_fields():
    # every matrix of both triples carries the first one's realization and
    # field, in either triple
    from liemap.freelie import parse
    P = parse("[X1,X2]")
    rng = random.Random(3)
    sl3_q, = _random_realized(build_algebra("A", 2, Q), rng, 1)
    sl3_f5, = _random_realized(build_algebra("A", 2, F5), rng, 1)
    so5_q, = _random_realized(build_algebra("B", 2, Q), rng, 1)
    element = build_algebra("A", 2, Q).basis_element(3)
    for xs in ([sl3_q, so5_q], [sl3_q, sl3_f5], [sl3_f5, sl3_q], [sl3_q, element],
               [element, sl3_q]):
        for t1, t2 in ((xs, [sl3_q, sl3_q]), ([sl3_q, sl3_q], xs)):
            with pytest.raises(MatrixRepError, match="realization/shape mismatch"):
                dominance_witness_check(P, t1, t2)
    # the whole assignment is checked, used by P or not
    with pytest.raises(MatrixRepError, match="realization/shape mismatch"):
        dominance_witness_check(parse("[X1,X2]", nvars=3), [sl3_q] * 3,
                                [sl3_q, sl3_q, so5_q])


def test_witness_document_names_its_matrices_realization():
    # a document whose top-level realization is not its matrices' is refused,
    # so a verdict on sl3 values is never printed under "so5"
    import json
    from liemap.fixtures import WITNESS_FIXTURES, fixture_text
    for key, other in (("paper-a2", "so5"), ("paper-b2", "sl3")):
        doc = json.loads(fixture_text(WITNESS_FIXTURES[key]))
        assert triples_from_json(doc, Q)[0] != other
        with pytest.raises(MatrixRepError,
                           match="realization %s is not its matrices'" % other):
            triples_from_json(dict(doc, realization=other), Q)
