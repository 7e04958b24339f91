import gc
import random
from fractions import Fraction

import pytest

from liemap import linalg
from liemap.chevalley import build_algebra
from liemap.matrixrep import (MatrixElement, MatrixRepError, char_invariants, char_poly,
                              commutator, matrix_from_ints, matrix_from_json,
                              realize_chevalley, theta_separates)
from liemap.fixtures import load_witness_triples
from liemap.scalar import make_field

Q = make_field("Q")
F5 = make_field("F5")
F7 = make_field("F7")


def _rand_so5(rng, field):
    from liemap.matrixrep import _random_matrix
    return _random_matrix("so5", field, rng, 9)


def test_commutator_basics():
    X = matrix_from_ints("sl2", [[0, 1], [0, 0]], Q)
    Y = matrix_from_ints("sl2", [[0, 0], [1, 0]], Q)
    H = matrix_from_ints("sl2", [[1, 0], [0, -1]], Q)
    assert commutator(X, X).is_zero()
    assert commutator(X, Y) == H
    with pytest.raises(MatrixRepError):
        commutator(X, matrix_from_ints("sl3", [[0, 1, 0], [0, 0, 0], [0, 0, 0]], Q))


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
        MatrixElement("so5", [[Q.from_int(v) for v in r] for r in bad], Q)
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
        Z = commutator(X, Y)
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
            b = char_invariants(X.scale_rational(lam))
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
    text = json.dumps([[[f.format_scalar(f.lift(x)) for x in row] for row in B]
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
    assert theta_separates(D, D.scale_rational(5)) == "equal"
    assert theta_separates(D2, D2.scale_rational(Fraction(-7, 3))) == "equal"
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
        assert theta_separates(X.scale_rational(lam), Y) == base


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
    f2 = make_field("F2")
    with pytest.raises(MatrixRepError):
        realize_chevalley(build_algebra("A", 2, f2))


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
            commutator(real.to_matrix(x), real.to_matrix(y))


def test_sum_node_evaluates_on_matrices():
    # a Sum node adds and scales matrices: the sl(3) value is the image of
    # the value in the Chevalley basis
    from helpers import random_element
    from liemap.freelie import evaluate, parse
    alg = build_algebra("A", 2, Q)
    real = realize_chevalley(alg)
    P = parse("[X1,X2] - 2*[[X1,X2],X1]")
    rng = random.Random(12)
    for _ in range(10):
        xs = [random_element(alg, rng) for _ in range(2)]
        X, Y = [real.to_matrix(x) for x in xs]
        assert evaluate(P, [X, Y]) == real.to_matrix(evaluate(P, xs))
        assert X - Y == X + (-Y) == real.to_matrix(xs[0] - xs[1])
        assert -X == real.to_matrix(-xs[0])


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


def _scalar_commutator(X, Y):
    """AB - BA by the schoolbook product on the field's public scalars."""
    n, z = len(X.rows), X.field.zero()
    A, B = X.rows, Y.rows

    def prod(A, B, i, j):
        return sum((A[i][k] * B[k][j] for k in range(n)), z)

    return MatrixElement(X.realization, [[prod(A, B, i, j) - prod(B, A, i, j)
                                          for j in range(n)] for i in range(n)],
                         X.field, validate=False)


def _element_walk(P, xs):
    """P on matrices by the element protocol: the schoolbook commutator,
    + and scale_rational."""
    from liemap.freelie import walk

    def combine(terms):
        if not terms:
            return xs[0].scale_rational(0)
        values = [v if c == 1 else v.scale_rational(c) for c, v in terms]
        return sum(values[1:], values[0])

    return walk(P.node, xs, _scalar_commutator, combine, {})


def _scalar_char_poly(X):
    """det(tI - X) by Laplace expansion along the first row, on the field's
    public scalars, low degree first."""
    f = X.field
    zero, one = f.zero(), f.one()

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

    n = len(X.rows)
    return det([[[-X.rows[i][j], one] if i == j else [-X.rows[i][j]]
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
    from liemap.fixtures import load_poly
    from liemap.freelie import engel_monomial, evaluate, parse
    alg = build_algebra(t, r, make_field(fs))
    polys = [load_poly("razmyslov_bracket"), engel_monomial(3),
             parse("1/2*[X1,X2] - 3/4*[[X1,X2],X3] + 5/3*X3 + [[X3,X1],X1]")]
    rng = random.Random("%s%d/%s" % (t, r, fs))
    for _ in range(6):
        xs = _random_realized(alg, rng, 3)
        X, Y = xs[:2]
        assert commutator(X, Y) == _scalar_commutator(X, Y)
        for P in polys:
            args = xs[:P.nvars]
            value = evaluate(P, args)
            assert value == _element_walk(P, args)
            assert value.realization == X.realization and value.field == X.field
            for row in value.rows:
                for x in row:
                    assert type(x) is type(alg.field.one())


@pytest.mark.parametrize("t,r,fs", ORACLE_ALGEBRAS,
                         ids=["%s%d-%s" % c for c in ORACLE_ALGEBRAS])
def test_char_poly_matches_the_scalar_laplace_expansion(t, r, fs):
    alg = build_algebra(t, r, make_field(fs))
    one = alg.field.one()
    rng = random.Random(31)
    for X in _random_realized(alg, rng, 12) + [realize_chevalley(alg).to_matrix(alg.zero())]:
        coeffs = char_poly(X)
        assert coeffs == _scalar_char_poly(X)
        assert all(type(c) is type(one) for c in coeffs) and coeffs[-1] == one


def test_evaluate_rejects_mixed_realizations_and_fields():
    from liemap.freelie import evaluate, parse
    P = parse("[X1,X2]")
    rng = random.Random(3)
    sl3_q, = _random_realized(build_algebra("A", 2, Q), rng, 1)
    sl3_f5, = _random_realized(build_algebra("A", 2, F5), rng, 1)
    so5_q, = _random_realized(build_algebra("B", 2, Q), rng, 1)
    element = build_algebra("A", 2, Q).basis_element(3)
    for xs in ([sl3_q, so5_q], [sl3_q, sl3_f5], [sl3_f5, sl3_q], [sl3_q, element]):
        with pytest.raises(MatrixRepError, match="realization/shape mismatch"):
            evaluate(P, xs)
    # the whole assignment is checked, used by P or not
    with pytest.raises(MatrixRepError, match="realization/shape mismatch"):
        evaluate(parse("[X1,X2]", nvars=3), [sl3_q, sl3_q, so5_q])
