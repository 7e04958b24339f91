import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from helpers import (random_element, random_nonzero_element,
                     similarity_conjugator)
from liemap import linalg
from liemap.chevalley import (CentralElementError, ChevalleyError,
                              ConjugationBudgetError,
                              ConjugationUnsupportedError, FieldTooSmallError,
                              _validate_jacobi, build_algebra)
from liemap.matrixrep import matrix_from_ints, realize_chevalley
from liemap.scalar import make_field

Q = make_field("Q")
F3 = make_field("F3")
F5 = make_field("F5")
F7 = make_field("F7")


def test_sl2_relations():
    alg = build_algebra("A", 1, Q)
    h, e, f = (alg.basis_element(i) for i in range(3))
    assert alg.bracket(e, f) == h
    assert alg.bracket(h, e) == e.scale_rational(2)
    assert alg.bracket(h, f) == f.scale_rational(-2)


def test_relation_1_and_3():
    alg = build_algebra("A", 2, F5)
    for i, s in enumerate(alg.rs.simple_roots):
        e = alg.e_element(s.coords)
        f = alg.e_element(tuple(-c for c in s.coords))
        assert alg.bracket(e, f) == alg.h_element(i)
    for i in range(alg.rank):
        for j in range(alg.rank):
            assert alg.bracket(alg.h_element(i), alg.h_element(j)).is_zero()


def test_relation_5_nonroot_sum():
    alg = build_algebra("A", 2, Q)
    # alpha_1 + (alpha_1 + alpha_2) = 2a1 + a2 is not a root
    x = alg.e_element((1, 0))
    y = alg.e_element((1, 1))
    assert alg.bracket(x, y).is_zero()


def test_q_and_n_ranges():
    for t, r, field in [("A", 2, F5), ("G", 2, Q), ("B", 2, Q), ("C", 3, F7)]:
        alg = build_algebra(t, r, field)
        assert set(alg.q_table.values()) <= {0, 1, -1, 2, -2, 3, -3}
        assert set(alg.n_table.values()) <= {1, -1, 2, -2, 3, -3}
    assert set(build_algebra("A", 2, F5).q_table.values()) <= {0, 1, -1, 2, -2}
    g2 = build_algebra("G", 2, Q)
    assert 3 in {abs(n) for n in g2.n_table.values()}


def test_n_matches_root_strings():
    for t, r in [("A", 3), ("B", 2), ("G", 2)]:
        alg = build_algebra(t, r, Q)
        rs = alg.rs
        for (a, b), n in alg.n_table.items():
            p = rs.chain_down_length(rs.root(a), rs.root(b))
            assert abs(n) == p + 1


def test_h_beta_integral():
    alg = build_algebra("G", 2, Q)
    for b in alg.rs.positive_roots:
        e = alg.e_element(b.coords)
        f = alg.e_element(tuple(-c for c in b.coords))
        hb = alg.bracket(e, f)
        assert not any(hb.coeffs[alg.rank:])
        for c in hb.h_part:
            assert Fraction(c).denominator == 1


def test_antisymmetry_basis_pairs():
    alg = build_algebra("B", 2, F7)
    for i in range(alg.dim):
        for j in range(alg.dim):
            x, y = alg.basis_element(i), alg.basis_element(j)
            assert alg.bracket(x, y) == -alg.bracket(y, x)


def test_ad_matrix():
    alg = build_algebra("A", 2, Q)
    zero = alg.zero()
    assert all(not any(row) for row in alg.ad_matrix(zero))
    # ad of a Cartan element is diagonal with root values
    h = alg.h_element(0)
    M = alg.ad_matrix(h)
    for i in range(alg.dim):
        for j in range(alg.dim):
            if i != j:
                assert not M[i][j]
    for k in range(alg.rank, alg.dim):
        beta = alg.basis[k][1]
        assert M[k][k] == alg.beta_value(beta, h)
    # ad of a root vector is nilpotent of index <= 5
    from liemap import linalg
    A = alg.ad_matrix(alg.e_element((1, 0)))
    P = linalg.identity_matrix(alg.field, alg.dim)
    for _ in range(5):
        P = linalg.mat_mul(P, A, alg.field)
    assert not any(any(row) for row in P)


def test_ad_matrix_is_the_bracket_columns():
    # ad_matrix reads bracket_table directly; column j must be [x, b_j]
    rng = random.Random(17)
    for t_, r, field in (("A", 2, F3), ("A", 3, make_field("F2")),
                         ("B", 2, F5), ("G", 2, Q)):
        alg = build_algebra(t_, r, field)
        for x in [alg.zero()] + [random_element(alg, rng) for _ in range(4)]:
            cols = [alg.bracket(x, alg.basis_element(j)).coeffs
                    for j in range(alg.dim)]
            assert alg.ad_matrix(x) == [list(row) for row in zip(*cols)]


def test_center_examples():
    assert build_algebra("A", 1, F5).center() == []
    assert build_algebra("A", 2, Q).center() == []
    zc = build_algebra("A", 2, F3).center()
    assert len(zc) == 1
    alg = build_algebra("A", 2, F3)
    z = zc[0]
    for i in range(alg.dim):
        assert alg.bracket(z, alg.basis_element(i)).is_zero()
    assert alg.is_central(z) and alg.is_central(alg.zero())
    assert not alg.is_central(alg.h_element(0))


def test_find_regular():
    algq = build_algebra("A", 2, Q)
    h = algq.find_regular([Q.zero()])
    for b in algq.rs.roots:
        assert algq.beta_value(b.coords, h) != Q.zero()
    alg5 = build_algebra("A", 2, F5)
    h5 = alg5.find_regular([F5.zero()])
    for b in alg5.rs.roots:
        assert h5.alg.beta_value(b.coords, h5)
    f2 = make_field("F2")
    alg2 = build_algebra("A", 2, f2)
    with pytest.raises(FieldTooSmallError):
        alg2.find_regular([f2.zero()])
    # avoiding {0, 1} over F7 on A2 succeeds even though 7 <= 2*|R| = 12
    alg7 = build_algebra("A", 2, F7)
    h7 = alg7.find_regular([F7.zero(), F7.one()])
    for b in alg7.rs.roots:
        v = alg7.beta_value(b.coords, h7)
        assert v != F7.zero() and v != F7.one()


def _product_search(alg, avoid):
    """The point find_regular returns, by walking points in lex order: over
    F_p all of F_p^rank, over Q the points of [0, b]^rank with some
    coordinate equal to b, for b = 0, 1, ..; None if F_p^rank has none."""
    f = alg.field
    bad = {f.residue(v) for v in avoid}
    bad |= {f.reduce(-v) for v in bad}
    rows = [alg.rs.h_values[b.coords] for b in alg.rs.positive_roots]
    boxes = [f.modulus - 1] if f.characteristic else range(100)
    for top in boxes:
        for ts in itertools.product(range(top + 1), repeat=alg.rank):
            if (f.characteristic or max(ts) == top) and all(
                    f.reduce(sum(t * q for t, q in zip(ts, row))) not in bad for row in rows):
                return list(ts)
    return None


@pytest.mark.parametrize("t,r,fs", [("A", 3, "F5"), ("B", 2, "F5"), ("C", 3, "F7"),
                                    ("D", 4, "F7"), ("G", 2, "F7"), ("A", 2, "F3"),
                                    ("B", 2, "F3"), ("G", 2, "F3"), ("A", 3, "Q"),
                                    ("B", 3, "Q"), ("C", 3, "Q"), ("D", 4, "Q"),
                                    ("G", 2, "Q")])
def test_find_regular_is_the_lex_least_regular_point(t, r, fs):
    # the depth-first search returns the point the walk in lex order meets
    # first, and over F_p runs out exactly when the walk does
    f = make_field(fs)
    alg = build_algebra(t, r, f)
    p = f.characteristic
    avoids = [[0], [1], [0, 1], [2, 3], [1, -1]]
    avoids += [list(range(p - 2)), list(range(p))] if p else [[0, 1, 2, 3]]
    for avoid in avoids:
        expected = _product_search(alg, avoid)
        if expected is None:
            with pytest.raises((FieldTooSmallError, AssertionError)):
                alg.find_regular(avoid)
        else:
            h = alg.find_regular(avoid)
            assert list(h.coeffs) == expected + [0] * (alg.dim - r)


def test_find_regular_on_a8_over_q_answers_at_once():
    # the walk over the boxes [0, b]^8 visits more than 8^8 points first
    alg = build_algebra("A", 8, Q)
    start = time.perf_counter()
    h = alg.find_regular([0, 1])
    assert time.perf_counter() - start < 5
    assert list(h.coeffs[:8]) == [0, 2, 0, 4, 0, 6, 0, 8]


def test_root_automorphism_basics():
    alg = build_algebra("A", 2, Q)
    b = alg.rs.simple_roots[0]
    g0 = alg.root_automorphism(b, 0)
    x = alg.element_from_ints([1, 2, 3, 4, 5, 6, 7, 8])
    assert g0.apply(x) == x
    g = alg.root_automorphism(b, Fraction(3, 2))
    # x_beta(t)(h) = h - t beta(h) e_beta
    h = alg.h_element(1)
    expected = h + alg.e_element(b.coords).scale_rational(Fraction(3, 2))
    assert g.apply(h) == expected
    # e_beta is fixed
    assert g.apply(alg.e_element(b.coords)) == alg.e_element(b.coords)
    # the divided powers are integral, so characteristic 2 and 3 work too
    for field in (F3, make_field("F2")):
        alg_p = build_algebra("A", 2, field)
        g = alg_p.root_automorphism(b, 1)
        assert g.apply(alg_p.h_element(1)) == \
            alg_p.h_element(1) + alg_p.e_element(b.coords)
        assert linalg.mat_mul(g.res_inv_matrix, g.res_matrix, field) == \
            linalg.identity_matrix(field, alg_p.dim)


def _dense_exponential(alg, A, t):
    """Oracle: sum_k t^k A^k / k! by dense matrix powers (on residues)."""
    f = alg.field
    A = [[f.residue(x) for x in row] for row in A]
    M = linalg.identity_matrix(f, alg.dim)
    P = linalg.identity_matrix(f, alg.dim)
    fact = 1
    for k in range(1, alg.dim + 1):
        P = linalg.mat_mul(P, A, f)
        if not any(any(row) for row in P):
            return [[f.lift(x) for x in row] for row in M]
        fact *= k
        c = f.residue(t ** k / f.from_int(fact))
        M = [f.reduce_row([m + c * a for m, a in zip(Mr, Pr)]) for Mr, Pr in zip(M, P)]
    raise AssertionError("ad e_beta is not nilpotent")


def test_root_automorphism_matches_dense_series():
    # where k! is invertible, against the dense series in the field itself
    for t_, r, field, ts in (("B", 2, F5, (1, 2, 4)), ("G", 2, F7, (1, 2, 6)),
                             ("B", 2, Q, (1, 2, -1, Fraction(1, 2))),
                             ("G", 2, Q, (1, 2, -1, Fraction(-3, 2)))):
        alg = build_algebra(t_, r, field)
        eye = linalg.identity_matrix(field, alg.dim)
        for b in alg.rs.roots:
            A = alg.ad_matrix(alg.e_element(b.coords))
            for tv in ts:
                t = field.from_rational(Fraction(tv))
                g = alg.root_automorphism(b, t)
                assert g.matrix == _dense_exponential(alg, A, t)
                assert g.inv_matrix == _dense_exponential(alg, A, -t)
                assert linalg.mat_mul(g.res_inv_matrix, g.res_matrix, field) == eye
                assert g.factors == (("root", b.coords, t),)
    # in characteristic 2 and 3, for every t in F_p, against the Q series at
    # the integer t, which is integral (Kostant's Z-form), reduced mod p
    for t_, r, spec in (("A", 3, "F2"), ("B", 2, "F3"), ("G", 2, "F2"), ("G", 2, "F3")):
        field = make_field(spec)
        alg = build_algebra(t_, r, field)
        p = field.modulus
        for b in alg.rs.roots:
            for tv in range(p):
                g = alg.root_automorphism(b, tv)
                assert g.res_matrix == _integral_series(t_, r, b.coords, tv, p)
                assert g.res_inv_matrix == _integral_series(t_, r, b.coords, -tv, p)


def _dense_word(alg, word):
    """Oracle: x_{b_k}(t_k) .. x_{b_1}(t_1) for the word ((b_1, t_1), ..) as
    the product of its letters' dense series, in residues."""
    f = alg.field
    M = linalg.identity_matrix(f, alg.dim)
    for coords, t in word:
        E = _dense_exponential(alg, alg.ad_matrix(alg.e_element(coords)), t)
        M = linalg.mat_mul([[f.residue(x) for x in row] for row in E], M, f)
    return M


@pytest.mark.parametrize("type_label,rank,spec", [
    ("B", 2, "F5"), ("G", 2, "F7"), ("A", 3, "F3")])
def test_word_matrices_match_dense_series(type_label, rank, spec):
    # an automorphism is its root-element word: the matrix derived from the
    # word is the product of the letters' dense series, and the matrix of
    # the inverse word inverts it
    field = make_field(spec)
    alg = build_algebra(type_label, rank, field)
    eye = linalg.identity_matrix(field, alg.dim)
    roots, p = alg.rs.roots, field.modulus
    rng = random.Random(23)
    for length in (0, 1, 2, 5, 8):
        word = [(roots[rng.randrange(len(roots))].coords,
                 field.from_int(rng.randrange(1, p))) for _ in range(length)]
        g = alg.identity_automorphism()
        for coords, t in word:
            g = alg.root_automorphism(coords, t).compose(g)
        assert g.factors == tuple(("root", c, t) for c, t in word)
        assert g.res_matrix == _dense_word(alg, word)
        assert linalg.mat_mul(g.res_inv_matrix, g.res_matrix, field) == eye
        x = random_element(alg, rng)
        assert g.apply(x).coeffs == tuple(linalg.mat_vec(g.res_matrix, x.coeffs, field))
        assert g.inverse().apply(g.apply(x)) == x


def _integral_series(type_label, rank, coords, t, p):
    """Oracle: sum_k t^k ad(e_beta)^k / k! by dense matrix powers on the Q
    algebra of the same type, each entry checked integral and reduced mod p."""
    alg = build_algebra(type_label, rank, Q)
    A = alg.ad_matrix(alg.e_element(coords))
    M = linalg.identity_matrix(Q, alg.dim)
    P = linalg.identity_matrix(Q, alg.dim)
    for k in range(1, alg.dim + 1):
        P = linalg.mat_mul(P, A, Q)
        if not any(any(row) for row in P):
            break
        c = Fraction(t) ** k / math.factorial(k)
        M = [[m + c * a for m, a in zip(Mr, Pr)] for Mr, Pr in zip(M, P)]
    assert all(x.denominator == 1 for row in M for x in row)
    return [[int(x) % p for x in row] for row in M]


@pytest.mark.parametrize("type_label,rank,spec", [
    ("A", 2, "F3"), ("A", 3, "F2"), ("B", 2, "F3"), ("G", 2, "F2"), ("G", 2, "F3")])
def test_root_automorphism_small_characteristic(type_label, rank, spec):
    field = make_field(spec)
    alg = build_algebra(type_label, rank, field)
    p = field.modulus
    eye = linalg.identity_matrix(field, alg.dim)
    basis = [alg.basis_element(i) for i in range(alg.dim)]
    for b in alg.rs.roots:
        for t in sorted({1, p - 1}):
            g = alg.root_automorphism(b, t)
            assert g.res_matrix == _integral_series(type_label, rank, b.coords, t, p)
            assert g.res_inv_matrix == _integral_series(type_label, rank, b.coords, -t, p)
            assert linalg.mat_mul(g.res_inv_matrix, g.res_matrix, field) == eye
            images = [g.apply(x) for x in basis]
            for i, j in itertools.combinations(range(alg.dim), 2):
                assert g.apply(alg.bracket(basis[i], basis[j])) == \
                    alg.bracket(images[i], images[j])


def test_automorphism_bracket_preservation():
    rng = random.Random(7)
    alg = build_algebra("A", 2, F7)
    for _ in range(100):
        b = alg.rs.roots[rng.randrange(len(alg.rs.roots))]
        g = alg.root_automorphism(b, F7.from_int(rng.randrange(1, 7)))
        x, y = random_element(alg, rng), random_element(alg, rng)
        assert g.apply(alg.bracket(x, y)) == alg.bracket(g.apply(x), g.apply(y))


def test_automorphism_compose_identity():
    alg = build_algebra("B", 2, F5)
    rng = random.Random(3)
    b1, b2 = alg.rs.roots[0], alg.rs.roots[5]
    g = alg.root_automorphism(b1, F5.from_int(2)).compose(
        alg.root_automorphism(b2, F5.from_int(3)))
    x = random_element(alg, rng)
    assert g.inverse().apply(g.apply(x)) == x
    assert g.apply(alg.bracket(x, x)) == alg.zero()


def test_automorphism_preserves_center():
    alg = build_algebra("A", 2, F7)
    assert alg.center() == []
    alg3 = build_algebra("A", 4, F5)
    z = alg3.center()
    assert len(z) == 1  # 5 | 5 for sl(5)
    g = alg3.root_automorphism(alg3.rs.simple_roots[0], F5.from_int(2))
    assert alg3.is_central(g.apply(z[0]))


def test_conjugate_into_U_examples():
    alg = build_algebra("A", 2, F5)
    eb = alg.e_element((1, 1))
    g, u = alg.conjugate_into_U(eb)
    assert u == eb and g.apply(eb) == eb
    real = realize_chevalley(alg)
    l = real.from_matrix(matrix_from_ints("sl3", [[1, 0, 0], [0, -1, 0], [0, 0, 0]], F5))
    g, u = alg.conjugate_into_U(l)
    assert not any(u.h_part)
    assert g.apply(l) == u
    assert g.inverse().apply(u) == l
    alg3 = build_algebra("A", 2, F3)
    with pytest.raises(CentralElementError):
        alg3.conjugate_into_U(alg3.center()[0])
    with pytest.raises(CentralElementError):
        alg3.conjugate_into_U(alg3.zero())


def test_conjugate_into_U_random_type_A():
    rng = random.Random(99)
    for field in (Q, F3, F5, F7):
        alg = build_algebra("A", 2, field)
        for _ in range(25):
            l = random_nonzero_element(alg, rng)
            if alg.is_central(l):
                continue
            g, u = alg.conjugate_into_U(l)
            assert not any(u.h_part)
            assert g.apply(l) == u


def _adversarial_diagonals():
    real3 = realize_chevalley(build_algebra("A", 2, F3))
    real4 = realize_chevalley(build_algebra("A", 3, F3))
    return [real3.from_matrix(matrix_from_ints(
                "sl3", [[1, 1, 0], [0, 1, 0], [0, 0, 1]], F3)),
            real4.from_matrix(matrix_from_ints(
                "sl4", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]], F3))]


def test_conjugate_into_U_adversarial_diagonals():
    # equal diagonal values in small characteristic stress the elimination
    for l in _adversarial_diagonals():
        g, u = l.alg.conjugate_into_U(l)
        assert not any(u.h_part) and g.apply(l) == u


def test_conjugate_into_U_type_A_matches_similarity_oracle(monkeypatch):
    # the root-element word equals the similarity S . S^-1 of the moves,
    # in matrix, inverse, factors and image
    rng = random.Random(10)
    targets = _adversarial_diagonals()
    for field in (Q, F3, F5, F7):
        for rank in (1, 2, 3, 4):
            alg = build_algebra("A", rank, field)
            for _ in range(6):
                l = random_nonzero_element(alg, rng)
                if any(l.h_part) and not alg.is_central(l):
                    targets.append(l)
    assert len(targets) > 80
    refused = 0
    for l in targets:
        try:
            mat, inv, factors, u_coeffs = similarity_conjugator(l.alg, l)
        except AssertionError as e:
            # the elimination cycles on some targets over F3 of rank >= 3;
            # both constructions refuse them alike
            assert str(e) == "diagonal elimination did not converge"
            with pytest.raises(AssertionError, match=str(e)):
                l.alg.conjugate_into_U(l)
            refused += 1
            continue
        g, u = l.alg.conjugate_into_U(l)
        assert g.res_matrix == mat and g.res_inv_matrix == inv
        assert g.factors == factors and list(u.coeffs) == u_coeffs
        assert not any(u.h_part)
    assert refused == 1

    def no_solve(*args):
        raise AssertionError("type-A conjugation solved a linear system")

    monkeypatch.setattr(linalg, "solve", no_solve)
    alg = build_algebra("A", 3, F5)
    for _ in range(10):
        l = random_nonzero_element(alg, rng)
        if any(l.h_part):
            g, u = alg.conjugate_into_U(l)
            assert not any(u.h_part) and g.apply(l) == u


def test_conjugate_into_U_randomized_B2():
    alg = build_algebra("B", 2, F5)
    l = alg.h_element(0) + alg.e_element((0, 1))
    g, u = alg.conjugate_into_U(l, seed=2)
    assert not any(u.h_part) and g.apply(l) == u
    with pytest.raises(ConjugationUnsupportedError):
        build_algebra("B", 2, Q).conjugate_into_U(
            build_algebra("B", 2, Q).h_element(0))


def _root_word(field, word):
    return tuple(("root", c, field.from_int(t)) for c, t in word)


def test_conjugate_into_U_randomized_pinned_words():
    # the seeded search must consume random numbers in a fixed order: these
    # words and images were recorded with the dense-matrix search
    alg = build_algebra("B", 2, F5)
    l = alg.h_element(0) + alg.e_element((0, 1))
    g, u = alg.conjugate_into_U(l, seed=2)
    assert g.factors == _root_word(F5, [
        ((0, 1), 1), ((1, 0), 3), ((1, 1), 3), ((0, -1), 2),
        ((0, 1), 2), ((-1, -1), 4), ((-1, 0), 4), ((0, -1), 1)])
    assert u == alg.element_from_ints([0, 0, 3, 0, 3, 1, 3, 0, 2, 1])
    l = alg.element_from_ints([1, 4, 0, 2, 0, 3, 3, 3, 3, 1])
    g, u = alg.conjugate_into_U(l, seed=0)
    assert g.factors == _root_word(F5, [
        ((-1, 0), 2), ((1, 2), 2), ((-1, -2), 4), ((-1, -1), 1),
        ((-1, -1), 4), ((0, 1), 2), ((-1, -2), 1), ((0, -1), 2)])
    assert u == alg.element_from_ints([0, 0, 3, 2, 2, 2, 1, 3, 1, 4])
    assert g.apply(l) == u and g.inverse().apply(u) == l
    # the matrices derived from each pinned word are the dense products
    eye = linalg.identity_matrix(F5, alg.dim)
    for seed, l in ((2, alg.h_element(0) + alg.e_element((0, 1))), (0, l)):
        g, _ = alg.conjugate_into_U(l, seed=seed)
        assert g.res_matrix == _dense_word(alg, [(c, t) for _, c, t in g.factors])
        assert linalg.mat_mul(g.res_inv_matrix, g.res_matrix, F5) == eye


def test_conjugate_into_U_randomized_error_order():
    # an empty budget is reported before the characteristic is looked at
    for field in (F3, F5):
        alg = build_algebra("B", 2, field)
        with pytest.raises(ConjugationBudgetError):
            alg.conjugate_into_U(alg.h_element(0), budget=0)
    alg3 = build_algebra("B", 2, F3)
    with pytest.raises(ChevalleyError) as err:
        alg3.conjugate_into_U(alg3.h_element(0), budget=1)
    assert not isinstance(err.value, ConjugationBudgetError)


@pytest.mark.parametrize("type_label,spec", [("B", "F3"), ("G", "F2"), ("B", "F5")])
def test_conjugate_into_U_randomized_refusal_names_the_search(type_label, spec):
    # root automorphisms exist in characteristic 2 and 3, so the refusal
    # names the randomized search's own limit; an empty budget still comes
    # first, and over F5 the search runs
    alg = build_algebra(type_label, 2, make_field(spec))
    l = alg.h_element(0)
    with pytest.raises(ConjugationBudgetError):
        alg.conjugate_into_U(l, budget=0)
    if alg.field.modulus >= 5:
        g, u = alg.conjugate_into_U(l, budget=50)
        assert g.apply(l) == u and not any(u.h_part)
        return
    with pytest.raises(ChevalleyError) as err:
        alg.conjugate_into_U(l, budget=1)
    assert type(err.value) is ChevalleyError
    assert str(err.value) == \
        "the randomized conjugation search is limited to characteristic >= 5"


def test_element_part_views():
    alg = build_algebra("A", 2, F5)
    x = alg.element_from_ints([1, 2, 3, 4, 0, 1, 0, 2])
    assert list(x.h_part) == [1, 2]
    assert list(x.u_plus_part) == [3, 4, 0]
    assert list(x.u_minus_part) == [1, 0, 2]
    assert len(x.coeffs) == alg.dim == alg.rank + len(alg.rs.roots)


def test_all_supported_types_build():
    # every supported (type, rank) constructs and passes its Jacobi check
    for t, r in [("A", 5), ("A", 6), ("A", 7), ("A", 8),
                 ("B", 4), ("C", 4), ("D", 3)]:
        alg = build_algebra(t, r, F7)
        assert alg.dim == r + len(alg.rs.roots)


def test_element_json_round_trip():
    alg = build_algebra("A", 2, F5)
    x = alg.element_from_ints([0, 1, 2, 3, 4, 0, 1, 2])
    assert alg.element_from_json(x.to_json()) == x
    obj = x.to_json()
    assert obj["basis"] == "chevalley" and len(obj["coeffs"]) == 8


def test_algebra_mismatch_rejected():
    a = build_algebra("A", 2, F5)
    b = build_algebra("A", 2, F7)
    with pytest.raises(ChevalleyError):
        a.basis_element(0) + b.basis_element(0)


def test_integer_tables_are_shared_across_fields():
    # the structure constants depend on the root system only: built and
    # Jacobi-checked once over Z, then read by every field's algebra
    algs = [build_algebra("A", 2, f) for f in (F5, F7, Q)]
    for attr in ("bracket_table", "n_table", "q_table", "_z_powers"):
        assert len({id(getattr(a, attr)) for a in algs}) == 1, attr


def test_jacobi_sweep_runs_over_the_integers():
    T = [list(row) for row in build_algebra("A", 2, F5).bracket_table]
    _validate_jacobi(T)
    # basis 2, 3 are e_{a2}, e_{a1}, whose bracket is N e_{a1+a2} with N = 1;
    # N = 6 is the same table mod 5, so a sweep mod 5 would pass, but the
    # identity fails over Z
    (k, n), = T[2][3]
    T[2][3], T[3][2] = ((k, n + 5),), ((k, -n - 5),)
    with pytest.raises(AssertionError, match="Jacobi"):
        _validate_jacobi(T)


def _jacobi_by_triples(T):
    """The triple-by-triple sweep that _validate_jacobi replaced: every
    basis triple i < j < k in lex order, each cyclic term [[x, y], z] read
    from T entry by entry.  The failure message, or None if all hold."""
    n = len(T)
    for i, j, k in itertools.combinations(range(n), 3):
        acc = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for t, a in T[x][y]:
                for s, b in T[t][z]:
                    acc[s] = acc.get(s, 0) + a * b
        if any(acc.values()):
            return "Jacobi identity fails on basis triple %r" % ((i, j, k),)
    return None


def _jacobi_verdict(T):
    try:
        _validate_jacobi(T)
    except AssertionError as e:
        return str(e)
    return None


def _corrupt_table(T, rng, antisymmetric, relabel):
    """A copy of T, with the basis relabelled by a random permutation if
    relabel, in which one entry T[i][j] is changed by one coefficient; with
    antisymmetric, T[j][i] follows as its negative, otherwise it is left as
    it was (and one time in five the entry is on the diagonal, i = j)."""
    n = len(T)
    perm = list(range(n))
    if relabel:
        rng.shuffle(perm)
    new = [[()] * n for _ in range(n)]
    for i, row in enumerate(T):
        for j, entry in enumerate(row):
            new[perm[i]][perm[j]] = tuple(sorted((perm[k], c) for k, c in entry))
    i, j = rng.sample(range(n), 2)
    if not antisymmetric and rng.random() < 0.2:
        j = i
    entry = dict(new[i][j])
    k = rng.randrange(n)
    entry[k] = entry.get(k, 0) + rng.choice((-2, -1, 1, 2))
    new[i][j] = tuple((k, c) for k, c in sorted(entry.items()) if c)
    if antisymmetric:
        new[j][i] = tuple((k, -c) for k, c in new[i][j])
    return new


def test_jacobi_sweep_matches_the_triple_loop_on_every_table():
    from liemap.rootsystem import SUPPORTED_RANKS
    for t, ranks in SUPPORTED_RANKS.items():
        for r in ranks:
            T = build_algebra(t, r, Q).bracket_table
            assert _jacobi_verdict(T) is None and _jacobi_by_triples(T) is None


@pytest.mark.parametrize("t,r", [("A", 4), ("B", 2), ("C", 3), ("G", 2)])
def test_jacobi_sweep_matches_the_triple_loop_on_corrupted_tables(t, r):
    T = build_algebra(t, r, Q).bracket_table
    rng = random.Random(23 * r + ord(t))
    failed = 0
    for trial in range(60):
        bad = _corrupt_table(T, rng, antisymmetric=trial % 2 == 0,
                             relabel=trial % 4 >= 2)
        verdict = _jacobi_by_triples(bad)
        assert _jacobi_verdict(bad) == verdict, (trial, verdict)
        failed += verdict is not None
    assert failed >= 50


def _structure_constants_by_fractions(rs):
    """The derivation that chevalley._structure_constants replaced: N_{u,v}
    as recursive Fraction products, then read for every pair of roots."""
    neg = lambda c: tuple(-x for x in c)
    pos = [b.coords for b in rs.positive_roots]
    order = {c: i for i, c in enumerate(pos)}
    special = {}

    def nlook(u, v):
        su, sv = sum(u) > 0, sum(v) > 0
        if su and sv:
            if order[u] < order[v]:
                return Fraction(special[(u, v)])
            return -Fraction(special[(v, u)])
        if not su and not sv:
            return -nlook(neg(u), neg(v))
        if not su:
            return -nlook(v, u)
        c = tuple(x + y for x, y in zip(u, v))
        if sum(c) > 0:
            return Fraction(rs.length[c], rs.length[u]) * nlook(v, neg(c))
        return Fraction(rs.length[c], rs.length[v]) * nlook(neg(c), u)

    for xi in pos:
        if sum(xi) == 1:
            continue
        pairs = []
        for a in pos:
            b = tuple(x - y for x, y in zip(xi, a))
            if b in order and order[a] < order[b]:
                pairs.append((a, b))
        g, d = pairs[0]
        special[(g, d)] = rs.chain_down_length(rs.root(g), rs.root(d)) + 1
        for a, b in pairs[1:]:
            acc = Fraction(0)
            gb = tuple(x - y for x, y in zip(g, b))
            if rs.contains(gb):
                acc += nlook(neg(b), g) * nlook(neg(a), gb)
            ga = tuple(x - y for x, y in zip(g, a))
            if rs.contains(ga):
                acc += nlook(g, neg(a)) * nlook(neg(b), ga)
            val = acc / nlook(g, neg(xi))
            assert val.denominator == 1 and val != 0
            special[(a, b)] = int(val)

    n_table = {}
    for a in rs.roots:
        for b in rs.roots:
            s = tuple(x + y for x, y in zip(a.coords, b.coords))
            if rs.contains(s):
                v = nlook(a.coords, b.coords)
                assert v.denominator == 1
                n_table[(a.coords, b.coords)] = int(v)
    return n_table


def test_structure_constants_match_the_fraction_derivation():
    from liemap.rootsystem import SUPPORTED_RANKS, build_root_system
    for t, ranks in SUPPORTED_RANKS.items():
        for r in ranks:
            n_table = build_algebra(t, r, Q).n_table
            assert n_table == _structure_constants_by_fractions(
                build_root_system(t, r)), (t, r)
            assert all(type(v) is int for v in n_table.values()), (t, r)


# dimension of the centre over Q, F3, F5 and F7, as the Fraction elimination
# of every row of the system found it before the mod-p certificate
CENTRE_DIMENSIONS = {
    ("A", 1): (0, 0, 0, 0), ("A", 2): (0, 1, 0, 0), ("A", 3): (0, 0, 0, 0),
    ("A", 4): (0, 0, 1, 0), ("A", 5): (0, 1, 0, 0), ("A", 6): (0, 0, 0, 1),
    ("A", 7): (0, 0, 0, 0), ("A", 8): (0, 1, 0, 0), ("B", 2): (0, 0, 0, 0),
    ("B", 3): (0, 0, 0, 0), ("B", 4): (0, 0, 0, 0), ("C", 2): (0, 0, 0, 0),
    ("C", 3): (0, 0, 0, 0), ("C", 4): (0, 0, 0, 0), ("D", 3): (0, 0, 0, 0),
    ("D", 4): (0, 0, 0, 0), ("G", 2): (0, 0, 0, 0),
}


def test_centre_dimensions_are_pinned():
    from liemap.rootsystem import SUPPORTED_RANKS
    assert set(CENTRE_DIMENSIONS) == {(t, r) for t, rs in SUPPORTED_RANKS.items()
                                      for r in rs}
    for (t, r), want in CENTRE_DIMENSIONS.items():
        got = tuple(len(build_algebra(t, r, f).center()) for f in (Q, F3, F5, F7))
        assert got == want, (t, r)


def test_centre_over_q_is_certified_without_fraction_elimination(monkeypatch):
    from liemap.chevalley import ChevalleyAlgebra
    from liemap.rootsystem import SUPPORTED_RANKS
    rref = linalg.rref

    def no_elimination(rows, field):
        assert not rows, "the centre's system was eliminated on Fractions"
        return rref(rows, field)

    monkeypatch.setattr(linalg, "rref", no_elimination)
    for t, ranks in SUPPORTED_RANKS.items():
        for r in ranks:
            alg = ChevalleyAlgebra(build_algebra(t, r, Q).rs, Q)
            assert alg.center() == [] and not alg.is_central(alg.h_element(0))


# sha256 (first 16 hex digits) of structure_json(), dumped with sorted keys,
# over Q, F3, F5 and F7 in turn
STRUCTURE_DIGESTS = {
    ("A", 1): "fe8e24d29155011e",
    ("A", 2): "c354beb4195e4eba",
    ("A", 3): "9bf1fa9f4bb28bd4",
    ("A", 4): "564f8d79842d58ee",
    ("A", 5): "e279437b9b111c24",
    ("A", 6): "57d721c7adcd0958",
    ("A", 7): "590e25a835406e30",
    ("A", 8): "db412e7d36cacbb3",
    ("B", 2): "dc8b7b49dda7d008",
    ("B", 3): "b27d5cbf22ccb401",
    ("B", 4): "837fcb09fa79203d",
    ("C", 2): "e4d23e3d5c775c5c",
    ("C", 3): "a2414ba26dedd221",
    ("C", 4): "940f73cad2d0e80a",
    ("D", 3): "b998d1581dcb9b6a",
    ("D", 4): "8a2f2a01b3f2bc8e",
    ("G", 2): "906ddc77d9c43394",
}


def test_structure_json_bytes_are_pinned():
    from liemap.rootsystem import SUPPORTED_RANKS
    assert set(STRUCTURE_DIGESTS) == {(t, r) for t, rs in SUPPORTED_RANKS.items()
                                      for r in rs}
    for (t, r), want in STRUCTURE_DIGESTS.items():
        h = hashlib.sha256()
        for f in (Q, F3, F5, F7):
            h.update(json.dumps(build_algebra(t, r, f).structure_json(),
                                sort_keys=True).encode())
        assert h.hexdigest()[:16] == want, (t, r)
