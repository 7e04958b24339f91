"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance is pinned here: all equality assertions are exact (no
floating point anywhere), runtime ceilings follow the stated budgets, and
the measured constants (theta invariants, m0 = 3) are frozen as regression
values after their first computation.

Run with  pytest tests/test_acceptance.py -v -s  to see the pass lines.
"""

import hashlib
import itertools
import random
import time
from fractions import Fraction

from helpers import random_element, random_nonzero_element, random_poly
from liemap import maps
from liemap.chevalley import build_algebra
from liemap.fixtures import load_poly, load_witness_triples
from liemap.freelie import (engel_monomial, evaluate, make_engel,
                            normal_form, parse)
from liemap.matrixrep import char_invariants, realize_chevalley, theta_separates
from liemap.scalar import make_field

Q = make_field("Q")
F3 = make_field("F3")
F5 = make_field("F5")
F7 = make_field("F7")

DEG10 = "razmyslov_bracket"


def _report(num, text, t0):
    print("PASS criterion %d: %s (%.2fs)" % (num, text, time.perf_counter() - t0))


def test_criterion_1_sl3_witness():
    t0 = time.perf_counter()
    P = load_poly(DEG10)
    _, t1, t2 = load_witness_triples("paper-a2", Q)
    v = maps.dominance_witness_check(P, t1, t2)
    assert v.result == "confirmed"
    # exact projective theta pairs, pinned after first computation
    i1, i2 = char_invariants(v.value1), char_invariants(v.value2)
    assert (i1.f1, i1.f2) == (Fraction(-642379122855),
                              Fraction(96001213672014543))
    assert (i2.f1, i2.f2) == (Fraction(2467639795797),
                              Fraction(-1462096951353527644584))
    assert i1.theta_pair[0] * i2.theta_pair[1] != i2.theta_pair[0] * i1.theta_pair[1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "sl(3) witness pair confirmed by exact theta separation", t0)


def test_criterion_2_so5_witness():
    t0 = time.perf_counter()
    P = load_poly(DEG10)
    _, t1, t2 = load_witness_triples("paper-b2", Q)
    for m in t1 + t2:
        m.validate()  # strict so5 block-shape check
    v = maps.dominance_witness_check(P, t1, t2)
    assert v.result == "confirmed"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, "so(5) fixtures pass shape validation and separate", t0)


def test_criterion_3_identity_suite():
    t0 = time.perf_counter()
    for name in ("filippov", "razmyslov"):
        v = maps.is_identity_sl2(load_poly(name), Q, mode="exact")
        assert v.result == "identity" and v.mode == "exact_symbolic"
    start = time.perf_counter()
    v10 = maps.is_identity_sl2(load_poly(DEG10), Q, mode="exact")
    assert v10.result == "identity"
    assert time.perf_counter() - start < 60.0
    for m in (2, 3):
        v = maps.is_identity_sl2(engel_monomial(m), Q)
        assert v.result == "not_identity" and v.witness is not None
        assert any(v.witness_value)
    _report(3, "Filippov/Razmyslov/degree-10 identities verified, "
               "E2 and E3 rejected with witnesses", t0)


def test_criterion_4_engel_surjectivity_oracle():
    t0 = time.perf_counter()
    alg = build_algebra("A", 1, F3)
    P, _ = make_engel([0, 1])
    rep = maps.image_scan(alg, P, mode="exhaustive")
    assert rep.attained_count == 27 and rep.total_elements == 27
    assert rep.contains_all_noncentral and rep.contains_zero
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(4, "E2 on sl(2,F3) attains all 27 elements exhaustively", t0)


def test_criterion_5_constructive_solver():
    t0 = time.perf_counter()
    alg5 = build_algebra("A", 2, F5)
    rng = random.Random(20240518)
    solved = 0
    for m in (1, 2, 3):
        P, spec = make_engel([0] * (m - 1) + [1])
        for _ in range(1000):
            target = random_nonzero_element(alg5, rng)
            sol = maps.engel_solve(alg5, spec, target)
            assert evaluate(P, [sol.X, sol.Y]) == target
            solved += 1
    alg7 = build_algebra("A", 2, F7)
    P11, spec11 = make_engel([1, 1])
    for _ in range(1000):
        target = random_nonzero_element(alg7, rng)
        sol = maps.engel_solve(alg7, spec11, target)
        assert evaluate(P11, [sol.X, sol.Y]) == target
        solved += 1
    elapsed = time.perf_counter() - t0
    assert solved == 4000
    assert elapsed < 30.0
    _report(5, "4000/4000 Engel solutions certified exactly", t0)


def test_criterion_6_example48():
    t0 = time.perf_counter()
    alg = build_algebra("A", 1, F5)
    P = maps.example48_poly()
    rep = maps.image_scan(alg, P, mode="exhaustive")
    # independent of the scan's int kernel: the element bracket
    from liemap.maps import _decode, _encode
    elems = [alg.element_from_ints(_decode(i, 5, 3)) for i in range(125)]
    attained = {_encode(evaluate(P, [x, y]).coeffs, 5) for y in elems for x in elems}
    assert len(attained) == rep.attained_count
    for m in range(1, 5):
        assert 5 * m not in attained, "m*e attained"
        assert 25 * m not in attained, "m*f attained"
    count = 0
    for a, b, c, d in itertools.product(range(5), repeat=4):
        av, bv, cv, dv = (F5.from_int(v) for v in (a, b, c, d))
        X = alg.element([F5.zero(), av, bv])
        Y = alg.element([dv, F5.zero(), cv])
        assert evaluate(P, [X, Y]) == maps.example48_closed_form(alg, av, bv, cv, dv)
        count += 1
    assert count == 625
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(6, "no m*e or m*f attained; closed form matches on all 625 tuples", t0)


def test_criterion_7_central_probe():
    t0 = time.perf_counter()
    alg = build_algebra("A", 2, F3)
    rep = maps.central_image_probe(alg, range(1, 13), workers=2)
    # regression constant measured by the exhaustive oracle on first run
    assert rep.m0 == 3
    for m in (1, 2):
        assert rep.table[m], "E_%d should attain nonzero central values" % m
    for m in range(3, 13):
        assert rep.table[m] == []
    # the preimages too: the report's canonical-JSON digest
    assert hashlib.sha256(maps._canonical(rep.to_json()).encode()).hexdigest() == \
        "ba936ba020ca5281346a383adf841ee3dfce1190fc0b25cf2b8bcc842c600b53"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(7, "central hits vanish from m0 = 3 through 12 on sl(3,F3)", t0)


STRUCTURE_CASES = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                   ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]


def test_criterion_8_structure_suite():
    t0 = time.perf_counter()
    for field in (Q, F7):
        for t, r in STRUCTURE_CASES:
            alg = build_algebra(t, r, field)
            dim = alg.dim
            basis = [alg.basis_element(i) for i in range(dim)]
            # antisymmetry on all basis pairs
            for i in range(dim):
                for j in range(dim):
                    assert basis[i].bracket(basis[j]) == -basis[j].bracket(basis[i])
            # Jacobi on all basis triples
            for i in range(dim):
                for j in range(i + 1, dim):
                    for k in range(j + 1, dim):
                        acc = alg.zero()
                        for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                            acc = acc + basis[x].bracket(basis[y]).bracket(basis[z])
                        assert acc.is_zero(), (t, r, str(field), i, j, k)
            assert set(alg.q_table.values()) <= {0, 1, -1, 2, -2, 3, -3}
            for (a, b), n in alg.n_table.items():
                p = alg.rs.chain_down_length(alg.rs.root(a), alg.rs.root(b))
                assert abs(n) == p + 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(8, "Jacobi + antisymmetry exhaustive on 9 types x {Q, F7}; "
               "q and N ranges verified", t0)


def test_criterion_9_invariance_suite():
    t0 = time.perf_counter()
    from liemap import linalg
    from liemap.matrixrep import MatrixElement
    from liemap.maps import _random_matrix
    rng = random.Random(424242)
    # sl3: 100 random exact conjugations
    done = 0
    while done < 100:
        X = _random_matrix("sl3", Q, rng, 6)
        g = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        ginv = linalg.invert_matrix(g, Q)
        if ginv is None:
            continue
        rows = linalg.mat_mul(linalg.mat_mul(g, [list(r) for r in X.rows], Q), ginv, Q)
        Y = MatrixElement("sl3", rows, Q, validate=False)
        a, b = char_invariants(X), char_invariants(Y)
        assert (a.f1, a.f2) == (b.f1, b.f2)
        done += 1
    # so5: 100 conjugations from transported root automorphisms
    algB = build_algebra("B", 2, Q)
    realB = realize_chevalley(algB)
    roots = algB.rs.roots
    for _ in range(100):
        X = _random_matrix("so5", Q, rng, 9)
        g = algB.root_automorphism(roots[rng.randrange(len(roots))],
                                   Fraction(rng.randint(-3, 3)))
        Y = realB.to_matrix(g.apply(realB.from_matrix(X)))
        Y.validate()
        a, b = char_invariants(X), char_invariants(Y)
        assert (a.f1, a.f2) == (b.f1, b.f2)
    # theta cross-multiplication equality under independent nonzero scalings
    for _ in range(100):
        X = _random_matrix("sl3", Q, rng, 8)
        Y = _random_matrix("sl3", Q, rng, 8)
        if X.is_zero() or Y.is_zero():
            continue
        base = theta_separates(X, Y)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        mu = Fraction(-rng.randint(1, 9), rng.randint(1, 9))
        assert theta_separates(X.scale_rational(lam), Y.scale_rational(mu)) == base
    # automorphism equivariance of evaluate on 100 random instances
    alg = build_algebra("A", 2, F7)
    for _ in range(100):
        P = random_poly(rng, nvars=2, max_degree=4, max_terms=3)
        b = alg.rs.roots[rng.randrange(len(alg.rs.roots))]
        g = alg.root_automorphism(b, F7.from_int(rng.randrange(1, 7)))
        xs = [random_element(alg, rng) for _ in range(P.arity)]
        assert evaluate(P, [g.apply(x) for x in xs]) == g.apply(evaluate(P, xs))
    _report(9, "conjugation, scaling, and equivariance invariants exact", t0)


def test_criterion_10_normal_form_soundness():
    t0 = time.perf_counter()
    # Jacobi / antisymmetry combinations normalize to zero
    assert normal_form(parse("[X1,X1]")).is_zero()
    assert normal_form(parse("[[X1,X2],X3]+[[X2,X3],X1]+[[X3,X1],X2]")).is_zero()
    assert normal_form(parse("[X1,X2] + [X2,X1]")).is_zero()
    alg = build_algebra("A", 2, F7)
    rng = random.Random(1009)
    for _ in range(500):
        P = random_poly(rng, nvars=3, max_degree=5, max_terms=4)
        xs = [random_element(alg, rng) for _ in range(P.arity)]
        direct = evaluate(P, xs)
        vianf = evaluate(normal_form(P).to_lie_poly(P.arity), xs)
        assert direct == vianf
    _report(10, "evaluate = evaluate after normalization on 500 seeded pairs", t0)
