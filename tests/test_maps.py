import functools
import hashlib
import itertools
import operator
import os
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (fork_counter, grid_witness, orbit_class_labels, random_element,
                     random_nonzero_element, random_poly, root_value)
from liemap import lanes, linalg, maps, orbits, scalar
from liemap.chevalley import (CentralElementError, FieldTooSmallError,
                              build_algebra)
from liemap.fixtures import load_poly, load_witness_triples
from liemap.freelie import (MAX_NESTING, Br, LiePoly, Sum, Var, engel_monomial,
                            engel_spec, evaluate, make_engel, normal_form, parse)
from liemap.scalar import make_field

Q = make_field("Q")
F3 = make_field("F3")
F5 = make_field("F5")
F7 = make_field("F7")


# -- identity testing --------------------------------------------------------


def test_identity_filippov_and_razmyslov():
    for name in ("filippov", "razmyslov"):
        v = maps.is_identity_sl2(load_poly(name), Q, mode="exact")
        assert v.result == "identity" and v.mode == "exact_symbolic"


def test_identity_degree10():
    v = maps.is_identity_sl2(load_poly("razmyslov_bracket"), Q, mode="exact")
    assert v.result == "identity"


def test_identity_engel_rejected_with_witness():
    from liemap.sl2 import _sl2_value
    for m in (2, 3):
        P = engel_monomial(m)
        v = maps.is_identity_sl2(P, Q)
        assert v.result == "not_identity" and v.mode == "degree_shortcut"
        assert v.witness is not None
        # the witness re-evaluates to a nonzero value, independently
        val = _sl2_value(P, v.witness, Q)
        assert any(val)
        assert val == tuple(v.witness_value)


def test_identity_randomized():
    v = maps.is_identity_sl2(load_poly("razmyslov_bracket"), Q,
                             mode="randomized", seed=3, trials=4)
    assert v.result == "probably_identity"
    assert v.failure_bound <= Fraction(1, 2 ** 40)
    v2 = maps.is_identity_sl2(engel_monomial(5), Q, mode="randomized", seed=3)
    assert v2.result == "not_identity" and v2.witness is not None


def test_identity_char2_rejected():
    with pytest.raises(maps.MapsError):
        maps.is_identity_sl2(engel_monomial(2), make_field("F2"))


def test_identity_randomized_bound_clipped_by_field():
    # over F_7 the grid is at most 7 points per coordinate, so the reported
    # failure bound must use the effective grid
    v = maps.is_identity_sl2(engel_monomial(5), F7, mode="randomized",
                             seed=0, trials=2, grid=2 ** 20)
    if v.result == "probably_identity":
        assert v.failure_bound == Fraction(6, 7) ** 2
    # degree >= field size cannot give a meaningful bound
    with pytest.raises(maps.MapsError):
        maps.is_identity_sl2(engel_monomial(9), F7, mode="randomized", seed=0)


def test_identity_witness_from_symbolic_value():
    # the lex-order grid keeps the leading variables at zero, so brute force
    # takes minutes here; the witness is read off the symbolic value
    from liemap.sl2 import _sl2_value
    for text, how in (("[[X1,X2],[X3,X4]]", "degree_shortcut"),
                      ("[X1,X2] + 0*X9", "degree_shortcut"),
                      ("[X1,X2]+[X1,X3]+[X1,X4]+[X1,X5]", "degree_shortcut"),
                      ("[[[X3,X2],X1],[[X1,X2],X3]]", "exact_symbolic")):
        P = parse(text)
        v = maps.is_identity_sl2(P, Q, mode="exact")
        assert v.result == "not_identity" and v.mode == how
        val = _sl2_value(P, v.witness, Q)
        assert any(val)
        assert val == tuple(v.witness_value)


def test_identity_greedy_witness_is_the_grid_witness():
    # where the grid search is quick, both find the same lex-least point
    for text in ("[[X,Y],Y]", "[[[X,Y],X],Y]", "2*X1+[X2,X3]",
                 "[[[X,Y],Y],[X,Y]]", "[[X,Y],[X,[X,Y]]]",
                 "[X4,X5]+[[X1,X2],[X3,X5]]", "[[X5,X4],X5]+[X1,[X2,X3]]"):
        P = parse(text)
        deg = max(len(w) for w in normal_form(P).coeffs)
        v = maps.is_identity_sl2(P, Q, mode="exact")
        triples, val = grid_witness(P, Q, deg)
        assert v.witness == triples
        assert tuple(v.witness_value) == val


def test_identity_fp_greedy_witness():
    # over F_p the witness is read off the symbolic value too, and it is the
    # point the brute-force grid search finds
    from liemap.sl2 import _sl2_value
    cases = [(text, F) for F in (F5, F7)
             for text in ("[[X1,X2],X2]", "[X1,X2]", "[[[X1,X2],X2],X2]",
                          "[X1,X2]+[X2,X3]", "[[X1,X2],X3]")]
    cases.append(("[[X1,X2],[X1,[X1,X2]]]", F7))
    for text, F in cases:
        P = parse(text)
        deg = max(len(w) for w in normal_form(P).coeffs)
        assert deg < F.modulus
        v = maps.is_identity_sl2(P, F, mode="exact")
        assert v.result == "not_identity" and v.mode == "exact_symbolic"
        triples, val = grid_witness(P, F, deg)
        assert v.witness == triples
        assert tuple(v.witness_value) == val
    # 5^12 and 7^12 grid points, where brute force is slow: found at once
    for F in (F5, F7):
        P = parse("[[X1,X2],[X3,X4]]")
        v = maps.is_identity_sl2(P, F, mode="exact")
        assert v.result == "not_identity" and v.mode == "exact_symbolic"
        val = _sl2_value(P, v.witness, F)
        assert any(val)
        assert val == tuple(v.witness_value)


def test_identity_exact_not_identity_pinned():
    v = maps.is_identity_sl2(parse("[[[X3,X2],X1],[[X1,X2],X3]]"), Q, mode="exact")
    assert v.to_json(Q) == {"result": "not_identity", "mode": "exact_symbolic",
                            "witness": [["0", "0", "1"], ["0", "1", "0"],
                                        ["1", "0", "1"]],
                            "witness_value": ["0", "-16", "0"]}


def test_identity_cost_guard():
    big = parse("[[[[[[[[[[[[X1,X2],X2],X2],X2],X2],X2],X2],X2],X2],X2],X2],X2]")
    with pytest.raises(maps.CostGuardError):
        maps.is_identity_sl2(big, F7, mode="exact")


def test_identity_zero_polynomial():
    v = maps.is_identity_sl2(parse("[X1,X1]"), Q)
    assert v.result == "identity"


def _engel_difference(a, b):
    """E_a - E_b.  On sl(2), ad(y)^3 = q(y) ad(y) for a quadratic form q, and
    q^(p-1) is 0 or 1 on F_p, so E_3 - E_{2p+1} and E_4 - E_{2p+2} vanish on
    sl(2, F_p) without being zero."""
    return LiePoly(Sum(((Fraction(1), engel_monomial(a).node),
                        (Fraction(-1), engel_monomial(b).node))), 2)


@settings(max_examples=24, derandomize=True, deadline=None)
@given(st.tuples(st.sampled_from([F3, F5]), st.integers(0, 2 ** 32)).map(
    lambda c: (c[0], random_poly(random.Random(c[1]), nvars=2, max_degree=6))))
@example((F3, _engel_difference(3, 7)))
@example((F3, _engel_difference(4, 8)))
@example((F5, _engel_difference(3, 11)))
@example((F3, _engel_difference(3, 5)))
@example((F3, parse("[[[X1,X2],X2],[X1,X2]]")))
@example((F5, parse("[X1,X1]")))
def test_identity_exact_fp_is_brute_force_vanishing(case):
    """Over F_p the exact verdict is vanishing on all of sl(2, F_p)^d, and
    the witness is the lex-least nonzero point: both equal the brute-force
    grid oracle on p^(3d) <= 15,625 points, also when deg(P) >= p."""
    F, P = case
    v = maps.is_identity_sl2(P, F, mode="exact")
    triples, val = grid_witness(P, F, 0)
    if triples is None:
        assert v.result == "identity" and v.witness is None
    else:
        assert v.result == "not_identity" and v.mode == "exact_symbolic"
        assert v.witness == triples
        assert tuple(v.witness_value) == val


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.sampled_from([Q, F5, F7]), st.integers(0, 2 ** 32))
def test_symbolic_value_is_the_numeric_value(field, seed):
    """The (e, f, h) polynomials of the symbolic walk on MPoly rows, taken at
    a point, are P's value there on the integer-row route: the two routes
    agree, and so do their (h, e, f) and (e, f, h) orders."""
    from liemap.sl2 import _sl2_value, _symbolic_value
    rng = random.Random(seed)
    P = random_poly(rng, nvars=3, max_degree=5)
    nsym = 3 * P.nvars
    if field.characteristic:
        point = [field.residue(rng.randrange(field.modulus)) for _ in range(nsym)]
    else:
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nsym)]
    polys = _symbolic_value(P, field, set(range(1, P.nvars + 1)))
    for i, v in enumerate(point):
        polys = [q.substitute(i, v) for q in polys]
    at_point = tuple(field.reduce(q.coeffs.get((0,) * nsym, 0)) for q in polys)
    triples = [tuple(point[3 * i: 3 * i + 3]) for i in range(P.nvars)]
    assert at_point == _sl2_value(P, triples, field)


def test_identity_fp_degree_above_p_pinned():
    # deg 5 >= p: a witness beyond the first 300,000 grid points, found at once
    from liemap.sl2 import _sl2_value
    P = parse("[[[[X4,X3],X2],X1],X4]")
    v = maps.is_identity_sl2(P, F5, mode="exact")
    assert v.to_json(F5) == {"result": "not_identity", "mode": "exact_symbolic",
                             "witness": [["0", "0", "1"], ["0", "0", "1"],
                                         ["0", "0", "1"], ["0", "1", "1"]],
                             "witness_value": ["0", "1", "0"]}
    val = _sl2_value(P, v.witness, F5)
    assert any(val) and val == tuple(v.witness_value)


# -- dominancy witnesses -----------------------------------------------------

# exact invariant values of the bundled witness pairs, pinned as regression
# constants after the first computation
SL3_THETA = {
    "f1_1": -642379122855, "f2_1": 96001213672014543,
    "f1_2": 2467639795797, "f2_2": -1462096951353527644584,
}
SO5_THETA = {
    "f1_1": 161366358354966208584,
    "f2_1": -3199619994211598215455583395879117753648,
    "f1_2": -5728302801320544047420,
    "f2_2": 8591878815961827942555097638583616910418960,
}


def test_witness_check_sl3_fixtures():
    from liemap.matrixrep import char_invariants
    P = load_poly("razmyslov_bracket")
    _, t1, t2 = load_witness_triples("paper-a2", Q)
    v = maps.dominance_witness_check(P, t1, t2)
    assert v.result == "confirmed"
    i1, i2 = char_invariants(v.value1), char_invariants(v.value2)
    assert (i1.f1, i1.f2) == (SL3_THETA["f1_1"], SL3_THETA["f2_1"])
    assert (i2.f1, i2.f2) == (SL3_THETA["f1_2"], SL3_THETA["f2_2"])


def test_witness_check_so5_fixtures():
    from liemap.matrixrep import char_invariants
    P = load_poly("razmyslov_bracket")
    _, t1, t2 = load_witness_triples("paper-b2", Q)
    v = maps.dominance_witness_check(P, t1, t2)
    assert v.result == "confirmed"
    i1, i2 = char_invariants(v.value1), char_invariants(v.value2)
    assert (i1.f1, i1.f2) == (SO5_THETA["f1_1"], SO5_THETA["f2_1"])
    assert (i2.f1, i2.f2) == (SO5_THETA["f1_2"], SO5_THETA["f2_2"])


def test_witness_check_equal_triples():
    P = load_poly("razmyslov_bracket")
    _, t1, _ = load_witness_triples("paper-a2", Q)
    assert maps.dominance_witness_check(P, t1, t1).result == "not_separated"


def test_witness_search():
    E1, _ = make_engel([1])
    res = maps.dominance_witness_search(E1, "sl3", Q, budget=500, seed=0)
    assert res.status == "confirmed"
    check = maps.dominance_witness_check(E1, res.triple1, res.triple2)
    assert check.result == "confirmed"
    zero = parse("[X1,X1]")
    res0 = maps.dominance_witness_search(zero, "sl3", Q, budget=20, seed=0)
    assert res0.status == "exhausted"


def test_witness_search_degree10():
    # the bundled degree-10 polynomial admits witnesses in both realizations
    P = load_poly("razmyslov_bracket")
    for realization in ("sl3", "so5"):
        res = maps.dominance_witness_search(P, realization, Q, budget=200, seed=0)
        assert res.status == "confirmed"
        assert maps.dominance_witness_check(
            P, res.triple1, res.triple2).result == "confirmed"


def test_witness_search_deterministic():
    E1, _ = make_engel([1])
    r1 = maps.dominance_witness_search(E1, "sl3", Q, budget=500, seed=9)
    r2 = maps.dominance_witness_search(E1, "sl3", Q, budget=500, seed=9)
    assert r1.to_json() == r2.to_json()


# -- Engel solver ------------------------------------------------------------


def test_engel_solve_zero_target():
    alg = build_algebra("A", 2, F5)
    _, spec = make_engel([0, 1])
    sol = maps.engel_solve(alg, spec, alg.zero())
    assert sol.X.is_zero() and sol.Y.is_zero()


def test_engel_solve_sl2_example():
    alg = build_algebra("A", 1, F5)
    _, spec = make_engel([1])
    e = alg.basis_element(1)
    sol = maps.engel_solve(alg, spec, e)
    P, _ = make_engel([1])
    assert evaluate(P, [sol.X, sol.Y]) == e


def test_engel_solve_central_target_rejected():
    alg = build_algebra("A", 2, F3)
    _, spec = make_engel([0, 1])
    with pytest.raises(CentralElementError):
        maps.engel_solve(alg, spec, alg.center()[0])


def test_engel_solve_field_too_small():
    alg = build_algebra("A", 2, make_field("F2"))
    _, spec = make_engel([0, 1])
    with pytest.raises(FieldTooSmallError):
        maps.engel_solve(alg, spec, alg.h_element(0))


def test_engel_solve_excluded_combination():
    alg = build_algebra("G", 2, F3)
    _, spec = make_engel([1])
    with pytest.raises(maps.EngelSolveError):
        maps.engel_solve(alg, spec, alg.h_element(0))


def test_engel_solve_random_batch():
    rng = random.Random(77)
    alg = build_algebra("A", 2, F5)
    for m in (1, 2):
        Pm, spec = make_engel([0] * (m - 1) + [1])
        for _ in range(40):
            x = random_nonzero_element(alg, rng)
            sol = maps.engel_solve(alg, spec, x)
            assert evaluate(Pm, [sol.X, sol.Y]) == x
            assert sol.certificate and sol.trace["h"]


def test_engel_solve_multiplies_no_matrices(monkeypatch):
    # the conjugator is applied as its root-element word, on the type-A
    # elimination (A2/F5, A3/F7, A2/Q) and the randomized search (B2/F5)
    algs = [build_algebra(t, r, f)
            for t, r, f in (("A", 2, F5), ("A", 3, F7), ("A", 2, Q), ("B", 2, F5))]
    for alg in algs:
        # built once per algebra, and checked there by matrix products
        alg._get_realization()

    def no_mat_mul(*args):
        raise AssertionError("engel_solve multiplied two matrices")

    monkeypatch.setattr(linalg, "mat_mul", no_mat_mul)
    rng = random.Random(31)
    for alg in algs:
        for coeffs in ([1], [0, 1]):
            P, spec = make_engel(coeffs)
            for _ in range(3):
                x = random_nonzero_element(alg, rng)
                if alg.is_central(x):
                    continue
                sol = maps.engel_solve(alg, spec, x)
                assert evaluate(P, [sol.X, sol.Y]) == x and sol.certificate


FP_CLI_SWEEP = [
    ["engel-solve", "--algebra", "A2", "--field", "F5", "--coeffs", "1"],
    ["engel-solve", "--algebra", "B2", "--field", "F5", "--coeffs", "0,1"],
    ["scan", "--poly", "[[X1,X2],X2]", "--algebra", "A1", "--field", "F3"],
    ["scan", "--poly", "[[X1,X2],X2]", "--algebra", "A2", "--field", "F3",
     "--mode", "sampled", "--seed", "1", "--samples", "200"],
    ["central-probe", "--algebra", "A2", "--field", "F3", "--m-from", "1", "--m-to", "4"],
    ["identity", "--poly", "[[[[X4,X3],X2],X1],X4]", "--field", "F5"],
    ["identity", "--poly", "@filippov.lie", "--field", "F5"],
    ["identity", "--poly", "[[[[X1,X2],X2],X2],X2]", "--field", "F7",
     "--mode", "randomized", "--seed", "3"],
    ["witness", "--fixtures", "paper-a2", "--field", "F5"],
    ["witness", "--fixtures", "paper-b2", "--field", "F7"],
    ["witness-search", "--poly", "[[X1,X2],X3]", "--realization", "so5",
     "--field", "F7", "--seed", "1"],
    ["witness-search", "--poly", "[[X1,X2],X3]", "--realization", "sl3",
     "--field", "F5", "--seed", "2"],
    ["example48", "--field", "F7", "--a", "2", "--b", "3", "--c", "1", "--d", "5"],
]


@pytest.mark.parametrize("argv", FP_CLI_SWEEP, ids=lambda a: "-".join(a[:1] + a[-2:]))
def test_cli_over_fp_builds_no_fp_elements(tmp_path, capsys, monkeypatch, argv):
    # every scalar the library takes in and gives out over F_p is a residue
    from liemap.cli import main
    if argv[0] == "engel-solve":
        dim = 8 if argv[2] == "A2" else 10
        target = tmp_path / "target.json"
        target.write_text('{"basis": "chevalley", "coeffs": [%s]}'
                          % ", ".join('"%d"' % (k % 3 + 1) for k in range(dim)))
        argv = argv + ["--target", str(target)]
    built = []

    def no_fp_element(self, *args):
        built.append(args)
        raise AssertionError("the library built an FpElement")

    monkeypatch.setattr(scalar.FpElement, "__init__", no_fp_element)
    code = main(argv)
    out = capsys.readouterr().out
    assert not built and code == 0 and out


def test_engel_solve_builds_no_fp_elements(monkeypatch):
    # the solve path holds residues: the roots of f, the regular h,
    # f(beta(h)), the division and the conjugator's scalars
    rng = random.Random(47)
    cases = []
    for t, r, f in (("A", 2, F5), ("A", 3, F7), ("B", 2, F5)):
        alg = build_algebra(t, r, f)
        targets = [random_nonzero_element(alg, rng) for _ in range(3)]
        cases.append((alg, [x for x in targets if not alg.is_central(x)]))

    def no_fp_element(self, *args):
        raise AssertionError("the solve path built an FpElement")

    monkeypatch.setattr(scalar.FpElement, "__init__", no_fp_element)
    for alg, targets in cases:
        p = alg.field.modulus
        for coeffs in ([1], [0, 1]):
            P, spec = make_engel(coeffs)
            S = spec.roots_in(alg.field)
            assert S == [0] and all(type(s) is int for s in S)
            h = alg.find_regular(S)
            assert all(0 != root_value(alg, b.coords, h) < p for b in alg.rs.roots)
            for x in targets:
                sol = maps.engel_solve(alg, spec, x)
                assert all(type(c) is int for c in sol.X.coeffs + sol.Y.coeffs)
                assert evaluate(P, [sol.X, sol.Y]) == x and sol.certificate


def test_engel_solve_generalized_on_F7():
    # |K| = 7 is below the sufficient bound m|R| = 12, yet a good h exists
    rng = random.Random(78)
    alg = build_algebra("A", 2, F7)
    P, spec = make_engel([1, 1])
    for _ in range(40):
        x = random_nonzero_element(alg, rng)
        sol = maps.engel_solve(alg, spec, x)
        assert evaluate(P, [sol.X, sol.Y]) == x


def test_engel_solve_rank3_type_A():
    # exercises the deterministic elimination on 4x4 matrices
    alg = build_algebra("A", 3, F5)
    P, spec = make_engel([0, 1])
    rng = random.Random(41)
    for _ in range(20):
        x = random_nonzero_element(alg, rng)
        if alg.is_central(x):
            continue
        sol = maps.engel_solve(alg, spec, x)
        assert evaluate(P, [sol.X, sol.Y]) == x


def test_engel_solve_avoid_set_of_size_two():
    # generalized spec whose f has two roots in F5
    alg = build_algebra("A", 1, F5)
    P, spec = make_engel([1, 1])  # f = -t + t^2, roots {0, 1}
    assert [str(r) for r in spec.roots_in(F5)] == ["0", "1"]
    rng = random.Random(42)
    for _ in range(20):
        x = random_nonzero_element(alg, rng)
        sol = maps.engel_solve(alg, spec, x)
        assert evaluate(P, [sol.X, sol.Y]) == x
        # the chosen h avoids both roots on every root of the system
        h = alg.element_from_json(sol.trace["h"])
        for b in alg.rs.roots:
            v = root_value(alg, b.coords, h)
            assert v != F5.residue(0) and v != F5.residue(1)


def test_conjugate_into_U_deterministic():
    alg = build_algebra("A", 2, F5)
    rng = random.Random(4)
    l = random_nonzero_element(alg, rng)
    g1, u1 = alg.conjugate_into_U(l)
    g2, u2 = alg.conjugate_into_U(l)
    assert u1 == u2 and g1.factors == g2.factors


def test_engel_solve_B2():
    alg = build_algebra("B", 2, F5)
    _, spec = make_engel([1])
    P, _ = make_engel([1])
    rng = random.Random(5)
    for _ in range(5):
        x = random_nonzero_element(alg, rng)
        sol = maps.engel_solve(alg, spec, x, seed=3)
        assert evaluate(P, [sol.X, sol.Y]) == x


def test_engel_solve_C3():
    # rank-3 randomized conjugation: 70 search attempts of 18 root elements
    alg = build_algebra("C", 3, F7)
    P, spec = make_engel([1])
    rng = random.Random(2)
    x = alg.element_from_ints([rng.randrange(7) for _ in range(alg.dim)])
    sol = maps.engel_solve(alg, spec, x)
    assert evaluate(P, [sol.X, sol.Y]) == x
    assert len(sol.trace["conjugator"]) == 2 * len(alg.rs.positive_roots)
    # recorded with the dense-matrix search (2.5 min on a 2-vCPU x86-64 VM)
    assert sol.certificate == (
        "24dfc39e4cfec14be5bad8448fe40289db25daf9ad95af461506e0015e4b5ce1")


# -- image scans --------------------------------------------------------------


def test_scan_E2_sl2_F3():
    alg = build_algebra("A", 1, F3)
    P, _ = make_engel([0, 1])
    rep = maps.image_scan(alg, P, mode="exhaustive")
    assert rep.attained_count == rep.total_elements == 27
    assert rep.contains_all_noncentral and rep.contains_zero
    assert rep.central_hits == [] and rep.missed_sample == []
    assert rep.hit_counts == {"zero": 1, "central_nonzero": 0, "noncentral": 26}


def test_scan_requires_finite_field():
    alg = build_algebra("A", 1, Q)
    P, _ = make_engel([1])
    with pytest.raises(maps.MapsError):
        maps.image_scan(alg, P, mode="exhaustive")


def test_scan_budget():
    alg = build_algebra("A", 2, F3)
    P, _ = make_engel([0, 1])
    with pytest.raises(maps.ScanBudgetError):
        maps.image_scan(alg, P, mode="exhaustive", budget=1000)


def test_engel_scan_budget(monkeypatch):
    alg = build_algebra("A", 2, F3)
    _, spec = make_engel([0, 1])
    monkeypatch.setenv("LIEMAP_BUDGET", "6560")
    with pytest.raises(maps.ScanBudgetError):
        maps.engel_image_scan(alg, spec)


@pytest.mark.parametrize("text", ["[[X1,X2],X2]", "[X1,X2] + 2*[[X1,X2],X2]"])
def test_scan_past_the_budget_is_the_engel_engine(text):
    # 125^2 assignments pass budget 125, but an Engel sum labels 125 elements
    alg = build_algebra("A", 1, F5)
    P = parse(text)
    rep = maps.image_scan(alg, P, budget=125)
    assert rep == maps.engel_image_scan(alg, engel_spec(P), budget=125)
    assert rep.mode == {"kind": "exhaustive", "engine": "engel-linear"}
    with pytest.raises(maps.ScanBudgetError, match="as an Engel sum P needs 125 element"):
        maps.image_scan(alg, P, budget=124)
    with pytest.raises(maps.ScanBudgetError, match="use sampled mode"):
        maps.image_scan(alg, parse("[[X1,X2],X1]"), budget=125)
    assert maps.image_scan(alg, P, budget=125 ** 2).mode["engine"] == "brute-force"


def test_sampled_scan_keeps_a_declared_arity():
    # [X1,X2] declared in three variables draws X3 as well: the domain is
    # N^3, and each printed preimage is the least of the seed's N^3 draws
    # that reaches it
    alg = build_algebra("A", 1, F3)
    P = LiePoly(Br(Var(1), Var(2)), 3)
    rep = maps.image_scan(alg, P, mode="sampled", seed=1)
    N = 27
    rng = random.Random(1)
    ref = _reference_attained(alg, P, [rng.randrange(N ** 3) for _ in range(10000)])
    assert rep.domain_size == N ** 3 and rep.arity == 3
    assert rep.attained_count == len(ref)
    assert [e["preimage"] for e in rep.preimage_samples] == [
        [alg.element_from_ints(maps._decode(ref[v] // N ** k % N, 3, alg.dim)).to_json()
         for k in range(3)] for v in sorted(ref)[:8]]


def test_scan_workers_bit_identical():
    alg = build_algebra("A", 1, F3)
    P, _ = make_engel([0, 1])
    r1 = maps.image_scan(alg, P, mode="exhaustive", workers=1)
    r2 = maps.image_scan(alg, P, mode="exhaustive", workers=2)
    j1, j2 = r1.to_json(), r2.to_json()
    j1.pop("workers"), j2.pop("workers")
    assert j1 == j2


def test_scan_sampled_workers_bit_identical():
    alg = build_algebra("A", 1, F5)
    P = maps.example48_poly()
    r1 = maps.image_scan(alg, P, mode="sampled", seed=11, sample_count=600,
                         workers=1)
    r2 = maps.image_scan(alg, P, mode="sampled", seed=11, sample_count=600,
                         workers=3)
    j1, j2 = r1.to_json(), r2.to_json()
    j1.pop("workers"), j2.pop("workers")
    assert j1 == j2


def test_sampled_scan_draws_once_per_scan(monkeypatch):
    # 10,000 draws make two chunks at workers=2; each takes its slice of the
    # one stream image_scan draws, forked or run here in turn
    alg = build_algebra("A", 2, F3)
    P = engel_monomial(2)

    def scan(workers):
        j = maps.image_scan(alg, P, mode="sampled", seed=3, workers=workers).to_json()
        assert j.pop("workers") == workers
        return j

    forked = scan(2)
    assert scan(1) == forked
    chunks, calls, draws = [], [], maps._draws

    def in_turn(worker, n, workers, *common):
        step = -(-n // workers)
        chunks.extend(range(0, n, step))
        return [worker((lo, min(n, lo + step)) + common) for lo in range(0, n, step)]

    monkeypatch.setattr(maps, "_map_chunks", in_turn)
    monkeypatch.setattr(maps, "_draws", lambda *args: calls.append(args) or draws(*args))
    assert scan(2) == forked
    assert chunks == [0, 5000] and len(calls) == 1


def test_scan_sampled_deterministic():
    alg = build_algebra("A", 1, F5)
    P = maps.example48_poly()
    r1 = maps.image_scan(alg, P, mode="sampled", seed=11, sample_count=500)
    r2 = maps.image_scan(alg, P, mode="sampled", seed=11, sample_count=500)
    assert r1.to_json() == r2.to_json()
    assert r1.mode == {"kind": "sampled", "count": 500, "seed": 11}
    with pytest.raises(maps.MapsError):
        maps.image_scan(alg, P, mode="sampled")


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_scan_budget_argument_below_1(mode):
    alg = build_algebra("A", 1, F3)
    P, _ = make_engel([0, 1])
    for budget in (0, -5):
        with pytest.raises(maps.InvalidBudgetError):
            maps.image_scan(alg, P, mode=mode, seed=1, budget=budget)


@pytest.mark.parametrize("count", [0, -3])
def test_scan_sample_count_below_1(count):
    alg = build_algebra("A", 1, F3)
    with pytest.raises(maps.InvalidSampleCountError, match="sample_count"):
        maps.image_scan(alg, parse("[X1,X2]"), mode="sampled", seed=1,
                        sample_count=count)


def test_scan_workers_bit_identical_inside_blocks():
    # 15,625 assignments split in 3 chunks: 15,625 / 3 is no multiple of
    # N = 125, so chunk edges fall inside a block of assignments sharing X2
    alg = build_algebra("A", 1, F5)
    P = maps.example48_poly()
    reports = []
    for workers in (1, 2, 3):
        j = maps.image_scan(alg, P, mode="exhaustive", workers=workers).to_json()
        assert j.pop("workers") == workers
        reports.append(j)
    assert reports[0] == reports[1] == reports[2]


def _sweep_report(alg, P, workers=1):
    """The oracle of the exhaustive scan: the report on a plain _scan_chunk
    sweep of every assignment index in [0, N^d)."""
    total = (alg.field.modulus ** alg.dim) ** P.nvars
    attained = _chunk(alg, P, 0, total, None)
    return maps._build_report(alg, P, {"kind": "exhaustive", "engine": "brute-force"},
                              attained, lambda _: attained, total, workers)


# (type, rank, field, most variables) whose full sweep tier-1 can afford
_SWEEP_ALGEBRAS = [("A", 1, "F3", 3), ("A", 1, "F5", 2), ("A", 2, "F2", 2)]


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.sampled_from(_SWEEP_ALGEBRAS), st.integers(2, 3), st.integers(0, 2 ** 32),
       st.sampled_from([1, 2]))
def test_cover_scan_report_is_the_full_sweep(algebra, arity, seed, workers):
    # random P of degree <= 5; X_d may not occur in P, and P may vanish
    t, r, spec, most = algebra
    alg = build_algebra(t, r, make_field(spec))
    P = random_poly(random.Random(seed), nvars=min(arity, most), max_degree=5)
    assert (maps.image_scan(alg, P, workers=workers).to_json()
            == _sweep_report(alg, P, workers).to_json())


_SWEEP_POLYS = {"E1": engel_monomial(1), "E2": engel_monomial(2),
                "E3": engel_monomial(3), "example48": maps.example48_poly(),
                "[[X1,X2],X3]": parse("[[X1,X2],X3]")}


@pytest.mark.parametrize("name,p", [
    (name, p) for name, P in _SWEEP_POLYS.items() for p in (3, 5, 7, 11)
    if (p ** 3) ** P.nvars <= maps.DEFAULT_SCAN_BUDGET])
def test_cover_scan_report_is_the_full_sweep_on_sl2(name, p):
    alg = build_algebra("A", 1, make_field("F%d" % p))
    P = _SWEEP_POLYS[name]
    assert maps.image_scan(alg, P, workers=2).to_json() == _sweep_report(alg, P, 2).to_json()


@pytest.mark.parametrize("name,p", [("example48", 7), ("E2", 7), ("E2", 11)])
def test_cover_scan_runs_few_kernel_blocks(monkeypatch, name, p):
    # a block is one X_d (N = p^3 lanes): phase 1 runs one per cover point,
    # one per G-orbit (9 on A1/F7, 13 on A1/F11), and phase 2 at most one
    # per printed element, where the full sweep runs N
    blocks = {("example48", 7): 9, ("E2", 7): 10, ("E2", 11): 14}[name, p]
    calls = []
    kernel_of = lanes.block_kernel

    def counting(*args):
        kernel = kernel_of(*args)

        def count(xs, n):
            calls.append(n)
            return kernel(xs, n)
        return count

    monkeypatch.setattr(lanes, "block_kernel", counting)
    alg = build_algebra("A", 1, make_field("F%d" % p))
    rep = maps.image_scan(alg, _SWEEP_POLYS[name])
    printed = len(rep.central_hits) + len(rep.preimage_samples)
    assert len(calls) == blocks <= len(orbits._pure_orbit_cover(alg)) + printed


@pytest.mark.parametrize("name", ["example48", "E2"])
def test_values_at_y_are_g_times_the_values_at_its_cover_point(name):
    # the rule phase 2 rests on: for Y = g r with r = g^-1 Y the end of Y's
    # via chain (orbits.pullback), v is a value of P with X_d = Y exactly
    # when g^-1 v is one with X_d = r
    alg = build_algebra("A", 1, F5)
    P = _SWEEP_POLYS[name]
    N = alg.field.modulus ** alg.dim
    M = N ** (P.nvars - 1)
    blocks = [_chunk(alg, P, y * M, (y + 1) * M, None) for y in range(N)]
    cover = set(orbits._pure_orbit_cover(alg))
    pull = orbits.pullback(alg)
    for y in range(N):
        r, moved = pull(y, range(N))
        assert r in cover
        assert {v for v, u in enumerate(moved) if u in blocks[r]} == set(blocks[y])


# the scan kernel's oracle: (type, rank, p, sampled?) per algebra, bytes
# columns up to p = 13 and lists for F17; the coefficients include 1/2 and
# multiples of p, resolved once p is known
_KERNEL_ALGEBRAS = [("A", 1, 3, False), ("A", 1, 5, False), ("A", 1, 7, False),
                    ("A", 2, 2, False), ("B", 2, 3, True), ("B", 2, 13, True),
                    ("A", 1, 17, True)]
_KERNEL_COEFFS = [1, -1, 2, Fraction(1, 2), Fraction(-3, 2), "p", "-2p", "p/2"]


def _kernel_coefficient(kind, p):
    multiples = {"p": Fraction(p), "-2p": Fraction(-2 * p), "p/2": Fraction(p, 2)}
    return multiples[kind] if kind in multiples else Fraction(kind)


def _random_node(rng, arity, coeffs, depth):
    r = rng.random()
    if depth == 0 or r < 0.25:
        return Var(rng.randint(1, arity))
    if r < 0.75:
        return Br(_random_node(rng, arity, coeffs, depth - 1),
                  _random_node(rng, arity, coeffs, depth - 1))
    return Sum([(rng.choice(coeffs), _random_node(rng, arity, coeffs, depth - 1))
                for _ in range(rng.randint(1, 3))])


@st.composite
def _kernel_cases(draw):
    """(algebra key, polynomial text, start, end, seed, block lanes)."""
    t, r, p, sampled = draw(st.sampled_from(_KERNEL_ALGEBRAS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    arity = rng.randint(1, 3)
    coeffs = [_kernel_coefficient(k, p) for k in _KERNEL_COEFFS]
    text = LiePoly(_random_node(rng, arity, coeffs, 4), arity).pretty()
    N = p ** build_algebra(t, r, make_field("F%d" % p)).dim
    total = 400 if sampled else N ** parse(text).nvars
    start = rng.randrange(total)
    end = min(total, start + rng.randint(1, 400))
    lanes = rng.choice([1, 7, 50, maps._BLOCK_LANES])
    return (t, r, p), text, start, end, (5 if sampled else None), lanes


def _reference_attained(alg, P, indices):
    """Value index -> least assignment index, by freelie.evaluate."""
    p, dim = alg.field.modulus, alg.dim
    N = p ** dim
    elems = {}
    attained = {}
    for a_idx in indices:
        rest, xs = a_idx, []
        for _ in range(P.nvars):
            rest, e_idx = divmod(rest, N)
            if e_idx not in elems:
                elems[e_idx] = alg.element_from_ints(maps._decode(e_idx, p, dim))
            xs.append(elems[e_idx])
        v = maps._encode(evaluate(P, xs).coeffs, p)
        attained[v] = min(attained.get(v, a_idx), a_idx)
    return attained


def _chunk(alg, P, start, end, seed):
    """maps._scan_chunk on [start, end) with the column store, kernel and
    seeded stream (for a seed) that image_scan builds for P."""
    store = lanes.column_store(alg.field.modulus)
    drawn = None if seed is None else maps._draws(
        seed, (alg.field.modulus ** alg.dim) ** P.nvars, end)
    return maps._scan_chunk((start, end, alg, P.nvars, store,
                             lanes.block_kernel(P, alg, store), drawn, {}))


# over F13 a bytes lane sums at most K = 255 // 12 - 1 = 20 terms before it
# is reduced: a sampled sum of 24 batched terms (rows past K), and X2
# constant at (12, 12, 12) in three 12*X2 terms (offset 432 before reduction)
_PAST_K_TERMS = " + ".join(["12*X1"] * 8 + ["12*[X1,X2]"] * 8 + ["11*X2"] * 8)
_OFFSET_PAST_255 = "12*X2 + 12*X2 + 12*X2 + [X1,X2]"
_OFFSET_START = 13 ** 3 * (13 ** 3 - 1) - 100


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_kernel_cases())
@example((("A", 1, 5), "[[[X1,X2],X1],[[X1,X2],X2]]", 117, 15_523, None, 4096))
@example((("A", 2, 2), "1/2*[X1,X2] + 2*[[X1,X2],X1] + X2", 3, 300, None, 7))
@example((("B", 2, 3), "1/2*[[X1,X2],X3] - 3*X1 + [X2,X1]", 1, 4500, 5, 4096))
@example((("A", 1, 3), "-3/2*[X1,[X2,X1]] + 3*X3", 5, 19_000, None, 4096))
@example((("A", 1, 3), "3*(1/3*X1) + [X1,X2]", 0, 500, None, 4096))
@example((("A", 1, 7), "[[[X1,X2],X1],[[X1,X2],X2]]", 200, 9_000, None, 4096))
@example((("G", 2, 13), _PAST_K_TERMS, 0, 150, 7, 4096))
@example((("A", 1, 13), _OFFSET_PAST_255, _OFFSET_START, _OFFSET_START + 2_400,
          None, 4096))
@example((("A", 1, 17), "[[X1,X2],X2] - 5*X1 + 1/2*[X2,[X1,X2]]", 0, 400, 3, 4096))
def test_scan_chunk_matches_element_evaluation(case):
    """The block kernel's attained map equals the element bracket's on
    chunk bounds off multiples of N and across block boundaries."""
    (t, r, p), text, start, end, seed, lanes = case
    alg = build_algebra(t, r, make_field("F%d" % p))
    P = parse(text)
    if seed is None:
        indices = range(start, end)
    else:
        rng = random.Random(seed)
        total = (p ** alg.dim) ** P.nvars
        indices = [rng.randrange(total) for _ in range(end)][start:]
    with mock.patch.object(maps, "_BLOCK_LANES", lanes):
        try:
            expected = _reference_attained(alg, P, indices)
        except ZeroDivisionError:
            # a coefficient with p in its denominator, such as 1/2 over F2
            with pytest.raises(ZeroDivisionError):
                _chunk(alg, P, start, end, seed)
            return
        assert _chunk(alg, P, start, end, seed) == expected


def test_kernel_oracle_examples_pass_the_carry_bounds():
    # the F13 examples above reach what a bytes lane must not carry: more
    # than K terms in one sum, and a constant part above 255 before reduction
    store = lanes.column_store(13)
    seen = {"terms": 0, "offset": 0}
    combine = store.combine

    def recording(terms, offset, n):
        seen["terms"] = max(seen["terms"], len(terms))
        seen["offset"] = max(seen["offset"], offset)
        return combine(terms, offset, n)

    with mock.patch.object(store, "combine", recording):
        _chunk(build_algebra("G", 2, make_field("F13")), parse(_PAST_K_TERMS), 0, 150, 7)
        _chunk(build_algebra("A", 1, make_field("F13")), parse(_OFFSET_PAST_255),
               _OFFSET_START, _OFFSET_START + 2_400, None)
    assert seen["terms"] > store.run == 20
    assert seen["offset"] > 255


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_byte_columns_match_list_columns(p):
    # the bytes store's table arithmetic against plain ints, on sums of 0 to
    # 3K + 2 terms with offsets up to 4 * 255 and on the digit split
    store, ref = lanes.column_store(p), lanes._ListColumns(p)
    assert isinstance(store, lanes._ByteColumns)
    rng = random.Random(p)
    n = 300
    cols = [[rng.randrange(p) for _ in range(n)] for _ in range(3 * store.run + 2)]
    for count in sorted({0, 1, 2, store.run, store.run + 1, 3 * store.run + 2}):
        for offset in (0, 1, p, 4 * 255 + 1):
            cs = [rng.randrange(1, p) for _ in range(count)]
            got = store.combine([(c, bytes(u)) for c, u in zip(cs, cols)], offset, n)
            want = ref.combine(list(zip(cs, cols)), offset, n)
            assert (None if got is None else list(got)) == want
    worst = bytes([p - 1]) * n      # every lane at its largest, as is the offset
    for count in (store.run, store.run + 1, 3 * store.run + 2):
        got = store.combine([(1, worst)] * count, p - 1, n)
        assert list(got) == [(count + 1) * (p - 1) % p] * n
    for u, v in zip(cols, cols[1:]):
        assert list(store.product(bytes(u), bytes(v))) == [a * b % p for a, b in zip(u, v)]
    ints = [rng.randrange(p ** 19) for _ in range(n)] + [0, p ** 19 - 1]
    assert [list(c) for c in store.digits(ints, 19)] == ref.digits(ints, 19)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
def test_lane_codes_match_encode(p):
    # every lane width (1, 2, 4 and 8 bytes) at both ends, the Horner
    # fallback past 8 bytes, the list store above 13, and None columns
    store = lanes.column_store(p)
    rng = random.Random(p)
    n = 50
    dims = {1}
    for w in (1, 2, 4, 8):
        top = max(m for m in range(1, 70) if p ** m <= 256 ** w)
        dims |= {top, top + 1}
    for dim in sorted(dims):
        ints = [[rng.randrange(p) for _ in range(n)] for _ in range(dim)]
        for k in range(dim):
            ints[k][0] = p - 1          # the largest code on lane 0
        cols = [bytes(c) if isinstance(store, lanes._ByteColumns) else c for c in ints]
        want = [maps._encode(v, p) for v in zip(*ints)]
        assert want[0] == p ** dim - 1
        assert store.codes(cols, n) == want
        holes = [None if k % 3 == 1 else c for k, c in enumerate(cols)]
        zero = [0] * n
        want = [maps._encode(v, p) for v in
                zip(*[zero if c is None else c for c in holes])]
        assert store.codes(holes, n) == want
        assert store.codes([None] * dim, n) == [0] * n


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _three_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


def test_scan_pool_forks_at_most_one_process_per_cpu(monkeypatch):
    # one chunk forks nothing; workers above the CPU count run one chunk
    # here and fork one child per further CPU and per further full block:
    # E_2 on A1/F11 scans 13 X_d of 1,331 assignments, 4 blocks
    _three_cpus(monkeypatch)
    alg = build_algebra("A", 1, make_field("F11"))
    P = engel_monomial(2)
    forks = fork_counter(monkeypatch)
    one = maps.image_scan(alg, P, workers=1).to_json()
    assert forks == []      # one chunk: no fork
    assert one.pop("workers") == 1
    wide = maps.image_scan(alg, P, workers=100_000).to_json()
    cover = orbits._pure_orbit_cover(alg)
    blocks = len(cover) * 11 ** 3 // maps._BLOCK_LANES
    assert len(forks) == min(len(cover), 3, blocks) - 1 == 2
    assert wide.pop("workers") == 100_000
    assert wide == one
    _assert_no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    del forks[:]
    single = maps.image_scan(alg, P, workers=100_000).to_json()
    assert forks == []
    assert single.pop("workers") == 100_000
    assert single == one


@pytest.mark.parametrize("type_label,rank,spec,name", [
    ("A", 1, "F7", "E2"), ("A", 1, "F7", "example48"), ("A", 2, "F2", "E2")])
def test_scan_below_a_block_per_child_forks_nothing(monkeypatch, type_label, rank, spec,
                                                    name):
    # phase 1 maps |cover| N lanes (A1/F7: 9 * 343 = 3,087; A2/F2: 7 * 256
    # = 1,792), less than two blocks: a fork would cost more than the block
    # it spreads, so workers=2 runs in this process, with the same bytes
    _two_cpus(monkeypatch)
    alg = build_algebra(type_label, rank, make_field(spec))
    P = _SWEEP_POLYS[name]
    forks = fork_counter(monkeypatch)
    two = maps.image_scan(alg, P, workers=2).to_json()
    assert forks == []
    assert two.pop("workers") == 2
    one = maps.image_scan(alg, P, workers=1).to_json()
    assert one.pop("workers") == 1
    assert two == one


@pytest.mark.parametrize("name", ["E2", "example48"])
def test_exhaustive_scan_builds_x1_columns_once(monkeypatch, name):
    # phase 1's 19 X_d and phase 2's extra X_d on A1/F7 share one block of
    # X1's 343 digit columns
    alg = build_algebra("A", 1, make_field("F7"))
    store = lanes.column_store(7)
    calls = []
    digits = store.digits

    def counting(ints, m):
        calls.append((ints, m))
        return digits(ints, m)

    monkeypatch.setattr(store, "digits", counting)
    maps.image_scan(alg, _SWEEP_POLYS[name], workers=2)
    assert calls == [(range(343), 3)]


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _raise_past_the_first_chunk(args):
    if args[0]:
        raise KeyError("chunk %d" % args[0])
    return args[0]


def _exit_past_the_first_chunk(args):
    if args[0]:
        os._exit(1)
    return args[0]


def test_map_chunks_runs_the_first_chunk_here_and_forks_the_rest(monkeypatch):
    _three_cpus(monkeypatch)
    forks = fork_counter(monkeypatch)
    pid = os.getpid()

    def where(a):
        return a[:2], os.getpid() == pid

    # one contiguous chunk per process: min(workers, n, CPUs) of them
    assert maps._map_chunks(where, 10, 5) == [((0, 4), True), ((4, 8), False),
                                               ((8, 10), False)]
    assert len(forks) == 2
    del forks[:]
    assert maps._map_chunks(where, 10, 2) == [((0, 5), True), ((5, 10), False)]
    assert len(forks) == 1
    del forks[:]
    assert maps._map_chunks(where, 2, 5) == [((0, 1), True), ((1, 2), False)]
    assert maps._map_chunks(where, 10, 1) == [((0, 10), True)]
    assert len(forks) == 1
    _assert_no_child_left()


def test_map_chunks_reraises_a_child_exception(monkeypatch):
    _two_cpus(monkeypatch)
    with pytest.raises(KeyError, match="chunk 5"):
        maps._map_chunks(_raise_past_the_first_chunk, 10, 2)
    _assert_no_child_left()
    # the least failing chunk decides: chunks (2, 4) and (4, 6) both raise
    _three_cpus(monkeypatch)
    with pytest.raises(KeyError, match="chunk 2"):
        maps._map_chunks(_raise_past_the_first_chunk, 6, 6)
    _assert_no_child_left()


class _Unrebuildable(Exception):
    # pickles, but cannot be rebuilt from its args
    def __init__(self, msg, code):
        super().__init__(msg)


def _raise_unrebuildable_past_the_first_chunk(args):
    if args[0]:
        raise _Unrebuildable("chunk %d" % args[0], 7)
    return args[0]


def test_map_chunks_names_an_outcome_that_cannot_be_sent(monkeypatch):
    _two_cpus(monkeypatch)
    with pytest.raises(RuntimeError, match="_Unrebuildable.*chunk 5"):
        maps._map_chunks(_raise_unrebuildable_past_the_first_chunk, 10, 2)
    _assert_no_child_left()
    with pytest.raises(RuntimeError, match="could not be sent"):
        maps._map_chunks(lambda a: (lambda: a) if a[0] else a[0], 10, 2)
    _assert_no_child_left()


def test_map_chunks_names_a_child_that_sent_nothing(monkeypatch):
    _two_cpus(monkeypatch)
    with pytest.raises(ChildProcessError, match="ended without a result"):
        maps._map_chunks(_exit_past_the_first_chunk, 10, 2)
    _assert_no_child_left()


def test_map_chunks_reaps_children_when_this_process_fails(monkeypatch):
    _two_cpus(monkeypatch)

    def fail_here(args):
        if not args[0]:
            raise ZeroDivisionError("chunk 0")
        return args[0]

    with pytest.raises(ZeroDivisionError, match="chunk 0"):
        maps._map_chunks(fail_here, 10, 2)
    _assert_no_child_left()


def test_map_chunks_reaps_the_children_when_a_fork_fails(monkeypatch):
    _three_cpus(monkeypatch)
    forks = fork_counter(monkeypatch)
    counting = os.fork

    def fail_second():
        if forks:
            raise BlockingIOError("no more processes")
        return counting()

    monkeypatch.setattr(os, "fork", fail_second)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    with pytest.raises(BlockingIOError):
        maps._map_chunks(lambda a: a[0], 9, 3)
    assert len(forks) == 1
    _assert_no_child_left()
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("n", [1, 2, 2 ** 9, 2 ** 9 + 1, 27 ** 2, 125 ** 2, 6561 ** 2,
                               3 ** 30, 13 ** 30, 17 ** 9])
def test_sampled_draws_are_randrange(n):
    # the scan's inline rejection loop draws CPython's randrange stream; n
    # runs over edge cases and the N^d of the sampled scans in these tests
    for seed in (0, 5, 11):
        rng = random.Random(seed)
        assert maps._draws(seed, n, 300) == [rng.randrange(n) for _ in range(300)]


def test_sampled_scan_at_the_nesting_bound():
    # E_m nests m brackets; the deepest the parser accepts still scans
    P = engel_monomial(MAX_NESTING)
    alg = build_algebra("A", 1, make_field("F3"))
    rng = random.Random(5)
    indices = [rng.randrange(27 ** 2) for _ in range(60)]
    assert _chunk(alg, P, 0, 60, 5) == _reference_attained(alg, P, indices)


# coefficient lists of length 1-4 with a nonzero last entry, which may still
# vanish mod p: monomials a t^m and mixed sums
_NONZERO = st.integers(-4, 8).filter(bool)
_ENGEL_COEFFS = st.one_of(
    st.builds(lambda m, a: [0] * (m - 1) + [a], st.integers(1, 4), _NONZERO),
    st.builds(lambda head, a: head + [a],
              st.lists(st.integers(-4, 8), max_size=3), _NONZERO))


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.tuples(st.sampled_from([3, 5, 7]), _ENGEL_COEFFS))
@example((3, [0, 1]))
@example((3, [1]))
@example((5, [0, 0, 1]))
@example((5, [1, 1]))
@example((3, [1, 2]))
@example((7, [0, 1]))
@example((7, [3, 0, 1]))
@example((11, [0, 1]))
def test_engel_linear_engine_matches_brute_force(case):
    """The linear-fiber engine must agree exactly with the brute-force oracle
    on every small case before it is trusted on larger ones."""
    p, coeffs = case
    _assert_engines_agree(build_algebra("A", 1, make_field("F%d" % p)), coeffs)


@pytest.mark.parametrize("coeffs", [[1], [0, 1], [1, 1], [0, 1, 1]],
                         ids=["1", "0,1", "1,1", "0,1,1"])
def test_engel_linear_engine_matches_brute_force_A2_F2(coeffs):
    # 65,536 assignments per case; sl(3, F_2) has a trivial centre, and
    # t^2 + t^3 misses 24 of its 256 elements
    _assert_engines_agree(build_algebra("A", 2, make_field("F2")), coeffs)


def _assert_engines_agree(alg, coeffs):
    P, spec = make_engel(coeffs)
    brute = maps.image_scan(alg, P, mode="exhaustive", workers=2)
    lin = maps.engel_image_scan(alg, spec)
    assert brute.attained_count == lin.attained_count
    assert brute.hit_counts == lin.hit_counts
    assert brute.contains_all_noncentral == lin.contains_all_noncentral
    assert brute.missed_sample == lin.missed_sample
    assert [h["element"] for h in brute.central_hits] == \
        [h["element"] for h in lin.central_hits]
    assert [h["element"] for h in brute.preimage_samples] == \
        [h["element"] for h in lin.preimage_samples]
    # every preimage the engine reports, re-evaluated by the element bracket
    for hit in lin.central_hits + lin.preimage_samples:
        xs = [alg.element_from_json(e) for e in hit["preimage"]]
        assert evaluate(P, xs) == alg.element_from_json(hit["element"])


@pytest.mark.parametrize("coeffs, digest", [
    ([1, 1], "c78006cffcaa9cb1d8584aa7a7164fe76d09e104ea5d8fc4fcc474aea8bd50ad"),
    # misses two central elements, so the Y walk never stops early
    ([0, 0, 1], "5f0d9c43eea03f699b2600fa7678369d141feed9a13cd8024f4cc36b2a7cddcc"),
    ([2, 0, 1], "9c1206dfa1c2baf30caa221d3f021bfa6094791a190726a93e38f7f64799f427"),
], ids=["1,1", "0,0,1", "2,0,1"])
def test_engel_linear_engine_pinned_sl3_F3(coeffs, digest):
    # regression constants: report digests of the unreduced engine, which
    # visited every Y and enumerated every column space in full
    alg = build_algebra("A", 2, F3)
    _, spec = make_engel(coeffs)
    rep = maps.engel_image_scan(alg, spec)
    assert hashlib.sha256(maps._canonical(rep.to_json()).encode()).hexdigest() == digest


@pytest.mark.parametrize("type_label,field_spec,coeffs,digest", [
    ("B", "F3", [0, 1], "3664037cc8119e330c44b4d591b5ae4cf50c634c2f27eae9496370dc7519af19"),
    ("B", "F3", [1, 1], "3ec03ceacd5614c5599239dc3b4739c5a6f31546ede7ded361e65cb1ff72c439"),
    ("G", "F2", [0, 1], "44561408a86b8917a29ea45c0f8fa04f54ff80394373243af3976b76783e1297"),
], ids=["B2/F3 0,1", "B2/F3 1,1", "G2/F2 0,1"])
def test_engel_linear_engine_pinned_rank_2(type_label, field_spec, coeffs, digest):
    # regression constants, recorded with the engine that credited every
    # element on its walk of Y, independently of the orbit labels
    alg = build_algebra(type_label, 2, make_field(field_spec))
    _, spec = make_engel(coeffs)
    rep = maps.engel_image_scan(alg, spec)
    assert hashlib.sha256(maps._canonical(rep.to_json()).encode()).hexdigest() == digest


def test_engel_scan_opens_no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Engel scan forked a worker")

    monkeypatch.setattr(os, "fork", refuse)
    alg = build_algebra("A", 2, F3)
    _, spec = make_engel([1, 1])
    rep = maps.engel_image_scan(alg, spec, workers=2)
    assert rep.contains_all_noncentral and rep.workers == 2


def test_scan_solve_cross_validation_sl2_F3():
    # |F_3| = 3 > |R+| = 1, so the size bound holds: scan and solver must
    # agree on the full noncentral set
    alg = build_algebra("A", 1, F3)
    P, spec = make_engel([0, 1])
    rep = maps.image_scan(alg, P, mode="exhaustive")
    from liemap.maps import _decode, _encode
    for idx in range(27):
        x = alg.element_from_ints(_decode(idx, 3, 3))
        if x.is_zero() or alg.is_central(x):
            continue
        sol = maps.engel_solve(alg, spec, x)
        v = evaluate(P, [sol.X, sol.Y])
        assert v == x
        assert _encode(v.coeffs, 3) in range(27)
    assert rep.contains_all_noncentral


def test_scan_solve_cross_validation_sl3_F3():
    # forward direction: everything the solver certifies is attained per the
    # exact linear-fiber scan (the 3^16 brute force is beyond the budget)
    alg = build_algebra("A", 2, F3)
    P, spec = make_engel([0, 1])
    lin = maps.engel_image_scan(alg, spec)
    assert lin.contains_all_noncentral
    assert lin.hit_counts == {"zero": 1, "central_nonzero": 2, "noncentral": 6558}
    # regression constant: the report's canonical-JSON digest
    assert hashlib.sha256(maps._canonical(lin.to_json()).encode()).hexdigest() == \
        "22929e9e7775bcdaa2f83979e2ce9b63ddb76e2178638ae5184cd564a70cebd5"
    rng = random.Random(13)
    for _ in range(60):
        x = random_nonzero_element(alg, rng)
        if alg.is_central(x):
            continue
        sol = maps.engel_solve(alg, spec, x)
        # E_2(X, Y) = D_Y^2 X with D_Y = -ad(Y), so x is in the column space of ad(Y)^2
        A = [[F3.residue(c) for c in row] for row in alg.ad_matrix(sol.Y)]
        M = linalg.mat_mul(A, A, F3)
        assert linalg.solve(M, [F3.residue(c) for c in x.coeffs], F3) is not None


# -- the example48 map ---------------------------------------------------------


def test_example48_scan_misses_me_mf():
    alg = build_algebra("A", 1, F5)
    P = maps.example48_poly()
    rep = maps.image_scan(alg, P, mode="exhaustive")
    # independent of the scan's int kernel: the element bracket
    from liemap.maps import _decode, _encode
    elems = [alg.element_from_ints(_decode(i, 5, 3)) for i in range(125)]
    attained = {_encode(evaluate(P, [x, y]).coeffs, 5) for y in elems for x in elems}
    assert len(attained) == rep.attained_count
    # basis order (h, e, f): m*e has index 5m, m*f has index 25m
    for m in range(1, 5):
        assert 5 * m not in attained
        assert 25 * m not in attained


def test_example48_closed_form_exhaustive():
    alg = build_algebra("A", 1, F5)
    P = maps.example48_poly()
    for a, b, c, d in itertools.product(range(5), repeat=4):
        av, bv, cv, dv = (F5.residue(v) for v in (a, b, c, d))
        X = alg.element([F5.residue(0), av, bv])
        Y = alg.element([dv, F5.residue(0), cv])
        assert evaluate(P, [X, Y]) == maps.example48_closed_form(alg, av, bv, cv, dv)


@pytest.mark.parametrize("field", [F5, F7], ids=str)
def test_library_returns_residues_over_fp(field):
    # every scalar handed out over F_p is an int in [0, p): matrix rows and
    # their invariants, the matrices' Chevalley coordinates, sl(2) witnesses
    # and values, automorphism matrices and the example48 values
    from liemap.matrixrep import WITNESS_ALGEBRAS, char_invariants, char_poly
    p = field.modulus

    def residues(xs):
        return all(type(x) is int and 0 <= x < p for x in xs)

    P = load_poly("razmyslov_bracket")
    matrices = []
    for key in ("paper-a2", "paper-b2"):
        realization, t1, t2 = load_witness_triples(key, field)
        v = maps.dominance_witness_check(P, t1, t2)
        real = build_algebra(*WITNESS_ALGEBRAS[realization], field)._get_realization()
        matrices += t1 + t2 + [v.value1, v.value2]
        for X in t1 + t2:
            x = real.from_matrix(X)
            assert residues(x.coeffs)
            matrices.append(real.to_matrix(x.scale(Fraction(-1, 2))))
    for realization in ("sl3", "so5"):
        res = maps.dominance_witness_search(parse("[[X1,X2],X3]"), realization, field,
                                            seed=1)
        matrices += res.triple1 + res.triple2
    for M in matrices:
        assert residues(x for r in M.rows for x in r)
        inv = char_invariants(M)
        assert residues(char_poly(M)) and residues([inv.f1, inv.f2, *inv.theta_pair])
    for mode in ("exact", "randomized"):
        v = maps.is_identity_sl2(parse("[[[X1,X2],X2],X2]"), field, mode=mode, seed=3)
        assert v.result == "not_identity"
        assert residues(c for t in v.witness for c in t) and residues(v.witness_value)
    alg = build_algebra("B", 2, field)
    g = alg.root_automorphism(alg.rs.roots[0], -2).compose(
        alg.root_automorphism(alg.rs.roots[3], 3))
    assert residues(x for r in g.matrix + g.inv_matrix for x in r)
    a1 = build_algebra("A", 1, field)
    for a, b, c, d in ((2, 3, 1, 5), (-1, -2, 4, 6), (1, 1, 1, 1)):
        assert residues(maps.example48_closed_form(a1, a, b, c, d).coeffs)
        s = maps.example48_s(field, *(field.residue(x) for x in (a, b, c, d)))
        assert residues([s])


def test_example48_special_values():
    alg = build_algebra("A", 1, Q)
    z = maps.example48_closed_form(alg, Q.residue(1), Q.residue(0),
                                   Q.residue(0), Q.residue(1))
    assert z.is_zero()  # s = 0
    v = maps.example48_closed_form(alg, Q.residue(1), Q.residue(1),
                                   Q.residue(1), Q.residue(1))
    # s = 3: 12h - 24e + 24f (exact evaluation fixes the e-term sign)
    assert [str(c) for c in v.coeffs] == ["12", "-24", "24"]
    z2 = maps.example48_closed_form(alg, Q.residue(2), Q.residue(3),
                                    Q.residue(0), Q.residue(0))
    assert z2.is_zero()  # c = d = 0 means Y = 0


def test_example48_reduction_invariance():
    # P(X + mY, Y) = P(X, Y + mX) = P(X, Y)
    alg = build_algebra("A", 1, F7)
    P = maps.example48_poly()
    rng = random.Random(21)
    for _ in range(50):
        X, Y = random_element(alg, rng), random_element(alg, rng)
        m = F7.residue(rng.randrange(7))
        base = evaluate(P, [X, Y])
        assert evaluate(P, [X + Y.scale(m), Y]) == base
        assert evaluate(P, [X, Y + X.scale(m)]) == base


# -- central probe -------------------------------------------------------------


def test_central_probe_trivial_center_rejected():
    alg = build_algebra("A", 1, F5)
    with pytest.raises(maps.MapsError):
        maps.central_image_probe(alg, range(1, 3))


def test_central_probe_empty_range():
    alg = build_algebra("A", 2, F3)
    rep = maps.central_image_probe(alg, [])
    assert rep.table == {} and rep.m0 is None


def test_central_probe_small():
    alg = build_algebra("A", 2, F3)
    rep = maps.central_image_probe(alg, range(1, 4))
    assert [len(rep.table[m]) for m in (1, 2, 3)] == [2, 2, 0]
    assert rep.m0 == 3
    # hits carry certified preimages (re-evaluated inside the probe)
    for hit in rep.table[1]:
        assert hit["element"]["coeffs"] != ["0"] * alg.dim


def test_central_probe_workers_match():
    # workers is only recorded: the report must not depend on it
    alg = build_algebra("A", 2, F3)
    reports = {w: maps.central_image_probe(alg, range(1, 13), workers=w).to_json()
               for w in (1, 2, 3)}
    assert hashlib.sha256(maps._canonical(reports[2]).encode()).hexdigest() == \
        "ba936ba020ca5281346a383adf841ee3dfce1190fc0b25cf2b8bcc842c600b53"
    for w, rep in reports.items():
        assert rep.pop("workers") == w
    assert reports[1] == reports[2] == reports[3]


@functools.lru_cache(maxsize=None)
def _union_find_roots(type_label, rank, spec):
    """Oracle: the least index of each index's orbit under every x_beta(t)
    (beta in R, t in F_p^*) and every scalar in F_p^*, by union-find over
    all p^dim points.  Each root automorphism is applied by linearity from
    its matrix's columns: the point one unit above v in digit k maps to
    g(v) + g(e_k)."""
    alg = build_algebra(type_label, rank, make_field(spec))
    p, dim = alg.field.modulus, alg.dim
    N = p ** dim
    parent = list(range(N))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        a, b = find(a), find(b)
        if a != b:
            parent[max(a, b)] = min(a, b)

    weights = [p ** k for k in range(dim)]
    for idx in range(N):
        v = maps._decode(idx, p, dim)
        for c in range(2, p):
            union(idx, maps._encode([c * x % p for x in v], p))
    for b in alg.rs.roots:
        for t in range(1, p):
            cols = [list(col) for col in zip(*alg.root_automorphism(b, t).matrix)]
            images, k = [[0] * dim], 0
            for idx in range(1, N):
                if k + 1 < dim and idx >= weights[k + 1]:
                    k += 1
                img = [(a + c) % p for a, c in zip(images[idx - weights[k]], cols[k])]
                images.append(img)
                union(idx, sum(map(operator.mul, img, weights)))
    return tuple(find(idx) for idx in range(N))


@pytest.mark.parametrize("type_label,rank,spec,n_orbits", [
    ("A", 1, "F5", 4), ("A", 2, "F3", 10), ("A", 3, "F2", 20)])
def test_orbit_representatives_match_union_find(type_label, rank, spec, n_orbits):
    alg = build_algebra(type_label, rank, make_field(spec))
    reps = orbits._orbit_tree(alg)[0]
    for y_idx, y, _ in reps:
        assert y == maps._decode(y_idx, alg.field.modulus, alg.dim)
    assert {y_idx: size for y_idx, _, size in reps} == \
        Counter(_union_find_roots(type_label, rank, spec))
    assert len(reps) == n_orbits
    assert sum(size for _, _, size in reps) == alg.field.modulus ** alg.dim


@pytest.mark.parametrize("type_label,rank,spec,n_orbits", [
    ("A", 1, "F5", 4), ("A", 2, "F3", 10), ("A", 3, "F2", 20)])
def test_orbit_labels_partition(type_label, rank, spec, n_orbits):
    # one label in range per index, the labels' classes are the union-find
    # orbits, and each class's least index and size are its representative's
    alg = build_algebra(type_label, rank, make_field(spec))
    reps, labels = orbits._orbit_tree(alg)[0], orbit_class_labels(alg)
    assert len(labels) == alg.field.modulus ** alg.dim and len(reps) == n_orbits
    assert set(labels) == set(range(n_orbits))
    roots = _union_find_roots(type_label, rank, spec)
    assert [reps[label][0] for label in labels] == list(roots)
    assert [size for _, _, size in reps] == [labels.count(k) for k in range(n_orbits)]


@pytest.mark.parametrize("type_label,rank,spec", [
    ("A", 2, "F3"), ("B", 2, "F3"), ("G", 2, "F2"), ("A", 3, "F2")])
def test_orbit_generators_are_simple_root_elements_minus_identity(type_label, rank,
                                                                   spec):
    # oracle: the columns of root_automorphism(+-alpha_i, 1).matrix - I,
    # in the generators' sparse form (nonzero columns and entries only), and
    # its rows, each with its weight p^i, in _generator_rows
    alg = build_algebra(type_label, rank, make_field(spec))
    p, dim = alg.field.modulus, alg.dim
    roots = [b for a in alg.rs.simple_roots for b in (a, -a)]
    gens = orbits._orbit_generators(alg)
    assert len(gens) == len(roots) == len(orbits._generator_rows(alg))
    for gen, by_rows, b in zip(gens, orbits._generator_rows(alg), roots):
        M = alg.root_automorphism(b, 1).matrix
        cols = [[(M[i][j] - (i == j)) % p for i in range(dim)] for j in range(dim)]
        assert gen == tuple((j, tuple((i, c) for i, c in enumerate(col) if c))
                            for j, col in enumerate(cols) if any(col))
        rows = list(zip(*cols))
        assert sorted(by_rows) == [
            (i, p ** i, tuple((j, c) for j, c in enumerate(row) if c))
            for i, row in enumerate(rows) if any(row)]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=8, max_size=8),
       st.lists(st.tuples(st.integers(0, 5), st.integers(1, 2)), max_size=4),
       st.integers(1, 4))
def test_probe_column_space_equivariance(ycoeffs, word, m):
    # column space of D_gY^m = g (column space of D_Y^m): the reason the
    # probe may visit one Y per orbit
    alg = build_algebra("A", 2, F3)
    g = alg.identity_automorphism()
    for r, t in word:
        g = alg.root_automorphism(alg.rs.roots[r], t).compose(g)
    Y = alg.element_from_ints(ycoeffs)

    def column_space(Y):
        D = alg.ad_matrix(-Y)
        M = D
        for _ in range(m - 1):
            M = linalg.mat_mul(M, D, F3)
        return maps._column_echelon(M, F3)[0]

    moved = [g.apply(alg.element(u)).coeffs for u in column_space(Y)]
    R, pivots = linalg.rref([list(u) for u in moved], F3)
    assert R[:len(pivots)] == column_space(g.apply(Y))


def test_central_probe_opens_no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the probe forked a worker")

    monkeypatch.setattr(os, "fork", refuse)
    alg = build_algebra("A", 2, F3)
    rep = maps.central_image_probe(alg, range(1, 4), workers=2)
    assert rep.m0 == 3 and rep.workers == 2


# -- equivariance ---------------------------------------------------------------


def test_evaluate_equivariance_under_automorphisms():
    alg = build_algebra("A", 2, F7)
    rng = random.Random(55)
    polys = [make_engel([0, 1])[0], parse("[[X1,X2],[X2,[X1,X2]]]"),
             parse("[[X1,X2],X1]")]
    for _ in range(100):
        P = polys[rng.randrange(len(polys))]
        b = alg.rs.roots[rng.randrange(len(alg.rs.roots))]
        g = alg.root_automorphism(b, F7.residue(rng.randrange(1, 7)))
        xs = [random_element(alg, rng) for _ in range(P.arity)]
        lhs = evaluate(P, [g.apply(x) for x in xs])
        assert lhs == g.apply(evaluate(P, xs))
