from fractions import Fraction

import pytest

from liemap.rootsystem import RootSystemError, build_root_system
from liemap.scalar import make_field

ALL_SUPPORTED = ([("A", r) for r in range(1, 9)] +
                 [("B", r) for r in (2, 3, 4)] +
                 [("C", r) for r in (2, 3, 4)] +
                 [("D", r) for r in (3, 4)] + [("G", 2)])

# independently tabulated positive roots of G2 (alpha_1 short)
G2_POSITIVE = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


def test_root_counts():
    assert len(build_root_system("A", 2).roots) == 6
    assert len(build_root_system("G", 2).roots) == 12
    assert len(build_root_system("B", 2).roots) == 8
    for t, r in ALL_SUPPORTED:
        rs = build_root_system(t, r)
        expected = {"A": r * (r + 1), "B": 2 * r * r, "C": 2 * r * r,
                    "D": 2 * r * (r - 1), "G": 12}[t]
        assert len(rs.roots) == expected


def test_unsupported():
    with pytest.raises(RootSystemError):
        build_root_system("E", 6)
    with pytest.raises(RootSystemError):
        build_root_system("A", 9)
    with pytest.raises(RootSystemError):
        build_root_system("D", 2)


def test_char2_c_family_rejected():
    f2 = make_field("F2")
    for t, r in (("A", 1), ("B", 2), ("C", 2), ("C", 3)):
        with pytest.raises(RootSystemError):
            build_root_system(t, r, f2)
    # non-C types are fine in characteristic 2
    build_root_system("A", 2, f2)
    build_root_system("B", 3, f2)
    build_root_system("D", 4, f2)


def test_g2_positive_roots_match_table():
    rs = build_root_system("G", 2)
    assert {b.coords for b in rs.positive_roots} == G2_POSITIVE


def test_negation_closure_exhaustive():
    for t, r in ALL_SUPPORTED:
        if r > 5:
            continue
        rs = build_root_system(t, r)
        coords = {b.coords for b in rs.roots}
        for c in coords:
            assert tuple(-x for x in c) in coords
        assert len(coords) == len(rs.roots)


def test_cartan_diagonal():
    for t, r in ALL_SUPPORTED:
        rs = build_root_system(t, r)
        for i in range(r):
            assert rs.cartan_matrix[i][i] == 2


def test_root_tables_match_the_definitions():
    # oracle: the Gram form itself, (a, b) = sum a_i G_ij b_j
    for t, r in ALL_SUPPORTED:
        rs = build_root_system(t, r)
        G = rs.gram

        def form(a, b):
            return sum(a[i] * G[i][j] * b[j] for i in range(r) for j in range(r))

        for b in rs.roots:
            bb = form(b.coords, b.coords)
            assert rs.length[b.coords] == bb
            assert [Fraction(rs.coroot[b.coords][j]) for j in range(r)] == \
                [Fraction(b.coords[j] * G[j][j], bb) for j in range(r)]
            assert list(rs.h_values[b.coords]) == \
                [Fraction(2 * form(b.coords, s.coords), form(s.coords, s.coords))
                 for s in rs.simple_roots]
            for g in rs.roots:
                assert rs.pairing(b.coords, g.coords) == \
                    Fraction(2 * form(b.coords, g.coords), form(g.coords, g.coords))


def test_chain_down_length():
    a2 = build_root_system("A", 2)
    a1, s2 = a2.simple_roots
    assert a2.chain_down_length(a1, s2) == 0
    assert a2.chain_down_length(a1, a2.root((1, 1))) == 1
    g2 = build_root_system("G", 2)
    assert g2.chain_down_length(g2.simple_roots[0], g2.root((3, 1))) == 3
    with pytest.raises(ValueError):
        a2.chain_down_length(a1, a1)
    with pytest.raises(ValueError):
        a2.chain_down_length(a1, -a1)


def test_chain_down_matches_brute_force_on_g2():
    # oracle: walk the hardcoded table instead of the generated root list
    g2 = build_root_system("G", 2)
    allroots = G2_POSITIVE | {tuple(-x for x in c) for c in G2_POSITIVE}
    for a in g2.roots:
        for b in g2.roots:
            if a.coords == b.coords or a.coords == tuple(-x for x in b.coords):
                continue
            p = 0
            cur = tuple(y - x for x, y in zip(a.coords, b.coords))
            while cur in allroots:
                p += 1
                cur = tuple(y - x for x, y in zip(a.coords, cur))
            assert g2.chain_down_length(a, b) == p


def test_root_strings_unbroken():
    # {k : beta + k*alpha is a root} is an integer interval
    for t, r in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("A", 4)]:
        rs = build_root_system(t, r)
        coords = {b.coords for b in rs.roots}
        for a in rs.roots:
            for b in rs.roots:
                if a.coords == b.coords or a.coords == tuple(-x for x in b.coords):
                    continue
                ks = [k for k in range(-4, 5)
                      if tuple(x + k * y for x, y in zip(b.coords, a.coords)) in coords]
                assert ks == list(range(min(ks), max(ks) + 1))
