import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import engel_preimages_oracle, saturate_oracle
from liemap import linalg, maps, orbits
from liemap.chevalley import AlgElement, build_algebra
from liemap.freelie import make_engel
from liemap.scalar import make_field

ENGEL_SUMS = {"E_1": [1], "E_2": [0, 1], "E_3": [0, 0, 1], "E_1+E_2": [1, 1],
              "E_1+2E_2+E_3": [1, 2, 1]}


@pytest.mark.parametrize("type_label,rank,spec,digest", [
    ("A", 2, "F3", "ebe5d6f82f79826d321e544631c05cd9fe13dda724349fa50fe93b929567b15b"),
    ("A", 3, "F2", "3d2f6cbb90004f454010ec9a9ec24342b79225c129aa53dffc08f1a362a3c8f8"),
    ("B", 2, "F3", "150f51804b42a25fdc55ad8e55d36dbbb36d5a1a811d9068b3ea22eb8b0be497"),
])
def test_orbit_labels_pinned(type_label, rank, spec, digest):
    # regression constants, recorded with the depth-first labelling search
    # that kept no tree: the search order changes neither labels nor reps
    alg = build_algebra(type_label, rank, make_field(spec))
    reps, labels = orbits._orbit_representatives(alg)
    assert hashlib.sha256(repr((reps, bytes(labels))).encode()).hexdigest() == digest


@pytest.mark.parametrize("type_label,rank,spec", [
    ("A", 1, "F7"), ("A", 2, "F3"), ("G", 2, "F2")])
def test_pure_orbit_cover_meets_every_orbit_of_G(type_label, rank, spec):
    # the G-orbit of each cover point lies in one orbit of G x F_p^*, and
    # together they cover every element; the saturated set is G-stable
    alg = build_algebra(type_label, rank, make_field(spec))
    p, dim = alg.field.modulus, alg.dim
    labels = orbits._orbit_representatives(alg)[1]
    cover = orbits._pure_orbit_cover(alg)
    assert cover[0] == 0 and cover == sorted(set(cover))
    seen = set()
    for y in cover:
        orbit = orbits._saturate(alg, [y])
        assert y in orbit and len({labels[v] for v in orbit}) == 1
        seen |= orbit
    assert seen == set(range(p ** dim))
    gens = [alg.root_automorphism(b, 1).matrix
            for a in alg.rs.simple_roots for b in (a, -a)]
    some = orbits._saturate(alg, cover[1:3])
    for v in some:
        x = maps._decode(v, p, dim)
        for g in gens:
            assert maps._encode(linalg.mat_vec(g, x, alg.field), p) in some


_SATURATE_ALGEBRAS = [("A", 1, "F3"), ("A", 1, "F5"), ("A", 1, "F7"), ("A", 2, "F2"),
                      ("A", 2, "F3"), ("G", 2, "F2")]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from(_SATURATE_ALGEBRAS), st.integers(0, 6), st.integers(0, 2 ** 32))
def test_saturate_is_the_breadth_first_closure(algebra, size, seed):
    # the union of stored G-orbits is the search's closure, on random subsets
    t, r, spec = algebra
    alg = build_algebra(t, r, make_field(spec))
    indices = random.Random(seed).sample(range(alg.field.modulus ** alg.dim), size)
    assert orbits._saturate(alg, indices) == saturate_oracle(alg, indices)


@pytest.mark.parametrize("type_label,rank,spec", [
    ("A", 1, "F7"), ("A", 2, "F2"), ("A", 2, "F3")])
def test_pure_orbit_labels_partition_into_stable_sets(type_label, rank, spec):
    # every index has a label, numbered in order of each orbit's least
    # index; x_{+-alpha_i}(1) keep every label; and each label's set is the
    # search's closure of its least index, so one orbit of G
    alg = build_algebra(type_label, rank, make_field(spec))
    p, dim = alg.field.modulus, alg.dim
    labels = orbits._pure_orbit_labels(alg)
    assert len(labels) == p ** dim
    gens = [alg.root_automorphism(b, 1).matrix
            for a in alg.rs.simple_roots for b in (a, -a)]
    classes = {}
    for idx, label in enumerate(labels):
        if label not in classes:
            assert label == len(classes)
            classes[label] = set()
        classes[label].add(idx)
        x = maps._decode(idx, p, dim)
        for g in gens:
            assert labels[maps._encode(linalg.mat_vec(g, x, alg.field), p)] == label
    for label, members in classes.items():
        assert saturate_oracle(alg, [min(members)]) == members


@pytest.mark.parametrize("type_label,rank,spec", [
    ("A", 2, "F3"), ("A", 3, "F2"), ("G", 2, "F2")])
def test_orbit_tree_reaches_every_point_from_its_root(type_label, rank, spec):
    # the parent x_k(-1) Y (k = via[Y]) of every non-root Y is in Y's orbit
    # with Y's scale, and the roots of orbit r are the multiples c Y_r with
    # c = scale; depths, filled along each chain, show the chains end
    alg = build_algebra(type_label, rank, make_field(spec))
    p, dim = alg.field.modulus, alg.dim
    reps, labels, via, scale = orbits._orbit_tree(alg)
    inverses = [alg.root_automorphism(b, p - 1).matrix
                for a in alg.rs.simple_roots for b in (a, -a)]
    depth = {}
    for idx in range(p ** dim):
        chain = []
        while idx not in depth:
            y = maps._decode(idx, p, dim)
            if via[idx] == orbits._ROOT:
                assert y == [scale[idx] * x % p for x in reps[labels[idx]][1]]
                depth[idx] = 0
                break
            chain.append(idx)
            parent = maps._encode(linalg.mat_vec(inverses[via[idx]], y, alg.field), p)
            assert parent != idx
            assert (labels[parent], scale[parent]) == (labels[idx], scale[idx])
            idx = parent
        for child in reversed(chain):
            depth[child] = depth[idx] + 1
            idx = child
    assert len(depth) == p ** dim


@pytest.mark.parametrize("type_label,rank,spec", [
    ("A", 1, "F7"), ("A", 2, "F3"), ("G", 2, "F2")])
def test_carried_inverse_takes_each_point_to_its_cover_point(type_label, rank, spec):
    # with the identity at every root the carried rows at Y are g^-1, the
    # product x_km(-1) .. x_k1(-1) of the dense inverses along Y's via chain
    # (k1 = via[Y]), and send Y to the chain's end r, a cover point; pullback
    # moves Y and sampled values by the same rows
    alg = build_algebra(type_label, rank, make_field(spec))
    field, p, dim = alg.field, alg.field.modulus, alg.dim
    _, _, via, _ = orbits._orbit_tree(alg)
    cover = set(orbits._pure_orbit_cover(alg))
    inverses = [alg.root_automorphism(b, p - 1).matrix
                for a in alg.rs.simple_roots for b in (a, -a)]
    eye = linalg.identity_matrix(field, dim)
    carried = orbits.tree_carrier(alg, lambda _: eye, False)
    pull = orbits.pullback(alg)

    def move(rows, idx):
        return maps._encode(linalg.mat_vec(rows, maps._decode(idx, p, dim), field), p)

    oracle = {}     # index -> (g^-1, r), filled along each chain
    for idx in range(p ** dim):
        chain = []
        while idx not in oracle and via[idx] != orbits._ROOT:
            chain.append(idx)
            idx = move(inverses[via[idx]], idx)
        if idx not in oracle:
            assert idx in cover
            oracle[idx] = eye, idx
        for child in reversed(chain):
            g_inv, r = oracle[idx]
            oracle[child] = linalg.mat_mul(g_inv, inverses[via[child]], field), r
            idx = child
    assert len(oracle) == p ** dim
    for idx, (g_inv, r) in oracle.items():
        rows = carried(idx)
        assert rows == g_inv and move(rows, idx) == r
    rng = random.Random(5)
    for idx in rng.sample(range(p ** dim), 100):
        values = rng.sample(range(p ** dim), 3)
        g_inv, r = oracle[idx]
        assert pull(idx, values) == (r, [move(g_inv, v) for v in values])


@pytest.mark.parametrize("coeffs", [[0, 1], [1, 1]], ids=["E_2", "E_1+E_2"])
def test_carried_annihilators_cut_out_the_column_space(coeffs):
    # for sampled Y, the carried rows are independent, one per missing
    # dimension, and vanish on the column space of g(D_Y)
    alg = build_algebra("A", 2, make_field("F3"))
    field, p, dim = alg.field, alg.field.modulus, alg.dim
    _, spec = make_engel(coeffs)
    acoeffs = [field.residue(c) for c in spec.coeffs]

    def echelon(y_idx):
        D = alg.ad_matrix(-AlgElement(alg, maps._decode(y_idx, p, dim)))
        return maps._column_echelon(maps._engel_matrix(acoeffs, D, field), field)

    annihilator = orbits.subspace_annihilators(alg, echelon, coeffs == [0, 1])
    for y_idx in random.Random(7).sample(range(p ** dim), 300):
        rows = annihilator(y_idx)
        basis, pivots = echelon(y_idx)
        assert len(rows) == dim - len(pivots)
        assert len(linalg.rref([list(r) for r in rows], field)[1]) == len(rows)
        assert all(sum(a * b for a, b in zip(phi, u)) % p == 0
                   for phi in rows for u in basis)


@pytest.mark.parametrize("poly", list(ENGEL_SUMS))
@pytest.mark.parametrize("type_label,rank,spec", [
    ("A", 1, "F3"), ("A", 1, "F5"), ("A", 1, "F7"), ("A", 2, "F2"), ("A", 2, "F3"),
    ("A", 3, "F2"), ("G", 2, "F2"), ("B", 2, "F3")])
def test_engel_scan_matches_the_column_space_walk(monkeypatch, type_label, rank, spec,
                                                  poly):
    # the whole report, with preimages credited by building every column
    # space against those found by carrying annihilators along the tree
    alg = build_algebra(type_label, rank, make_field(spec))
    _, espec = make_engel(ENGEL_SUMS[poly])
    built, real = [], maps._build_report
    monkeypatch.setattr(maps, "_build_report",
                        lambda *args: built.append(args) or real(*args))
    rep = maps.engel_image_scan(alg, espec)
    (_, P, mode_json, image, _, domain_size, workers), = built
    oracle = real(alg, P, mode_json, image, engel_preimages_oracle(alg, espec),
                  domain_size, workers)
    assert rep.to_json() == oracle.to_json()


def test_engel_scan_builds_few_engel_matrices(monkeypatch):
    # after labelling, one echelon form per orbit root and one g(D_Y) per
    # chosen Y, against 651 when every walked Y built its column space
    alg = build_algebra("A", 2, make_field("F3"))
    orbits._orbit_tree(alg)
    calls, real = [], maps._engel_matrix
    monkeypatch.setattr(maps, "_engel_matrix",
                        lambda *args: calls.append(1) or real(*args))
    rep = maps.engel_image_scan(alg, make_engel([0, 1])[1])
    assert rep.contains_all_noncentral
    assert len(calls) <= 32
