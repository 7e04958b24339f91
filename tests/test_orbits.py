import hashlib
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from helpers import engel_preimages_oracle, orbit_class_labels, saturate_oracle
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
    # that kept no tree: the search order changes neither labels nor reps;
    # the labels under G x F_p^* are read off the G-orbit labels
    alg = build_algebra(type_label, rank, make_field(spec))
    reps, labels = orbits._orbit_tree(alg)[0], array("i", orbit_class_labels(alg))
    assert hashlib.sha256(repr((reps, bytes(labels))).encode()).hexdigest() == digest


@pytest.mark.parametrize("type_label,rank,spec", [
    ("A", 1, "F7"), ("A", 2, "F3"), ("G", 2, "F2")])
def test_pure_orbit_cover_meets_every_orbit_of_G(type_label, rank, spec):
    # the G-orbit of each cover point lies in one orbit of G x F_p^*, and
    # together they cover every element; the saturated set is G-stable
    alg = build_algebra(type_label, rank, make_field(spec))
    p, dim = alg.field.modulus, alg.dim
    labels = orbit_class_labels(alg)
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


@pytest.mark.parametrize("type_label,rank,spec,size", [
    ("A", 1, "F7", 9), ("A", 1, "F11", 13), ("A", 2, "F3", 15), ("B", 2, "F3", 21),
    ("A", 3, "F2", 20), ("G", 2, "F2", 15)])
def test_pure_orbit_cover_has_one_point_per_orbit_of_G(type_label, rank, spec, size):
    # the breadth-first closures of the cover points are disjoint, so no
    # two lie in one G-orbit, and together they hold every element
    alg = build_algebra(type_label, rank, make_field(spec))
    cover = orbits._pure_orbit_cover(alg)
    assert len(cover) == size
    seen = set()
    for y in cover:
        orbit = saturate_oracle(alg, [y])
        assert seen.isdisjoint(orbit)
        seen |= orbit
    assert len(seen) == alg.field.modulus ** alg.dim


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
    # every index has a label, and the labels run from 0; x_{+-alpha_i}(1)
    # keep every label; and each label's set is the search's closure of its
    # least index, so one orbit of G
    alg = build_algebra(type_label, rank, make_field(spec))
    p, dim = alg.field.modulus, alg.dim
    labels = orbits._orbit_tree(alg)[1]
    assert len(labels) == p ** dim
    gens = [alg.root_automorphism(b, 1).matrix
            for a in alg.rs.simple_roots for b in (a, -a)]
    classes = {}
    for idx, label in enumerate(labels):
        classes.setdefault(label, set()).add(idx)
        x = maps._decode(idx, p, dim)
        for g in gens:
            assert labels[maps._encode(linalg.mat_vec(g, x, alg.field), p)] == label
    assert set(classes) == set(range(len(classes)))
    for label, members in classes.items():
        assert saturate_oracle(alg, [min(members)]) == members


@pytest.mark.parametrize("type_label,rank,spec", [
    ("A", 2, "F3"), ("A", 3, "F2"), ("G", 2, "F2")])
def test_orbit_tree_reaches_every_point_from_its_root(type_label, rank, spec):
    # the parent x_k(-1) Y (k = via[Y]) of every non-root Y carries Y's
    # label, every root is a multiple c Y_r of its class's least Y_r, and
    # depths, filled along each chain, show the chains end
    alg = build_algebra(type_label, rank, make_field(spec))
    p, dim = alg.field.modulus, alg.dim
    reps, labels, via, roots = orbits._orbit_tree(alg)
    classes = orbit_class_labels(alg)
    inverses = [alg.root_automorphism(b, p - 1).matrix
                for a in alg.rs.simple_roots for b in (a, -a)]
    depth = {}
    for idx in range(p ** dim):
        chain = []
        while idx not in depth:
            y = maps._decode(idx, p, dim)
            if via[idx] == orbits._ROOT:
                assert idx == roots[labels[idx]]
                assert any(y == [c * x % p for x in reps[classes[idx]][1]]
                           for c in range(1, p))
                depth[idx] = 0
                break
            chain.append(idx)
            parent = maps._encode(linalg.mat_vec(inverses[via[idx]], y, alg.field), p)
            assert parent != idx
            assert labels[parent] == labels[idx]
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
    # (k1 = via[Y]), and send Y to the chain's end r, a cover point; pullback,
    # built once per algebra, moves Y and sampled values by the same rows
    alg = build_algebra(type_label, rank, make_field(spec))
    field, p, dim = alg.field, alg.field.modulus, alg.dim
    _, _, via, _ = orbits._orbit_tree(alg)
    cover = set(orbits._pure_orbit_cover(alg))
    inverses = [alg.root_automorphism(b, p - 1).matrix
                for a in alg.rs.simple_roots for b in (a, -a)]
    eye = linalg.identity_matrix(field, dim)
    carried = orbits.tree_carrier(alg, lambda _: eye)
    pull = orbits.pullback(alg)
    assert orbits.pullback(alg) is pull

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

    annihilator = orbits.subspace_annihilators(alg, echelon)
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
    # after labelling, a cold scan builds one echelon form per G-orbit root
    # reached and one g(D_Y) per chosen Y (17 in all), against 651 when
    # every walked Y built its column space
    alg = build_algebra("A", 2, make_field("F3"))
    orbits._orbit_tree(alg)
    maps._engel_families.clear()
    calls, real = [], maps._engel_matrix
    monkeypatch.setattr(maps, "_engel_matrix",
                        lambda *args: calls.append(1) or real(*args))
    rep = maps.engel_image_scan(alg, make_engel([0, 1])[1])
    assert rep.contains_all_noncentral
    assert len(calls) <= 32


@pytest.mark.parametrize("poly", ["E_2", "E_1+E_2"])
def test_repeat_engel_scan_builds_and_carries_nothing(monkeypatch, poly):
    # the echelon forms and carried annihilators are kept per (algebra, g):
    # a second scan only enumerates, walks, solves and certifies
    alg = build_algebra("A", 2, make_field("F3"))
    _, spec = make_engel(ENGEL_SUMS[poly])
    maps._engel_families.clear()
    built, carried = [], []
    echelon, carry = maps._column_echelon, orbits._carry
    monkeypatch.setattr(maps, "_column_echelon",
                        lambda *args: built.append(1) or echelon(*args))
    monkeypatch.setattr(orbits, "_carry", lambda *args: carried.append(1) or carry(*args))
    first = maps.engel_image_scan(alg, spec)
    assert built and carried
    built.clear(), carried.clear()
    assert maps.engel_image_scan(alg, spec) == first
    assert not built and not carried


def test_interleaved_engel_scans_match_the_column_space_walk(monkeypatch):
    # more (algebra, g) families than the cache keeps, scanned in turn
    # twice: each report, from a warm or a rebuilt family, is the oracle's
    built, real = [], maps._build_report
    monkeypatch.setattr(maps, "_build_report",
                        lambda *args: built.append(args) or real(*args))
    cases = [(build_algebra(t, r, make_field(f)), make_engel(ENGEL_SUMS[poly])[1])
             for t, r, f in (("A", 2, "F3"), ("B", 2, "F3"))
             for poly in ("E_2", "E_1+E_2", "E_3")]
    assert len(cases) > maps._ENGEL_FAMILIES
    maps._engel_families.clear()
    oracles = {}
    for _ in range(2):
        for alg, espec in cases:
            built.clear()
            rep = maps.engel_image_scan(alg, espec)
            (_, P, mode_json, image, _, domain_size, workers), = built
            key = (alg, espec.coeffs)
            if key not in oracles:
                oracles[key] = real(alg, P, mode_json, image,
                                    engel_preimages_oracle(alg, espec),
                                    domain_size, workers).to_json()
            assert rep.to_json() == oracles[key]


def test_engel_family_cache_is_bounded():
    # keyed on the algebra and g's residues: 7 E_1 + E_2 and 2 E_1 + E_2
    # are one family over F5, and the last scanned is kept
    alg = build_algebra("A", 1, make_field("F5"))
    maps._engel_families.clear()
    for coeffs in ([1], [0, 1], [0, 0, 1], [1, 1], [1, 2, 1], [2, 1]):
        maps.engel_image_scan(alg, make_engel(coeffs)[1])
        assert len(maps._engel_families) <= maps._ENGEL_FAMILIES
    assert list(maps._engel_families)[-2:] == [(alg, (1, 2, 1)), (alg, (2, 1))]
    family = maps._engel_families[alg, (2, 1)]
    maps.engel_image_scan(alg, make_engel([7, 1])[1])
    assert maps._engel_families[alg, (2, 1)] is family


def test_engel_family_past_the_walk_bound_is_not_kept(monkeypatch):
    # phase 2 walks 645 points for E_2 on A2/F3 and 37 for E_1 + E_2: with
    # the bound between them, only the short walk's rows stay
    alg = build_algebra("A", 2, make_field("F3"))
    monkeypatch.setattr(maps, "_ENGEL_WALK", 100)
    maps._engel_families.clear()
    maps.engel_image_scan(alg, make_engel([0, 1])[1])
    assert not maps._engel_families
    maps.engel_image_scan(alg, make_engel([1, 1])[1])
    assert list(maps._engel_families) == [(alg, (1, 1))]
