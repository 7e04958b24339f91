"""Shared test utilities: seeded random elements and polynomials, the
residue reference for root elements, root values beta(h), the residue
Horner value of an Engel f, scaled matrices and the matrix commutator, the brute-force sl(2) witness oracle,
the type-A similarity oracle, the column-space walk that credits the
Engel scan's printed preimages, the breadth-first saturation under G and
a counter of forked children."""

import itertools
import os
import random
from collections import deque
from fractions import Fraction

from liemap import linalg, maps, orbits
from liemap.chevalley import AlgElement, _integral_divided_powers, _zero_diagonal
from liemap.freelie import Br, LiePoly, Sum, Var
from liemap.matrixrep import MatrixElement, _commutator
from liemap.sl2 import _sl2_value


def random_element(alg, rng):
    if alg.field.characteristic:
        p = alg.field.modulus
        return alg.element_from_ints([rng.randrange(p) for _ in range(alg.dim)])
    return alg.element_from_ints([rng.randint(-5, 5) for _ in range(alg.dim)])


def random_nonzero_element(alg, rng):
    while True:
        x = random_element(alg, rng)
        if not x.is_zero():
            return x


def root_element_times(alg, coords, t, v):
    """Reference for x_beta(t) v = v + sum_k t^k N_k v on a residue vector
    (the library's loop before it ran on integer rows): every product is a
    residue, the integral N_k are read in place and the sum is reduced
    once."""
    powers = alg._z_powers.get(coords) or _integral_divided_powers(alg, coords)
    out = list(v)
    tk = 1
    for nk in powers:
        tk = tk * t
        for j, col in nk:
            x = v[j]
            if x:
                x = tk * x
                for i, n in col:
                    out[i] += n * x
    return alg.field.reduce_row(out)


def root_value(alg, coords, h):
    """beta(h) = sum_i t_i beta(h_i) for h = sum_i t_i h_i + (U-part,
    ignored), read off rs.h_values, as a residue."""
    values = alg.rs.h_values[coords]
    return alg.field.reduce(sum(t * v for t, v in zip(h.coeffs, values)))


def f_value(spec, t, field):
    """f(t) = sum a_i s^i, s = -t, by Horner's rule on residues (the
    library's loop before f was cleared to ints): the reference for
    EngelSpec.roots_in over F_p."""
    s = field.reduce(-t)
    acc = 0
    for a in reversed(spec.coeffs):
        acc = field.reduce((acc + field.residue(a)) * s)
    return acc


def scaled_matrix(X, c):
    """The matrix c X (a MatrixElement has no arithmetic of its own)."""
    f = X.field
    c = f.residue(c)
    return MatrixElement(X.realization, [f.scale_row(r, c) for r in X.rows], f,
                         validate=False)


def matrix_commutator(X, Y):
    """XY - YX by matrixrep's integer commutator core."""
    return MatrixElement(X.realization, _commutator(X.rows, Y.rows, X.field), X.field,
                         validate=False)


def random_monomial(rng, nvars, degree):
    """A pure bracket monomial of the given total degree."""
    if degree == 1:
        return Var(rng.randrange(1, nvars + 1))
    left = rng.randrange(1, degree)
    return Br(random_monomial(rng, nvars, left),
              random_monomial(rng, nvars, degree - left))


def random_poly(rng, nvars=3, max_degree=5, max_terms=4):
    terms = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        deg = rng.randrange(1, max_degree + 1)
        coef = Fraction(rng.randint(-4, 4))
        if coef:
            terms.append((coef, random_monomial(rng, nvars, deg)))
    if not terms:
        terms = [(Fraction(1), Var(1))]
    return LiePoly(Sum(tuple(terms)), nvars)


def grid_witness(P, field, deg):
    """Brute force: the first point, in lex order of its 3d coordinates, of
    the grid {0, .., max(2, deg + 1)}^{3d} (F_p^{3d} over F_p) at which P is
    nonzero on sl(2), with P's (e, f, h) value there; (None, None) if P
    vanishes on the whole grid."""
    if field.characteristic:
        values = range(field.modulus)
    else:
        values = [Fraction(v) for v in range(max(3, deg + 2))]
    d = P.nvars
    for flat in itertools.product(values, repeat=3 * d):
        triples = [tuple(flat[3 * i: 3 * i + 3]) for i in range(d)]
        val = _sl2_value(P, triples, field)
        if any(val):
            return triples, val
    return None, None


def similarity_conjugator(alg, l):
    """Type-A conjugation of l by similarity in the sl(n) realization:
    the moves ("elem", a, b, t) of _zero_diagonal replayed into S = the
    product of the I + t E_ab and into S^-1, then S B S^-1 and S^-1 B S for
    every basis image B, read back into coordinates by matrix_coords.
    Returns (matrix, inv_matrix, factors, u coefficients)."""
    f = alg.field
    real = alg._get_realization()
    factors = _zero_diagonal(real.combine(l.coeffs), f)
    n = real.n
    S = linalg.identity_matrix(f, n)
    Sinv = linalg.identity_matrix(f, n)
    for _, a, b, t in factors:
        t = f.residue(t)
        S[a] = f.sub_row(S[a], -t, S[b])
        for i in range(n):
            Sinv[i][b] = f.reduce(Sinv[i][b] - t * Sinv[i][a])
    cols, inv_cols = [], []
    for B in real.images:
        cols.append(real.matrix_coords(
            linalg.mat_mul(linalg.mat_mul(S, B, f), Sinv, f)))
        inv_cols.append(real.matrix_coords(
            linalg.mat_mul(linalg.mat_mul(Sinv, B, f), S, f)))
    mat = [list(row) for row in zip(*cols)]
    inv = [list(row) for row in zip(*inv_cols)]
    return mat, inv, tuple(factors), linalg.mat_vec(mat, l.coeffs, f)


def engel_preimages_oracle(alg, spec):
    """preimages(printed) as engel_image_scan credits them, by building the
    column space of g(D_Y) for every Y: each printed index goes to the first
    Y in index order (one Y per F_p^* class, the least, for a monomial g)
    whose column space holds it, with the preimage linalg.solve gives
    there, encoded as x + N y."""
    field, p, dim = alg.field, alg.field.modulus, alg.dim
    N = p ** dim
    acoeffs = [field.residue(c) for c in spec.coeffs]
    monomial = sum(1 for a in acoeffs if a) == 1

    def preimages(printed):
        found, pending, seen = {}, {v: maps._decode(v, p, dim) for v in printed}, set()
        for y_idx in range(N):
            y = maps._decode(y_idx, p, dim)
            if not pending:
                break
            if monomial and y_idx and y[max(k for k in range(dim) if y[k])] != 1:
                continue
            M = maps._engel_matrix(acoeffs, alg.ad_matrix(-AlgElement(alg, y)), field)
            basis, pivots = maps._column_echelon(M, field)
            key = tuple(maps._encode(u, p) for u in basis)
            if key in seen:
                continue
            seen.add(key)
            for v in [v for v, vec in pending.items()
                      if linalg.in_row_space(basis, pivots, vec, field)]:
                x = linalg.solve(M, pending.pop(v), field)
                found[v] = maps._encode(x, p) + N * y_idx
        assert not pending
        return found

    return preimages


def saturate_oracle(alg, indices):
    """The least G-stable set of indices holding `indices`, by a
    breadth-first search under orbits._orbit_generators, whose forward
    steps reach all of G (a finite group): the reference for
    orbits._saturate, which reads stored orbits."""
    p, dim = alg.field.modulus, alg.dim
    weights = [p ** k for k in range(dim)]
    gens = orbits._orbit_generators(alg)
    closed = set(indices)
    queue = deque((v, maps._decode(v, p, dim)) for v in closed)
    while queue:
        idx, u = queue.popleft()
        for gen in gens:
            nxt = orbits._step(gen, idx, u, p, weights)
            if nxt is not None and nxt[0] not in closed:
                closed.add(nxt[0])
                queue.append(nxt)
    return closed


def fork_counter(monkeypatch):
    """A list that collects the pid of every child os.fork starts from
    here on (the parent side of each fork)."""
    forks = []
    real = os.fork

    def counting():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks
