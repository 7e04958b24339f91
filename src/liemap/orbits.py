"""Orbits of Y under the root elements, and rows carried along them.

The finite-field engines in `maps` decide a question about Y (the column
space of g(D_Y), whether D_Y^m hits a central element, or the values of P
with X_d = Y) on one Y per orbit.  This module labels the orbits of G,
the group the x_beta(t) generate, by one search per algebra
(_orbit_tree), which also gives the least Y of each orbit of G x F_p^*
and records the tree it walked (`via`).  Everything else reads that
labelling: a cover with one point per G-orbit, the orbits' roots
(_pure_orbit_cover); the closure of a set of values under G, the union of
the stored orbits it meets (_saturate); and rows carried from an orbit's
root to any point along the tree (tree_carrier).  The Engel scan carries
the annihilator of an equivariant subspace (subspace_annihilators), so
that a subspace attached to every Y costs one echelon form per orbit; it
keeps the carrier of the last (algebra, g) pairs it scanned, so a repeat
scan carries no annihilator twice.
The exhaustive scan of any P carries the identity, whose rows at Y are
g^-1 for Y = g r, r the root of Y's orbit (pullback): a value v is
attained at Y exactly when g^-1 v is at r.  The engines import it on
first use: `import liemap` does not load it.
"""

from __future__ import annotations

import functools
import itertools
import operator

from . import linalg
from .chevalley import ChevalleyAlgebra
from .maps import _decode

# via[] of the point a G-orbit's labelling starts from, its root
_ROOT = 255


def _scaling_representatives(p, dim):
    """Indices of the least vector of each class {cY : c in F_p^*}, in
    increasing order: 0 and every index whose highest nonzero digit is 1."""
    return itertools.chain((0,), *(range(p ** k, 2 * p ** k) for k in range(dim)))


@functools.lru_cache(maxsize=None)
def _orbit_generators(alg: ChevalleyAlgebra, t=1):
    """x_{+-alpha_i}(t) - I for the 2 rank simple root elements, as sparse
    residue columns (column j, ((row i, residue), ..)) for the nonzero
    columns, column j read off x_{+-alpha_i}(t) e_j.  For t = 1 they
    generate, over F_p, the group the x_beta(t) generate: x_a(t) =
    x_a(1)^t, and the simple reflections x_a(1) x_-a(-1) x_a(1) carry the
    simple roots to every root.  t = -1 gives their inverses.  Built once
    per (algebra, t); callers share the tuple."""
    p = alg.field.modulus
    eye = linalg.identity_matrix(alg.field, alg.dim)
    gens = []
    for a in alg.rs.simple_roots:
        for coords in (a.coords, (-a).coords):
            cols = ((j, [(x - y) % p for x, y in
                         zip(alg._root_element_row(coords, (t % p, 1), e, 1)[0], e)])
                    for j, e in enumerate(eye))
            gens.append(tuple((j, tuple((i, c) for i, c in enumerate(col) if c))
                              for j, col in cols if any(col)))
    return tuple(gens)


@functools.lru_cache(maxsize=None)
def _generator_rows(alg: ChevalleyAlgebra, t=1):
    """_orbit_generators(alg, t) by rows, the form _step applies: for each
    generator, (row i, p^i, ((column j, residue), ..)) for the nonzero
    rows.  A step by rows builds no dict: a quarter less labelling time."""
    p = alg.field.modulus
    gens = []
    for gen in _orbit_generators(alg, t):
        rows = {}
        for j, col in gen:
            for i, c in col:
                rows.setdefault(i, []).append((j, c))
        gens.append(tuple((i, p ** i, tuple(terms)) for i, terms in rows.items()))
    return tuple(gens)


def _step(gen, idx, u, p):
    """(index, vector) of (I + gen) u, for the point u of index idx and a
    generator gen of _generator_rows, or None when it is u itself; only the
    digits that change are re-weighed."""
    n, v = idx, None
    for i, w, terms in gen:
        s = 0
        for j, c in terms:
            s += c * u[j]
        if s % p:
            if v is None:
                v = list(u)
            d = (u[i] + s) % p
            n += (d - u[i]) * w
            v[i] = d
    return None if v is None else (n, v)


@functools.lru_cache(maxsize=None)
def _orbit_tree(alg: ChevalleyAlgebra):
    """(reps, labels, via, roots), once per algebra.

    labels, an array('i') of length p^dim, holds each index's G-orbit
    number, and roots[n] is the index orbit n's labelling starts from.
    reps lists (index, vector, size) for the least Y of each orbit of G x
    F_p^*, in increasing index order, with that orbit's size: sl(3, F_3)
    has 10, sl(4, F_2) 20.

    The scaling representatives are walked in order and every labelled
    index is skipped; an unlabelled Y is the least of its G x F_p^* orbit.
    A breadth-first search under _orbit_generators labels Y's G-orbit, and
    for each multiple cY still unlabelled, c times that orbit is labelled
    as the G-orbit of cY, with the same tree: x_k(1) is linear.  The
    bytearray via records the tree: via[Y] is the generator k that reached
    Y, so x_k(-1) Y is Y's parent, in Y's G-orbit, and via is _ROOT at each
    root.  Callers share the result and must not change it."""
    from array import array  # an extension module: only this pass loads it
    from collections import deque
    p, dim = alg.field.modulus, alg.dim
    weights = [p ** k for k in range(dim)]
    gens = _generator_rows(alg)
    labels = array("i", [-1]) * p ** dim
    via = bytearray(p ** dim)
    reps, roots = [], []

    for y_idx in _scaling_representatives(p, dim):
        if labels[y_idx] >= 0:
            continue
        y, first = _decode(y_idx, p, dim), len(roots)
        labels[y_idx], via[y_idx] = first, _ROOT
        roots.append(y_idx)
        queue, size = deque([(y_idx, y)]), 1
        members = [] if p > 2 else None     # F_2 has no multiples to label
        while queue:
            idx, u = queue.popleft()
            if members is not None:
                members.append((idx, u))
            for k, gen in enumerate(gens):
                # _step inline: the call costs 7-10 % of labelling
                n, v = idx, None
                for i, w, terms in gen:
                    s = 0
                    for j, c in terms:
                        s += c * u[j]
                    if s % p:
                        if v is None:
                            v = list(u)
                        d = (u[i] + s) % p
                        n += (d - u[i]) * w
                        v[i] = d
                if v is not None and labels[n] < 0:
                    labels[n], via[n] = first, k
                    queue.append((n, v))
                    size += 1
        for c in range(2, p):
            root = sum(c * x % p * w for x, w in zip(y, weights))
            if labels[root] < 0:
                for idx, u in members:
                    n = sum(c * x % p * w for x, w in zip(u, weights) if x)
                    labels[n], via[n] = len(roots), via[idx]
                roots.append(root)
        reps.append((y_idx, y, size * (len(roots) - first)))
    return reps, labels, via, roots


def _pure_orbit_cover(alg: ChevalleyAlgebra):
    """The roots of _orbit_tree in increasing order, one point per orbit of
    G (9 of the 343 elements of sl(2, F_7))."""
    return sorted(_orbit_tree(alg)[3])


def _saturate(alg: ChevalleyAlgebra, indices):
    """The least G-stable set of indices holding `indices`: every index
    whose _orbit_tree label one of `indices` carries."""
    labels = _orbit_tree(alg)[1]
    wanted = {labels[i] for i in indices}
    return set(itertools.compress(range(len(labels)), map(wanted.__contains__, labels)))


def _carry(rows, gen, p):
    """The rows phi (I + gen) mod p, for gen sparse columns (column j, ((row
    i, residue), ..)) of _orbit_generators."""
    out = []
    for phi in rows:
        psi = list(phi)
        for j, col in gen:
            s = 0
            for i, c in col:
                s += phi[i] * c
            if s:
                psi[j] = (psi[j] + s) % p
        out.append(psi)
    return out


def tree_carrier(alg: ChevalleyAlgebra, at_root):
    """A function Y index -> rows A(Y), carried along _orbit_tree's `via`
    chains.  at_root(index) gives the rows at an orbit's root and is called
    once per root reached; every other point Y = x_k(1) Y' (k = via[Y])
    takes its parent's rows through A(Y) = A(Y') x_k(-1), on the sparse
    columns of x_k(-1) - I.  Rows are memoised per point for the life of
    the function.

    So A(Y) = A(r) g^-1 for Y = g r, g = x_k1(1) x_k2(1) .. along Y's chain
    and r its end, the root of Y's G-orbit.  The annihilator of a subspace
    S(r) at each root gives that of S(Y) = g S(r) (subspace_annihilators);
    the identity, the annihilator of the zero subspace, gives g^-1 itself,
    which carries Y to r (pullback)."""
    p, dim = alg.field.modulus, alg.dim
    via = _orbit_tree(alg)[2]
    inverses, steps = _orbit_generators(alg, -1), _generator_rows(alg, -1)
    memo = {}

    def rows_at(idx):
        if idx in memo:
            return memo[idx]
        u = _decode(idx, p, dim)
        path = []
        while idx not in memo and via[idx] != _ROOT:
            path.append((idx, via[idx]))
            idx, u = _step(steps[via[idx]], idx, u, p)
        if idx not in memo:
            memo[idx] = at_root(idx)
        rows = memo[idx]
        for child, k in reversed(path):
            rows = memo[child] = _carry(rows, inverses[k], p)
        return rows

    return rows_at


def subspace_annihilators(alg: ChevalleyAlgebra, echelon):
    """A function Y index -> rows phi with phi . v = 0 mod p exactly for the
    v in S(Y), for a family of subspaces with S(hY) = h S(Y) for every h in
    the group the x_beta(t) generate, carried by tree_carrier.
    echelon(index) gives the reduced echelon basis (rows, pivots) of S(Y)
    and is called only at _orbit_tree's roots, where the annihilator is
    read off it: for each non-pivot column j, e_j - sum_i R[i][j]
    e_(pivot_i)."""
    p, dim = alg.field.modulus, alg.dim

    def at_root(idx):
        R, pivots = echelon(idx)
        rows = []
        for j in range(dim):
            if j not in pivots:
                phi = [0] * dim
                phi[j] = 1
                for row, i in zip(R, pivots):
                    phi[i] = -row[j] % p
                rows.append(phi)
        return rows

    return tree_carrier(alg, at_root)


@functools.lru_cache(maxsize=None)
def pullback(alg: ChevalleyAlgebra):
    """A function (Y index, value indices) -> (index of r, [index of g^-1 v
    for each value v]; the values themselves when Y is a root, g = 1), for
    Y = g r with r the root of Y's G-orbit, and g^-1 the rows tree_carrier
    carries from the identity.  For a map with P(hX_1, .., hX_d) = h
    P(X_1, .., X_d), v is a value with X_d = Y exactly when g^-1 v is one
    with X_d = r.  Built once per algebra, so its rows are carried once."""
    p, dim = alg.field.modulus, alg.dim
    weights = [p ** k for k in range(dim)]
    eye = [[int(i == j) for j in range(dim)] for i in range(dim)]
    inverse = tree_carrier(alg, lambda _: eye)
    vectors = {}

    def pull(y_idx, values):
        rows = inverse(y_idx)
        if rows is eye:     # a root: g = 1
            return y_idx, values
        moved = []
        for v in (y_idx, *values):
            u = vectors.get(v) or vectors.setdefault(v, _decode(v, p, dim))
            n = 0
            for phi, w in zip(rows, weights):
                n += sum(map(operator.mul, phi, u)) % p * w
            moved.append(n)
        return moved[0], moved[1:]

    return pull
