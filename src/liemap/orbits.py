"""Orbits of Y under the root elements and F_p^*, and rows carried along them.

The finite-field engines in `maps` decide a question about Y (the column
space of g(D_Y), whether D_Y^m hits a central element, or the values of P
with X_d = Y) on one Y per orbit.  This module labels the orbits of G x
F_p^*, G the group the x_beta(t) generate, once per algebra (_orbit_tree),
records the tree the labelling search walked (`via`), and carries rows
from an orbit's root to any point along that tree (tree_carrier).  Both
scans read that tree.  The Engel scan carries the annihilator of an
equivariant subspace (subspace_annihilators), so that a subspace attached
to every Y costs one echelon form per orbit.  The exhaustive scan of any P
carries the identity, the annihilator of the zero subspace, whose rows at
Y are g^-1 for Y = g r, r a point of _pure_orbit_cover (pullback): a value
v is attained at Y exactly when g^-1 v is at r.  For that scan it also
gives a point of every orbit of G alone (_pure_orbit_cover), labels the
orbits of G alone once per algebra (_pure_orbit_labels) and closes a set
of values under G as the union of the stored orbits it meets (_saturate).
The engines import it on first use: `import liemap` does not load it.
"""

from __future__ import annotations

import functools
import itertools
import operator

from . import linalg
from .chevalley import ChevalleyAlgebra
from .maps import _decode

# via[] of the points a search starts from: the least Y of an orbit and its
# multiples
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


def _step(gen, idx, u, p, weights):
    """(index, vector) of (I + gen) u, for the point u of index idx, or
    None when it is u itself; only the digits that change are re-weighed."""
    delta = {}
    for j, col in gen:
        x = u[j]
        if x:
            for i, c in col:
                delta[i] = delta.get(i, 0) + c * x
    n, v = idx, None
    for i, dx in delta.items():
        d = (u[i] + dx) % p
        if d != u[i]:
            if v is None:
                v = list(u)
            n += (d - u[i]) * weights[i]
            v[i] = d
    return None if v is None else (n, v)


@functools.lru_cache(maxsize=None)
def _orbit_tree(alg: ChevalleyAlgebra):
    """(reps, labels, via, scale), once per algebra.

    reps lists (index, vector, orbit size) for the least Y of each orbit of
    the group generated by the x_beta(t) times F_p^*, in increasing index
    order, and labels, an array('i') of length p^dim, holds each index's
    orbit number, its position in reps.  sl(3, F_3) has 10 orbits, sl(4,
    F_2) 20.

    The scaling representatives are walked in order and every labelled
    index is skipped; an unlabelled Y is the least of its orbit, which is
    then labelled by a breadth-first search under _orbit_generators.  Each
    point the search reaches directly, B, is labelled with its multiples
    cB (c in F_p^*): the group is linear, so the labelled set is the whole
    orbit once the search ends.  The bytearrays via and scale record the
    search tree: via[Y] is the generator k that reached B, so x_k(-1) Y is
    the parent of Y (a multiple of the point B came from), or _ROOT at the
    orbit's least Y and its multiples, and scale[Y] is the c with Y = cB.
    Callers share the result and must not change it."""
    from array import array  # an extension module: only this pass loads it
    from collections import deque
    p, dim = alg.field.modulus, alg.dim
    weights = [p ** k for k in range(dim)]
    gens = _orbit_generators(alg)
    labels = array("i", [-1]) * p ** dim
    via, scale = bytearray(p ** dim), bytearray(p ** dim)
    reps = []

    def mark(idx, vec, k):
        labels[idx], via[idx], scale[idx] = len(reps), k, 1
        for c in range(2, p):
            n = sum(c * x % p * w for x, w in zip(vec, weights) if x)
            labels[n], via[n], scale[n] = len(reps), k, c

    for y_idx in _scaling_representatives(p, dim):
        if labels[y_idx] >= 0:
            continue
        y = _decode(y_idx, p, dim)
        mark(y_idx, y, _ROOT)
        queue, size = deque([(y_idx, y)]), 1
        while queue:
            idx, u = queue.popleft()
            for k, gen in enumerate(gens):
                # _step inline: the call costs 7-10 % of labelling
                delta = {}
                for j, col in gen:
                    x = u[j]
                    if x:
                        for i, c in col:
                            delta[i] = delta.get(i, 0) + c * x
                n, v = idx, None
                for i, dx in delta.items():
                    d = (u[i] + dx) % p
                    if d != u[i]:
                        if v is None:
                            v = list(u)
                        n += (d - u[i]) * weights[i]
                        v[i] = d
                if v is not None and labels[n] < 0:
                    mark(n, v, k)
                    queue.append((n, v))
                    size += 1
        reps.append((y_idx, y, size * (p - 1) if y_idx else 1))
    return reps, labels, via, scale


def _orbit_representatives(alg: ChevalleyAlgebra):
    """(reps, labels) of _orbit_tree: one Y per orbit and every index's
    orbit number."""
    return _orbit_tree(alg)[:2]


def _pure_orbit_cover(alg: ChevalleyAlgebra):
    """Indices of 0 and of cY for every orbit root Y of _orbit_tree and c in
    F_p^*, in increasing order: a point of every orbit of G alone, since a
    point cgY (g in G) of Y's orbit of G x F_p^* has g^-1 cgY = cY."""
    p, dim = alg.field.modulus, alg.dim
    weights = [p ** k for k in range(dim)]
    cover = {0}
    for y_idx, y, _ in _orbit_tree(alg)[0]:
        if y_idx:
            cover.update(sum(c * x % p * w for x, w in zip(y, weights))
                         for c in range(1, p))
    return sorted(cover)


@functools.lru_cache(maxsize=None)
def _pure_orbit_labels(alg: ChevalleyAlgebra):
    """An array('i') of length p^dim holding each index's orbit number
    under G alone (no F_p^* scaling), orbits numbered by their least
    index: each unlabelled index in increasing order starts a breadth-first
    search under _orbit_generators, whose forward steps reach all of G (a
    finite group).  Built once per algebra; callers share it and must not
    change it."""
    from array import array
    from collections import deque
    p, dim = alg.field.modulus, alg.dim
    weights = [p ** k for k in range(dim)]
    gens = _orbit_generators(alg)
    labels = array("i", [-1]) * p ** dim
    count = 0
    for y_idx in range(p ** dim):
        if labels[y_idx] >= 0:
            continue
        labels[y_idx] = count
        queue = deque([(y_idx, _decode(y_idx, p, dim))])
        while queue:
            idx, u = queue.popleft()
            for gen in gens:
                nxt = _step(gen, idx, u, p, weights)
                if nxt is not None and labels[nxt[0]] < 0:
                    labels[nxt[0]] = count
                    queue.append(nxt)
        count += 1
    return labels


def _saturate(alg: ChevalleyAlgebra, indices):
    """The least G-stable set of indices holding `indices`: every index
    whose _pure_orbit_labels label one of `indices` carries."""
    labels = _pure_orbit_labels(alg)
    wanted = {labels[i] for i in indices}
    return set(itertools.compress(range(len(labels)), map(wanted.__contains__, labels)))


def tree_carrier(alg: ChevalleyAlgebra, at_root, scaled):
    """A function Y index -> rows A(Y), carried along _orbit_tree's `via`
    chains.  at_root(index) gives the rows at a root of the labelling
    search and is called once per root reached; every other point Y =
    x_k(1) Y' (k = via[Y]) takes its parent's rows through A(Y) = A(Y')
    x_k(-1), on the sparse columns of x_k(-1) - I.  With `scaled`, Y is
    first replaced by Y / scale[Y], so each orbit of G x F_p^* has one root
    (for rows with A(cY) = A(Y)); unscaled, the chains end at the multiples
    cY_0 of the orbit's least Y_0.  Rows are memoised per point for the
    life of the function.

    So A(Y) = A(r) g^-1 for Y = g r, g = x_k1(1) x_k2(1) .. along Y's chain
    and r its end.  The annihilator of a subspace S(r) at each root gives
    that of S(Y) = g S(r) (subspace_annihilators); the identity, the
    annihilator of the zero subspace, gives g^-1 itself, which carries Y to
    r, a point of _pure_orbit_cover (pullback)."""
    p, dim = alg.field.modulus, alg.dim
    weights = [p ** k for k in range(dim)]
    _, _, via, scale = _orbit_tree(alg)
    inverses = _orbit_generators(alg, -1)
    memo = {}

    def carry(rows, gen):
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

    def rows_at(idx):
        u = _decode(idx, p, dim)
        if scaled and scale[idx] > 1:
            c = pow(scale[idx], -1, p)
            u = [c * x % p for x in u]
            idx = sum(x * w for x, w in zip(u, weights))
        path = []
        while idx not in memo and via[idx] != _ROOT:
            path.append((idx, via[idx]))
            idx, u = _step(inverses[via[idx]], idx, u, p, weights)
        if idx not in memo:
            memo[idx] = at_root(idx)
        rows = memo[idx]
        for child, k in reversed(path):
            rows = memo[child] = carry(rows, inverses[k])
        return rows

    return rows_at


def subspace_annihilators(alg: ChevalleyAlgebra, echelon, scaled):
    """A function Y index -> rows phi with phi . v = 0 mod p exactly for the
    v in S(Y), for a family of subspaces with S(hY) = h S(Y) for every h in
    the group the x_beta(t) generate (and S(cY) = S(Y) with `scaled`),
    carried by tree_carrier.  echelon(index) gives the reduced echelon
    basis (rows, pivots) of S(Y) and is called only at the roots of
    _orbit_tree's search, where the annihilator is read off it: for each
    non-pivot column j, e_j - sum_i R[i][j] e_(pivot_i)."""
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

    return tree_carrier(alg, at_root, scaled)


def pullback(alg: ChevalleyAlgebra):
    """A function (Y index, value indices) -> (index of r, [index of g^-1 v
    for each value v]; the values themselves when Y is a root, g = 1), for
    Y = g r with r the end of Y's `via` chain, a point of
    _pure_orbit_cover, and g^-1 the rows tree_carrier carries from the
    identity.  For a map with P(hX_1, .., hX_d) = h P(X_1, .., X_d), v is
    a value with X_d = Y exactly when g^-1 v is one with X_d = r."""
    p, dim = alg.field.modulus, alg.dim
    weights = [p ** k for k in range(dim)]
    eye = [[int(i == j) for j in range(dim)] for i in range(dim)]
    inverse = tree_carrier(alg, lambda _: eye, False)
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
