"""Irreducible reduced root systems with exact integer root data.

Roots live in simple-root integer coordinates, so everything here is
integer arithmetic.  Simple roots are numbered as in Bourbaki:

  A_r : chain alpha_1 - ... - alpha_r
  B_r : chain with alpha_r the short root
  C_r : chain with alpha_r the long root
  D_r : chain alpha_1..alpha_{r-2} forking into alpha_{r-1}, alpha_r
  G_2 : alpha_1 short, alpha_2 long

The stored Cartan matrix uses the pairing convention
``cartan[i][j] = <alpha_i, alpha_j^vee> = 2(alpha_i,alpha_j)/(alpha_j,alpha_j)``.
"""

from __future__ import annotations

from typing import NamedTuple


SUPPORTED_RANKS = {
    "A": tuple(range(1, 9)),
    "B": (2, 3, 4),
    "C": (2, 3, 4),
    "D": (3, 4),
    "G": (2,),
}

ROOT_COUNTS = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
    "G": lambda r: 12,
}


class RootSystemError(ValueError):
    """Unsupported type/rank or a rejected (type, characteristic) combination."""


def _gram(type_label: str, rank: int):
    """Gram matrix (alpha_i, alpha_j) of the simple roots, long roots length 2
    (length 4 for C_r long roots so all entries stay integral)."""
    r = rank
    G = [[0] * r for _ in range(r)]
    if type_label == "A":
        for i in range(r):
            G[i][i] = 2
        for i in range(r - 1):
            G[i][i + 1] = G[i + 1][i] = -1
    elif type_label == "B":
        for i in range(r):
            G[i][i] = 2
        G[r - 1][r - 1] = 1
        for i in range(r - 1):
            G[i][i + 1] = G[i + 1][i] = -1
    elif type_label == "C":
        for i in range(r):
            G[i][i] = 2
        G[r - 1][r - 1] = 4
        for i in range(r - 2):
            G[i][i + 1] = G[i + 1][i] = -1
        G[r - 2][r - 1] = G[r - 1][r - 2] = -2
    elif type_label == "D":
        for i in range(r):
            G[i][i] = 2
        for i in range(r - 2):
            G[i][i + 1] = G[i + 1][i] = -1
        G[r - 3][r - 1] = G[r - 1][r - 3] = -1
    elif type_label == "G":
        G = [[2, -3], [-3, 6]]
    else:
        raise RootSystemError("unknown type %r" % type_label)
    return G


def _is_c_family(type_label: str, rank: int) -> bool:
    # C_1 = A_1 and C_2 = B_2.
    return type_label == "C" or (type_label, rank) in (("A", 1), ("B", 2))


class Root(NamedTuple):
    """A root in simple-root integer coordinates."""

    coords: tuple
    system_key: tuple

    @property
    def height(self) -> int:
        return sum(self.coords)

    @property
    def positive(self) -> bool:
        return self.height > 0

    def __neg__(self):
        return Root(tuple(-c for c in self.coords), self.system_key)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class RootSystem:
    """Complete root datum: roots, Cartan matrix, heights, Weyl generators."""

    def __init__(self, type_label, rank, gram, cartan, positive_coords):
        self.type_label = type_label
        self.rank = rank
        self.gram = gram
        self.cartan_matrix = cartan
        self.key = (type_label, rank)
        self.positive_roots = [Root(c, self.key) for c in positive_coords]
        self.roots = self.positive_roots + [-b for b in self.positive_roots]
        unit = lambda i: tuple(1 if j == i else 0 for j in range(rank))
        self.simple_roots = [Root(unit(i), self.key) for i in range(rank)]
        self._index = {b.coords: i for i, b in enumerate(self.roots)}
        self.weyl_generators = [self._reflection_permutation(i) for i in range(rank)]

    # -- basic queries -------------------------------------------------

    def contains(self, coords) -> bool:
        return tuple(coords) in self._index

    def root(self, coords) -> Root:
        c = tuple(coords)
        if c not in self._index:
            raise KeyError("not a root: %r" % (c,))
        return self.roots[self._index[c]]

    def inner(self, a, b) -> int:
        """(a, b) under the Gram form, integer exact."""
        G = self.gram
        return sum(a[i] * G[i][j] * b[j] for i in range(self.rank) for j in range(self.rank))

    def pairing(self, beta, gamma) -> int:
        """<beta, gamma^vee> = 2(beta,gamma)/(gamma,gamma); always an integer."""
        num = 2 * self.inner(beta, gamma)
        den = self.inner(gamma, gamma)
        q, rem = divmod(num, den)
        assert rem == 0, "non-integral Cartan pairing"
        return q

    def coroot_coords(self, beta) -> tuple:
        """Integer coordinates c with beta^vee = sum_j c_j alpha_j^vee."""
        bb = self.inner(beta, beta)
        out = []
        for j, b in enumerate(beta):
            num = b * self.gram[j][j]
            q, rem = divmod(num, bb)
            assert rem == 0, "non-integral coroot coordinate"
            out.append(q)
        return tuple(out)

    # -- reflections & Weyl orbit ---------------------------------------

    def reflect_coords(self, coords, i):
        """Simple reflection s_i applied to a root-lattice vector."""
        k = sum(coords[j] * self.cartan_matrix[j][i] for j in range(self.rank))
        out = list(coords)
        out[i] -= k
        return tuple(out)

    def _reflection_permutation(self, i):
        perm = []
        for b in self.roots:
            perm.append(self._index[self.reflect_coords(b.coords, i)])
        return tuple(perm)

    def weyl_orbit(self, h_coords):
        """Orbit of a coroot-coordinate vector (entries are field scalars).

        s_i acts on h = sum t_j h_{alpha_j} by t_i -= alpha_i(h).
        """
        if len(h_coords) != self.rank:
            raise ValueError("expected %d coordinates" % self.rank)
        start = tuple(h_coords)
        seen = {start}
        frontier = [start]
        C = self.cartan_matrix
        while frontier:
            nxt = []
            for t in frontier:
                for i in range(self.rank):
                    v = t[0] * C[i][0]
                    for j in range(1, self.rank):
                        v = v + t[j] * C[i][j]
                    img = list(t)
                    img[i] = img[i] - v
                    img = tuple(img)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        return seen

    # -- order and root strings -----------------------------------------

    def height_compare(self, a: Root, b: Root) -> str:
        """Partial order: a < b iff b - a is a nonzero sum of positive roots."""
        if a.system_key != self.key or b.system_key != self.key:
            raise ValueError("roots from a different system")
        diff = [y - x for x, y in zip(a.coords, b.coords)]
        if all(d == 0 for d in diff):
            return "equal"
        if all(d >= 0 for d in diff):
            return "less"
        if all(d <= 0 for d in diff):
            return "greater"
        return "incomparable"

    def chain_down_length(self, a: Root, b: Root) -> int:
        """Largest p >= 0 with b - p*a still a root."""
        if a.coords == b.coords or a.coords == (-b).coords:
            raise ValueError("chain through +-itself is undefined")
        p = 0
        cur = tuple(y - x for x, y in zip(a.coords, b.coords))
        while self.contains(cur):
            p += 1
            cur = tuple(y - x for x, y in zip(a.coords, cur))
        return p

    def __repr__(self):
        return "RootSystem(%s%d, %d roots)" % (self.type_label, self.rank, len(self.roots))


def build_root_system(type_label: str, rank: int, field_hint=None) -> RootSystem:
    """Construct the root system, enforcing the characteristic-2 rejection of
    the C family (including A_1 = C_1 and B_2 = C_2)."""
    type_label = type_label.upper()
    if type_label not in SUPPORTED_RANKS or rank not in SUPPORTED_RANKS[type_label]:
        raise RootSystemError("unsupported root system %s_%d" % (type_label, rank))
    if field_hint is not None and getattr(field_hint, "characteristic", 0) == 2 \
            and _is_c_family(type_label, rank):
        raise RootSystemError(
            "%s_%d is of type C in characteristic 2 and is rejected" % (type_label, rank))

    G = _gram(type_label, rank)
    cartan = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(rank):
            num = 2 * G[i][j]
            q, rem = divmod(num, G[j][j])
            assert rem == 0
            cartan[i][j] = q

    # Generate positive roots height by height via root strings:
    # q = p - <beta, alpha_j^vee> counts the steps remaining upward.
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    pos = set(simple)

    def is_root(c):
        return c in pos or tuple(-x for x in c) in pos

    height = 1
    layer = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for j in range(rank):
                if beta == simple[j]:
                    continue
                p = 0
                cur = tuple(b - s for b, s in zip(beta, simple[j]))
                while is_root(cur):
                    p += 1
                    cur = tuple(b - s for b, s in zip(cur, simple[j]))
                pairing = sum(beta[i] * cartan[i][j] for i in range(rank))
                if p - pairing > 0:
                    up = tuple(b + s for b, s in zip(beta, simple[j]))
                    if up not in pos:
                        pos.add(up)
                        nxt.append(up)
        layer = nxt
        height += 1

    expected = ROOT_COUNTS[type_label](rank)
    assert 2 * len(pos) == expected, "root count mismatch for %s_%d" % (type_label, rank)

    ordered = sorted(pos, key=lambda c: (sum(c), c))
    rs = RootSystem(type_label, rank, [tuple(r) for r in G],
                    [tuple(r) for r in cartan], ordered)
    return rs
