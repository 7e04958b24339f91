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

The root datum (each root's values beta(h_i) = <beta, alpha_i^vee>, read off
the Cartan matrix, its length and its coroot) is tabulated once per system;
every reader looks it up, and only that build reads the Gram form.
"""

from __future__ import annotations

from operator import mul
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


def _exact(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    assert rem == 0, "non-integral root datum entry"
    return q


def _is_c_family(type_label: str, rank: int) -> bool:
    # C_1 = A_1 and C_2 = B_2.
    return type_label == "C" or (type_label, rank) in (("A", 1), ("B", 2))


class Root(NamedTuple):
    """A root in simple-root integer coordinates."""

    coords: tuple

    @property
    def height(self) -> int:
        return sum(self.coords)

    @property
    def positive(self) -> bool:
        return self.height > 0

    def __neg__(self):
        return Root(tuple(-c for c in self.coords))

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class RootSystem:
    """Complete root datum: roots, Cartan matrix, heights, and per root
    coordinates the tables h_values (beta(h_1), .., beta(h_r)),
    length ((beta, beta)) and coroot (c with beta^vee = sum_j c_j alpha_j^vee)."""

    def __init__(self, type_label, rank, gram, cartan, positive_coords):
        self.type_label = type_label
        self.rank = rank
        self.gram = gram
        self.cartan_matrix = cartan
        self.key = (type_label, rank)
        self.positive_roots = [Root(c) for c in positive_coords]
        self.roots = self.positive_roots + [-b for b in self.positive_roots]
        unit = lambda i: tuple(1 if j == i else 0 for j in range(rank))
        self.simple_roots = [Root(unit(i)) for i in range(rank)]
        self._index = {b.coords: i for i, b in enumerate(self.roots)}
        diag = [gram[j][j] for j in range(rank)]
        self.h_values, self.length, self.coroot = {}, {}, {}
        for b in self.roots:
            c = b.coords
            hv = self.h_values[c] = tuple(sum(x * row[i] for x, row in zip(c, cartan))
                                          for i in range(rank))
            # (beta, beta) = sum_j beta_j (beta, alpha_j), with
            # (beta, alpha_j) = beta(h_j) (alpha_j, alpha_j) / 2
            bb = self.length[c] = sum(x * v * d for x, v, d in zip(c, hv, diag)) // 2
            self.coroot[c] = tuple(_exact(x * d, bb) for x, d in zip(c, diag))

    # -- basic queries -------------------------------------------------

    def contains(self, coords) -> bool:
        return tuple(coords) in self._index

    def root(self, coords) -> Root:
        c = tuple(coords)
        if c not in self._index:
            raise KeyError("not a root: %r" % (c,))
        return self.roots[self._index[c]]

    def pairing(self, beta, gamma) -> int:
        """<beta, gamma^vee> = 2(beta,gamma)/(gamma,gamma) for roots: beta's
        values on the alpha_j^vee weighted by gamma^vee's coordinates."""
        return sum(map(mul, self.h_values[beta], self.coroot[gamma]))

    # -- root strings -------------------------------------------------

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
    cartan = [[_exact(2 * G[i][j], G[j][j]) for j in range(rank)] for i in range(rank)]

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
