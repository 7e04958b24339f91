"""The brute-force scan's block kernel: P on a block of n assignments at once.

A block holds the value of each node of P's tree as dim columns, one per
basis coordinate, of n residues (one lane per assignment), or as an
AlgElement shared by every lane when no batched variable occurs below the
node.  One column store, chosen by p in column_store, holds the columns:

* bytes, for p <= 13: a column is a bytes object with one residue per
  lane, so lane arithmetic runs in C through 256-entry translate tables
  built once per p.  A linear combination sum c * col + offset adds the
  columns as little-endian ints, each first mapped through the table
  x -> c x mod p, and reduces the total through x -> x mod p, once per K =
  255 // (p - 1) - 1 terms so that no lane carries into the next (the
  offset is reduced before it is spread over the lanes).  A lane product
  reads the bytes of U p + V through the table x p + y -> x y mod p, which
  needs p^2 <= 256;
* lists of ints, for p > 13, which only sampled scans or a raised
  LIEMAP_BUDGET reach (an exhaustive scan in two or more variables needs
  p^(2 dim) within the budget): products and sums run per lane and reduce
  mod p once per sum.

The kernel (block_kernel) walks the tree with freelie.walk and is the same
for both stores.  Importing liemap does not load this module; the scans
import it on first use.
"""

from __future__ import annotations

import functools

from .chevalley import AlgElement
from .freelie import walk


class _ByteColumns:
    """Columns as bytes, p <= 13."""

    def __init__(self, p):
        self.p = p
        self.mod = bytes(x % p for x in range(256))
        self.mul = [bytes(c * x % p for x in range(256)) for c in range(p)]
        self.prod = bytes(x // p * (x % p) % p for x in range(256))
        self.run = 255 // (p - 1) - 1
        self.column = bytes
        self.pack = max(h for h in range(1, 9) if p ** h <= 256)
        self.digit = [bytes(x // p ** t % p for x in range(256))
                      for t in range(self.pack)]

    def digits(self, ints, m):
        """The m base-p digit columns of these ints, least significant first:
        one pass per `pack` digits (p^pack <= 256), split by the tables."""
        p, pack, cols = self.p, self.pack, []
        for j in range(0, m, pack):
            w, q = p ** j, p ** pack
            chunk = bytes([a // w % q for a in ints])
            cols += [chunk.translate(self.digit[t]) for t in range(min(pack, m - j))]
        return cols

    def product(self, u, v):
        """The lane-wise product u v mod p."""
        return ((int.from_bytes(u, "little") * self.p + int.from_bytes(v, "little"))
                .to_bytes(len(u), "little").translate(self.prod))

    def combine(self, terms, offset, n):
        """The column offset + sum of c * col over the (c, col) terms, 0 < c
        < p, reduced mod p; None for the zero column.  n is read only for
        an offset with no terms."""
        mul, mod = self.mul, self.mod
        offset %= self.p
        if not terms:
            return bytes([offset]) * n if offset else None
        if len(terms) == 1 and not offset:
            (c, col), = terms
            return col.translate(mul[c]) if c > 1 else col
        n = len(terms[0][1])
        acc = int.from_bytes(bytes([offset]) * n, "little") if offset else 0
        left = self.run
        for c, col in terms:
            if not left:
                acc = int.from_bytes(acc.to_bytes(n, "little").translate(mod), "little")
                left = self.run
            acc += int.from_bytes(col.translate(mul[c]) if c > 1 else col, "little")
            left -= 1
        return acc.to_bytes(n, "little").translate(mod)


class _ListColumns:
    """Columns as lists of ints, p > 13."""

    def __init__(self, p):
        self.p = p
        self.column = list

    def digits(self, ints, m):
        """As _ByteColumns.digits, on lists."""
        p = self.p
        return [[a // w % p for a in ints] for w in [p ** k for k in range(m)]]

    def product(self, u, v):
        """The lane-wise product u v, unreduced."""
        return [a * b for a, b in zip(u, v)]

    def combine(self, terms, offset, n):
        """As _ByteColumns.combine, on lists."""
        p = self.p
        if len(terms) == 1:
            (a, u), = terms
            return [(a * x + offset) % p for x in u]
        if len(terms) == 2:
            (a, u), (b, v) = terms
            return [(a * x + b * y + offset) % p for x, y in zip(u, v)]
        if not terms:
            offset %= p
            return [offset] * n if offset else None
        (a, u), *rest = terms
        acc = u if a == 1 else [a * x for x in u]
        for t in range(0, len(rest) - 1, 2):
            (a, u), (b, v) = rest[t], rest[t + 1]
            acc = [s + a * x + b * y for s, x, y in zip(acc, u, v)]
        if len(rest) % 2:
            a, u = rest[-1]
            acc = [s + a * x for s, x in zip(acc, u)]
        return [(s + offset) % p for s in acc]


@functools.lru_cache(maxsize=None)
def column_store(p):
    """The column store for F_p, with its tables, built once per p."""
    return _ByteColumns(p) if p * p <= 256 else _ListColumns(p)


def block_kernel(P, alg, store):
    """P on a block of n assignments at once, as a function (xs, n) -> keys.

    xs[i - 1] is X_i: either its dim coordinate columns of n lanes (one lane
    per assignment), or an AlgElement shared by every lane.  freelie.walk
    evaluates P on xs with a lane bracket and a lane sum, and every value is
    held the same way: an AlgElement when no batched variable occurs below
    it, columns of `store` (None for a zero column) otherwise.  A bracket
    with one constant side is a linear map, its ad_matrix built once per
    block and constant and applied as one linear combination per row; a
    bracket of two batched sides takes lane products over the nonzero
    bracket_table entries, [u, v] = sum over i < j of [b_i, b_j] (u_i v_j -
    u_j v_i), an entry m giving u_j v_i the coefficient p - m.  Every bracket and
    sum reduces mod p, and a subterm that occurs more than once is
    evaluated once per block.  The result lists the coordinate tuple of P's
    value on each lane.
    """
    field, p, dim = alg.field, alg.field.modulus, alg.dim
    # (i, j, [(k, m mod p), ..]) for the nonzero entries of [b_i, b_j], i < j
    pairs = []
    for i in range(dim):
        for j in range(i + 1, dim):
            ent = [(k, m % p) for k, m in alg.bracket_table[i][j] if m % p]
            if ent:
                pairs.append((i, j, ent))
    combine, product = store.combine, store.product

    def keys(xs, n):
        ads = {}

        def linear(x, vs, sign):
            # the columns of ad(sign x) applied to vs, ad built once per block
            key = (sign,) + tuple(x.coeffs)
            M = ads.get(key)
            if M is None:
                M = ads[key] = alg.ad_matrix(x if sign > 0 else -x)
            return [combine([(c, vs[j]) for j, c in enumerate(row)
                             if c and vs[j] is not None], 0, 0) for row in M]

        def bracket(us, vs):
            if isinstance(us, AlgElement):
                if isinstance(vs, AlgElement):
                    return us.bracket(vs)
                return linear(us, vs, 1)
            if isinstance(vs, AlgElement):      # [u, v] = ad(-v) u
                return linear(vs, us, -1)
            terms = [[] for _ in range(dim)]
            for i, j, entries in pairs:
                ui, uj, vi, vj = us[i], us[j], vs[i], vs[j]
                if ui is not None and vj is not None:
                    w = product(ui, vj)
                    for k, m in entries:
                        terms[k].append((m, w))
                if uj is not None and vi is not None:
                    w = product(uj, vi)
                    for k, m in entries:
                        terms[k].append((p - m, w))
            return [combine(t, 0, 0) for t in terms]

        def total(parts):
            offset = [0] * dim
            terms = [[] for _ in range(dim)]
            batched = False
            for c, v in parts:
                c = field.residue(c)
                if not c:
                    continue
                if isinstance(v, AlgElement):
                    for k, x in enumerate(v.coeffs):
                        offset[k] += c * x
                else:
                    batched = True
                    for t, x in zip(terms, v):
                        if x is not None:
                            t.append((c, x))
            if not batched:
                return AlgElement(alg, field.reduce_row(offset))
            return [combine(t, o, n) for t, o in zip(terms, offset)]

        val = walk(P.node, xs, bracket, total, {})
        if isinstance(val, AlgElement):
            return [tuple(val.coeffs)] * n
        zero = store.column([0] * n)
        return list(zip(*[zero if col is None else col for col in val]))

    return keys
