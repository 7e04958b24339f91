"""Matrix realizations sl(n, K) and so(5, K) with exact invariants.

so(5) elements use the 5x5 block shape

    ( 0    b    c  )
    ( -c^t m    n  )
    ( -b^t p   -m^t)

with b, c row 2-vectors, m any 2x2, and n, p skew-symmetric 2x2.

The invariant pair (f1, f2) collects characteristic-polynomial coefficients:
for sl(3), chi(t) = t^3 + f1 t + f2; for so(5), chi(t) = t^5 + f1 t^3 + f2 t.
The separator theta is kept projectively as (f1^m1 : f2^m2) with
m1 = deg f2, m2 = deg f1, and compared only by cross-multiplication.
Dominancy witnesses are pairs of assignments whose values under P theta
separates; dominance_witness_check confirms one, dominance_witness_search
looks for one by seeded random sampling.

Rows hold residues (ints in [0, p) over F_p, Fractions over Q; see
scalar.py).  A MatrixElement has no arithmetic: the witness commands read
each matrix into A2 (sl3) or B2 (so5) through the verified Realization,
evaluate P there with freelie.evaluate, and map the two values back for
char_poly.  A matrix is read as a flat n^2 int row with one denominator,
X = A / d (MatrixElement.to_row; d = 1 over F_p); char_poly runs the
memoised Laplace expansion on ints as det(d t I - A) = d^n det(tI - X) and
divides by d^n once, and _commutator_rows computes AB - BA on such rows
for the realizations' construction and checks.
"""

from __future__ import annotations

import random
from operator import mul
from typing import NamedTuple

from . import linalg
from .chevalley import AlgElement, ChevalleyAlgebra, _neg, build_algebra
from .errors import MapsError
from .freelie import LiePoly, evaluate


class MatrixRepError(ValueError):
    pass


class MatrixElement:
    """n x n matrix over an exact field, tagged with its realization; its
    rows are residues (matrix_from_ints takes ints)."""

    __slots__ = ("realization", "rows", "field")

    def __init__(self, realization, rows, field, validate=True):
        self.realization = realization
        self.rows = tuple(tuple(r) for r in rows)
        self.field = field
        if validate:
            self.validate()

    # -- shape validation -------------------------------------------------

    def validate(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise MatrixRepError("matrix is not square")
        if self.realization.startswith("sl"):
            if int(self.realization[2:]) != n:
                raise MatrixRepError("size mismatch for %s" % self.realization)
            if self.field.reduce(sum(self.rows[i][i] for i in range(n))):
                raise MatrixRepError("sl(%d) element must be traceless" % n)
        elif self.realization == "so5":
            if n != 5:
                raise MatrixRepError("so5 elements are 5x5")
            R = self.rows
            red = self.field.reduce
            if R[0][0]:
                raise MatrixRepError("so5 shape: (0,0) entry must vanish")
            # first column vs first row blocks
            for k in (1, 2):
                if R[k][0] != red(-R[0][k + 2]):
                    raise MatrixRepError("so5 shape: -c^t block mismatch")
            for k in (3, 4):
                if R[k][0] != red(-R[0][k - 2]):
                    raise MatrixRepError("so5 shape: -b^t block mismatch")
            # n, p skew
            if R[1][3] or R[2][4] or R[1][4] != red(-R[2][3]):
                raise MatrixRepError("so5 shape: n block must be skew")
            if R[3][1] or R[4][2] or R[3][2] != red(-R[4][1]):
                raise MatrixRepError("so5 shape: p block must be skew")
            # lower-right = -m^t
            for i in (1, 2):
                for j in (1, 2):
                    if R[i + 2][j + 2] != red(-R[j][i]):
                        raise MatrixRepError("so5 shape: -m^t block mismatch")
        else:
            raise MatrixRepError("unknown realization %r" % self.realization)

    def to_row(self):
        """The matrix as (flat n^2 int row, d) with rows = row / d, d the lcm
        of the denominators (d = 1 over F_p)."""
        f = self.field
        (ints,), d = f.integral_rows(([x for r in self.rows for x in r],))
        return ints, d

    def is_zero(self):
        return not any(any(r) for r in self.rows)

    def __eq__(self, other):
        return isinstance(other, MatrixElement) and other.realization == self.realization \
            and other.rows == self.rows

    def to_json(self):
        f = self.field
        return {"basis": "matrix", "realization": self.realization,
                "rows": [[f.format_scalar(x) for x in r] for r in self.rows]}

    def __repr__(self):
        return "MatrixElement(%s, %s)" % (self.realization, [list(map(str, r)) for r in self.rows])


def matrix_from_json(obj, field, validate=True):
    if not isinstance(obj, dict) or obj.get("basis") != "matrix":
        raise MatrixRepError("expected matrix encoding")
    realization, rows = obj.get("realization"), obj.get("rows")
    if not isinstance(realization, str) or not isinstance(rows, list) or not all(
            isinstance(r, list) and all(isinstance(x, str) for x in r) for r in rows):
        raise MatrixRepError("a matrix needs a realization string and rows of strings")
    rows = [[field.parse_scalar(x) for x in r] for r in rows]
    return MatrixElement(realization, rows, field, validate=validate)


def triples_from_json(data, field):
    """(realization, triple1, triple2) from a witness document."""
    if not isinstance(data, dict) or not isinstance(data.get("realization"), str) \
            or not all(isinstance(data.get(k), list) for k in ("triple1", "triple2")):
        raise MatrixRepError("a witness document needs a realization string "
                             "and the lists triple1 and triple2")
    t1, t2 = ([matrix_from_json(m, field) for m in data[k]] for k in ("triple1", "triple2"))
    if any(M.realization != data["realization"] for M in t1 + t2):
        raise MatrixRepError("the document's realization %s is not its matrices'"
                             % data["realization"])
    return data["realization"], t1, t2


def matrix_from_ints(realization, rows, field, validate=True):
    return MatrixElement(realization, [[field.residue(x) for x in r] for r in rows],
                         field, validate=validate)


def _commutator(A, B, field):
    """AB - BA on residue matrices, by the integer core."""
    n = len(A)
    (a, b), d = field.integral_rows(([x for r in A for x in r], [x for r in B for x in r]))
    row = field.from_integral_row(_commutator_rows(a, b, n), d * d)
    return [row[i:i + n] for i in range(0, n * n, n)]


def _commutator_rows(a, b, n):
    """AB - BA on flat n x n int rows: the one commutator core, of the
    realizations' construction and checks.  Entry (i, j) is one
    dot product of row i of (A | B) with column j of (B | -A); a zero row of
    (A | B), common in the sparse realization images, is skipped."""
    right = [b[j::n] + [-x for x in a[j::n]] for j in range(n)]
    zero = [0] * n
    out = []
    for i in range(0, n * n, n):
        left = a[i:i + n] + b[i:i + n]
        out += [sum(map(mul, left, r)) for r in right] if any(left) else zero
    return out


# -- characteristic invariants ----------------------------------------------


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return out


def char_poly(X: MatrixElement):
    """Exact coefficients of det(tI - X), low degree first, as residues.
    X's denominators are cleared once, X = A / d with A an int matrix, and
    the Laplace expansion runs on ints as
    det(d t I - A) = d^n det(tI - X): coefficient k is c_k / d^n."""
    field = X.field
    n = len(X.rows)
    A, d = X.to_row()
    P = [[([-A[i * n + j], d] if i == j else [-A[i * n + j]])
          for j in range(n)] for i in range(n)]
    out = _det(tuple(range(n)), P, n, {})
    return field.from_integral_row(out, d ** n)


def _det(cols, P, n, memo):
    """The determinant of P's last len(cols) rows on the columns cols, a
    polynomial in t with int coefficients, by Laplace expansion along the
    first of those rows; minors are kept in memo.  A plain function, not a
    closure over memo: a self-referencing closure would keep memo's values
    alive until the cyclic collector ran."""
    if not cols:
        return [1]
    if cols in memo:
        return memo[cols]
    r = n - len(cols)
    acc = [0]
    for pos, j in enumerate(cols):
        entry = P[r][j]
        if len(entry) == 1 and not entry[0]:
            continue
        sub = _det(tuple(c for c in cols if c != j), P, n, memo)
        term = _poly_mul(entry, sub)
        if pos % 2:
            term = [-t for t in term]
        if len(acc) < len(term):
            acc += [0] * (len(term) - len(acc))
        for k, t in enumerate(term):
            acc[k] += t
    memo[cols] = acc
    return acc


class InvariantPair(NamedTuple):
    """Characteristic-polynomial invariants with the projective theta pair,
    all residues of the field."""

    f1: object
    f2: object
    deg_f1: int
    deg_f2: int
    field: object

    @property
    def theta_pair(self):
        """(f1^m1, f2^m2) with m1 = deg f2 and m2 = deg f1."""
        red = self.field.reduce
        return (red(self.f1 ** self.deg_f2), red(self.f2 ** self.deg_f1))

    def to_json(self):
        fmt = self.field.format_scalar
        x, y = self.theta_pair
        return {"f1": fmt(self.f1), "f2": fmt(self.f2),
                "deg_f1": self.deg_f1, "deg_f2": self.deg_f2,
                "theta_pair": [fmt(x), fmt(y)]}


def char_invariants(X: MatrixElement) -> InvariantPair:
    f = X.field
    if X.realization == "sl3":
        c = char_poly(X)
        if c[2]:
            raise MatrixRepError("sl(3) characteristic polynomial has nonzero t^2 term")
        return InvariantPair(f1=c[1], f2=c[0], deg_f1=2, deg_f2=3, field=f)
    if X.realization == "so5":
        X.validate()
        c = char_poly(X)
        if c[0] or c[2] or c[4]:
            raise MatrixRepError("so(5) characteristic polynomial must be odd")
        return InvariantPair(f1=c[3], f2=c[1], deg_f1=2, deg_f2=4, field=f)
    raise MatrixRepError("char_invariants supports sl3 and so5 only")


def theta_separates(D1: MatrixElement, D2: MatrixElement) -> str:
    """Compare theta values projectively; 'undefined' iff a pair is (0:0)."""
    if D1.is_zero() or D2.is_zero():
        raise MatrixRepError("theta is undefined on the zero matrix")
    x1, y1 = char_invariants(D1).theta_pair
    x2, y2 = char_invariants(D2).theta_pair
    if (not x1 and not y1) or (not x2 and not y2):
        return "undefined"
    return "separated" if D1.field.reduce(x1 * y2 - x2 * y1) else "equal"


# -- Chevalley-basis realizations --------------------------------------------


class Realization:
    """Verified linear isomorphism between a Chevalley algebra and a matrix
    algebra, with phi([x,y]) = [phi(x), phi(y)] checked on every basis pair.
    The basis images are residue matrices (see linalg).  Both conversions
    run on ints: each image is cleared to a flat int row, images[k] =
    rows[k] / D, a combination is summed on those rows, and coordinates are
    read off dim independent entries by an int left inverse, built once."""

    def __init__(self, alg: ChevalleyAlgebra, tag, images):
        self.alg = alg
        self.tag = tag
        self.n = len(images[0])
        self.images = images
        f = alg.field
        flat = [[x for r in B for x in r] for B in images]
        rows, self._D = f.integral_rows(flat)
        self._nonzero = [[(p, v) for p, v in enumerate(a) if v] for a in rows]
        self._verify(rows)
        # the entries at the pivots of the flat images determine an element:
        # its coordinates are the inverse of the images there, applied to them
        _, self._entries = linalg.rref(flat, f)
        if len(self._entries) < alg.dim:
            raise MatrixRepError("realization images are linearly dependent")
        inverse = linalg.invert_matrix([[a[p] for a in flat] for p in self._entries], f)
        self._inverse, self._inverse_d = f.integral_rows(inverse)

    def _int_sum(self, terms, out):
        """out + sum c rows[k] over the (k, c) of terms, on the flat int
        images rows[k] = D images[k]."""
        for k, c in terms:
            for p, v in self._nonzero[k]:
                out[p] += c * v
        return out

    def combine(self, coeffs):
        """The residue matrix sum_k coeffs[k] images[k] (coeffs in residues),
        summed on ints."""
        f, n = self.alg.field, self.n
        (cs,), d = f.integral_rows((coeffs,))
        flat = f.from_integral_row(self._int_sum(enumerate(cs), [0] * (n * n)), d * self._D)
        return [flat[i:i + n] for i in range(0, n * n, n)]

    def to_matrix(self, x: AlgElement) -> MatrixElement:
        return MatrixElement(self.tag, self.combine(x.coeffs), self.alg.field,
                             validate=False)

    def matrix_coords(self, rows):
        """Coordinates (residues) of the residue matrix rows = ints / d.  The
        int left inverse L / dL on the independent entries gives them as
        C / (dL d), and sum_k C_k rows[k] must be dL D ints at every entry."""
        f = self.alg.field
        (ints,), d = f.integral_rows(([x for r in rows for x in r],))
        picked = [ints[p] for p in self._entries]
        C = [sum(map(mul, row, picked)) for row in self._inverse]
        diff = self._int_sum(enumerate(C), [-self._inverse_d * self._D * x for x in ints])
        if any(f.from_integral_row(diff, 1)):
            raise MatrixRepError("matrix is outside the realized subalgebra")
        return f.from_integral_row(C, self._inverse_d * d)

    def from_matrix(self, M: MatrixElement) -> AlgElement:
        return AlgElement(self.alg, self.matrix_coords(M.rows))

    def _verify(self, rows):
        """[phi(b_i), phi(b_j)] = phi([b_i, b_j]) for every i < j, on the int
        rows a_k = D A_k: the commutator core gives D^2 [A_i, A_j], from
        which D c a_k is subtracted for each (k, c) in bracket_table[i][j];
        the difference, reduced once by the field, must vanish."""
        alg = self.alg
        f, D = alg.field, self._D
        for i, row in enumerate(alg.bracket_table):
            for j in range(i + 1, alg.dim):
                diff = self._int_sum([(k, -c * D) for k, c in row[j]],
                                     _commutator_rows(rows[i], rows[j], self.n))
                if any(f.from_integral_row(diff, D * D)):
                    raise MatrixRepError(
                        "realization fails on basis pair (%d, %d)" % (i, j))


def _sparse_matrix(field, n, *entries):
    """The n x n residue matrix with the (i, j, c) entries, zero elsewhere."""
    rows = linalg.zero_matrix(field, n, n)
    for i, j, c in entries:
        rows[i][j] = field.residue(c)
    return rows


def _fill_composite_images(alg, images, n):
    """Extend generator images to all root vectors by bracketing upward in
    height, dividing by the known structure constants."""
    f = alg.field
    simple_coords = [s.coords for s in alg.rs.simple_roots]
    for b in alg.pos_order:                          # (height, lex) order
        if b.height == 1:
            continue
        for sign in (1, -1):
            coords = b.coords if sign == 1 else _neg(b.coords)
            k = alg._eidx[coords]
            if images[k] is not None:
                continue
            done = False
            for sc in simple_coords:
                s = sc if sign == 1 else _neg(sc)
                g = tuple(x - y for x, y in zip(coords, s))
                if not alg.rs.contains(g) or images.get(alg._eidx[g]) is None:
                    continue
                inv = f.inv(f.residue(alg.n_table[(s, g)]))
                C = _commutator(images[alg._eidx[s]], images[alg._eidx[g]], f)
                images[k] = [f.scale_row(row, inv) for row in C]
                done = True
                break
            if not done:
                raise MatrixRepError("no simple-root decomposition for %r" % (coords,))
    return images


def _realize_type_A(alg: ChevalleyAlgebra) -> Realization:
    n = alg.rank + 1
    f = alg.field
    images = {k: None for k in range(alg.dim)}
    for i in range(alg.rank):
        images[i] = _sparse_matrix(f, n, (i, i, 1), (i + 1, i + 1, -1))
        a = alg.rs.simple_roots[i].coords
        images[alg._eidx[a]] = _sparse_matrix(f, n, (i, i + 1, 1))
        images[alg._eidx[_neg(a)]] = _sparse_matrix(f, n, (i + 1, i, 1))
    images = _fill_composite_images(alg, images, n)
    return Realization(alg, "sl%d" % n, [images[k] for k in range(alg.dim)])


def _realize_B2(alg: ChevalleyAlgebra) -> Realization:
    f = alg.field
    n = 5

    def diag(*vals):
        return _sparse_matrix(f, n, *((i, i, v) for i, v in enumerate(vals)))

    a1 = alg.rs.simple_roots[0].coords
    a2 = alg.rs.simple_roots[1].coords
    # one generator assignment, checked on every basis pair by Realization
    images = {k: None for k in range(alg.dim)}
    images.update({0: diag(0, 1, -1, -1, 1), 1: diag(0, 0, 2, 0, -2)})
    images[alg._eidx[a1]] = _sparse_matrix(f, n, (1, 2, 1), (4, 3, -1))
    images[alg._eidx[_neg(a1)]] = _sparse_matrix(f, n, (2, 1, 1), (3, 4, -1))
    images[alg._eidx[a2]] = _sparse_matrix(f, n, (0, 4, 1), (2, 0, -1))
    images[alg._eidx[_neg(a2)]] = _sparse_matrix(f, n, (0, 2, -2), (4, 0, 2))
    images = _fill_composite_images(alg, images, n)
    return Realization(alg, "so5", [images[k] for k in range(alg.dim)])


def realize_chevalley(alg: ChevalleyAlgebra) -> Realization:
    """Verified isomorphism onto sl(rank+1) for type A, so(5) for B2."""
    if alg.rs.type_label == "A":
        return _realize_type_A(alg)
    if alg.rs.key == ("B", 2):
        return _realize_B2(alg)
    raise MatrixRepError("no matrix realization for %s_%d"
                         % (alg.rs.type_label, alg.rs.rank))


class WitnessVerdict(NamedTuple):
    result: str                     # confirmed | not_separated | undefined
    value1: MatrixElement | None = None
    value2: MatrixElement | None = None
    detail: str = ""

    def to_json(self):
        out = {"result": self.result}
        if self.detail:
            out["detail"] = self.detail
        for name, v in (("value1", self.value1), ("value2", self.value2)):
            if v is not None:
                out[name] = v.to_json()
                if not v.is_zero():
                    out[name + "_theta"] = char_invariants(v).to_json()
        return out


# the algebra each witness realization is read into: char_invariants knows
# sl3 and so5, the realizations of A2 and B2
WITNESS_ALGEBRAS = {"sl3": ("A", 2), "so5": ("B", 2)}


def dominance_witness_check(P: LiePoly, triple1, triple2) -> WitnessVerdict:
    """confirmed iff theta exactly separates P(triple1) from P(triple2).
    Every matrix carries the first one's realization, sl3 or so5, and field;
    each is read into A2 or B2 through the verified realization, P is
    evaluated there, and the two values are mapped back for char_poly."""
    for t in (triple1, triple2):
        if len(t) != P.nvars:
            raise MapsError("assignment arity mismatch")
    X = triple1[0]
    if not all(isinstance(M, MatrixElement) and (M.realization, M.field)
               == (X.realization, X.field) for M in (*triple1, *triple2)):
        raise MatrixRepError("realization/shape mismatch")
    if X.realization not in WITNESS_ALGEBRAS:
        raise MatrixRepError("witnesses are sl3 or so5 matrices, not %s" % X.realization)
    real = build_algebra(*WITNESS_ALGEBRAS[X.realization], X.field)._get_realization()
    D1, D2 = (real.to_matrix(evaluate(P, [real.from_matrix(M) for M in t]))
              for t in (triple1, triple2))
    if D1.is_zero() or D2.is_zero():
        which = ("both" if D2.is_zero() else "first") if D1.is_zero() else "second"
        return WitnessVerdict(result="undefined", value1=D1, value2=D2,
                              detail="P vanishes on the %s assignment" % which)
    sep = theta_separates(D1, D2)
    if sep == "separated":
        return WitnessVerdict(result="confirmed", value1=D1, value2=D2)
    if sep == "equal":
        return WitnessVerdict(result="not_separated", value1=D1, value2=D2)
    return WitnessVerdict(result="undefined", value1=D1, value2=D2,
                          detail="theta pair is (0:0) on some value")


def _random_matrix(realization, field, rng, span):
    """A random sl3 or so5 matrix: each free entry the residue of an
    int drawn from [-span, span], the others fixed by the shape, which holds
    by construction."""
    def draw():
        return field.residue(rng.randint(-span, span))

    if realization == "sl3":
        rows = [[draw() for _ in range(3)] for _ in range(3)]
        rows[2][2] = field.residue(-rows[0][0] - rows[1][1])
    else:
        red = field.reduce
        z = field.residue(0)
        b0, b1, c0, c1, m00, m01, m10, m11, nval, pval = (draw() for _ in range(10))
        rows = [
            [z, b0, b1, c0, c1],
            [red(-c0), m00, m01, z, nval],
            [red(-c1), m10, m11, red(-nval), z],
            [red(-b0), z, pval, red(-m00), red(-m10)],
            [red(-b1), red(-pval), z, red(-m01), red(-m11)],
        ]
    return MatrixElement(realization, rows, field, validate=False)


class WitnessSearchResult(NamedTuple):
    status: str                      # confirmed | exhausted
    triple1: list | None = None
    triple2: list | None = None
    attempts: int = 0
    seed: int = 0

    def to_json(self):
        out = {"status": self.status, "attempts": self.attempts, "seed": self.seed}
        if self.triple1 is not None:
            out["triple1"] = [m.to_json() for m in self.triple1]
            out["triple2"] = [m.to_json() for m in self.triple2]
        return out


def dominance_witness_search(P: LiePoly, realization, field, budget=10000,
                             seed=0) -> WitnessSearchResult:
    """Seeded random search for a confirmed witness pair; entries start in
    [-10, 10] and widen to [-100, 100] for the second half of the budget.
    Exhaustion is inconclusive, not a disproof."""
    if realization not in WITNESS_ALGEBRAS:
        raise MapsError("witness search supports sl3 and so5 only")
    rng = random.Random(seed)
    d = P.nvars
    for attempt in range(1, budget + 1):
        span = 10 if attempt <= budget / 2 else 100
        t1 = [_random_matrix(realization, field, rng, span) for _ in range(d)]
        t2 = [_random_matrix(realization, field, rng, span) for _ in range(d)]
        v = dominance_witness_check(P, t1, t2)
        if v.result == "confirmed":
            return WitnessSearchResult(status="confirmed", triple1=t1, triple2=t2,
                                       attempts=attempt, seed=seed)
    return WitnessSearchResult(status="exhausted", attempts=budget, seed=seed)
