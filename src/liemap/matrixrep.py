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

Rows hold the field's public scalars, but the arithmetic runs on ints.  A
matrix is read as a flat n^2 int row with one denominator, X = A / d
(MatrixElement.to_row; d = 1 over F_p), and one core, _commutator_rows,
computes AB - BA on such rows for commutator, for freelie.evaluate (the hook
MatrixElement.integer_rows, which keeps every node's value in that form and
rebuilds the matrix once, at the root) and for the realizations' checks.
char_poly runs the memoised Laplace expansion on ints as
det(d t I - A) = d^n det(tI - X) and divides by d^n once.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from operator import mul
from typing import NamedTuple

from . import linalg
from .chevalley import AlgElement, ChevalleyAlgebra, _neg
from .errors import MapsError
from .freelie import LiePoly, evaluate
from .scalar import row_combine


class MatrixRepError(ValueError):
    pass


class MatrixElement:
    """n x n matrix over an exact field, tagged with its realization."""

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
            tr = self.rows[0][0]
            for i in range(1, n):
                tr = tr + self.rows[i][i]
            if tr:
                raise MatrixRepError("sl(%d) element must be traceless" % n)
        elif self.realization == "so5":
            if n != 5:
                raise MatrixRepError("so5 elements are 5x5")
            R = self.rows
            if R[0][0]:
                raise MatrixRepError("so5 shape: (0,0) entry must vanish")
            # first column vs first row blocks
            for k in (1, 2):
                if R[k][0] != -R[0][k + 2]:
                    raise MatrixRepError("so5 shape: -c^t block mismatch")
            for k in (3, 4):
                if R[k][0] != -R[0][k - 2]:
                    raise MatrixRepError("so5 shape: -b^t block mismatch")
            # n, p skew
            if R[1][3] or R[2][4] or R[1][4] != -R[2][3]:
                raise MatrixRepError("so5 shape: n block must be skew")
            if R[3][1] or R[4][2] or R[3][2] != -R[4][1]:
                raise MatrixRepError("so5 shape: p block must be skew")
            # lower-right = -m^t
            for i in (1, 2):
                for j in (1, 2):
                    if R[i + 2][j + 2] != -R[j][i]:
                        raise MatrixRepError("so5 shape: -m^t block mismatch")
        else:
            raise MatrixRepError("unknown realization %r" % self.realization)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, MatrixElement) or other.realization != self.realization \
                or other.field != self.field:
            raise MatrixRepError("realization/shape mismatch")

    def __add__(self, other):
        self._check(other)
        return MatrixElement(self.realization,
                             [[a + b for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.rows, other.rows)],
                             self.field, validate=False)

    def __sub__(self, other):
        self._check(other)
        return MatrixElement(self.realization,
                             [[a - b for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.rows, other.rows)],
                             self.field, validate=False)

    def __neg__(self):
        return MatrixElement(self.realization, [[-a for a in r] for r in self.rows],
                             self.field, validate=False)

    def scale(self, c):
        return MatrixElement(self.realization, [[c * a for a in r] for r in self.rows],
                             self.field, validate=False)

    def scale_rational(self, q):
        return self.scale(self.field.from_rational(Fraction(q)))

    def bracket(self, other):
        return commutator(self, other)

    def integer_rows(self, xs):
        """freelie.evaluate's integer-row hook (see AlgElement.integer_rows):
        (the matrices of xs as integer rows, their commutator, their linear
        combination, the matrix of a value), with every element of xs of
        this element's realization and field."""
        for x in xs:
            self._check(x)
        f, n = self.field, len(self.rows)

        def bracket(a, b):
            (ra, da), (rb, db) = a, b
            return f.normal_row(_commutator_rows(ra, rb, n), da * db)

        return ([x.to_row() for x in xs], bracket, partial(row_combine, f, n * n),
                self.from_row)

    def to_row(self):
        """The matrix as (flat n^2 int row, d) with rows = row / d, d the lcm
        of the denominators (d = 1 over F_p)."""
        f = self.field
        (ints,), d = f.integral_rows(([f.residue(x) for r in self.rows for x in r],))
        return ints, d

    def from_row(self, value):
        """The matrix of this realization and field with flat row ints / d."""
        f = self.field
        n = len(self.rows)
        entries = [f.lift(x) for x in f.from_integral_row(*value)]
        return MatrixElement(self.realization, [entries[i:i + n] for i in range(0, n * n, n)],
                             f, validate=False)

    def is_zero(self):
        return not any(any(r) for r in self.rows)

    def __eq__(self, other):
        return isinstance(other, MatrixElement) and other.realization == self.realization \
            and other.rows == self.rows

    def __hash__(self):
        return hash((self.realization, self.rows))

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
    return (data["realization"], [matrix_from_json(m, field) for m in data["triple1"]],
            [matrix_from_json(m, field) for m in data["triple2"]])


def matrix_from_ints(realization, rows, field, validate=True):
    return MatrixElement(realization, [[field.from_int(x) for x in r] for r in rows],
                         field, validate=validate)


def commutator(X: MatrixElement, Y: MatrixElement) -> MatrixElement:
    X._check(Y)
    (xs, dx), (ys, dy) = X.to_row(), Y.to_row()
    return X.from_row((_commutator_rows(xs, ys, len(X.rows)), dx * dy))


def _commutator(A, B, field):
    """AB - BA on residue matrices, by the integer core."""
    n = len(A)
    (a, b), d = field.integral_rows(([x for r in A for x in r], [x for r in B for x in r]))
    row = field.from_integral_row(_commutator_rows(a, b, n), d * d)
    return [row[i:i + n] for i in range(0, n * n, n)]


def _commutator_rows(a, b, n):
    """AB - BA on flat n x n int rows: the one commutator core, of
    commutator, evaluate and the realizations' checks.  Entry (i, j) is one
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
    """Exact coefficients of det(tI - X), low degree first, as the field's
    public scalars.  X's denominators are cleared once, X = A / d with A an
    int matrix, and the Laplace expansion runs on ints as
    det(d t I - A) = d^n det(tI - X): coefficient k is c_k / d^n."""
    field = X.field
    n = len(X.rows)
    A, d = X.to_row()
    P = [[([-A[i * n + j], d] if i == j else [-A[i * n + j]])
          for j in range(n)] for i in range(n)]
    out = _det(tuple(range(n)), P, n, {})
    return [field.lift(x) for x in field.from_integral_row(out, d ** n)]


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
    """Characteristic-polynomial invariants with the projective theta pair."""

    f1: object
    f2: object
    deg_f1: int
    deg_f2: int

    @property
    def m1(self):
        return self.deg_f2

    @property
    def m2(self):
        return self.deg_f1

    @property
    def theta_pair(self):
        return (self.f1 ** self.m1, self.f2 ** self.m2)

    def to_json(self, field):
        x, y = self.theta_pair
        return {"f1": field.format_scalar(self.f1), "f2": field.format_scalar(self.f2),
                "deg_f1": self.deg_f1, "deg_f2": self.deg_f2,
                "theta_pair": [field.format_scalar(x), field.format_scalar(y)]}


def char_invariants(X: MatrixElement) -> InvariantPair:
    f = X.field
    if X.realization == "sl3":
        c = char_poly(X)
        if c[2]:
            raise MatrixRepError("sl(3) characteristic polynomial has nonzero t^2 term")
        return InvariantPair(f1=c[1], f2=c[0], deg_f1=2, deg_f2=3)
    if X.realization == "so5":
        X.validate()
        c = char_poly(X)
        if c[0] or c[2] or c[4]:
            raise MatrixRepError("so(5) characteristic polynomial must be odd")
        return InvariantPair(f1=c[3], f2=c[1], deg_f1=2, deg_f2=4)
    raise MatrixRepError("char_invariants supports sl3 and so5 only")


def theta_separates(D1: MatrixElement, D2: MatrixElement) -> str:
    """Compare theta values projectively; 'undefined' iff a pair is (0:0)."""
    if D1.is_zero() or D2.is_zero():
        raise MatrixRepError("theta is undefined on the zero matrix")
    x1, y1 = char_invariants(D1).theta_pair
    x2, y2 = char_invariants(D2).theta_pair
    if (not x1 and not y1) or (not x2 and not y2):
        return "undefined"
    return "separated" if x1 * y2 != x2 * y1 else "equal"


# -- Chevalley-basis realizations --------------------------------------------


class Realization:
    """Verified linear isomorphism between a Chevalley algebra and a matrix
    algebra, with phi([x,y]) = [phi(x), phi(y)] checked on every basis pair.
    The basis images are residue matrices (see linalg)."""

    def __init__(self, alg: ChevalleyAlgebra, tag, images):
        self.alg = alg
        self.tag = tag
        self.n = len(images[0])
        self.images = images
        flat = []
        for i in range(self.n):
            for j in range(self.n):
                flat.append([images[k][i][j] for k in range(alg.dim)])
        self._A = flat
        self._verify()

    def combine(self, coeffs):
        """The residue matrix sum_k coeffs[k] images[k] (coeffs in residues)."""
        f = self.alg.field
        rows = linalg.zero_matrix(f, self.n, self.n)
        for c, B in zip(coeffs, self.images):
            if c:
                for row, Brow in zip(rows, B):
                    for j, b in enumerate(Brow):
                        if b:
                            row[j] += c * b
        return [f.reduce_row(row) for row in rows]

    def to_matrix(self, x: AlgElement) -> MatrixElement:
        f = self.alg.field
        rows = self.combine(x.coeffs)
        return MatrixElement(self.tag, [[f.lift(v) for v in row] for row in rows],
                             f, validate=False)

    def matrix_coords(self, rows):
        """Coordinates (residues) of the residue matrix `rows`."""
        b = [rows[i][j] for i in range(self.n) for j in range(self.n)]
        sol = linalg.solve(self._A, b, self.alg.field)
        if sol is None:
            raise MatrixRepError("matrix is outside the realized subalgebra")
        return sol

    def from_matrix(self, M: MatrixElement) -> AlgElement:
        f = self.alg.field
        coords = self.matrix_coords([[f.residue(x) for x in r] for r in M.rows])
        return AlgElement(self.alg, coords)

    def _verify(self):
        """[phi(b_i), phi(b_j)] = phi([b_i, b_j]) for every i < j, on ints:
        with every image cleared to an int row a_k = D A_k, the commutator
        core gives D^2 [A_i, A_j], from which D c a_k is subtracted for each
        (k, c) in bracket_table[i][j]; the difference, reduced once by the
        field, must vanish."""
        alg = self.alg
        f = alg.field
        rows, D = f.integral_rows([[x for r in B for x in r] for B in self.images])
        nonzero = [[(p, D * v) for p, v in enumerate(a) if v] for a in rows]
        for i, row in enumerate(alg.bracket_table):
            for j in range(i + 1, alg.dim):
                diff = _commutator_rows(rows[i], rows[j], self.n)
                for k, c in row[j]:
                    for p, v in nonzero[k]:
                        diff[p] -= c * v
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
    images = {}
    for i in range(alg.rank):
        images[i] = _sparse_matrix(f, n, (i, i, 1), (i + 1, i + 1, -1))
        a = alg.rs.simple_roots[i].coords
        images[alg._eidx[a]] = _sparse_matrix(f, n, (i, i + 1, 1))
        images[alg._eidx[_neg(a)]] = _sparse_matrix(f, n, (i + 1, i, 1))
    for k in range(alg.dim):
        images.setdefault(k, None)
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
    if alg.field.characteristic == 2:
        raise MatrixRepError("matrix realizations need characteristic != 2")
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
                    out[name + "_theta"] = char_invariants(v).to_json(v.field)
        return out


def dominance_witness_check(P: LiePoly, triple1, triple2) -> WitnessVerdict:
    """confirmed iff theta exactly separates P(triple1) from P(triple2)."""
    for t in (triple1, triple2):
        if len(t) != P.nvars:
            raise MapsError("assignment arity mismatch")
    D1 = evaluate(P, list(triple1))
    D2 = evaluate(P, list(triple2))
    if D1.is_zero() or D2.is_zero():
        which = "first" if D1.is_zero() else "second"
        if D1.is_zero() and D2.is_zero():
            which = "both"
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
    if realization.startswith("sl"):
        n = int(realization[2:])
        rows = [[field.from_int(rng.randint(-span, span)) for _ in range(n)]
                for _ in range(n)]
        acc = field.zero()
        for i in range(n - 1):
            acc = acc + rows[i][i]
        rows[n - 1][n - 1] = -acc
        return MatrixElement(realization, rows, field, validate=False)
    if realization == "so5":
        z = field.zero()
        b = [field.from_int(rng.randint(-span, span)) for _ in range(2)]
        c = [field.from_int(rng.randint(-span, span)) for _ in range(2)]
        m = [[field.from_int(rng.randint(-span, span)) for _ in range(2)]
             for _ in range(2)]
        nval = field.from_int(rng.randint(-span, span))
        pval = field.from_int(rng.randint(-span, span))
        rows = [
            [z, b[0], b[1], c[0], c[1]],
            [-c[0], m[0][0], m[0][1], z, nval],
            [-c[1], m[1][0], m[1][1], -nval, z],
            [-b[0], z, pval, -m[0][0], -m[1][0]],
            [-b[1], -pval, z, -m[0][1], -m[1][1]],
        ]
        return MatrixElement("so5", rows, field)
    raise MapsError("unknown realization %r" % realization)


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
    if realization not in ("sl3", "so5"):
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
