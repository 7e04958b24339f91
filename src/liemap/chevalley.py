"""Chevalley algebras L(R, K) with fully tabulated integer structure constants.

Basis order: h_{alpha_1}..h_{alpha_r}, then e_beta for beta in R+ sorted by
(height, coordinates lex), then e_{-beta} in matching order.

Structure-constant signs follow the extraspecial-pair convention: for each
non-simple positive root xi, the special pair (gamma, delta) with gamma
minimal in the (height, lex) order gets N_{gamma,delta} = p+1 > 0, and every
other constant is forced by antisymmetry, N_{-a,-b} = -N_{a,b}, and the
Jacobi identity.  The construction-time Jacobi sweep is the oracle that
checks the table: on every basis triple up to rank 4, on a strided sample of
about 2000 triples above.

Elements hold their coefficients as residues (ints in [0, p) over F_p,
Fractions over Q; see scalar.py): ChevalleyAlgebra.element converts scalars,
the bracket runs on the integer table bracket_table and reduces once, and
AlgElement.to_json formats the result.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .rootsystem import RootSystem, build_root_system  # noqa: F401 (re-export convenience)


class ChevalleyError(ValueError):
    pass


class CentralElementError(ChevalleyError):
    """Operation undefined for central elements."""


class FieldTooSmallError(ChevalleyError):
    """The field cannot supply a lattice point avoiding the requested values."""


class ConjugationBudgetError(ChevalleyError):
    """Randomized conjugation search exhausted its budget (reported, never silent)."""


class ConjugationUnsupportedError(ChevalleyError):
    """No deterministic conjugation algorithm for this type over this field."""


def _neg(c):
    return tuple(-x for x in c)


def _structure_constants(rs: RootSystem):
    """Integer constants N_{a,b} for every pair of roots with a+b a root."""
    pos = sorted((b.coords for b in rs.positive_roots), key=lambda c: (sum(c), c))
    order = {c: i for i, c in enumerate(pos)}
    pos_set = set(pos)
    special = {}

    def chain_p(a, b):
        p = 0
        cur = tuple(y - x for x, y in zip(a, b))
        while cur in pos_set or _neg(cur) in pos_set:
            p += 1
            cur = tuple(y - x for x, y in zip(a, cur))
        return p

    def is_root(c):
        return c in pos_set or _neg(c) in pos_set

    def nlook(u, v):
        """N_{u,v} as a Fraction during reduction; exact and integral in the end."""
        su, sv = sum(u) > 0, sum(v) > 0
        if su and sv:
            if order[u] < order[v]:
                return Fraction(special[(u, v)])
            return -Fraction(special[(v, u)])
        if not su and not sv:
            return -nlook(_neg(u), _neg(v))
        if not su:
            return -nlook(v, u)
        c = tuple(x + y for x, y in zip(u, v))
        if sum(c) > 0:
            return Fraction(rs.inner(c, c), rs.inner(u, u)) * nlook(v, _neg(c))
        return Fraction(rs.inner(c, c), rs.inner(v, v)) * nlook(_neg(c), u)

    for xi in pos:
        if sum(xi) == 1:
            continue
        pairs = []
        for a in pos:
            b = tuple(x - y for x, y in zip(xi, a))
            if b in pos_set and order[a] < order[b]:
                pairs.append((a, b))
        pairs.sort(key=lambda ab: order[ab[0]])
        g, d = pairs[0]
        special[(g, d)] = chain_p(g, d) + 1
        for a, b in pairs[1:]:
            # Jacobi on (e_g, e_{-a}, e_{-b}); the e_{-d} coefficient gives
            #   N_{-a,-b} N_{g,-xi} + N_{-b,g} N_{-a,g-b} + N_{g,-a} N_{-b,g-a} = 0.
            acc = Fraction(0)
            gb = tuple(x - y for x, y in zip(g, b))
            if is_root(gb):
                acc += nlook(_neg(b), g) * nlook(_neg(a), gb)
            ga = tuple(x - y for x, y in zip(g, a))
            if is_root(ga):
                acc += nlook(g, _neg(a)) * nlook(_neg(b), ga)
            denom = nlook(g, _neg(xi))
            val = acc / denom
            assert val.denominator == 1 and val != 0
            special[(a, b)] = int(val)

    n_table = {}
    for a in rs.roots:
        for b in rs.roots:
            s = tuple(x + y for x, y in zip(a.coords, b.coords))
            if is_root(s):
                v = nlook(a.coords, b.coords)
                assert v.denominator == 1
                n_table[(a.coords, b.coords)] = int(v)
    return n_table


class AlgElement:
    """Element of a Chevalley algebra: a coefficient vector in the fixed basis,
    held as residues (ints in [0, p) over F_p, Fractions over Q).  Scalars
    become residues in ChevalleyAlgebra.element and are formatted in to_json."""

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg, coeffs):
        self.alg = alg
        self.coeffs = tuple(coeffs)

    def _check(self, other):
        if other.alg is not self.alg:
            raise ChevalleyError("elements from different algebras")

    def __add__(self, other):
        self._check(other)
        return AlgElement(self.alg, self.alg.field.reduce_row(
            [a + b for a, b in zip(self.coeffs, other.coeffs)]))

    def __sub__(self, other):
        self._check(other)
        return AlgElement(self.alg, self.alg.field.reduce_row(
            [a - b for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self):
        return AlgElement(self.alg, self.alg.field.reduce_row([-a for a in self.coeffs]))

    def scale(self, c):
        f = self.alg.field
        return AlgElement(self.alg, f.scale_row(self.coeffs, f.residue(c)))

    def scale_rational(self, q):
        return self.scale(Fraction(q))

    def bracket(self, other):
        self._check(other)
        return self.alg.bracket(self, other)

    def is_zero(self):
        return not any(self.coeffs)

    @property
    def h_part(self):
        return self.coeffs[: self.alg.rank]

    @property
    def u_plus_part(self):
        r, p = self.alg.rank, len(self.alg.rs.positive_roots)
        return self.coeffs[r: r + p]

    @property
    def u_minus_part(self):
        r, p = self.alg.rank, len(self.alg.rs.positive_roots)
        return self.coeffs[r + p:]

    def __eq__(self, other):
        return isinstance(other, AlgElement) and other.alg is self.alg \
            and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def to_json(self):
        f = self.alg.field
        return {"basis": "chevalley", "coeffs": [f.format_scalar(c) for c in self.coeffs]}

    def __repr__(self):
        return "AlgElement(%s)" % (list(map(str, self.coeffs)),)


class LieAutomorphism:
    """Invertible bracket-preserving linear map, stored as an exact pair of
    residue matrices (see linalg); `matrix` and `inv_matrix` give them in
    the field's scalars."""

    def __init__(self, alg, res_matrix, res_inv_matrix, factors=()):
        self.alg = alg
        self.res_matrix = res_matrix
        self.res_inv_matrix = res_inv_matrix
        self.factors = tuple(factors)

    @property
    def matrix(self):
        return [[self.alg.field.lift(x) for x in row] for row in self.res_matrix]

    @property
    def inv_matrix(self):
        return [[self.alg.field.lift(x) for x in row] for row in self.res_inv_matrix]

    def apply(self, x: AlgElement) -> AlgElement:
        if x.alg is not self.alg:
            raise ChevalleyError("element from a different algebra")
        return AlgElement(self.alg, linalg.mat_vec(self.res_matrix, x.coeffs, self.alg.field))

    def inverse(self):
        return LieAutomorphism(self.alg, self.res_inv_matrix, self.res_matrix,
                               tuple(("inv",) + f for f in reversed(self.factors)))

    def compose(self, other):
        """self after other."""
        if other.alg is not self.alg:
            raise ChevalleyError("automorphisms of different algebras")
        f = self.alg.field
        return LieAutomorphism(
            self.alg,
            linalg.mat_mul(self.res_matrix, other.res_matrix, f),
            linalg.mat_mul(other.res_inv_matrix, self.res_inv_matrix, f),
            other.factors + self.factors)


class RootAutomorphism(LieAutomorphism):
    """x_beta(t) = exp(t ad e_beta) as an exact matrix."""

    def __init__(self, alg, root, t, res_matrix, res_inv_matrix):
        super().__init__(alg, res_matrix, res_inv_matrix, (("root", root.coords, t),))
        self.root = root
        self.t = t


class ChevalleyAlgebra:
    def __init__(self, rs: RootSystem, field, validate=True):
        self.rs = rs
        self.field = field
        self.rank = rs.rank
        pos_sorted = sorted(rs.positive_roots, key=lambda b: (b.height, b.coords))
        self.pos_order = pos_sorted
        self.basis = [("h", i) for i in range(rs.rank)]
        self.basis += [("e", b.coords) for b in pos_sorted]
        self.basis += [("e", _neg(b.coords)) for b in pos_sorted]
        self.dim = len(self.basis)
        self._eidx = {lbl[1]: i for i, lbl in enumerate(self.basis) if lbl[0] == "e"}

        self.n_table = _structure_constants(rs)
        self.q_table = {}
        for b in rs.roots:
            for g in rs.roots:
                self.q_table[(b.coords, g.coords)] = rs.pairing(g.coords, b.coords)

        # bracket_table[i][j]: sparse integer coefficients (k, n) of [b_i, b_j],
        # read by the bracket and ad_matrix here and by the scan kernel in maps.py
        self.bracket_table = [[()] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                sp = self._pair_bracket(i, j)
                self.bracket_table[i][j] = sp
                self.bracket_table[j][i] = tuple((k, -n) for k, n in sp)

        self._center = None
        self._realization = None
        self._powers = {}
        if validate:
            self._validate_jacobi()

    # -- construction helpers -------------------------------------------

    def _pair_bracket(self, i, j):
        """Sparse integer coefficients of [b_i, b_j] for i < j."""
        ti, tj = self.basis[i], self.basis[j]
        if ti[0] == "h" and tj[0] == "h":
            return ()
        if ti[0] == "h":
            q = self.rs.pairing(tj[1], self.rs.simple_roots[ti[1]].coords)
            return ((j, q),) if q else ()
        a, b = ti[1], tj[1]
        s = tuple(x + y for x, y in zip(a, b))
        if all(x == 0 for x in s):
            co = self.rs.coroot_coords(a)
            return tuple((k, c) for k, c in enumerate(co) if c)
        if self.rs.contains(s):
            return ((self._eidx[s], self.n_table[(a, b)]),)
        return ()

    def _validate_jacobi(self):
        n, T, red = self.dim, self.bracket_table, self.field.reduce
        triples = [(i, j, k) for i in range(n) for j in range(i + 1, n)
                   for k in range(j + 1, n)]
        if self.rank > 4:
            stride = max(1, len(triples) // 2000)
            triples = triples[::stride]
        for (i, j, k) in triples:
            acc = {}
            for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                for t, a in T[x][y]:
                    for s, b in T[t][z]:
                        acc[s] = acc.get(s, 0) + a * b
            if any(red(v) for v in acc.values()):
                raise AssertionError(
                    "Jacobi identity fails on basis triple %r" % ((i, j, k),))

    # -- public operations ------------------------------------------------

    def zero(self):
        return AlgElement(self, [self.field.residue(0)] * self.dim)

    def element(self, coeffs):
        """The element with these coefficients (FpElements, Fractions or ints)."""
        cs = list(coeffs)
        if len(cs) != self.dim:
            raise ChevalleyError("expected %d coefficients" % self.dim)
        return AlgElement(self, [self.field.residue(c) for c in cs])

    def element_from_ints(self, ints):
        return self.element(ints)

    def basis_element(self, i):
        c = [self.field.residue(0)] * self.dim
        c[i] = self.field.residue(1)
        return AlgElement(self, c)

    def h_element(self, i):
        """h_{alpha_{i+1}}."""
        return self.basis_element(i)

    def e_element(self, coords):
        return self.basis_element(self._eidx[tuple(coords)])

    def element_from_json(self, obj):
        if obj.get("basis") != "chevalley":
            raise ChevalleyError("expected chevalley basis encoding")
        return self.element([self.field.parse_scalar(s) for s in obj["coeffs"]])

    def bracket(self, x: AlgElement, y: AlgElement) -> AlgElement:
        T = self.bracket_table
        ys = [(j, c) for j, c in enumerate(y.coeffs) if c]
        out = [self.field.residue(0)] * self.dim
        for i, ci in enumerate(x.coeffs):
            if ci:
                Ti = T[i]
                for j, cj in ys:
                    ent = Ti[j]
                    if ent:
                        c = ci * cj
                        for k, n in ent:
                            out[k] += c * n
        return AlgElement(self, self.field.reduce_row(out))

    def ad_matrix(self, x: AlgElement):
        """Residue matrix of y -> [x, y] in the fixed basis: column j is
        [x, b_j], read off bracket_table.  The Engel engines in maps.py call
        it on -Y for D_Y = [., Y]."""
        M = [[self.field.residue(0)] * self.dim for _ in range(self.dim)]
        for i, c in enumerate(x.coeffs):
            if c:
                for j, ent in enumerate(self.bracket_table[i]):
                    for k, n in ent:
                        M[k][j] += c * n
        return [self.field.reduce_row(row) for row in M]

    def _center_echelon(self):
        """The centre, the kernel of x -> ([x, b_j])_j, in residues:
        (kernel basis, its reduced echelon rows, their pivot columns)."""
        if self._center is None:
            f = self.field
            zero = f.residue(0)
            rows = []
            for j in range(self.dim):
                # row block: x -> coefficient k of [x, b_j]
                block = {}
                for i in range(self.dim):
                    for k, n in self.bracket_table[i][j]:
                        block.setdefault(k, [zero] * self.dim)[i] = f.residue(n)
                rows.extend(block.values())
            if not rows:
                rows = linalg.zero_matrix(f, 1, self.dim)
            basis = linalg.kernel_basis(rows, f)
            R, pivots = linalg.rref(basis, f)
            self._center = (basis, R, pivots)
        return self._center

    def center(self):
        """Exact basis of the centre (kernel of the adjoint representation)."""
        return [AlgElement(self, v) for v in self._center_echelon()[0]]

    def is_central(self, x: AlgElement) -> bool:
        _, R, pivots = self._center_echelon()
        return linalg.in_row_space(R, pivots, x.coeffs, self.field)

    def beta_value(self, coords, h: AlgElement):
        """beta(h), as a residue, for h given by its H-part (U-part of h is
        ignored)."""
        f = self.field
        return f.reduce(sum((c * self.rs.pairing(coords, s.coords)
                             for c, s in zip(h.coeffs, self.rs.simple_roots)),
                            f.residue(0)))

    def find_regular(self, avoid):
        """Deterministic lattice search for h in H with beta(h) outside `avoid`
        for every root beta.  The sufficient size bound |K| > |avoid||R| is a
        guarantee, not a gate: any witness found is returned."""
        f = self.field
        red = f.reduce
        avoid_set = {f.residue(v) for v in avoid}
        pairings = [[self.rs.pairing(b.coords, self.rs.simple_roots[i].coords)
                     for i in range(self.rank)] for b in self.rs.positive_roots]

        def good(ts):
            for row in pairings:
                acc = red(sum(t * q for t, q in zip(ts, row)))
                if acc in avoid_set or red(-acc) in avoid_set:
                    return False
            return True

        if f.characteristic == 0:
            bound = 1
            while bound < 10 * len(self.rs.roots) * (len(avoid_set) + 1) + 10:
                for ts in _lattice_points(bound, self.rank):
                    if good(ts):
                        return self._h_from(ts)
                bound += 1
            raise AssertionError("rational lattice search failed unexpectedly")

        p = f.modulus
        import itertools
        for ts in itertools.product(range(p), repeat=self.rank):
            if good(ts):
                return self._h_from(ts)
        bound = len(avoid_set) * len(self.rs.roots)
        if p > bound:
            # the sufficient bound held, so exhaustion is a bug, not a
            # property of the field
            raise AssertionError(
                "regular-element search exhausted although |K| = %d > %d" %
                (p, bound))
        raise FieldTooSmallError(
            "no h in H avoids %d value(s) on all roots over F_%d "
            "(sufficient bound: |K| > %d)" % (len(avoid_set), p, bound))

    def _h_from(self, ts):
        return self.element(list(ts) + [0] * (self.dim - self.rank))

    def identity_automorphism(self):
        m = linalg.identity_matrix(self.field, self.dim)
        return LieAutomorphism(self, m, [row[:] for row in m])

    def _divided_powers(self, coords):
        """Sparse N_k = ad(e_beta)^k / k! for k = 1, 2, .. while nonzero,
        computed once per root, so that x_beta(t) = I + sum_k t^k N_k
        (Carter, Simple Groups of Lie Type, ch. 4).  Each N_k is a tuple of
        (column j, ((row i, residue), ..)) pairs.  Requires characteristic 0
        or >= 5 so that the denominators k! (k <= 4) are invertible."""
        powers = self._powers.get(coords)
        if powers is None:
            f = self.field
            if f.characteristic in (2, 3):
                raise ChevalleyError("root automorphisms need characteristic 0 or >= 5")
            e = self.basis_element(self._eidx[self.rs.root(coords).coords])
            cols = [self.basis_element(j) for j in range(self.dim)]
            powers = []
            for k in range(1, 6):
                cols = [e.bracket(c).scale_rational(Fraction(1, k)) for c in cols]
                nk = tuple((j, tuple((i, c) for i, c in enumerate(col.coeffs) if c))
                           for j, col in enumerate(cols) if not col.is_zero())
                if not nk:
                    break
                powers.append(nk)
            else:
                raise AssertionError("ad e_beta not nilpotent of index <= 5")
            powers = self._powers[coords] = tuple(powers)
        return powers

    def root_automorphism(self, root, t) -> RootAutomorphism:
        """exp(t ad e_beta) = I + sum_k t^k N_k from the cached divided powers;
        requires characteristic 0 or >= 5."""
        coords = root.coords if hasattr(root, "coords") else tuple(root)
        powers = self._divided_powers(coords)
        f = self.field
        t = f.residue(t)

        def expo(tt):
            M = linalg.identity_matrix(f, self.dim)
            tk = 1
            for nk in powers:
                tk = tk * tt
                for j, col in nk:
                    for i, c in col:
                        M[i][j] += tk * c
            return [f.reduce_row(row) for row in M]

        return RootAutomorphism(self, self.rs.root(coords), f.lift(t), expo(t),
                                expo(f.reduce(-t)))

    def _root_element_times(self, coords, t, v):
        """x_beta(t) v = v + sum_k t^k N_k v on a residue vector."""
        out = list(v)
        tk = 1
        for nk in self._divided_powers(coords):
            tk = tk * t
            for j, col in nk:
                x = v[j]
                if x:
                    x = tk * x
                    for i, c in col:
                        out[i] += c * x
        return self.field.reduce_row(out)

    def conjugate_into_U(self, l: AlgElement, seed=0, budget=4000):
        """Find (g, u) with u = g(l) having zero H-part.

        Type A over characteristic != 2: deterministic diagonal elimination in
        the matrix realization via elementary similarity moves.  Other types:
        seeded randomized products of root automorphisms over finite fields,
        with exact verification (reported distinctly on budget exhaustion).
        """
        if l.alg is not self:
            raise ChevalleyError("element from a different algebra")
        if self.is_central(l):
            raise CentralElementError("cannot conjugate a central element into U")
        if not any(l.h_part):
            return self.identity_automorphism(), l
        if self.rs.type_label == "A" and self.field.characteristic != 2:
            return self._conjugate_into_U_type_A(l)
        if self.field.characteristic == 0:
            raise ConjugationUnsupportedError(
                "deterministic conjugation is implemented for type A only; "
                "over Q the randomized search cannot hit a measure-zero target")
        return self._conjugate_into_U_randomized(l, seed, budget)

    def _get_realization(self):
        if self._realization is None:
            from .matrixrep import realize_chevalley
            self._realization = realize_chevalley(self)
        return self._realization

    def _conjugate_into_U_type_A(self, l):
        f = self.field
        real = self._get_realization()
        M = real.combine(l.coeffs)
        S, Sinv, factors = _zero_diagonal(M, f)
        cols = []
        inv_cols = []
        for k in range(self.dim):
            B = real.image_matrix(k)
            conj = linalg.mat_mul(linalg.mat_mul(S, B, f), Sinv, f)
            cols.append(real.matrix_coords(conj))
            conj_inv = linalg.mat_mul(linalg.mat_mul(Sinv, B, f), S, f)
            inv_cols.append(real.matrix_coords(conj_inv))
        mat = [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]
        inv = [[inv_cols[j][i] for j in range(self.dim)] for i in range(self.dim)]
        g = LieAutomorphism(self, mat, inv, factors)
        u = g.apply(l)
        assert not any(u.h_part), "type A diagonal elimination failed"
        return g, u

    def _conjugate_into_U_randomized(self, l, seed, budget):
        """Replay the seeded words of 2|R+| root elements x_beta(t) on the
        coefficient vector of l.  Only the first word that clears the H-part
        is built as an automorphism matrix, and checked against the vector."""
        rng = random.Random(seed)
        f = self.field
        p = f.modulus
        roots = self.rs.roots
        steps = 2 * len(self.rs.positive_roots)
        for _ in range(budget):
            word = []
            v = l.coeffs
            for _ in range(steps):
                b = roots[rng.randrange(len(roots))]
                t = rng.randrange(1, p)
                v = self._root_element_times(b.coords, t, v)
                word.append((b, t))
            if not any(v[: self.rank]):
                g = self.identity_automorphism()
                for b, t in word:
                    g = self.root_automorphism(b, t).compose(g)
                u = g.apply(l)
                if list(u.coeffs) != v:
                    raise AssertionError(
                        "root-element word disagrees with its automorphism matrix")
                return g, u
        raise ConjugationBudgetError(
            "randomized conjugation exhausted budget=%d (seed=%d); "
            "retry with a larger --budget" % (budget, seed))

    def structure_json(self):
        f = self.field
        table = {}
        for i, row in enumerate(self.bracket_table):
            for j in range(i + 1, self.dim):
                if row[j]:
                    table["%d,%d" % (i, j)] = [[k, f.format_scalar(n)] for k, n in row[j]]
        return {
            "type": self.rs.type_label,
            "rank": self.rank,
            "field": str(f),
            "dim": self.dim,
            "basis": [list(map(str, lbl)) for lbl in self.basis],
            "bracket_table": table,
            "n_table": {"%s|%s" % (a, b): n
                        for (a, b), n in sorted(self.n_table.items())},
            "q_table": {"%s|%s" % (b, g): q
                        for (b, g), q in sorted(self.q_table.items())},
        }

    def __repr__(self):
        return "ChevalleyAlgebra(%s%d, %s, dim=%d)" % (
            self.rs.type_label, self.rank, self.field, self.dim)


def _lattice_points(bound, rank):
    """Points of [0, bound]^rank with some coordinate equal to bound (so each
    bound visits only new points), in lex order."""
    import itertools
    if bound == 1:
        yield from itertools.product(range(2), repeat=rank)
        return
    for ts in itertools.product(range(bound + 1), repeat=rank):
        if max(ts) == bound:
            yield ts


def _zero_diagonal(M, field, max_iter=None):
    """Similarity-transform the trace-zero non-scalar residue matrix M
    (mutated in place) to zero diagonal using elementary conjugations
    I + t E_ab.

    Returns (S, Sinv, factors) with the final M equal to S M0 Sinv.
    Requires characteristic != 2.
    """
    n = len(M)
    S = linalg.identity_matrix(field, n)
    Sinv = linalg.identity_matrix(field, n)
    factors = []
    red = field.reduce

    def elem(a, b, t):
        # M <- (I + tE_ab) M (I - tE_ab), exact.
        M[a] = field.sub_row(M[a], -t, M[b])
        for i in range(n):
            M[i][b] = red(M[i][b] - t * M[i][a])
        S[a] = field.sub_row(S[a], -t, S[b])
        for i in range(n):
            Sinv[i][b] = red(Sinv[i][b] - t * Sinv[i][a])
        factors.append(("elem", a, b, field.lift(t)))

    def transfer(a, b, delta):
        # Move `delta` onto m_aa (and off m_bb); needs m_aa != m_bb.
        ta, tb = M[a][a], M[b][b]
        s = None
        for cand in range(3):
            cf = field.residue(cand)
            c = red(M[b][a] + cf * (ta - tb) - cf * cf * M[a][b])
            if c:
                s = cf
                break
        assert s is not None
        if s:
            elem(b, a, s)
        elem(a, b, red(delta * field.inv(M[b][a])))

    if max_iter is None:
        max_iter = 12 * n + 24
    for _ in range(max_iter):
        diag = [M[i][i] for i in range(n)]
        nz = [i for i in range(n) if diag[i]]
        if not nz:
            return S, Sinv, factors
        assert len(nz) >= 2, "trace-zero matrix with one nonzero diagonal entry"
        a = nz[0]
        b = next((j for j in nz[1:] if diag[j] != diag[a]), None)
        if b is not None:
            transfer(a, b, -diag[a])
            continue
        t = diag[a]
        zeros = [i for i in range(n) if not diag[i]]
        if zeros:
            # all nonzero entries equal t: split so distinct values appear
            transfer(zeros[0], a, -t)
            continue
        # whole diagonal equals t != 0; some off-diagonal entry is nonzero
        found = None
        for i in range(n):
            for j in range(n):
                if i != j and M[i][j]:
                    found = (i, j)
                    break
            if found:
                break
        assert found is not None, "scalar matrix reached (central input?)"
        i, j = found
        elem(j, i, red(-t * field.inv(M[i][j])))
    raise AssertionError("diagonal elimination did not converge")


_ALGEBRA_CACHE = {}


def build_chevalley(rs: RootSystem, field) -> ChevalleyAlgebra:
    """Construct (and cache) the Chevalley algebra over the given field."""
    from .rootsystem import _is_c_family
    if getattr(field, "characteristic", 0) == 2 and _is_c_family(*rs.key):
        raise ChevalleyError(
            "%s_%d is of type C in characteristic 2 and is rejected" % rs.key)
    key = (rs.key, field)
    alg = _ALGEBRA_CACHE.get(key)
    if alg is None:
        alg = ChevalleyAlgebra(rs, field)
        _ALGEBRA_CACHE[key] = alg
    return alg


def build_algebra(type_label: str, rank: int, field) -> ChevalleyAlgebra:
    """Convenience: root system + algebra in one call."""
    rs = build_root_system(type_label, rank, field)
    return build_chevalley(rs, field)
