"""Chevalley algebras L(R, K) with fully tabulated integer structure constants.

Basis order: h_{alpha_1}..h_{alpha_r}, then e_beta for beta in R+ sorted by
(height, coordinates lex), then e_{-beta} in matching order.

Structure-constant signs follow the extraspecial-pair convention: for each
non-simple positive root xi, the special pair (gamma, delta) with gamma
minimal in the (height, lex) order gets N_{gamma,delta} = p+1 > 0, and every
other constant is forced by antisymmetry, N_{-a,-b} = -N_{a,b}, and the
Jacobi identity.  The constants are derived on ints, each length ratio an
exact division, and bracket_table is filled from them and the root datum
(beta(h_i), (beta, beta), coroots) that the RootSystem tabulates.  These
tables depend on the root system only: built once per root system, shared
by every field, and checked there by a Jacobi sweep over Z on every basis
triple that sums only the nonzero terms (18,636 on A8).  Over Q the centre
is certified 0 by the rank of its int system mod one prime.

Elements hold their coefficients as residues (ints in [0, p) over F_p,
Fractions over Q; see scalar.py).  The bracket runs on ints, in one core
(_bracket_rows) that visits, for each nonzero x_i, only the nonempty
entries bracket_table[i][j].  Over Q each operand's denominators are
cleared once (field.integral_rows) and each coordinate is divided back
once; over F_p the residues are summed and reduced once.  freelie.evaluate
keeps node values in that integer form (AlgElement.integer_rows) and
rebuilds residues once, at the root.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import permutations
from operator import add, mul

from . import linalg
from .rootsystem import RootSystem, build_root_system
from .scalar import row_combine


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
    """Integer constants N_{a,b} for every pair of roots with a+b a root: the
    positive pairs, found by int codes, then the triples {a, b, -a-b}."""
    pos = [b.coords for b in rs.positive_roots]       # (height, lex) order
    order = {c: i for i, c in enumerate(pos)}
    length = rs.length
    base = 2 * max(map(max, pos)) + 1     # codes tell |c_i| < base/2 apart
    code = {c: sum(x * base ** i for i, x in enumerate(c)) for c in pos}
    by_code = {k: c for c, k in code.items()}
    special = {}
    n_table = {}                                      # also nlook's memo

    def nlook(u, v):
        n = n_table.get((u, v))
        if n is not None:
            return n
        su, sv = sum(u) > 0, sum(v) > 0
        if su and sv:
            n = special[(u, v)] if order[u] < order[v] else -special[(v, u)]
        elif not su and not sv:
            n = -nlook(_neg(u), _neg(v))
        elif not su:
            n = -nlook(v, u)
        else:
            c = tuple(x + y for x, y in zip(u, v))
            if sum(c) > 0:
                n, r = divmod(length[c] * nlook(v, _neg(c)), length[u])
            else:
                n, r = divmod(length[c] * nlook(_neg(c), u), length[v])
            assert r == 0, "non-integral structure constant"
        n_table[(u, v)] = n
        return n

    for xi in pos:
        if sum(xi) == 1:
            continue
        kx = code[xi]
        pairs = []
        for a in pos:
            b = by_code.get(kx - code[a])
            if b is not None and order[a] < order[b]:
                pairs.append((a, b))
        g, d = pairs[0]
        special[(g, d)] = rs.chain_down_length(rs.root(g), rs.root(d)) + 1
        for a, b in pairs[1:]:
            # Jacobi on (e_g, e_{-a}, e_{-b}); the e_{-d} coefficient gives
            #   N_{-a,-b} N_{g,-xi} + N_{-b,g} N_{-a,g-b} + N_{g,-a} N_{-b,g-a} = 0.
            acc = 0
            gb = tuple(x - y for x, y in zip(g, b))
            if rs.contains(gb):
                acc += nlook(_neg(b), g) * nlook(_neg(a), gb)
            ga = tuple(x - y for x, y in zip(g, a))
            if rs.contains(ga):
                acc += nlook(g, _neg(a)) * nlook(_neg(b), ga)
            val, r = divmod(acc, nlook(g, _neg(xi)))
            assert r == 0 and val != 0, "non-integral structure constant"
            special[(a, b)] = val
    for a, b in special:
        c = tuple(map(add, a, b))
        for t in ((a, b, _neg(c)), (_neg(a), _neg(b), c)):
            for u, v in permutations(t, 2):
                nlook(u, v)
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

    def integer_rows(self, xs):
        """freelie.evaluate's integer-row hook: (the values of xs as integer
        rows, their bracket, their linear combination, the element of a
        value), with every element of xs in this element's algebra."""
        alg = self.alg
        if not all(isinstance(x, AlgElement) and x.alg is alg for x in xs):
            raise ChevalleyError("elements from different algebras")
        return ([alg.to_row(x) for x in xs], alg.row_bracket,
                partial(row_combine, alg.field, alg.dim), alg.from_row)

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
    """The product x_{b_k}(t_k) .. x_{b_1}(t_1) of root elements, held as its
    word ((b_1, t_1), .., (b_k, t_k)) of root coordinates and residues and
    applied letter by letter from the integral divided powers.  `factors`,
    with residue scalars, is what a report prints about it.  The residue
    matrices `res_matrix` and `res_inv_matrix`, and `matrix` and `inv_matrix`
    in the field's scalars, are computed from the word on demand."""

    def __init__(self, alg, word=(), factors=()):
        self.alg = alg
        self.word = tuple(word)
        self.factors = tuple(factors)

    def _times(self, v):
        for coords, t in self.word:
            v = self.alg._root_element_times(coords, t, v)
        return v

    @property
    def res_matrix(self):
        f = self.alg.field
        cols = [self._times(e) for e in linalg.identity_matrix(f, self.alg.dim)]
        return [list(row) for row in zip(*cols)]

    @property
    def res_inv_matrix(self):
        return self.inverse().res_matrix

    @property
    def matrix(self):
        return [[self.alg.field.lift(x) for x in row] for row in self.res_matrix]

    @property
    def inv_matrix(self):
        return [[self.alg.field.lift(x) for x in row] for row in self.res_inv_matrix]

    def apply(self, x: AlgElement) -> AlgElement:
        if x.alg is not self.alg:
            raise ChevalleyError("element from a different algebra")
        return AlgElement(self.alg, self._times(x.coeffs))

    def inverse(self):
        red = self.alg.field.reduce
        return LieAutomorphism(self.alg, ((c, red(-t)) for c, t in reversed(self.word)),
                               (("inv",) + f for f in reversed(self.factors)))

    def compose(self, other):
        """self after other."""
        if other.alg is not self.alg:
            raise ChevalleyError("automorphisms of different algebras")
        return LieAutomorphism(self.alg, other.word + self.word,
                               other.factors + self.factors)


class ChevalleyAlgebra:
    def __init__(self, rs: RootSystem, field):
        self.rs = rs
        self.field = field
        self.rank = rs.rank
        self.pos_order = rs.positive_roots           # (height, lex) order
        self.basis = [("h", i) for i in range(rs.rank)]
        self.basis += [("e", b.coords) for b in rs.positive_roots]
        self.basis += [("e", _neg(b.coords)) for b in rs.positive_roots]
        self.dim = len(self.basis)
        self._eidx = {lbl[1]: i for i, lbl in enumerate(self.basis) if lbl[0] == "e"}
        # bracket_table[i][j]: sparse integer coefficients (k, n) of [b_i, b_j];
        # _table_cols[i]: the triples (j, k, n) over its nonempty entries
        # bracket_table[i][j], in increasing j; _z_powers: the integral
        # divided powers of each root, by coordinates, filled on use
        (self.n_table, self.bracket_table, self._table_cols,
         self._z_powers) = _integer_tables(self)

        self._center = None
        self._regular_checks = None
        self._realization = None
        self._unit_roots = None

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
        if not isinstance(obj, dict) or obj.get("basis") != "chevalley":
            raise ChevalleyError("expected chevalley basis encoding")
        coeffs = obj.get("coeffs")
        if not isinstance(coeffs, list) or not all(isinstance(s, str) for s in coeffs):
            raise ChevalleyError("chevalley coeffs must be a list of strings")
        return self.element([self.field.parse_scalar(s) for s in coeffs])

    def bracket(self, x: AlgElement, y: AlgElement) -> AlgElement:
        f = self.field
        (xs,), dx = f.integral_rows((x.coeffs,))
        (ys,), dy = f.integral_rows((y.coeffs,))
        return AlgElement(self, f.from_integral_row(self._bracket_rows(xs, ys), dx * dy))

    def _bracket_rows(self, xs, ys, zero=0):
        """The row of [x, y] from rows xs and ys over a ring with this zero:
        the one bracket core, of bracket, row_bracket and sl2's symbolic
        walk.  For each nonzero xs[i] it visits only _table_cols[i]."""
        out = [zero] * self.dim
        for ci, cols in zip(xs, self._table_cols):
            if ci:
                for j, k, n in cols:
                    cj = ys[j]
                    if cj:
                        out[k] += ci * (cj * n)
        return out

    # -- integer rows: the values of freelie.evaluate ----------------------

    def to_row(self, x: AlgElement):
        """x as (int row, d) with x = row / d in lowest terms (d = 1 over F_p)."""
        (ints,), d = self.field.integral_rows((x.coeffs,))
        return ints, d

    def from_row(self, value) -> AlgElement:
        return AlgElement(self, self.field.from_integral_row(*value))

    def row_bracket(self, a, b):
        (xs, dx), (ys, dy) = a, b
        return self.field.normal_row(self._bracket_rows(xs, ys), dx * dy)

    def ad_matrix(self, x: AlgElement):
        """Residue matrix of y -> [x, y] in the fixed basis: column j is
        [x, b_j], read off _table_cols.  The Engel engines in maps.py call
        it on -Y for D_Y = [., Y]."""
        M = [[self.field.residue(0)] * self.dim for _ in range(self.dim)]
        for c, cols in zip(x.coeffs, self._table_cols):
            if c:
                for j, k, n in cols:
                    M[k][j] += c * n
        return [self.field.reduce_row(row) for row in M]

    def _center_echelon(self):
        """The centre, the kernel of x -> ([x, b_j])_j, in residues:
        (kernel basis, its reduced echelon rows, their pivot columns).  The
        system has one int row x -> coefficient k of [x, b_j] per (j, k),
        each distinct row once (232 of 1,560 on A8)."""
        if self._center is None:
            f = self.field
            blocks = [{} for _ in range(self.dim)]
            for i, cols in enumerate(self._table_cols):
                for j, k, n in cols:
                    blocks[j].setdefault(k, []).append((i, n))
            keys = dict.fromkeys(tuple(v) for b in blocks for v in b.values())
            rows = []
            for key in keys:
                row = [0] * self.dim
                for i, n in key:
                    row[i] = f.reduce(n)
                rows.append(row)
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
        """beta(h) = sum_i t_i beta(h_i) for h = sum_i t_i h_i + (U-part,
        ignored), as a residue."""
        values = self.rs.h_values[coords]
        return self.field.reduce(sum(t * v for t, v in zip(h.coeffs, values)))

    def find_regular(self, avoid):
        """Deterministic lattice search for h in H with beta(h) outside `avoid`
        for every root beta: the lex-least such point of F_p^rank over F_p,
        and over Q the lex-least one of the first box [0, b]^rank that has
        one, which has some coordinate equal to b (_lex_least_regular).  The
        sufficient size bound |K| > |avoid||R| is a guarantee, not a gate:
        any witness found is returned."""
        f = self.field
        red = f.reduce
        avoid_set = {f.residue(v) for v in avoid}
        bad = avoid_set | {red(-v) for v in avoid_set}
        if self._regular_checks is None:
            # [k]: the rows (beta(h_i))_i, under red, of the positive roots
            # whose last nonzero coordinate is k, checked once t_k is fixed
            self._regular_checks = [[] for _ in range(self.rank)]
            for b in self.rs.positive_roots:
                row = [red(q) for q in self.rs.h_values[b.coords]]
                last = max((i for i, q in enumerate(row) if q), default=0)
                self._regular_checks[last].append(row)
        checks = self._regular_checks

        if f.characteristic == 0:
            for top in range(10 * len(self.rs.roots) * (len(avoid_set) + 1) + 10):
                ts = _lex_least_regular(checks, bad, top, red, True)
                if ts is not None:
                    return self._h_from(ts)
            raise AssertionError("rational lattice search failed unexpectedly")

        p = f.modulus
        ts = _lex_least_regular(checks, bad, p - 1, red)
        if ts is not None:
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
        return LieAutomorphism(self)

    def root_automorphism(self, root, t) -> LieAutomorphism:
        """x_beta(t) = exp(t ad e_beta), the one-letter word; it acts as
        I + sum_k t^k N_k from the integral divided powers, in every
        characteristic."""
        coords = self.rs.root(root.coords if hasattr(root, "coords") else root).coords
        t = self.field.residue(t)
        return LieAutomorphism(self, ((coords, t),), (("root", coords, t),))

    def _root_element_times(self, coords, t, v):
        """x_beta(t) v = v + sum_k t^k N_k v on a residue vector, with the
        integral N_k read in place and the sum reduced once."""
        powers = self._z_powers.get(coords)
        if powers is None:
            powers = _integral_divided_powers(self, coords)
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
        return self.field.reduce_row(out)

    def conjugate_into_U(self, l: AlgElement, seed=0, budget=4000):
        """Find (g, u) with u = g(l) having zero H-part.

        g is a word in the root elements x_beta(t) on both paths, and u is
        that word applied to l.  Type A over characteristic != 2: deterministic
        diagonal elimination on the sl(n) matrix of l by moves I + t E_ab,
        each applied as the root element it is.  Other types: seeded
        randomized root-element words over finite fields, with exact
        verification (reported distinctly on budget exhaustion).
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
        """Each move I + t E_ab of _zero_diagonal acts as Ad(I + t E_ab) =
        x_beta(t / c), where the realization sends e_beta to c E_ab."""
        f = self.field
        real = self._get_realization()
        if self._unit_roots is None:
            self._unit_roots = {}
            for (kind, coords), B in zip(self.basis, real.images):
                if kind == "e":
                    (a, b, c), = [(i, j, x) for i, row in enumerate(B)
                                  for j, x in enumerate(row) if x]
                    self._unit_roots[(a, b)] = (coords, f.inv(c))
        factors = _zero_diagonal(real.combine(l.coeffs), f)
        word = []
        for _, a, b, t in factors:
            coords, cinv = self._unit_roots[(a, b)]
            word.append((coords, f.reduce(t * cinv)))
        g = LieAutomorphism(self, word, factors)
        u = g.apply(l)
        assert not any(u.h_part), "type A diagonal elimination failed"
        return g, u

    def _conjugate_into_U_randomized(self, l, seed, budget):
        """Replay the seeded words of 2|R+| root elements x_beta(t) on the
        coefficient vector of l, and return the first word that clears the
        H-part with the vector it left."""
        rng = random.Random(seed)
        f = self.field
        p = f.modulus
        if budget > 0 and p in (2, 3):
            # The search keeps its domain, characteristic >= 5, although root
            # automorphisms exist in every characteristic, so that engel-solve
            # answers where it did and nowhere else.
            raise ChevalleyError(
                "the randomized conjugation search is limited to characteristic >= 5")
        roots = self.rs.roots
        steps = 2 * len(self.rs.positive_roots)
        for _ in range(budget):
            word = []
            v = l.coeffs
            for _ in range(steps):
                b = roots[rng.randrange(len(roots))]
                t = rng.randrange(1, p)
                v = self._root_element_times(b.coords, t, v)
                word.append((b.coords, t))
            if not any(v[: self.rank]):
                factors = (("root", c, t) for c, t in word)
                return LieAutomorphism(self, word, factors), AlgElement(self, v)
        raise ConjugationBudgetError(
            "randomized conjugation exhausted budget=%d (seed=%d); "
            "retry with a larger --budget" % (budget, seed))

    @property
    def q_table(self):
        """<g, b^vee> keyed (b, g), built on first read per root system."""
        rs = self.rs
        q = _Q_TABLES.get(rs.key)
        if q is None:
            hv = rs.h_values
            q = _Q_TABLES[rs.key] = {(b, g): sum(map(mul, hv[g], c))
                                     for b, c in rs.coroot.items() for g in hv}
        return q

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


def _lex_least_regular(checks, bad, top, red, reach_top=False):
    """The lex-least ts in {0, .., top}^rank, rank = len(checks), with some
    t_i = top if reach_top, and red(sum_i t_i q_i) outside `bad` for every
    row q of every checks[k]; None if there is none.  A depth-first search
    in lex order that checks the rows checks[k] as soon as t_k is fixed, so
    a prefix that already fails some row is never extended."""
    rank = len(checks)
    ts = []
    t = 0
    while True:
        if t > top:                      # no value fits here: backtrack
            if not ts:
                return None
            t = ts.pop() + 1
            continue
        ts.append(t)
        k = len(ts)
        for row in checks[k - 1]:
            if red(sum(map(mul, ts, row))) in bad:
                t = ts.pop() + 1
                break
        else:
            if k < rank:
                t = 0
            elif not reach_top or top in ts:
                return ts
            else:
                t = ts.pop() + 1


def _zero_diagonal(M, field):
    """Similarity-transform the trace-zero non-scalar residue matrix M
    (mutated in place) to zero diagonal using elementary conjugations
    M <- (I + t E_ab) M (I - t E_ab).

    Returns the moves ("elem", a, b, t), t a residue, first move first.
    Requires characteristic != 2.
    """
    n = len(M)
    factors = []
    red = field.reduce

    def elem(a, b, t):
        M[a] = field.sub_row(M[a], -t, M[b])
        for i in range(n):
            M[i][b] = red(M[i][b] - t * M[i][a])
        factors.append(("elem", a, b, t))

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

    for _ in range(12 * n + 24):
        diag = [M[i][i] for i in range(n)]
        nz = [i for i in range(n) if diag[i]]
        if not nz:
            return factors
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


_Z_TABLES, _Q_TABLES = {}, {}


def _integer_tables(alg):
    """(n_table, bracket_table, its nonzero-column index, the table of
    integral divided powers) over Z, built from N and the root datum and
    Jacobi-checked once per root system, which fixes the basis."""
    rs = alg.rs
    tables = _Z_TABLES.get(rs.key)
    if tables is None:
        n_table = _structure_constants(rs)
        eidx = alg._eidx
        T = [[()] * alg.dim for _ in range(alg.dim)]
        for (a, b), n in n_table.items():
            T[eidx[a]][eidx[b]] = ((eidx[tuple(map(add, a, b))], n),)
        for b, j in eidx.items():
            for i, q in enumerate(rs.h_values[b]):
                if q:
                    T[i][j], T[j][i] = ((j, q),), ((j, -q),)
            # [e_b, e_{-b}] = h_b, by the coroot's coordinates
            T[j][eidx[_neg(b)]] = tuple((k, c) for k, c in enumerate(rs.coroot[b]) if c)
        tables = _Z_TABLES[rs.key] = (n_table, T, _validate_jacobi(T), {})
    return tables


def _validate_jacobi(T):
    """Check the Jacobi identity over Z (so mod every p) on every basis
    triple i < j < k, reading only the nonzero terms [[b_i, b_j], b_k],
    [[b_j, b_k], b_i], [[b_k, b_i], b_j] through T's nonzero-column index,
    which it returns.  Sums keyed by (j n + k) n + s are checked once per
    i, so the least failing triple is named."""
    n = len(T)
    cols = tuple(tuple((j, k, m) for j, ent in enumerate(row) for k, m in ent)
                 for row in T)
    # into[y]: (x, t, a) for (t, a) in T[x][y]; made[t]: (x, y, a) for x < y
    # and (t, a) in T[x][y]; both in decreasing x
    into, made = [[] for _ in T], [[] for _ in T]
    for x in range(n - 1, -1, -1):
        for y, t, a in cols[x]:
            into[y].append((x, t, a))
            if x < y:
                made[t].append((x, y, a))
    for i in range(n):
        acc = {}
        get = acc.get
        for j, t, a in cols[i]:
            if j > i:
                for k, s, b in cols[t]:
                    if k > j:
                        key = (j * n + k) * n + s
                        acc[key] = get(key, 0) + a * b
        for t, s, b in into[i]:
            for j, k, a in made[t]:
                if j <= i:
                    break
                key = (j * n + k) * n + s
                acc[key] = get(key, 0) + a * b
        for k, t, a in into[i]:
            if k <= i:
                break
            for j, s, b in cols[t]:
                if i < j < k:
                    key = (j * n + k) * n + s
                    acc[key] = get(key, 0) + a * b
        bad = [key for key, v in acc.items() if v]
        if bad:
            raise AssertionError("Jacobi identity fails on basis triple %r"
                                 % ((i,) + divmod(min(bad) // n, n),))
    return cols


def _integral_divided_powers(alg, coords):
    """N_k = ad(e_beta)^k / k!, so that x_beta(t) = I + sum_k t^k N_k
    (Carter, Simple Groups of Lie Type, ch. 4), as tuples of (column j,
    ((row i, n), ..)).  Integral on the Chevalley basis (Kostant's Z-form),
    they serve every field; computed once per root system, into the table
    alg._z_powers, as N_k = ad(e_beta) N_{k-1} / k, each division by k
    checked exact."""
    row = alg.bracket_table[alg._eidx[coords]]
    cols = [{j: 1} for j in range(alg.dim)]
    powers = []
    for k in range(1, 6):
        nxt = []
        for col in cols:
            acc = {}
            for j, x in col.items():
                for i, n in row[j]:
                    acc[i] = acc.get(i, 0) + n * x
            out = {}
            for i, x in acc.items():
                q, r = divmod(x, k)
                assert r == 0, "ad(e_beta)^%d / %d! is not integral" % (k, k)
                if q:
                    out[i] = q
            nxt.append(out)
        cols = nxt
        nk = tuple((j, tuple(sorted(col.items())))
                   for j, col in enumerate(cols) if col)
        if not nk:
            break
        powers.append(nk)
    else:
        raise AssertionError("ad e_beta not nilpotent of index <= 5")
    powers = alg._z_powers[coords] = tuple(powers)
    return powers


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
    """Convenience: root system + algebra in one call (a cached algebra
    builds no root system)."""
    alg = _ALGEBRA_CACHE.get(((type_label.upper(), rank), field))
    return alg or build_chevalley(build_root_system(type_label, rank, field), field)
