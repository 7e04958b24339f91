"""High-level algorithms on Chevalley algebras.

* identity testing in sl(2): exact symbolic evaluation at generic elements,
  a degree-below-5 shortcut, and seeded randomized testing,
* dominancy witness checks and searches via the projective theta separator,
* the constructive Engel solver (regular element + conjugation into U +
  eigenvalue division), with exact re-evaluation certificates,
* exhaustive / sampled finite-field image scans with worker partitioning,
  which evaluate P on a block of assignments at once (every assignment is
  still evaluated), plus an exact linear-fiber engine for (generalized)
  Engel maps, which are linear in the first argument,
* the central-image probe measuring the least Engel degree with no nonzero
  central values.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import operator
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from .chevalley import (AlgElement, CentralElementError, ChevalleyAlgebra,
                        build_algebra)
from .freelie import (EngelSpec, LiePoly, Br, Sum, Var, engel_monomial,
                      evaluate, expansion, make_engel, parse)
from . import linalg
from .matrixrep import MatrixElement, theta_separates, char_invariants
from .scalar import PrimeField


class MapsError(ValueError):
    pass


class CostGuardError(MapsError):
    """Exact mode refused: arity or degree beyond the configured guard."""


class ScanBudgetError(MapsError):
    """Exhaustive enumeration would exceed the configured budget."""


class InvalidBudgetError(MapsError):
    """A scan budget (LIEMAP_BUDGET or a budget argument) that is not a
    positive integer."""


DEFAULT_SCAN_BUDGET = 2_000_000


def _scan_budget():
    """The enumeration cap: LIEMAP_BUDGET when set, else the default."""
    text = os.environ.get("LIEMAP_BUDGET")
    if text is None:
        return DEFAULT_SCAN_BUDGET
    try:
        budget = int(text)
        if budget >= 1:
            return budget
    except ValueError:
        pass
    raise InvalidBudgetError(
        "LIEMAP_BUDGET must be a positive integer, got %r" % text)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def algebra_id(alg: ChevalleyAlgebra) -> str:
    return "%s%d/%s" % (alg.rs.type_label, alg.rs.rank, alg.field)


# ---------------------------------------------------------------------------
# multivariate polynomials and symbolic sl(2) elements
# ---------------------------------------------------------------------------


class MPoly:
    """Sparse multivariate polynomial with exact field coefficients."""

    __slots__ = ("coeffs", "nvars")

    def __init__(self, coeffs, nvars):
        self.coeffs = {m: c for m, c in coeffs.items() if c}
        self.nvars = nvars

    @staticmethod
    def variable(i, nvars, field):
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return MPoly({mono: field.one()}, nvars)

    @staticmethod
    def zero(nvars):
        return MPoly({}, nvars)

    def __add__(self, o):
        out = dict(self.coeffs)
        for m, c in o.coeffs.items():
            v = out.get(m)
            v = c if v is None else v + c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return MPoly(out, self.nvars)

    def __sub__(self, o):
        return self + (-o)

    def __neg__(self):
        return MPoly({m: -c for m, c in self.coeffs.items()}, self.nvars)

    def __mul__(self, o):
        if not isinstance(o, MPoly):
            return MPoly({m: c * o for m, c in self.coeffs.items()}, self.nvars)
        out = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in o.coeffs.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                v = out.get(m)
                prod = ca * cb
                v = prod if v is None else v + prod
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return MPoly(out, self.nvars)

    def __rmul__(self, o):
        return MPoly({m: o * c for m, c in self.coeffs.items()}, self.nvars)

    def substitute(self, i, v):
        """The polynomial with variable i set to the scalar v."""
        out = {}
        for m, c in self.coeffs.items():
            k = m[:i] + (0,) + m[i + 1:]
            out[k] = out.get(k, 0) + c * v ** m[i]
        return MPoly(out, self.nvars)

    def folded(self, p):
        """The polynomial with every exponent e >= 1 reduced to 1 + (e-1) %
        (p-1): by x^p = x the same function on F_p^n, and, all exponents
        being below p, zero iff that function is (Combinatorial
        Nullstellensatz)."""
        out = {}
        for m, c in self.coeffs.items():
            k = tuple(e and 1 + (e - 1) % (p - 1) for e in m)
            out[k] = out.get(k, 0) + c
        return MPoly(out, self.nvars)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, o):
        return isinstance(o, MPoly) and o.coeffs == self.coeffs

    def __repr__(self):
        return "MPoly(%r)" % (self.coeffs,)


class Sl2Vec:
    """sl(2) element with coordinates (e, f, h); coordinates may be plain
    scalars or MPoly values.  Supports the evaluate() protocol."""

    __slots__ = ("e", "f", "h", "field")

    def __init__(self, e, f, h, field):
        self.e, self.f, self.h = e, f, h
        self.field = field

    def __add__(self, o):
        return Sl2Vec(self.e + o.e, self.f + o.f, self.h + o.h, self.field)

    def scale_rational(self, q):
        c = self.field.from_rational(Fraction(q))
        return Sl2Vec(c * self.e, c * self.f, c * self.h, self.field)

    def bracket(self, o):
        two = self.field.from_int(2)
        e = two * (self.h * o.e - self.e * o.h)
        f = -two * (self.h * o.f - self.f * o.h)
        h = self.e * o.f - self.f * o.e
        return Sl2Vec(e, f, h, self.field)

    def is_zero(self):
        return not (self.e or self.f or self.h)


# ---------------------------------------------------------------------------
# identity testing in sl(2)
# ---------------------------------------------------------------------------


@dataclass
class IdentityVerdict:
    result: str                      # identity | not_identity | probably_identity
    mode: str                        # exact_symbolic | randomized | degree_shortcut
    witness: list | None = None      # list of (e, f, h) coordinate triples
    witness_value: object = None
    failure_bound: Fraction | None = None
    trials: int | None = None

    def to_json(self, field):
        out = {"result": self.result, "mode": self.mode}
        if self.witness is not None:
            out["witness"] = [[field.format_scalar(c) for c in triple]
                              for triple in self.witness]
            out["witness_value"] = [field.format_scalar(c) for c in self.witness_value]
        if self.failure_bound is not None:
            out["failure_bound"] = "%d/%d" % (self.failure_bound.numerator,
                                              self.failure_bound.denominator)
        if self.trials is not None:
            out["trials"] = self.trials
        return out


def _sl2_value(P, triples, field):
    """P at the sl(2) elements with these (e, f, h) field scalars."""
    return evaluate(P, [Sl2Vec(*t, field) for t in triples])


def _symbolic_value(P, field, symbolic):
    """P at sl(2) elements whose coordinates are indeterminates (variable
    3(i-1)+k for coordinate k of X_i) for the X_i with i in `symbolic`, and
    zero for the other X_i.  Over F_p the coordinate polynomials are folded
    (MPoly.folded), so they are zero iff P vanishes on sl(2, F_p)^d."""
    nsym = 3 * P.nvars
    zero = MPoly.zero(nsym)
    val = evaluate(P, [Sl2Vec(*[MPoly.variable(3 * i + k, nsym, field)
                                if i + 1 in symbolic else zero for k in range(3)],
                              field) for i in range(P.nvars)])
    if field.characteristic:
        p = field.modulus
        val = Sl2Vec(val.e.folded(p), val.f.folded(p), val.h.folded(p), field)
    return val


def _greedy_witness(P, val, field, deg):
    """The least point, in lex order of its 3d coordinates, of the grid
    {0, .., max(2, deg + 1)}^{3d} (F_p^{3d} over F_p) at which P is nonzero,
    read off the nonzero symbolic value `val` of P: each coordinate in turn
    takes the least grid value that leaves some coordinate polynomial
    nonzero.  One always exists: a variable occurs in `val` in degree below
    the number of grid values (at most deg(P) over Q, below p once folded
    over F_p), so a nonzero polynomial cannot vanish on all of them."""
    if field.characteristic:
        grid = field.elements()
    else:
        grid = [Fraction(v) for v in range(max(3, deg + 2))]
    polys = [val.e, val.f, val.h]
    point = []
    for i in range(3 * P.nvars):
        for v in grid:
            sub = [q.substitute(i, v) for q in polys]
            if any(sub):
                break
        else:
            raise AssertionError("no grid value keeps a nonzero polynomial nonzero")
        polys = sub
        point.append(v)
    triples = [tuple(point[3 * i: 3 * i + 3]) for i in range(P.nvars)]
    value = _sl2_value(P, triples, field)
    assert not value.is_zero(), "greedy witness fails re-evaluation"
    return triples, value


def is_identity_sl2(P: LiePoly, field, mode="exact", seed=0,
                    trials=8, grid=2 ** 20) -> IdentityVerdict:
    """Decide whether P vanishes identically on sl(2, K).

    The zero-ness, degrees and variables of P are read off its expansion in
    the tensor algebra.  Exact mode evaluates P at symbolic elements (3
    indeterminates per variable of P) and tests the coordinate polynomials
    for zero; refused for arity > 4 or degree > 12.  Over F_p they are
    folded first (x^p = x), and by the Combinatorial Nullstellensatz the
    folded polynomials are zero iff P vanishes on sl(2, F_p)^d, so the
    verdict is exact there too.  Over Q a P of least degree below 5 is never
    an identity, and that degree shortcut takes the same path without the
    cost guard.  A not_identity witness is the lex-least point of a fixed
    grid at which P is nonzero, read off the symbolic value
    (_greedy_witness).  Randomized mode: seeded integer-grid sampling with
    per-trial failure bound deg(P)/grid.
    """
    if field.characteristic == 2:
        raise MapsError("sl(2) identity testing requires characteristic != 2")
    words = expansion(P)
    if not words:
        return IdentityVerdict(result="identity", mode="exact_symbolic")
    deg = max(map(len, words))
    shortcut = field.characteristic == 0 and min(map(len, words)) < 5

    if shortcut or mode == "exact":
        if not shortcut and (P.nvars > 4 or deg > 12):
            raise CostGuardError(
                "exact mode refused: arity %d > 4 or degree %d > 12"
                % (P.nvars, deg))
        val = _symbolic_value(P, field, {i for w in words for i in w})
        if val.is_zero():
            return IdentityVerdict(result="identity", mode="exact_symbolic")
        triples, wval = _greedy_witness(P, val, field, deg)
        return IdentityVerdict(
            result="not_identity",
            mode="degree_shortcut" if shortcut else "exact_symbolic",
            witness=triples, witness_value=(wval.e, wval.f, wval.h))

    if mode != "randomized":
        raise MapsError("unknown mode %r" % mode)
    rng = random.Random(seed)
    # the effective grid is clipped by the field size, and so is the bound
    eff_grid = grid if field.characteristic == 0 else min(grid, field.modulus)
    if deg >= eff_grid:
        raise MapsError(
            "randomized mode needs a grid larger than deg(P) = %d" % deg)
    for _ in range(trials):
        triples = [tuple(field.from_int(rng.randrange(eff_grid)) for _ in range(3))
                   for _ in range(P.nvars)]
        val = _sl2_value(P, triples, field)
        if not val.is_zero():
            return IdentityVerdict(result="not_identity", mode="randomized",
                                   witness=triples,
                                   witness_value=(val.e, val.f, val.h))
    bound = Fraction(deg, eff_grid) ** trials
    return IdentityVerdict(result="probably_identity", mode="randomized",
                           failure_bound=bound, trials=trials)


# ---------------------------------------------------------------------------
# dominancy witnesses
# ---------------------------------------------------------------------------


@dataclass
class WitnessVerdict:
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


@dataclass
class WitnessSearchResult:
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


# ---------------------------------------------------------------------------
# constructive Engel solver
# ---------------------------------------------------------------------------


class EngelSolveError(MapsError):
    pass


EXCLUDED_COMBINATIONS = "A1, B_r, C_r (char 2) and G2 (char 3)"


def _excluded_for_engel(alg: ChevalleyAlgebra) -> bool:
    # A_1/B_r/C_r in char 2, G_2 in char 3; the C-family cases are already
    # rejected at build time, B_r (r >= 3) arrives here.
    ch = alg.field.characteristic
    t, r = alg.rs.key
    if ch == 2 and (t in ("B", "C") or (t, r) == ("A", 1)):
        return True
    if ch == 3 and t == "G":
        return True
    return False


@dataclass
class EngelSolution:
    X: AlgElement
    Y: AlgElement
    certificate: str
    trace: dict

    def to_json(self):
        return {"X": self.X.to_json(), "Y": self.Y.to_json(),
                "certificate": self.certificate, "trace": self.trace}


def engel_solve(alg: ChevalleyAlgebra, spec: EngelSpec, target: AlgElement,
                seed=0, budget=4000) -> EngelSolution:
    """Solve P(X, Y) = target for a generalized Engel polynomial P.

    Steps: roots S of f in K; regular h avoiding S on every root; conjugate
    the target into U; divide each e_beta coordinate by f(beta(h)); undo the
    conjugation.  The returned solution carries an exact re-evaluation
    certificate.
    """
    if target.alg is not alg:
        raise EngelSolveError("target from a different algebra")
    if _excluded_for_engel(alg):
        raise EngelSolveError(
            "Engel surjectivity excludes %s" % EXCLUDED_COMBINATIONS)
    P, _ = make_engel(spec.coeffs)
    if target.is_zero():
        zero = alg.zero()
        return _certify(alg, P, spec, zero, zero, zero,
                        {"case": "zero_target"})
    if alg.is_central(target):
        raise CentralElementError(
            "nonzero central targets can be unattainable; refusing")

    S = spec.roots_in(alg.field)
    h = alg.find_regular(S)
    g, u = alg.conjugate_into_U(target, seed=seed, budget=budget)
    conj_desc = [[f[0]] + [str(x) for x in f[1:]] for f in g.factors]

    coeffs = [0] * alg.dim
    for k in range(alg.rank, alg.dim):
        c = u.coeffs[k]
        if c:
            beta = alg.basis[k][1]
            coeffs[k] = c / spec.f_value(alg.beta_value(beta, h), alg.field)
    X = alg.element(coeffs)
    ginv = g.inverse()
    Xs, Ys = ginv.apply(X), ginv.apply(h)
    trace = {
        "avoid": [alg.field.format_scalar(s) for s in S],
        "h": h.to_json(),
        "conjugator": conj_desc,
        "seed": seed,
    }
    return _certify(alg, P, spec, Xs, Ys, target, trace)


def _certify(alg, P, spec, X, Y, target, trace):
    value = evaluate(P, [X, Y])
    if value != target:
        raise AssertionError("Engel solver produced an invalid solution")
    payload = _canonical({"poly": [str(c) for c in spec.coeffs],
                          "X": X.to_json(), "Y": Y.to_json(),
                          "value": value.to_json()})
    cert = hashlib.sha256(payload.encode()).hexdigest()
    return EngelSolution(X=X, Y=Y, certificate=cert, trace=trace)


# ---------------------------------------------------------------------------
# integer vectors and the block scan kernel (finite fields)
# ---------------------------------------------------------------------------


# Assignments evaluated together: a block holds each node's value as dim
# columns of at most this many residues, whatever N = p^dim is.
_BLOCK_LANES = 4096


def _weigh(terms):
    """Lane-wise sum of c * col over the (c, col) terms, unreduced."""
    (a, u), *rest = terms
    acc = u if a == 1 else [a * x for x in u]
    for t in range(0, len(rest) - 1, 2):
        (a, u), (b, v) = rest[t], rest[t + 1]
        acc = [s + a * x + b * y for s, x, y in zip(acc, u, v)]
    if len(rest) % 2:
        a, u = rest[-1]
        acc = [s + a * x for s, x in zip(acc, u)]
    return acc


def _lanes(terms, p, n, offset=0):
    """The column offset + sum of c * col over the (c, col) terms, on n
    lanes and reduced mod p; None stands for the zero column."""
    if len(terms) == 1:
        (a, u), = terms
        return [(a * x + offset) % p for x in u]
    if len(terms) == 2:
        (a, u), (b, v) = terms
        return [(a * x + b * y + offset) % p for x, y in zip(u, v)]
    if terms:
        return [(s + offset) % p for s in _weigh(terms)]
    offset %= p
    return [offset] * n if offset else None


def _digit_columns(elems, p, dim):
    """The coordinate columns of the elements with these indices."""
    return [[e // w % p for e in elems] for w in [p ** k for k in range(dim)]]


def _block_kernel(P: LiePoly, alg: ChevalleyAlgebra, batched):
    """P on a block of n assignments at once, as a function (xs, n) -> codes.

    xs[i - 1] is X_i: for i in `batched` its dim coordinate columns of n
    lanes (one lane per assignment), otherwise an AlgElement shared by
    every lane.  A node's value is held the same way: an AlgElement when
    no batched variable occurs below it, columns (None for a zero column)
    otherwise.  A bracket with one constant side is a linear map, its
    ad_matrix built once per block and applied lane-wise; a bracket of two
    batched sides takes lane-wise products over the nonzero bracket_table
    entries, [u, v] = sum over i < j of [b_i, b_j] (u_i v_j - u_j v_i).
    Every Br and Sum node reduces mod p once.  The result is the index
    (_encode) of P's value on each lane.
    """
    p, dim, T = alg.field.modulus, alg.dim, alg.bracket_table
    pairs = [(i, j, T[i][j]) for i in range(dim) for j in range(i + 1, dim)
             if T[i][j]]

    def linear(M, vs, n):
        return [_lanes([(c, vs[j]) for j, c in enumerate(row)
                        if c and vs[j] is not None], p, n) for row in M]

    def batched_bracket(us, vs, n):
        terms = [[] for _ in range(dim)]
        for i, j, entries in pairs:
            ui, uj, vi, vj = us[i], us[j], vs[i], vs[j]
            if ui is not None and vj is not None:
                if uj is not None and vi is not None:
                    w = [a * d - b * c for a, b, c, d in zip(ui, uj, vi, vj)]
                else:
                    w = [a * d for a, d in zip(ui, vj)]
            elif uj is not None and vi is not None:
                w = [-b * c for b, c in zip(uj, vi)]
            else:
                continue
            for k, m in entries:
                terms[k].append((m, w))
        return [_lanes(t, p, n) for t in terms]

    compiled = {}       # subtree -> (batched?, evaluator)
    memo = {}           # evaluator's slot -> its value on the current block

    def compile_node(node):
        """(batched?, evaluator (xs, n) -> value) for the node; a subtree
        that occurs more than once is evaluated once per block."""
        if node not in compiled:
            b, f = compile_new(node)
            if not isinstance(node, Var):
                f = functools.partial(recall, len(compiled), f)
            compiled[node] = b, f
        return compiled[node]

    def recall(slot, f, xs, n):
        if slot not in memo:
            memo[slot] = f(xs, n)
        return memo[slot]

    def compile_new(node):
        if isinstance(node, Var):
            i = node.index - 1
            return node.index in batched, lambda xs, n: xs[i]
        if isinstance(node, Br):
            lb, left = compile_node(node.left)
            rb, right = compile_node(node.right)
            if lb and rb:
                return True, lambda xs, n: batched_bracket(left(xs, n), right(xs, n), n)
            if lb:      # [u, v] = ad(-v) u
                return True, lambda xs, n: linear(alg.ad_matrix(-right(xs, n)),
                                                  left(xs, n), n)
            if rb:
                return True, lambda xs, n: linear(alg.ad_matrix(left(xs, n)),
                                                  right(xs, n), n)
            return False, lambda xs, n: left(xs, n).bracket(right(xs, n))
        if isinstance(node, Sum):
            parts = [(c, *compile_node(t)) for c, t in
                     ((alg.field.residue(c), t) for c, t in node.terms) if c]
            sum_batched = any(b for _, b, _ in parts)

            def total(xs, n):
                offset = [0] * dim
                terms = [[] for _ in range(dim)]
                for c, b, f in parts:
                    if b:
                        for t, x in zip(terms, f(xs, n)):
                            if x is not None:
                                t.append((c, x))
                    else:
                        for k, x in enumerate(f(xs, n).coeffs):
                            offset[k] += c * x
                if not sum_batched:
                    return AlgElement(alg, alg.field.reduce_row(offset))
                return [_lanes(t, p, n, o) for t, o in zip(terms, offset)]
            return sum_batched, total
        raise TypeError(node)

    root_batched, root = compile_node(P.node)
    weights = [p ** k for k in range(dim)]

    def codes(xs, n):
        memo.clear()
        val = root(xs, n)
        if not root_batched:
            return [_encode(val.coeffs, p)] * n
        terms = [(w, col) for w, col in zip(weights, val) if col is not None]
        return _weigh(terms) if terms else [0] * n

    return codes


def _decode(idx, p, dim):
    out = [0] * dim
    for k in range(dim):
        idx, r = divmod(idx, p)
        out[k] = r
    return out


def _encode(vec, p):
    idx = 0
    for v in reversed(vec):
        idx = idx * p + v
    return idx


def _span_indices(basis, p, dim):
    """Indices of the p^len(basis) vectors in the span of the linearly
    independent residue rows `basis`."""
    span = [[0] * dim]
    for row in basis:
        span += [[(a + t * b) % p for a, b in zip(v, row)]
                 for t in range(1, p) for v in span]
    return [_encode(v, p) for v in span]


def _central_indices(alg: ChevalleyAlgebra):
    """Indices of all central elements (the span of the centre basis)."""
    return set(_span_indices([b.coeffs for b in alg.center()],
                             alg.field.modulus, alg.dim))


def _map_chunks(worker, n, workers, *common):
    """worker((start, end) + common) for at most `workers` contiguous chunks
    of the positions [0, n), in a forked pool when there is more than one."""
    step = max(1, -(-n // workers) if workers > 1 else n)
    args = [(lo, min(n, lo + step)) + common for lo in range(0, n, step)]
    if len(args) > 1:
        import multiprocessing
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            return pool.map(worker, args)
    return [worker(a) for a in args]


# ---------------------------------------------------------------------------
# image scans
# ---------------------------------------------------------------------------


@dataclass
class ImageReport:
    """Certified image summary.  hit_counts gives the number of distinct
    attained elements per class (zero / central_nonzero / noncentral);
    central_hits and preimage_samples carry preimages that are re-evaluated
    exactly while the report is built."""

    algebra: str
    field: str
    poly: str
    mode: dict
    dim: int
    arity: int
    total_elements: int
    domain_size: int
    attained_count: int
    contains_zero: bool
    contains_all_noncentral: bool
    hit_counts: dict
    central_hits: list
    missed_sample: list
    preimage_samples: list
    workers: int = 1

    def to_json(self):
        return {
            "algebra": self.algebra, "field": self.field, "poly": self.poly,
            "mode": self.mode, "dim": self.dim, "arity": self.arity,
            "total_elements": self.total_elements, "domain_size": self.domain_size,
            "attained_count": self.attained_count,
            "contains_zero": self.contains_zero,
            "contains_all_noncentral": self.contains_all_noncentral,
            "hit_counts": self.hit_counts, "central_hits": self.central_hits,
            "missed_sample": self.missed_sample,
            "preimage_samples": self.preimage_samples,
            "workers": self.workers,
        }


def _scan_chunk(args):
    """Worker: the least index of every value P takes on the assignment
    indices [start, end), evaluated by _block_kernel a block at a time;
    pure and order-free.

    Exhaustive mode walks the indices a_idx = x1 + N (x2 + N (..)) in
    order, in blocks of at most _BLOCK_LANES that share X2..Xd, so only X1
    is batched.  Sampled mode takes its slice of one global seeded stream
    (so the merged result is independent of the worker count), sorted, and
    batches every variable.  Blocks come in increasing index order, so a
    value keeps the first index that reaches it.
    """
    start, end, type_label, rank, p, poly_text, mode_seed = args
    alg = build_algebra(type_label, rank, PrimeField(p))
    P = parse(poly_text)
    dim, d = alg.dim, P.nvars
    N = p ** dim
    attained = {}

    def merge(codes, indices):
        first = dict(zip(reversed(codes), reversed(indices)))
        for v in first.keys() - attained.keys():
            attained[v] = first[v]

    if mode_seed is None:
        kernel = _block_kernel(P, alg, {1})
        x1_key = x1_cols = None
        lo = start
        while lo < end:
            hi = min(end, lo + _BLOCK_LANES, (lo // N + 1) * N)
            x1 = lo % N
            if (x1, hi - lo) != x1_key:
                x1_key = (x1, hi - lo)
                x1_cols = _digit_columns(range(x1, x1 + hi - lo), p, dim)
            rest, xs = lo // N, [x1_cols]
            for _ in range(d - 1):
                rest, e_idx = divmod(rest, N)
                xs.append(AlgElement(alg, _decode(e_idx, p, dim)))
            merge(kernel(xs, hi - lo), range(lo, hi))
            lo = hi
    else:
        rng = random.Random(mode_seed)
        drawn = sorted([rng.randrange(N ** d) for _ in range(end)][start:])
        kernel = _block_kernel(P, alg, set(range(1, d + 1)))
        for lo in range(0, len(drawn), _BLOCK_LANES):
            block = drawn[lo:lo + _BLOCK_LANES]
            xs = [_digit_columns([a // w % N for a in block], p, dim)
                  for w in [N ** i for i in range(d)]]
            merge(kernel(xs, len(block)), block)
    return attained


def image_scan(alg: ChevalleyAlgebra, P: LiePoly, mode="exhaustive", seed=None,
               workers=1, budget=None, sample_count=10000) -> ImageReport:
    """Brute-force image computation over a finite field.

    exhaustive mode enumerates every assignment (the independent oracle used
    throughout the test suite); sampled mode draws seeded uniform assignments.
    Every assignment is evaluated, a block at a time (_block_kernel): P's
    tree is walked once per block of up to _BLOCK_LANES assignments, with
    each value held as one column of residues per basis coordinate.  In
    exhaustive mode a block shares X2..Xd, so brackets with them are linear
    maps built once per block.  Worker partitioning merges via minimum
    assignment index, so reports are bit-identical for any worker count.
    `budget` (default LIEMAP_BUDGET, else 2,000,000) caps the exhaustive
    enumeration and the sample count, and must be at least 1.
    """
    if alg.field.characteristic == 0:
        raise MapsError("image scans require a finite field")
    if budget is None:
        budget = _scan_budget()
    elif budget < 1:
        raise InvalidBudgetError("budget must be at least 1, got %d" % budget)
    p = alg.field.modulus
    N = p ** alg.dim
    d = P.nvars
    total = N ** d
    if mode == "exhaustive":
        if total > budget:
            raise ScanBudgetError(
                "exhaustive scan needs %d evaluations > budget %d; "
                "use sampled mode or raise LIEMAP_BUDGET" % (total, budget))
        njobs = total
        mode_seed = None
        mode_json = {"kind": "exhaustive", "engine": "brute-force"}
    elif mode == "sampled":
        if seed is None:
            raise MapsError("sampled mode requires a seed")
        njobs = min(sample_count, budget)
        mode_seed = seed
        mode_json = {"kind": "sampled", "count": njobs, "seed": seed}
    else:
        raise MapsError("unknown scan mode %r" % mode)

    parts = _map_chunks(_scan_chunk, njobs, workers, alg.rs.type_label,
                        alg.rs.rank, p, P.pretty(), mode_seed)
    attained = {}
    for part in parts:
        for v, a_idx in part.items():
            prev = attained.get(v)
            if prev is None or a_idx < prev:
                attained[v] = a_idx
    return _build_report(alg, P, mode_json, attained, total, workers)


def _build_report(alg, P, mode_json, attained, domain_size, workers):
    p = alg.field.modulus
    N = p ** alg.dim
    central = _central_indices(alg)
    zero_idx = 0
    hit_zero = zero_idx in attained
    n_central_nonzero = sum(1 for v in attained if v in central and v != zero_idx)
    n_noncentral = sum(1 for v in attained if v not in central)
    all_noncentral = n_noncentral == N - len(central)

    def elem_json(v):
        return alg.element_from_ints(_decode(v, p, alg.dim)).to_json()

    def preimage_json(a_idx):
        d = P.nvars
        rest = a_idx
        out = []
        for _ in range(d):
            rest, e_idx = divmod(rest, N)
            out.append(elem_json(e_idx))
        return out

    def check(v, a_idx):
        xs = [alg.element_from_json(e) for e in preimage_json(a_idx)]
        val = evaluate(P, xs)
        assert _encode(val.coeffs, p) == v, \
            "stored preimage fails re-evaluation"

    central_hits = []
    for v in sorted(attained):
        if v in central and v != zero_idx:
            check(v, attained[v])
            central_hits.append({"element": elem_json(v),
                                 "preimage": preimage_json(attained[v])})
    missed = [elem_json(v) for v in
              itertools.islice((v for v in range(N) if v not in attained), 10)]
    samples = []
    for v in sorted(attained)[:8]:
        check(v, attained[v])
        samples.append({"element": elem_json(v),
                        "preimage": preimage_json(attained[v])})
    return ImageReport(
        algebra=algebra_id(alg), field=str(alg.field), poly=P.pretty(),
        mode=mode_json, dim=alg.dim, arity=P.nvars, total_elements=N,
        domain_size=domain_size, attained_count=len(attained),
        contains_zero=hit_zero, contains_all_noncentral=all_noncentral,
        hit_counts={"zero": 1 if hit_zero else 0,
                    "central_nonzero": n_central_nonzero,
                    "noncentral": n_noncentral},
        central_hits=central_hits, missed_sample=missed,
        preimage_samples=samples, workers=workers)


# -- exact linear-fiber engine for Engel maps --------------------------------


def _column_echelon(M, field):
    """Reduced echelon basis (rows, pivots) of the column space of M."""
    R, pivots = linalg.rref([list(col) for col in zip(*M)], field)
    return R[:len(pivots)], pivots


def _engel_matrix(acoeffs, D, field):
    """g(D) = sum_i a_i D^i (i >= 1) by Horner's rule, for residues a_i."""
    *rest, lead = acoeffs
    M = [field.scale_row(row, lead) for row in D]
    for a in reversed(rest):
        for i in range(len(M)):
            M[i][i] = field.reduce(M[i][i] + a)
        M = linalg.mat_mul(M, D, field)
    return M


def _scaling_representatives(p, dim):
    """Indices of the least vector of each class {cY : c in F_p^*}, in
    increasing order: 0 and every index whose highest nonzero digit is 1."""
    return itertools.chain((0,), *(range(p ** k, 2 * p ** k) for k in range(dim)))


def _column_preimages(M, basis, field):
    """x_i with M x_i = u_i for the echelon rows u_i of M's column space,
    each the one `linalg.solve(M, u_i)` returns, from one elimination of
    [M | basis^T]."""
    m = len(M[0])
    R, pivots = linalg.rref([row + [u[i] for u in basis]
                             for i, row in enumerate(M)], field)
    assert all(c < m for c in pivots), "echelon row outside the column space"
    xs = []
    for j, u in enumerate(basis):
        x = [0] * m
        for r, c in enumerate(pivots):
            x[c] = R[r][m + j]
        assert linalg.mat_vec(M, x, field) == u, "column preimage fails M x = u"
        xs.append(x)
    return xs


def _members(basis, remaining, field, dim):
    """The indices in `remaining` (index -> vector) of the vectors in the
    span of the echelon rows `basis`: the span is enumerated when it is no
    larger than `remaining`, otherwise each vector is tested against the
    annihilator."""
    p = field.modulus
    if p ** len(basis) <= len(remaining):
        return [i for i in _span_indices(basis, p, dim) if i in remaining]
    ann = linalg.kernel_basis(basis, field)
    return [i for i, v in remaining.items()
            if not any(sum(map(operator.mul, a, v)) % p for a in ann)]


def engel_image_scan(alg: ChevalleyAlgebra, spec: EngelSpec,
                     workers=1) -> ImageReport:
    """Exact image of a generalized Engel map, computed per fixed Y.

    P(X, Y) = g(D_Y) X with D_Y = [., Y] and g(t) = sum a_i t^i, so for each
    Y the attainable values form the column space of g(D_Y).  Y is walked in
    index order; each element is credited to the first Y whose column space
    holds it, with the preimage `linalg.solve` gives there.  Solving is
    linear on the column space, so one elimination per new column space
    yields preimages x_i of its echelon rows u_i, and v gets sum v[pivot_i]
    x_i.  The walk stops once every element is attained.  When g is a
    monomial a t^m, g(D_cY) = c^m g(D_Y) has the same column space as
    g(D_Y), so only the least Y of each F_p^* class is visited.  The result
    marks exactly the elements the brute-force scan marks (validated against
    it on small cases).  `workers` is recorded only: the walk is sequential
    so that it can stop early.  The elements not yet attained are held
    decoded, so p^dim is capped by the scan budget (LIEMAP_BUDGET).
    """
    if alg.field.characteristic == 0:
        raise MapsError("image scans require a finite field")
    field, p, dim = alg.field, alg.field.modulus, alg.dim
    N = p ** dim
    budget = _scan_budget()
    if N > budget:
        raise ScanBudgetError(
            "Engel scan holds %d elements > budget %d; raise LIEMAP_BUDGET"
            % (N, budget))
    acoeffs = [field.residue(c) for c in spec.coeffs]
    monomial = sum(1 for a in acoeffs if a) == 1
    seen = set()
    remaining = {i: _decode(i, p, dim) for i in range(N)}
    attained = {}
    for y_idx in _scaling_representatives(p, dim) if monomial else range(N):
        D = alg.ad_matrix(-AlgElement(alg, _decode(y_idx, p, dim)))
        M = _engel_matrix(acoeffs, D, field)
        basis, pivots = _column_echelon(M, field)
        key = tuple(_encode(u, p) for u in basis)
        if key in seen:
            continue
        seen.add(key)
        xs = _column_preimages(M, basis, field)
        for v_idx in _members(basis, remaining, field, dim):
            v = remaining.pop(v_idx)
            x = [0] * dim
            for c, xi in zip(pivots, xs):
                if v[c]:
                    x = [(a + v[c] * b) % p for a, b in zip(x, xi)]
            attained[v_idx] = _encode(x, p) + N * y_idx
        if not remaining:
            break
    P, _ = make_engel(spec.coeffs)
    mode_json = {"kind": "exhaustive", "engine": "engel-linear"}
    return _build_report(alg, P, mode_json, attained, N ** 2, workers)


# ---------------------------------------------------------------------------
# central image probe
# ---------------------------------------------------------------------------


@dataclass
class CentralProbeReport:
    algebra: str
    field: str
    m_range: list
    table: dict                      # m -> list of hit dicts
    m0: int | None
    workers: int = 1

    def to_json(self):
        return {"algebra": self.algebra, "field": self.field,
                "m_range": self.m_range,
                "table": {str(m): hits for m, hits in sorted(self.table.items())},
                "m0": self.m0, "workers": self.workers}


def _probe_chunk(args):
    """Scan the scaling-class representatives [start, end) of Y (positions
    in `_scaling_representatives`) for central hits of E_m, all m in range.

    A target is a hit for (m, Y) when it lies in the column space of D_Y^m,
    tested against that space's echelon form; only a hit is solved for its
    preimage.  Fitting stabilization: once rank(D^m) = rank(D^(m-1)) the
    column space is the same for every larger m, so membership is decided
    once and later degrees only solve D^m x = c for the targets inside it.
    """
    start, end, type_label, rank, p, ms, targets = args
    alg = build_algebra(type_label, rank, PrimeField(p))
    field = alg.field
    max_m = max(ms)
    hits = {}
    for y_idx in itertools.islice(_scaling_representatives(p, alg.dim), start, end):
        D = alg.ad_matrix(-AlgElement(alg, _decode(y_idx, p, alg.dim)))
        M, rk, frozen = D, -1, False
        for m in range(1, max_m + 1):
            if m > 1:
                M = linalg.mat_mul(M, D, field)
            if not frozen:
                basis, pivots = _column_echelon(M, field)
                frozen = len(pivots) == rk
                rk = len(pivots)
                inside = [(c_idx, c) for c_idx, c in targets
                          if linalg.in_row_space(basis, pivots, c, field)]
                if frozen and not inside:
                    break
            if m in ms:
                for c_idx, c in inside:
                    if (m, c_idx) not in hits:
                        hits[(m, c_idx)] = (y_idx, tuple(linalg.solve(M, c, field)))
    return hits


def central_image_probe(alg: ChevalleyAlgebra, m_range, workers=1) -> CentralProbeReport:
    """Which Engel degrees m attain nonzero central values, exhaustively.

    E_m(X, Y) is linear in X, so for each Y the attainable set is the column
    space of D_Y^m; scanning every Y decides attainment exactly.  D_cY^m =
    c^m D_Y^m has the same column space and cY the larger index, so only the
    least Y of each F_p^* class is scanned, and the workers split those
    evenly.  Reports the least m0 in range with no nonzero central hits from
    m0 onward.
    """
    if alg.field.characteristic == 0:
        raise MapsError("the central probe requires a finite field")
    ms = sorted(set(int(m) for m in m_range))
    if any(m < 1 for m in ms):
        raise MapsError("Engel degrees start at m = 1")
    if not ms:
        return CentralProbeReport(algebra=algebra_id(alg), field=str(alg.field),
                                  m_range=[], table={}, m0=None, workers=workers)
    p = alg.field.modulus
    budget = _scan_budget()
    if p ** alg.dim > budget:
        raise ScanBudgetError(
            "probe needs %d fixed-Y subscans > budget %d; raise LIEMAP_BUDGET"
            % (p ** alg.dim, budget))
    central = sorted(_central_indices(alg))
    targets = [(v, tuple(_decode(v, p, alg.dim))) for v in central if v != 0]
    if not targets:
        raise MapsError("central probe is meaningless for a trivial centre")

    n_reps = 1 + sum(p ** k for k in range(alg.dim))
    parts = _map_chunks(_probe_chunk, n_reps, workers, alg.rs.type_label,
                        alg.rs.rank, p, tuple(ms), tuple(targets))
    merged = {}
    for part in parts:
        for key, (y_idx, x) in part.items():
            if key not in merged or (y_idx, x) < merged[key]:
                merged[key] = (y_idx, x)

    table = {}
    for m in ms:
        entries = []
        for (mm, c_idx), (y_idx, x) in sorted(merged.items()):
            if mm != m:
                continue
            X = alg.element_from_ints(list(x))
            Y = alg.element_from_ints(_decode(y_idx, p, alg.dim))
            val = evaluate(engel_monomial(m), [X, Y])
            assert _encode(val.coeffs, p) == c_idx, \
                "probe preimage fails re-evaluation"
            entries.append({"element": alg.element_from_ints(
                                _decode(c_idx, p, alg.dim)).to_json(),
                            "preimage": [X.to_json(), Y.to_json()]})
        table[m] = entries
    m0 = None
    for m in ms:
        if all(not table[m2] for m2 in ms if m2 >= m):
            m0 = m
            break
    return CentralProbeReport(algebra=algebra_id(alg), field=str(alg.field),
                              m_range=ms, table=table, m0=m0, workers=workers)


# ---------------------------------------------------------------------------
# the degree-6 non-surjective example
# ---------------------------------------------------------------------------


def example48_poly() -> LiePoly:
    """[[[X,Y],X],[[X,Y],Y]]: linear nilpotent directions e, f are missed."""
    return parse("[[[X,Y],X],[[X,Y],Y]]")


def example48_closed_form(alg: ChevalleyAlgebra, a, b, c, d) -> AlgElement:
    """Value of the example map at X = a e + b f, Y = c f + d h, in closed
    form: with s = 4 b d^2 - a c^2,

        P(X, Y) = 4 a^2 c s * h  -  8 a^2 d s * e  +  8 a b d s * f.

    (The e-coefficient sign is fixed by exact evaluation; see the test suite,
    which checks the closed form against direct bracket evaluation on all of
    F_5^4.)
    """
    if alg.rs.key != ("A", 1):
        raise MapsError("closed form lives in sl(2)")
    if alg.field.characteristic == 2:
        raise MapsError("characteristic 2 is excluded")
    f = alg.field
    four, eight = f.from_int(4), f.from_int(8)
    s = four * b * d * d - a * c * c
    h_c = four * a * a * c * s
    e_c = -(eight * a * a * d * s)
    f_c = eight * a * b * d * s
    return alg.element([h_c, e_c, f_c])
