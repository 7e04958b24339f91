"""Identity testing in sl(2): exact symbolic evaluation at generic elements
(rows of MPoly coordinates), a degree-below-5 shortcut, and seeded
randomized testing.  sl(2) is the Chevalley algebra of type A_1, with basis
(h, e, f) and [h, e] = 2e, [h, f] = -2f, [e, f] = h: numeric points are A_1
elements, and polynomial rows are bracketed by A_1's table.  Points and
values are written as (e, f, h) coordinate tuples."""

from __future__ import annotations

import random
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .chevalley import build_algebra
from .errors import CostGuardError, MapsError
from .freelie import LiePoly, evaluate, expansion, walk


class MPoly:
    """Sparse multivariate polynomial with exact coefficients: ints, or over
    Q Fractions once a non-integral scalar multiplies them.  Over F_p the
    coefficients stay ints, reduced mod p by folded: the map Z -> F_p
    commutes with every ring operation here."""

    __slots__ = ("coeffs", "nvars")

    def __init__(self, coeffs, nvars):
        self.coeffs = {m: c for m, c in coeffs.items() if c}
        self.nvars = nvars

    @classmethod
    def _nonzero(cls, coeffs, nvars):
        """The polynomial with the dict coeffs, taken as it is: the trusted
        path for callers whose coefficients are already all nonzero."""
        out = cls.__new__(cls)
        out.coeffs = coeffs
        out.nvars = nvars
        return out

    @staticmethod
    def variable(i, nvars):
        """Variable i."""
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return MPoly({mono: 1}, nvars)

    @staticmethod
    def zero(nvars):
        return MPoly({}, nvars)

    def __add__(self, o):
        if not self.coeffs:     # no MPoly is mutated, so 0 + o may be o itself
            return o
        out = dict(self.coeffs)
        for m, c in o.coeffs.items():
            v = out.get(m)
            v = c if v is None else v + c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return MPoly._nonzero(out, self.nvars)

    def __mul__(self, o):
        if not isinstance(o, MPoly):
            return MPoly({m: c * o for m, c in self.coeffs.items()}, self.nvars)
        out = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in o.coeffs.items():
                m = tuple(map(add, ma, mb))
                v = out.get(m)
                prod = ca * cb
                v = prod if v is None else v + prod
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return MPoly._nonzero(out, self.nvars)

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
        """The polynomial over F_p, with int coefficients reduced mod p and
        every exponent e >= 1 reduced to 1 + (e-1) % (p-1): by x^p = x the
        same function on F_p^n, and, all exponents being below p, zero iff
        that function is (Combinatorial Nullstellensatz)."""
        out = {}
        for m, c in self.coeffs.items():
            k = tuple(e and 1 + (e - 1) % (p - 1) for e in m)
            out[k] = out.get(k, 0) + c
        return MPoly({k: c % p for k, c in out.items()}, self.nvars)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, o):
        return isinstance(o, MPoly) and o.coeffs == self.coeffs

    def __repr__(self):
        return "MPoly(%r)" % (self.coeffs,)


class IdentityVerdict(NamedTuple):
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
    """P at the sl(2) elements with these (e, f, h) field scalars, as an
    (e, f, h) tuple of residues, evaluated on A_1 over integer rows."""
    alg = build_algebra("A", 1, field)
    h, e, f = evaluate(P, [alg.element((h, e, f)) for e, f, h in triples]).coeffs
    return e, f, h


def _symbolic_value(P, field, symbolic):
    """P at sl(2) elements whose coordinates are indeterminates (variable
    3(i-1)+k for coordinate k of X_i in (e, f, h) order) for the X_i with i
    in `symbolic`, and zero for the other X_i, as an (e, f, h) tuple of
    MPoly, walked on rows in A_1's basis order (h, e, f).  The walk runs on
    int coefficients (over Q until a non-integral coefficient of P scales
    them), and over F_p the polynomials are folded (MPoly.folded), so they
    are zero iff P vanishes on sl(2, F_p)^d."""
    alg = build_algebra("A", 1, field)
    nsym = 3 * P.nvars
    zero = MPoly.zero(nsym)
    rows = [[MPoly.variable(3 * i + k, nsym) if i + 1 in symbolic else zero
             for k in (2, 0, 1)] for i in range(P.nvars)]

    def combine(terms):
        scaled = [r if c == 1 else [field.residue(c) * x for x in r]
                  for c, r in terms]
        return [sum(q, zero) for q in zip(*scaled)] or [zero] * 3

    h, e, f = walk(P.node, rows, lambda a, b: alg._bracket_rows(a, b, zero),
                   combine, {})
    if field.characteristic:
        return tuple(q.folded(field.modulus) for q in (e, f, h))
    return e, f, h


def _greedy_witness(P, val, field, deg):
    """The least point, in lex order of its 3d coordinates, of the grid
    {0, .., max(2, deg + 1)}^{3d} (F_p^{3d} over F_p) at which P is nonzero,
    read off the nonzero symbolic value `val` of P: each coordinate in turn
    takes the least grid value that leaves some coordinate polynomial
    nonzero.  One always exists: a variable occurs in `val` in degree below
    the number of grid values (at most deg(P) over Q, below p once folded
    over F_p), so a nonzero polynomial cannot vanish on all of them.  Over
    F_p each substitution is folded again, which reduces its coefficients."""
    p = field.characteristic
    grid = range(p) if p else [Fraction(v) for v in range(max(3, deg + 2))]
    polys = list(val)
    point = []
    for i in range(3 * P.nvars):
        for v in grid:
            sub = [q.substitute(i, v) for q in polys]
            if p:
                sub = [q.folded(p) for q in sub]
            if any(sub):
                break
        else:
            raise AssertionError("no grid value keeps a nonzero polynomial nonzero")
        polys = sub
        point.append(v)
    triples = [tuple(point[3 * i: 3 * i + 3]) for i in range(P.nvars)]
    value = _sl2_value(P, triples, field)
    assert any(value), "greedy witness fails re-evaluation"
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
        if not any(val):
            return IdentityVerdict(result="identity", mode="exact_symbolic")
        triples, wval = _greedy_witness(P, val, field, deg)
        return IdentityVerdict(
            result="not_identity",
            mode="degree_shortcut" if shortcut else "exact_symbolic",
            witness=triples, witness_value=wval)

    if mode != "randomized":
        raise MapsError("unknown mode %r" % mode)
    rng = random.Random(seed)
    # the effective grid is clipped by the field size, and so is the bound
    eff_grid = grid if field.characteristic == 0 else min(grid, field.modulus)
    if deg >= eff_grid:
        raise MapsError(
            "randomized mode needs a grid larger than deg(P) = %d" % deg)
    for _ in range(trials):
        triples = [tuple(field.residue(rng.randrange(eff_grid)) for _ in range(3))
                   for _ in range(P.nvars)]
        val = _sl2_value(P, triples, field)
        if any(val):
            return IdentityVerdict(result="not_identity", mode="randomized",
                                   witness=triples, witness_value=val)
    bound = Fraction(deg, eff_grid) ** trials
    return IdentityVerdict(result="probably_identity", mode="randomized",
                           failure_bound=bound, trials=trials)
