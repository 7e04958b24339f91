"""Shared test utilities: seeded random elements and polynomials, and the
brute-force sl(2) witness oracle."""

import itertools
import random
from fractions import Fraction

from liemap.freelie import Br, LiePoly, Sum, Var
from liemap.maps import _sl2_value


def random_element(alg, rng):
    if alg.field.characteristic:
        p = alg.field.modulus
        return alg.element_from_ints([rng.randrange(p) for _ in range(alg.dim)])
    return alg.element_from_ints([rng.randint(-5, 5) for _ in range(alg.dim)])


def random_nonzero_element(alg, rng):
    while True:
        x = random_element(alg, rng)
        if not x.is_zero():
            return x


def random_monomial(rng, nvars, degree):
    """A pure bracket monomial of the given total degree."""
    if degree == 1:
        return Var(rng.randrange(1, nvars + 1))
    left = rng.randrange(1, degree)
    return Br(random_monomial(rng, nvars, left),
              random_monomial(rng, nvars, degree - left))


def random_poly(rng, nvars=3, max_degree=5, max_terms=4):
    terms = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        deg = rng.randrange(1, max_degree + 1)
        coef = Fraction(rng.randint(-4, 4))
        if coef:
            terms.append((coef, random_monomial(rng, nvars, deg)))
    if not terms:
        terms = [(Fraction(1), Var(1))]
    return LiePoly(Sum(tuple(terms)), nvars)


def grid_witness(P, field, deg):
    """Brute force: the first point, in lex order of its 3d coordinates, of
    the grid {0, .., max(2, deg + 1)}^{3d} (F_p^{3d} over F_p) at which P is
    nonzero on sl(2), with P's value there; (None, None) if P vanishes on
    the whole grid."""
    if field.characteristic:
        values = field.elements()
    else:
        values = [Fraction(v) for v in range(max(3, deg + 2))]
    d = P.nvars
    for flat in itertools.product(values, repeat=3 * d):
        triples = [tuple(flat[3 * i: 3 * i + 3]) for i in range(d)]
        val = _sl2_value(P, triples, field)
        if not val.is_zero():
            return triples, val
    return None, None
