"""Property tests for the element bracket on residues.

Oracles: the commutator of the verified matrix realizations (sl(3) and
so(5)), and antisymmetry and the Jacobi identity on G2, whose realization
the library does not have.  Every result must stay in residue form, ints in
[0, p) over F_p.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from liemap.chevalley import build_algebra
from liemap.matrixrep import commutator, realize_chevalley
from liemap.scalar import make_field

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

REALIZED = [build_algebra(t, r, make_field(f))
            for t, r, f in (("A", 2, "F3"), ("A", 2, "Q"), ("B", 2, "F5"))]
REALIZATIONS = {alg: realize_chevalley(alg) for alg in REALIZED}
G2 = build_algebra("G", 2, make_field("F7"))


def scalars(field):
    if field.characteristic:
        return st.integers(-2 * field.modulus, 2 * field.modulus)
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def elements(alg, n):
    """n elements of alg from arbitrary ints (or Fractions), via element()."""
    coeffs = st.lists(scalars(alg.field), min_size=alg.dim, max_size=alg.dim)
    return st.lists(coeffs.map(alg.element), min_size=n, max_size=n)


def in_residue_form(x):
    f = x.alg.field
    if f.characteristic:
        return all(type(c) is int and 0 <= c < f.modulus for c in x.coeffs)
    return all(type(c) is Fraction for c in x.coeffs)


@st.composite
def realized_pairs(draw):
    alg = draw(st.sampled_from(REALIZED))
    return alg, draw(elements(alg, 2))


@SETTINGS
@given(realized_pairs())
def test_bracket_is_the_matrix_commutator(case):
    alg, (x, y) = case
    real = REALIZATIONS[alg]
    xy = x.bracket(y)
    assert in_residue_form(xy)
    assert real.to_matrix(xy) == commutator(real.to_matrix(x), real.to_matrix(y))


@SETTINGS
@given(elements(G2, 3))
def test_bracket_antisymmetry_and_jacobi_G2(xyz):
    x, y, z = xyz
    assert x.bracket(y) == -y.bracket(x)
    jacobi = x.bracket(y.bracket(z)) + y.bracket(z.bracket(x)) + z.bracket(x.bracket(y))
    assert jacobi.is_zero()


@SETTINGS
@given(st.sampled_from(REALIZED + [G2]).flatmap(
    lambda alg: st.tuples(elements(alg, 2), scalars(alg.field))))
def test_linear_operations_stay_residues(case):
    (x, y), q = case
    for z in (x, y, x + y, x - y, -x, x.bracket(y), x.scale(q)):
        assert in_residue_form(z)
    if x.alg.field.characteristic:
        q = Fraction(q, 1 + (q % 2))
    assert in_residue_form(x.scale_rational(q))
    assert (x + y) - y == x
