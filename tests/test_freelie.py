import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import random_element, random_monomial, random_poly
from liemap.chevalley import build_algebra
from liemap.freelie import (Br, EngelSpec, LiePoly, ParseError, Sum, Var,
                            _divisors, engel_monomial, evaluate, expansion,
                            linear_part, make_engel, max_monomial_degree,
                            min_monomial_degree, normal_form, parse)
from liemap.scalar import make_field

Q = make_field("Q")
F7 = make_field("F7")


def test_parse_basic():
    P = parse("[X1,X2]")
    assert P.node == Br(Var(1), Var(2)) and P.arity == 2


def test_parse_aliases_match_indexed():
    lhs = parse("[[[[[X3,X2],X2],X1],X2],[[[[X3,X2],X1],X2],X2]]")
    rhs = parse("[[[[[Z,Y],Y],X],Y],[[[[Z,Y],X],Y],Y]]")
    assert lhs.node == rhs.node


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse("[X1,")
    assert e.value.position == 4
    with pytest.raises(ParseError):
        parse("[X0,X1]")
    with pytest.raises(ParseError):
        parse("[X1,X2")
    with pytest.raises(ParseError):
        parse("Y3")
    with pytest.raises(ParseError):
        parse("1/0*X1")
    with pytest.raises(ParseError):
        parse("[X1,X2]]")


def test_parse_coefficients_and_parens():
    P = parse("3*[X1,X2] - 1/2*(X1 + X2)")
    nf = normal_form(P)
    assert nf.coeffs[(1, 2)] == 3
    assert nf.coeffs[(1,)] == Fraction(-1, 2)
    assert nf.coeffs[(2,)] == Fraction(-1, 2)


def test_print_parse_round_trip_random():
    # round trip preserves the polynomial: normal forms and evaluations agree
    rng = random.Random(5)
    alg = build_algebra("A", 2, F7)
    for _ in range(50):
        P = random_poly(rng)
        back = parse(P.pretty(), nvars=P.arity)
        assert normal_form(back) == normal_form(P)
        assert parse(back.pretty()).pretty() == back.pretty()
        xs = [random_element(alg, rng) for _ in range(P.arity)]
        assert evaluate(back, xs) == evaluate(P, xs)


def test_normal_form_trivials():
    assert normal_form(parse("[X1,X1]")).is_zero()
    assert normal_form(parse("[X2,X1]")).coeffs == {(1, 2): Fraction(-1)}
    jac = parse("[[X1,X2],X3]+[[X2,X3],X1]+[[X3,X1],X2]")
    assert normal_form(jac).is_zero()


def test_normal_form_jacobi_antisymmetry_combinations():
    rng = random.Random(11)
    for _ in range(30):
        a = random_monomial(rng, 3, rng.randrange(1, 4))
        b = random_monomial(rng, 3, rng.randrange(1, 4))
        c = random_monomial(rng, 3, rng.randrange(1, 4))
        from liemap.freelie import LiePoly
        anti = LiePoly(Sum(((Fraction(1), Br(a, b)), (Fraction(1), Br(b, a)))), 3)
        assert normal_form(anti).is_zero()
        jac = LiePoly(Sum(((Fraction(1), Br(Br(a, b), c)),
                           (Fraction(1), Br(Br(b, c), a)),
                           (Fraction(1), Br(Br(c, a), b)))), 3)
        assert normal_form(jac).is_zero()


def test_linear_part():
    assert linear_part(parse("X1 + [X1,X2]")) == (1, 0)
    assert linear_part(parse("2*X2 - [X1,X2]")) == (0, 2)
    P, _ = make_engel([1, 0, 2])
    assert linear_part(P) == (0, 0)


def test_min_monomial_degree():
    assert min_monomial_degree(engel_monomial(3)) == 4
    fil = parse("[[[Y,Z],[T,X]],X] + [[[Y,X],[Z,X]],T]")
    assert min_monomial_degree(fil) == 5
    assert not normal_form(fil).is_zero()
    deg10 = parse("[[[[[Z,Y],Y],X],Y],[[[[Z,Y],X],Y],Y]]")
    assert min_monomial_degree(deg10) == 10
    with pytest.raises(ValueError):
        min_monomial_degree(parse("[X1,X1]"))


@st.composite
def lie_polys(draw):
    """Random ASTs, half of them with a cancelling pair [A, B] + [B, A]
    added, so that zero polynomials and cancelled letters occur."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    nvars = draw(st.integers(1, 4))
    P = random_poly(rng, nvars, max_degree=draw(st.integers(1, 6)))
    if draw(st.booleans()):
        A, B = (random_poly(rng, nvars, 3, 2).node for _ in range(2))
        rest = P.node.terms if draw(st.booleans()) else ()
        P = LiePoly(Sum(((Fraction(1), Br(A, B)), (Fraction(1), Br(B, A))) + rest),
                    nvars)
    return P


@settings(max_examples=200, derandomize=True, deadline=None)
@given(lie_polys())
@example(parse("[[X1,X2],X3]+[[X2,X3],X1]+[[X3,X1],X2]"))
@example(parse("[X1,X1] + 2*X2"))
@example(parse("[[X1,X2],X3] - [[X1,X2],X3] + 0*X4"))
def test_expansion_facts_match_normal_form(P):
    nf = normal_form(P)
    words = expansion(P)
    assert (not words) == nf.is_zero()
    assert {i for w in words for i in w} == {i for w in nf.coeffs for i in w}
    assert linear_part(P) == nf.linear_coefficients(P.nvars)
    if nf.is_zero():
        for fn in (min_monomial_degree, max_monomial_degree):
            with pytest.raises(ValueError):
                fn(P)
    else:
        assert min_monomial_degree(P) == nf.min_degree()
        assert max_monomial_degree(P) == max(len(w) for w in nf.coeffs)


def test_divisors_match_the_naive_loop():
    for n in range(-3000, 3001):
        assert _divisors(n) == ([d for d in range(1, abs(n) + 1) if n % d == 0]
                                or [1])


def test_make_engel():
    P1, s1 = make_engel([1])
    assert P1.pretty() == "[X1,X2]" and s1.degree == 2
    P2, s2 = make_engel([0, 1])
    assert P2.node == Br(Br(Var(1), Var(2)), Var(2))
    P11, s11 = make_engel([1, 1])
    assert s11.f_coefficients() == (0, -1, 1)
    assert [str(r) for r in s11.roots_in(make_field("F7"))] == ["0", "1"]
    assert s11.roots_in(Q) == [Fraction(0), Fraction(1)]
    assert s2.is_plain_engel() and not s11.is_plain_engel()
    with pytest.raises(ValueError):
        EngelSpec([])
    with pytest.raises(ValueError):
        EngelSpec([1, 0])


def test_engel_rational_roots():
    # f(t) = -2t + t^2... coeffs (2, 1): f = -2t + t^2 = t(t - 2)
    _, s = make_engel([2, 1])
    assert s.roots_in(Q) == [Fraction(0), Fraction(2)]
    _, s2 = make_engel([Fraction(1, 2), 1])
    # f = -t/2 + t^2 = t(t - 1/2)
    assert Fraction(1, 2) in s2.roots_in(Q)


def test_evaluate_sl2():
    alg = build_algebra("A", 1, Q)
    h, e, f = (alg.basis_element(i) for i in range(3))
    E1, _ = make_engel([1])
    assert evaluate(E1, [e, f]) == h
    assert evaluate(engel_monomial(2), [e, h]) == e.scale_rational(4)
    P, _ = make_engel([0, 0, 1])
    assert evaluate(P, [alg.zero(), alg.zero()]).is_zero()


def test_evaluate_arity_mismatch():
    alg = build_algebra("A", 1, Q)
    with pytest.raises(ValueError):
        evaluate(parse("[X1,X2]"), [alg.zero()])


def test_normal_form_evaluation_agreement():
    alg = build_algebra("A", 2, F7)
    rng = random.Random(23)
    for _ in range(60):
        P = random_poly(rng)
        xs = [random_element(alg, rng) for _ in range(P.arity)]
        assert evaluate(P, xs) == evaluate(normal_form(P).to_lie_poly(P.arity), xs)


def test_multihomogeneity():
    alg = build_algebra("A", 2, F7)
    rng = random.Random(31)
    for _ in range(40):
        deg = rng.randrange(1, 5)
        mono = random_monomial(rng, 2, deg)
        from liemap.freelie import LiePoly
        P = LiePoly(mono, 2)
        multideg = [0, 0]
        stack = [mono]
        while stack:
            n = stack.pop()
            if isinstance(n, Var):
                multideg[n.index - 1] += 1
            else:
                stack.extend((n.left, n.right))
        xs = [random_element(alg, rng) for _ in range(2)]
        lams = [F7.from_int(rng.randrange(1, 7)) for _ in range(2)]
        scaled = [x.scale(l) for x, l in zip(xs, lams)]
        factor = alg.field.one()
        for l, k in zip(lams, multideg):
            factor = factor * l ** k
        assert evaluate(P, scaled) == evaluate(P, xs).scale(factor)
