import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import f_value, random_element, random_monomial, random_poly
from liemap.chevalley import ChevalleyError, build_algebra
from liemap.errors import CostGuardError
from liemap.freelie import (MAX_INDEX, MAX_NESTING, ROOT_DIVISOR_BOUND, Br, EngelSpec,
                            LiePoly, LyndonForm, NestingError, ParseError, Sum, Var,
                            _divisors, engel_monomial, engel_spec, evaluate, expansion,
                            linear_part, make_engel, max_monomial_degree,
                            min_monomial_degree, normal_form, parse)
from liemap.freelie import _sigma_expand, _tensor_expand, is_lyndon
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


@pytest.mark.parametrize("text", [
    "2*(X1 + [X1,X2])", "-(X1 - X2)", "3*(2*X1)", "[X1,2*X2 + X1]",
    "1/2*(3*X1 - [X2,-3/2*X3]) - X2",
])
def test_print_parse_round_trip_nested_sums(text):
    # a sum nested in a sum keeps its parentheses, so the printed text
    # parses back to the same tree (image_scan's workers parse it)
    P = parse(text)
    assert P.pretty() == text
    assert parse(P.pretty()) == P


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


def _normal_form_by_min(P):
    """normal_form as it was before its heap: the least word of each
    component found by min() over the whole component."""
    tensor = _tensor_expand(P.node)
    d = math.lcm(*[Fraction(c).denominator for c in tensor.values()])
    by_len = {}
    for w, c in tensor.items():
        by_len.setdefault(len(w), {})[w] = int(Fraction(c) * d)
    out, factors = {}, {}
    for _, comp in sorted(by_len.items()):
        while comp:
            w = min(comp)
            assert is_lyndon(w)
            c = out[w] = comp.pop(w)
            for ww, cw in _sigma_expand(w, factors).items():
                if ww != w:
                    v = comp.get(ww, 0) - c * cw
                    if v:
                        comp[ww] = v
                    else:
                        comp.pop(ww, None)
    return {w: Fraction(c, d) for w, c in out.items()}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(lie_polys())
@example(parse("[[[[[X1,X2],X3],X4],X5],X6]"))
@example(parse("[[[X1,X2],[X3,X1]],[X2,X3]] - 2*[[X1,[X1,X2]],[X2,X1]]"))
def test_normal_form_matches_the_min_loop(P):
    assert normal_form(P).coeffs == _normal_form_by_min(P)


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
    # f = -t + t^2: f(0), f(1), f(2), f(-1) = 0, 0, 2, 2
    assert [s11.f_int(-t) for t in (0, 1, 2, -1)] == [0, 0, 2, 2]
    assert [str(r) for r in s11.roots_in(make_field("F7"))] == ["0", "1"]
    assert s11.roots_in(Q) == [Fraction(0), Fraction(1)]
    with pytest.raises(ValueError):
        EngelSpec([])
    with pytest.raises(ValueError):
        EngelSpec([1, 0])


@pytest.mark.parametrize("text,coeffs", [
    ("[X1,X2]", [1]),
    ("[[X,Y],Y]", [0, 1]),
    ("[X2,X1]", [-1]),
    ("[[X2,X1],X2] + 2*[X1,X2]", [2, -1]),
    ("1/2*[[[X1,X2],X2],X2] - [X2,[X1,X2]]", [0, 1, Fraction(1, 2)]),
    ("[[X1,X2],X2] + [X1,X1] + [[X1,X2],[X1,X2]]", [0, 1]),
])
def test_engel_spec_reads_engel_polynomials(text, coeffs):
    spec = engel_spec(parse(text))
    assert spec is not None and list(spec.coeffs) == coeffs
    assert expansion(make_engel(coeffs)[0]) == expansion(parse(text))


@pytest.mark.parametrize("text,nvars", [
    ("[[X1,X2],X1]", None),            # X2 is the linear variable here
    ("[[X1,X2],X2] + X1", None),       # a linear term
    ("[[X1,X2],[X1,X2]]", None),       # zero
    ("X1", None),
    ("[[X1,X2],X2] + [[X1,X2],X1]", None),
    ("[[X1,X3],X3]", None),            # Engel in X1, X3, not X1, X2
    ("[[X1,X2],X2]", 3),               # declared arity 3
])
def test_engel_spec_refuses_others(text, nvars):
    assert engel_spec(parse(text, nvars)) is None


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
    assert evaluate(engel_monomial(2), [e, h]) == e.scale(4)
    P, _ = make_engel([0, 0, 1])
    assert evaluate(P, [alg.zero(), alg.zero()]).is_zero()


def test_evaluate_arity_mismatch():
    alg = build_algebra("A", 1, Q)
    with pytest.raises(ValueError):
        evaluate(parse("[X1,X2]"), [alg.zero()])


def test_evaluate_takes_elements_of_one_algebra():
    # the one hook implementer is AlgElement: any other assignment, matrices
    # included, is refused with the library's error, not an AttributeError
    from liemap.matrixrep import realize_chevalley
    P = parse("[X1,X2]")
    a2q, a2f7 = build_algebra("A", 2, Q), build_algebra("A", 2, F7)
    x, y = a2q.basis_element(3), a2f7.basis_element(3)
    X = realize_chevalley(a2q).to_matrix(x)
    for xs, message in (([1, 2], "not int"), ([X, X], "not MatrixElement"),
                        ([x, 2], "different algebras"), ([x, X], "different algebras"),
                        ([x, y], "different algebras"), ([y, x], "different algebras")):
        with pytest.raises(ChevalleyError, match=message):
            evaluate(P, xs)
    # the whole assignment is checked, used by P or not
    with pytest.raises(ChevalleyError, match="different algebras"):
        evaluate(parse("[X1,X2]", nvars=3), [x, x, y])
    assert evaluate(P, [x, x]).is_zero()


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
        lams = [F7.residue(rng.randrange(1, 7)) for _ in range(2)]
        scaled = [x.scale(l) for x, l in zip(xs, lams)]
        factor = alg.field.residue(1)
        for l, k in zip(lams, multideg):
            factor = factor * l ** k
        assert evaluate(P, scaled) == evaluate(P, xs).scale(factor)


def _distinct_brackets(node, seen):
    if isinstance(node, Br):
        seen.add(node)
        _distinct_brackets(node.left, seen)
        _distinct_brackets(node.right, seen)
    elif isinstance(node, Sum):
        for _, n in node.terms:
            _distinct_brackets(n, seen)
    return seen


def test_evaluate_brackets_each_distinct_subterm_once(monkeypatch):
    # [[X1,X2],X3] occurs twice, as two separately parsed nodes
    P = parse("[[X1,X2],X3] + [[[X1,X2],X3],X1]")
    assert len(_distinct_brackets(P.node, set())) == 3
    from liemap.chevalley import ChevalleyAlgebra
    alg = build_algebra("A", 2, Q)
    rng = random.Random(7)
    xs = [alg.element([Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                       for _ in range(alg.dim)]) for _ in range(3)]
    calls = []
    core = ChevalleyAlgebra._bracket_rows

    def counted(self, x, y):
        calls.append(1)
        return core(self, x, y)

    # evaluate brackets integer rows through the core the bracket also uses
    monkeypatch.setattr(ChevalleyAlgebra, "_bracket_rows", counted)
    value = evaluate(P, xs)
    assert len(calls) == 3
    assert value == evaluate(normal_form(P).to_lie_poly(3), xs)
    X1, X2, X3 = xs
    X12_3 = X1.bracket(X2).bracket(X3)
    assert value == X12_3 + X12_3.bracket(X1)


def test_tensor_expansion_expands_each_distinct_subterm_once(monkeypatch):
    from liemap import freelie
    P = parse("[[X1,X2],X3] + [[[X1,X2],X3],X1]")
    calls = []
    expand = freelie._bracket_expand

    def counted(L, R):
        calls.append(1)
        return expand(L, R)

    monkeypatch.setattr(freelie, "_bracket_expand", counted)
    words = expansion(P)
    assert len(calls) == 3
    monkeypatch.undo()
    assert words == expansion(normal_form(P).to_lie_poly(3))
    X12_3 = {(1, 2, 3): 1, (2, 1, 3): -1, (3, 1, 2): -1, (3, 2, 1): 1}
    assert {w: c for w, c in words.items() if len(w) == 3} == X12_3


def test_empty_sum_evaluates_to_zero():
    # LyndonForm({}) is the one source of a Sum with no terms
    from liemap.matrixrep import dominance_witness_check, realize_chevalley
    P = LyndonForm({}).to_lie_poly(2)
    assert P.node == Sum(())
    rng = random.Random(5)
    for field in (Q, make_field("F5")):
        alg = build_algebra("A", 2, field)
        xs = [random_element(alg, rng) for _ in range(2)]
        assert evaluate(P, xs) == alg.zero()
    # on witness matrices, read into A2 and mapped back
    real = realize_chevalley(build_algebra("A", 2, Q))
    triple = [real.to_matrix(random_element(real.alg, rng)) for _ in range(2)]
    verdict = dominance_witness_check(P, triple, triple)
    assert verdict.result == "undefined" and verdict.detail.endswith("both assignment")
    assert verdict.value1.realization == "sl3" and verdict.value1.is_zero()
    # sl(2) points, (e, f, h) = (1, 2, 3) and (-1, 0, 5), as A_1 elements
    a1 = build_algebra("A", 1, Q)
    points = [a1.element((h, e, f)) for e, f, h in ((1, 2, 3), (-1, 0, 5))]
    assert evaluate(P, points) == a1.zero()


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
def test_nesting_past_the_bound_is_refused(depth):
    # refused at the opening bracket or parenthesis one level past the bound
    engel = "[" * depth + "X1,X2]" + ",X2]" * (depth - 1)    # E_depth
    for text in ("(" * depth + "X1" + ")" * depth, engel):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert e.value.position == MAX_NESTING
        assert "nesting deeper than %d" % MAX_NESTING in str(e.value)


def test_variable_index_past_the_bound_is_refused():
    # refused at the index digits, before any table with an entry per
    # variable is built
    assert parse("[X1,X%d]" % MAX_INDEX).nvars == MAX_INDEX
    assert parse("X000%d" % MAX_INDEX).nvars == MAX_INDEX
    for index in ("%d" % (MAX_INDEX + 1), "99999999999", "9" * 5000, "0" * 9 + "999"):
        with pytest.raises(ParseError) as e:
            parse("[X1,X%s]" % index)
        assert e.value.position == 5
        assert "variable index above %d" % MAX_INDEX in str(e.value)


def test_engel_monomial_at_the_nesting_bound():
    # E_m = sum_k (-1)^k C(m, k) Y^k X Y^(m-k) in the tensor algebra
    from math import comb
    m = MAX_NESTING
    P = engel_monomial(m)
    assert P.pretty() == "[" * m + "X1,X2]" + ",X2]" * (m - 1)
    assert parse(P.pretty()) == P
    assert parse("(" * m + "X1" + ")" * m).node == Var(1)
    assert expansion(P) == {(2,) * k + (1,) + (2,) * (m - k): (-1) ** k * comb(m, k)
                            for k in range(m + 1)}
    assert normal_form(P) == LyndonForm({(1,) + (2,) * m: Fraction(1)})
    assert make_engel([0] * (m - 1) + [1])[0] == P
    alg = build_algebra("A", 1, Q)
    rng = random.Random(9)
    X, Y = random_element(alg, rng), random_element(alg, rng)
    value = X
    for _ in range(m):
        value = value.bracket(Y)
    assert evaluate(P, [X, Y]) == value


def test_printing_a_tree_deeper_than_the_nesting_bound():
    # a tree built from nodes in Python is not bounded by MAX_NESTING; it
    # prints, and reads its arity, without recursion
    depth = 5000
    node = Var(1)
    for i in range(depth):
        node = Br(node, Var(2 + i % 2))
    P = LiePoly(node)
    text = P.pretty()
    assert P.nvars == 3
    assert text == "[" * depth + "X1," + ",".join("X%d]" % (2 + i % 2) for i in range(depth))
    deep_sum = Var(1)
    for _ in range(depth):
        deep_sum = Sum(((Fraction(-1, 2), deep_sum),))
    assert LiePoly(deep_sum).pretty() == "-1/2*(" * (depth - 1) + "-1/2*X1" + ")" * (depth - 1)


def test_walking_a_tree_deeper_than_the_recursion_limit_is_refused():
    # evaluate and normal_form recurse; on a 2,000-deep left-normed bracket
    # they raise NestingError, not RecursionError
    node = Var(1)
    for _ in range(2000):
        node = Br(node, Var(2))
    P = LiePoly(node)
    alg = build_algebra("A", 1, Q)
    xs = [alg.element_from_ints([1, 0, 0]), alg.element_from_ints([0, 1, 1])]
    with pytest.raises(NestingError, match="recursion limit"):
        evaluate(P, xs)
    with pytest.raises(NestingError, match="recursion limit"):
        normal_form(P)
    assert evaluate(engel_monomial(MAX_NESTING), xs) is not None


def test_comparing_trees_deeper_than_the_recursion_limit():
    def left_normed(last):
        node = Var(1)
        for i in range(2000):
            node = Br(node, Var(2 + i % 2))
        return Br(node, last)

    P, same = left_normed(Var(1)), left_normed(Var(1))
    assert P is not same and P == same and LiePoly(P) == LiePoly(same)
    assert P != left_normed(Var(2))
    # a difference at the deepest leaf, below 2,000 equal levels
    deep = Br(Var(2), Var(2))
    for i in range(2000):
        deep = Br(deep, Var(2 + i % 2))
    assert Br(deep, Var(1)) != P and P != Br(deep, Var(1))
    assert P != Var(1) and not P == Br(Var(1), Var(1))


@pytest.mark.parametrize("m", [0, -3, MAX_NESTING + 1, 3000])
def test_engel_monomial_outside_the_bound_is_refused(m):
    # E_0 and E_-3 would be [X1,X2]; E_3000 would print into a RecursionError
    with pytest.raises(ValueError, match="1 <= m <= %d" % MAX_NESTING):
        engel_monomial(m)
    assert engel_monomial(1).pretty() == "[X1,X2]"


def test_engel_spec_refuses_more_coefficients_than_the_bound():
    assert EngelSpec([1] * MAX_NESTING).m == MAX_NESTING
    with pytest.raises(ValueError, match="at most %d Engel coefficients" % MAX_NESTING):
        EngelSpec([1] * (MAX_NESTING + 1))


def _rational_roots_reference(spec, bound=20):
    """0 and every +-p/q with p, q <= bound at which f vanishes, evaluated in
    Fraction arithmetic."""
    cands = {Fraction(0)} | {Fraction(s * p, q) for s in (1, -1)
                             for p in range(1, bound + 1) for q in range(1, bound + 1)}
    return sorted(t for t in cands if not _f_by_fractions(spec, t))


def _f_by_fractions(spec, t):
    """f(t) = sum (-1)^i a_i t^i, evaluated in Fraction arithmetic."""
    return sum((-1) ** i * a * t ** i for i, a in enumerate(spec.coeffs, start=1))


_ENGEL_FRACTIONS = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(_ENGEL_FRACTIONS, min_size=1, max_size=8).filter(lambda cs: cs[-1]),
       st.one_of(st.integers(-30, 30), _ENGEL_FRACTIONS))
def test_f_int_is_the_cleared_f(coeffs, s):
    # f_int(s) = D f(-s) with D the lcm of the denominators, on ints when s is
    spec = EngelSpec(coeffs)
    assert spec.D == math.lcm(*(Fraction(a).denominator for a in coeffs))
    assert all(type(a) is int for a in spec.A)
    assert spec.f_int(s) == spec.D * _f_by_fractions(spec, -Fraction(s))
    if type(s) is int:
        assert type(spec.f_int(s)) is int


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(_ENGEL_FRACTIONS, min_size=1, max_size=8).filter(lambda cs: cs[-1]),
       st.sampled_from([2, 3, 5, 7, 11, 13, 101]))
def test_roots_in_fp_match_the_residue_horner(coeffs, p):
    # the residues where the residue Horner value of f vanishes; a coefficient
    # whose denominator p divides raises the same error as it does
    spec, field = EngelSpec(coeffs), make_field("F%d" % p)
    try:
        expected = [x for x in range(p) if not f_value(spec, x, field)]
    except ZeroDivisionError as e:
        with pytest.raises(ZeroDivisionError) as raised:
            spec.roots_in(field)
        assert str(raised.value) == str(e)
        return
    assert spec.roots_in(field) == expected


def test_rational_roots_refuse_past_the_divisor_bound():
    # trial division of g's end coefficient would walk isqrt(|n|) candidates
    bound = ROOT_DIVISOR_BOUND
    for coeffs in ([1, (bound + 1) ** 2], [(bound + 1) ** 2, 1], [1, int("7" * 40)]):
        with pytest.raises(CostGuardError, match="rational roots of f: .* %d candidates"
                           % bound):
            EngelSpec(coeffs).roots_in(Q)
    assert EngelSpec([10 ** 12, 1]).roots_in(Q) == [0, 10 ** 12]


def test_rational_roots_of_a_monomial_need_no_divisors():
    # f = a_m t^m, g = f / t of degree 0: the root 0 alone, whatever a_m is
    for coeffs in ([0, (ROOT_DIVISOR_BOUND + 1) ** 2], [0, int("7" * 40)],
                   [0, 0, Fraction(-1, 10 ** 30)], [5]):
        assert EngelSpec(coeffs).roots_in(Q) == [0] == _rational_roots_reference(
            EngelSpec(coeffs))


@pytest.mark.parametrize("coeffs,roots", [
    # f = -6t + 5t^2 + 6t^3 = t (3t - 2)(2t + 3)
    ((6, 5, -6), (Fraction(-3, 2), 0, Fraction(2, 3))),
    # half of that f, with a non-integral coefficient
    ((3, Fraction(5, 2), -3), (Fraction(-3, 2), 0, Fraction(2, 3))),
    # f = t (4t^2 - 9)(5t - 1) = 9t - 45t^2 - 4t^3 + 20t^4
    ((-9, -45, 4, 20), (Fraction(-3, 2), 0, Fraction(1, 5), Fraction(3, 2))),
    # f = t (2t - 1)(3t + 2)(2t - 9) = 18t - 13t^2 - 52t^3 + 12t^4: leading
    # coefficient 12 (divisors read for each of the 6 divisors of 18)
    ((-18, -13, 52, 12), (Fraction(-2, 3), 0, Fraction(1, 2), Fraction(9, 2))),
])
def test_rational_roots_non_monic(coeffs, roots):
    spec = EngelSpec(coeffs)
    assert spec.roots_in(Q) == list(roots) == _rational_roots_reference(spec)


def test_bracket_hash_survives_pickling_across_interpreters():
    # Br caches its hash, which mixes in string hashes; a node pickled by an
    # interpreter with another hash seed must hash like a fresh one here
    import os
    import pickle
    import subprocess
    import sys
    code = ("import pickle, sys; from liemap.freelie import parse; "
            "sys.stdout.buffer.write(pickle.dumps(parse('[[X1,X2],X3]').node))")
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    blob = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, check=True, timeout=60).stdout
    node = pickle.loads(blob)
    fresh = parse("[[X1,X2],X3]").node
    assert node == fresh and hash(node) == hash(fresh)
    assert {fresh: 1}.get(node) == 1
