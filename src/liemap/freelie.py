"""Free Lie polynomials: parsing, Lyndon normal forms, evaluation.

Grammar (whitespace insignificant; a leading sign is also accepted):

    poly  := term (('+'|'-') term)*
    term  := [coef '*'] atom
    atom  := var | '[' poly ',' poly ']' | '(' poly ')'
    var   := 'X' digits | 'X' | 'Y' | 'Z' | 'T'      (X,Y,Z,T = X1..X4)

Coefficients are integers or rationals "a/b" and always live over Q; they are
mapped into the target field at evaluation time, so one AST serves every
field.  Nesting is bounded by MAX_NESTING; a tree built from nodes in Python
past it, deeper than the recursion limit, makes evaluate and normal_form
raise NestingError.  P acts as the substitution
homomorphism X_i -> x_i, and one tree walk (walk) computes it in every
target, each caller supplying its bracket and linear combination: algebra
and matrix elements (evaluate, on their integer rows), the
tensor algebra (_tensor_expand) and the scan kernel's blocks of F_p
assignments (lanes.block_kernel).  Normal forms use
the Lyndon-word basis for the variable order X1 < X2 < ..., computed by
straightening in the tensor algebra: the lex-least word of a homogeneous
Lie element is a Lyndon word, and subtracting its bracketed Lyndon monomial
strictly raises that least word.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, lcm


# The deepest nesting of brackets and parentheses a polynomial may have, and
# the most terms of an Engel sum (E_m nests m brackets).  The parser and a
# walk over the tree each take up to three frames per level, so 200 levels
# stay clear of Python's default recursion limit of 1000.
MAX_NESTING = 200


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position


class NestingError(ValueError):
    """A tree, built from nodes in Python past the parser's MAX_NESTING,
    nested deeper than the walk can follow."""


_TOO_DEEP = ("the polynomial's tree is nested deeper than Python's recursion "
             "limit; parsed polynomials nest at most %d levels" % MAX_NESTING)


class Var:
    __slots__ = ("index",)

    def __init__(self, index):
        if index < 1:
            raise ValueError("variable indices start at 1")
        self.index = index

    def __eq__(self, o):
        return isinstance(o, Var) and o.index == self.index

    def __hash__(self):
        return hash(("v", self.index))

    def __repr__(self):
        return "X%d" % self.index


class Br:
    """A bracket node.  Its hash is computed once, from its children's, so
    that keying a dict by nodes (evaluate's memo) costs O(1) per lookup."""

    __slots__ = ("left", "right", "_hash")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._hash = hash(("b", left, right))

    def __reduce__(self):
        # string hashes differ between interpreters: rebuild, never copy, _hash
        return Br, (self.left, self.right)

    def __eq__(self, o):
        # an explicit stack of node pairs, so that trees deeper than the
        # recursion limit compare
        stack = [(self, o)]
        while stack:
            x, y = stack.pop()
            if not isinstance(y, Br):
                return False
            for a, b in ((x.left, y.left), (x.right, y.right)):
                if isinstance(a, Br):
                    stack.append((a, b))
                elif a != b:
                    return False
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "[%r,%r]" % (self.left, self.right)


class Sum:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(terms)

    def __eq__(self, o):
        return isinstance(o, Sum) and o.terms == self.terms

    def __hash__(self):
        return hash(("s", self.terms))

    def __repr__(self):
        return "Sum(%r)" % (self.terms,)


class LiePoly:
    """AST plus declared arity.  Immutable; evaluation is pure."""

    def __init__(self, node, nvars=None):
        self.node = node
        self.nvars = nvars if nvars is not None else max_var(node)

    @property
    def arity(self):
        return self.nvars

    def pretty(self):
        return _print_node(self.node)

    def __eq__(self, o):
        return isinstance(o, LiePoly) and o.node == self.node and o.nvars == self.nvars

    def __repr__(self):
        return "LiePoly(%s)" % self.pretty()


def max_var(node) -> int:
    """The largest variable index in node (0 if none), found without
    recursion, so that a tree of any depth is accepted."""
    top, stack = 0, [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            top = max(top, node.index)
        elif isinstance(node, Br):
            stack += (node.left, node.right)
        elif isinstance(node, Sum):
            stack += (n for _, n in node.terms)
        else:
            raise TypeError(node)
    return top


# -- parsing ------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([XYZT])(\d*)|(.))")
_ALIASES = {"X": 1, "Y": 2, "Z": 3, "T": 4}


def _tokenize(text):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            break
        start = m.start(m.lastindex)
        if m.group(1):
            toks.append(("int", int(m.group(1)), start))
        elif m.group(2):
            letter, digits = m.group(2), m.group(3)
            if digits:
                if letter != "X":
                    raise ParseError("alias variables Y,Z,T take no index", start)
                idx = int(digits)
                if idx == 0:
                    raise ParseError("variable index 0 is invalid", start)
            else:
                idx = _ALIASES[letter]
            toks.append(("var", idx, start))
        else:
            ch = m.group(4)
            if ch not in "[],()+-*/":
                raise ParseError("unexpected character %r" % ch, start)
            toks.append((ch, ch, start))
        pos = m.end()
    toks.append(("end", None, len(text)))
    return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError("expected %r" % kind, t[2])
        return t

    def parse_poly(self):
        terms = []
        sign = 1
        if self.peek()[0] in "+-":
            if self.next()[0] == "-":
                sign = -1
        c, node = self.parse_term()
        terms.append((sign * c, node))
        while self.peek()[0] in "+-":
            op = self.next()[0]
            c, node = self.parse_term()
            terms.append((c if op == "+" else -c, node))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(terms)

    def parse_term(self):
        coef = Fraction(1)
        if self.peek()[0] == "int":
            num = self.next()[1]
            if self.peek()[0] == "/":
                self.next()
                den = self.expect("int")[1]
                if den == 0:
                    raise ParseError("zero denominator", self.toks[self.i - 1][2])
                coef = Fraction(num, den)
            else:
                coef = Fraction(num)
            self.expect("*")
        return coef, self.parse_atom()

    def parse_atom(self):
        t = self.next()
        if t[0] == "var":
            return Var(t[1])
        if t[0] not in "[(":
            raise ParseError("expected a variable, '[' or '('", t[2])
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("nesting deeper than %d levels" % MAX_NESTING, t[2])
        node = self.parse_poly()
        if t[0] == "[":
            self.expect(",")
            node = Br(node, self.parse_poly())
        self.expect("]" if t[0] == "[" else ")")
        self.depth -= 1
        return node


def parse(text: str, nvars=None) -> LiePoly:
    p = _Parser(text)
    node = p.parse_poly()
    t = p.peek()
    if t[0] != "end":
        raise ParseError("trailing input", t[2])
    return LiePoly(node, nvars)


def _print_node(node) -> str:
    """The text of node, built from a stack of nodes and literal pieces
    rather than by recursion, so that a tree of any depth prints: a node is
    replaced on the stack by its pieces, pushed in reverse."""
    out, stack = [], [node]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Var):
            out.append("X%d" % node.index)
        elif isinstance(node, Br):
            stack += ("]", node.right, ",", node.left, "[")
        elif isinstance(node, Sum):
            pieces = []
            for i, (c, n) in enumerate(node.terms):
                if i:
                    pieces.append(" + " if c >= 0 else " - ")
                elif c < 0:
                    pieces.append("-")
                mag = abs(c)
                if mag != 1:
                    pieces.append(_frac_str(mag) + "*")
                pieces += ("(", n, ")") if isinstance(n, Sum) else (n,)
            stack += reversed(pieces or ["0*X1"])
        else:
            raise TypeError(node)
    return "".join(out)


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


# -- evaluation ---------------------------------------------------------------


def walk(node, xs, bracket, combine, memo):
    """The value of node under the substitution X_i -> xs[i - 1]: the one
    recursion that evaluates a polynomial.  A bracket node's value is
    bracket(left, right), kept in memo by node, so that equal subterms
    (nodes compare structurally) are evaluated once; a Sum node's value is
    combine([(c, value), ..]) over its terms.  A plain function, not a
    closure over memo: a self-referencing closure would keep memo's values
    alive until the cyclic collector ran."""
    if isinstance(node, Var):
        return xs[node.index - 1]
    if isinstance(node, Br):
        val = memo.get(node)
        if val is None:
            val = memo[node] = bracket(walk(node.left, xs, bracket, combine, memo),
                                       walk(node.right, xs, bracket, combine, memo))
        return val
    if isinstance(node, Sum):
        return combine([(c, walk(n, xs, bracket, combine, memo)) for c, n in node.terms])
    raise TypeError(node)


def evaluate(P: LiePoly, assignment):
    """Evaluate by walk, so that each distinct bracket subterm is evaluated
    once, on integer rows.  The first element's hook integer_rows
    (AlgElement, MatrixElement) checks the assignment and turns it into
    (values, bracket, combine, finish): the walk runs on those values, and
    finish turns the root's value into an element."""
    xs = list(assignment)
    if len(xs) != P.nvars:
        raise ValueError("expected %d arguments, got %d" % (P.nvars, len(xs)))
    values, bracket, combine, finish = xs[0].integer_rows(xs)
    try:
        return finish(walk(P.node, values, bracket, combine, {}))
    except RecursionError:
        raise NestingError(_TOO_DEEP) from None


# -- Lyndon normal form -------------------------------------------------------


def _tensor_expand(node):
    """Expansion in the tensor algebra: word tuple -> nonzero coefficient,
    an int below brackets of variables and a Fraction once a Sum scales it.
    Each distinct bracket subterm is expanded once."""
    xs = [{(i,): 1} for i in range(1, max_var(node) + 1)]
    return walk(node, xs, _bracket_expand, _expansion_sum, {})


def _expansion_sum(terms):
    out = {}
    for c, expanded in terms:
        for w, cw in expanded.items():
            v = out.get(w, 0) + c * cw
            if v:
                out[w] = v
            elif w in out:
                del out[w]
    return out


def _bracket_expand(L, R):
    """The expansion of [a, b] = ab - ba from the expansions L of a and R of b."""
    out = {}
    for wa, ca in L.items():
        for wb, cb in R.items():
            c = ca * cb
            for w, s in ((wa + wb, c), (wb + wa, -c)):
                v = out.get(w, 0) + s
                if v:
                    out[w] = v
                elif w in out:
                    del out[w]
    return out


def _sigma_expand(w, cache):
    """The expansion of sigma(w) = [sigma(u), sigma(v)] for the standard
    factorization w = uv; the expansions of the factors, and of theirs, are
    kept in cache."""
    if len(w) == 1:
        return {w: 1}
    sides = []
    for x in standard_factorization(w):
        if x not in cache:
            cache[x] = _sigma_expand(x, cache)
        sides.append(cache[x])
    return _bracket_expand(*sides)


def is_lyndon(w) -> bool:
    return all(w < w[i:] for i in range(1, len(w)))


def standard_factorization(w):
    """Chen-Fox-Lyndon: w = uv with v the lex-least proper suffix."""
    v = min(w[i:] for i in range(1, len(w)))
    return w[: len(w) - len(v)], v


def lyndon_bracketing(w):
    """The bracketed monomial sigma(w) of a Lyndon word, as an AST node."""
    if len(w) == 1:
        return Var(w[0])
    u, v = standard_factorization(w)
    return Br(lyndon_bracketing(u), lyndon_bracketing(v))


class LyndonForm:
    """Unique expansion over the Lyndon-word basis; empty map iff zero."""

    def __init__(self, coeffs):
        self.coeffs = {w: c for w, c in coeffs.items() if c}

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no minimal degree")
        return min(len(w) for w in self.coeffs)

    def linear_coefficients(self, nvars) -> tuple:
        return tuple(self.coeffs.get((i,), Fraction(0)) for i in range(1, nvars + 1))

    def to_lie_poly(self, nvars=None) -> LiePoly:
        if not self.coeffs:
            return LiePoly(Sum(()), nvars or 1)
        terms = tuple((c, lyndon_bracketing(w)) for w, c in sorted(self.coeffs.items()))
        return LiePoly(Sum(terms), nvars)

    def __eq__(self, o):
        return isinstance(o, LyndonForm) and o.coeffs == self.coeffs

    def __repr__(self):
        return "LyndonForm(%r)" % (self.coeffs,)


def normal_form(P: LiePoly) -> LyndonForm:
    """Straighten on integers: the expansion is scaled by the lcm d of its
    denominators, each sigma(w) expands with int coefficients and the
    coefficient 1 on w, so every step stays integral; divide by d at the
    end.  Each component's least word is popped from a heap that queues
    every word once: sigma(w) - w holds only words greater than w, so a
    popped word never comes back, and one that left the component is
    skipped when it is popped."""
    from heapq import heapify, heappop, heappush   # loaded on first use
    try:
        tensor = _tensor_expand(P.node)
    except RecursionError:
        raise NestingError(_TOO_DEEP) from None
    d = lcm(*[c.denominator for c in tensor.values()])
    by_len = {}
    for w, c in tensor.items():
        by_len.setdefault(len(w), {})[w] = c.numerator * (d // c.denominator)
    out = {}
    factors = {}
    for n, comp in sorted(by_len.items()):
        heap = list(comp)
        heapify(heap)
        queued = set(heap)
        while comp:
            w = heappop(heap)
            if w not in comp:
                continue
            assert is_lyndon(w), "least word of a Lie element must be Lyndon"
            c = out[w] = comp.pop(w)
            for ww, cw in _sigma_expand(w, factors).items():
                if ww == w:
                    continue
                v = comp.get(ww, 0) - c * cw
                if v:
                    comp[ww] = v
                    if ww not in queued:
                        queued.add(ww)
                        heappush(heap, ww)
                elif ww in comp:
                    del comp[ww]
    return LyndonForm({w: Fraction(c, d) for w, c in out.items()})


def expansion(P: LiePoly) -> dict:
    """P in the tensor algebra: word tuple -> nonzero Fraction.  The free Lie
    algebra embeds in the tensor algebra and both gradings by multidegree
    agree, so this is empty iff the normal form is zero, and its word
    lengths, letters and one-letter coefficients are the normal form's
    monomial degrees, variables and linear part."""
    return {w: Fraction(c) for w, c in _tensor_expand(P.node).items()}


def linear_part(P: LiePoly) -> tuple:
    """Coefficients (a_1..a_d) of the degree-1 monomials in normal form."""
    words = expansion(P)
    return tuple(words.get((i,), Fraction(0)) for i in range(1, P.nvars + 1))


def _monomial_degrees(P: LiePoly) -> set:
    words = expansion(P)
    if not words:
        raise ValueError("zero polynomial has no monomial degree")
    return {len(w) for w in words}


def min_monomial_degree(P: LiePoly) -> int:
    return min(_monomial_degrees(P))


def max_monomial_degree(P: LiePoly) -> int:
    return max(_monomial_degrees(P))


# -- Engel polynomials --------------------------------------------------------


class EngelSpec:
    """Coefficients a_1..a_m of sum a_i E_i(X, Y), with the induced univariate
    f(t) = sum (-1)^i a_i t^i whose roots steer the constructive solver."""

    def __init__(self, coeffs):
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs or not cs[-1]:
            raise ValueError("Engel coefficients must be nonempty with a_m != 0")
        if len(cs) > MAX_NESTING:
            raise ValueError("at most %d Engel coefficients (E_m nests m brackets)"
                             % MAX_NESTING)
        self.coeffs = cs
        self.m = len(cs)
        self.degree = self.m + 1

    def f_coefficients(self):
        """Coefficients of f, low degree first (constant term is 0)."""
        return tuple([Fraction(0)] + [(-1) ** i * a for i, a in
                                      enumerate(self.coeffs, start=1)])

    def f_value(self, t, field):
        """f(t) = sum a_i s^i, s = -t, by Horner's rule on residues."""
        s = field.reduce(-t)
        acc = 0
        for a in reversed(self.coeffs):
            acc = field.reduce((acc + field.residue(a)) * s)
        return acc

    def roots_in(self, field):
        """All roots of f in the field, as residues: exhaustive over F_p,
        rational-root enumeration over Q.  Always contains 0."""
        if field.characteristic:
            return [x for x in range(field.modulus) if not self.f_value(x, field)]
        fc = self.f_coefficients()
        # f = t * g; rational roots of g have p | const(g), q | lead(g)
        den = lcm(*(c.denominator for c in fc))
        g = [int(c * den) for c in fc[1:]]
        while g and g[0] == 0:
            g = g[1:]
        roots = {Fraction(0)}
        if g:
            c0, lead, n = abs(g[0]), abs(g[-1]), len(g) - 1
            for p in _divisors(c0):
                for q in _divisors(lead):
                    for a in (p, -p):
                        # g(a/q) = 0 iff q^n g(a/q) = sum g_i a^i q^(n-i) = 0
                        if not sum(c * a ** i * q ** (n - i) for i, c in enumerate(g)):
                            roots.add(Fraction(a, q))
        return sorted(roots)

    def is_plain_engel(self) -> bool:
        return all(c == 0 for c in self.coeffs[:-1]) and self.coeffs[-1] == 1

    def __repr__(self):
        return "EngelSpec(%s)" % (tuple(map(_frac_str, self.coeffs)),)


def _divisors(n):
    """Positive divisors of n in increasing order ([1] for n = 0), by trial
    division up to sqrt|n|."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n] or [1]


def engel_monomial(m: int) -> LiePoly:
    """E_m(X, Y) = [[..[X,Y],Y]..,Y] with m brackets, 1 <= m <= MAX_NESTING."""
    if not 1 <= m <= MAX_NESTING:
        raise ValueError("E_m needs 1 <= m <= %d, got m = %d" % (MAX_NESTING, m))
    node = Br(Var(1), Var(2))
    for _ in range(m - 1):
        node = Br(node, Var(2))
    return LiePoly(node, 2)


def engel_spec(P: LiePoly):
    """The EngelSpec (a_1..a_m) when P = sum a_k E_k(X1, X2), else None.
    a_k is read as the coefficient of the word X1 X2^k in expansion(P), and
    P is accepted only when its expansion equals that of make_engel(a): the
    free Lie algebra embeds in the tensor algebra, so P is then that sum."""
    if P.nvars != 2:
        return None
    words = expansion(P)
    a = [words.get((1,) + (2,) * k, Fraction(0))
         for k in range(1, max(map(len, words), default=0))]
    while a and not a[-1]:
        a.pop()
    if not a or expansion(make_engel(a)[0]) != words:
        return None
    return EngelSpec(a)


def make_engel(coeffs) -> tuple:
    """(P, spec) with P = sum a_i E_i(X, Y)."""
    spec = EngelSpec(coeffs)
    terms = tuple((a, engel_monomial(i).node)
                  for i, a in enumerate(spec.coeffs, start=1) if a)
    node = terms[0][1] if len(terms) == 1 and terms[0][0] == 1 else Sum(terms)
    return LiePoly(node, 2), spec
