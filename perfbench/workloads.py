"""Workload definitions for the liemap benchmark.

Every op the benchmark can run comes from a fixed, recorded pool: a pool
entry is a class name and an index, its inputs are derived from
``random.Random("<class>/<index>")`` (or stored in ``data/pool.json``), and
the digest of its canonical JSON output is recorded in ``data/pool.json``.
The workload seed picks entries from the pools and shuffles them into the
op list of one pass, so every seed yields ops whose outputs can be checked.

This module imports liemap lazily through ``load()`` so that the caller
controls which source tree is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "data", "pool.json")
WORKLOADS = ("solve", "images", "exact")

# -- pools ---------------------------------------------------------------------

# Type-A targets over F_p go through the deterministic similarity elimination.
SOLVE_A = {
    "A2F5-E1": ("A", 2, "F5", (1,)),
    "A2F5-E2": ("A", 2, "F5", (0, 1)),
    "A2F5-E3": ("A", 2, "F5", (0, 0, 1)),
    "A2F7-E1+E2": ("A", 2, "F7", (1, 1)),
    "A3F5-E2": ("A", 3, "F5", (0, 1)),
}
# B2/F5 targets of E_1 go through the seeded random root-automorphism search
# (solver seed 0).  The search tries the same words for every target and stops
# at the first that clears the target's H-part; attempt k costs exactly 8k
# root automorphisms.  Over random targets the attempt count follows a
# geometric law with p ~ 1/25 (median 18; measured on 2884 targets by the
# method of record.b2_targets).  A pass solves twelve targets, one for each
# twelfth of that law cut at 46 attempts (the range of 8..368 root
# automorphisms the solver was profiled on; 16 % of random targets need more),
# at the twelfth's midpoint quantile, except that the lowest quarter is given
# its median three times.  The pass costs the same 200 attempts either way,
# and op_tail_ms, with ten ops beyond it, then lies in the middle of three
# equal-cost solves rather than on one.  So the search work of a pass is the
# same for every seed, and its spread is that of real targets.
B2_CLASS = "B2F5-E1"
B2_P, B2_CAP = 1 / 25, 46


def _b2_quantile(q):
    """Attempt count at quantile q of the search's law cut at B2_CAP."""
    top = 1 - (1 - B2_P) ** B2_CAP
    return math.ceil(math.log(1 - top * q) / math.log(1 - B2_P))


B2_PASS = (3 * (_b2_quantile(1 / 8),)
           + tuple(_b2_quantile((i - 0.5) / 12) for i in range(4, 13)))
B2_ATTEMPTS = tuple(sorted(set(B2_PASS)))
B2_PER_ATTEMPTS = 4
B2_PASS_TINY = B2_PASS[:1]

SOLVE_Q = {
    "A2Q-E2": ("A", 2, (0, 1)),
    "A3Q-E2": ("A", 3, (0, 1)),
    "A4Q-E2": ("A", 4, (0, 1)),
    "A2Q-720720E1+E2": ("A", 2, (720720, 1)),
}
EVAL_Q = {
    "eval-A8Q": ("A", 8),
    "eval-D4Q": ("D", 4),
    "eval-B4Q": ("B", 4),
    "eval-G2Q": ("G", 2),
}
WSEARCH = ("wsearch-sl3", "wsearch-so5")
SAMPLED = "sampled-E2-A2F3"
SAMPLES = 10000

POOL_SIZES = {**{c: 200 for c in SOLVE_A}, **{c: 64 for c in SOLVE_Q},
              "A4Q-E2": 32, **{c: 64 for c in EVAL_Q},
              **{c: 64 for c in WSEARCH}, SAMPLED: 64}

# Ops drawn per pass: (full, tiny).  Each class is drawn often enough that the
# cost of a pass varies little with the seed.  images has one seeded sampled
# scan and four fixed ops, too few for percentiles: its op_p50_ms is the
# median op and its op_tail_ms the slowest.
DRAWS = {**{c: (60, 2) for c in SOLVE_A},
         "A2Q-E2": (16, 1), "A3Q-E2": (8, 1), "A4Q-E2": (4, 1),
         "A2Q-720720E1+E2": (8, 1),
         "eval-A8Q": (4, 1), "eval-D4Q": (6, 1), "eval-B4Q": (6, 1),
         "eval-G2Q": (20, 1),
         **{c: (4, 1) for c in WSEARCH}, SAMPLED: (1, 1)}

IDENTITY_EXACT = ("filippov", "razmyslov", "razmyslov_bracket")
IDENTITY_SHORTCUT = (2, 3, 4)          # E_m, degree m + 1 < 5 -> shortcut
WITNESS_FIXTURES = ("paper-a2", "paper-b2")


def load():
    """Import liemap (from whatever tree is first on sys.path)."""
    import liemap
    from liemap import chevalley, cli, fixtures, freelie, linalg, maps
    from liemap import matrixrep, rootsystem, scalar
    return {"liemap": liemap, "chevalley": chevalley, "cli": cli,
            "fixtures": fixtures, "freelie": freelie, "linalg": linalg,
            "maps": maps, "matrixrep": matrixrep, "rootsystem": rootsystem,
            "scalar": scalar}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def read_pool():
    with open(POOL_PATH) as fh:
        return json.load(fh)


class Op:
    """One call into the library.  ``run`` is timed; ``encode`` (the canonical
    JSON object, as the CLI would print it) and ``check`` are not."""

    __slots__ = ("kind", "key", "run", "check", "encode", "base", "forks")

    def __init__(self, kind, key, run, check=None, encode=None, base=0, forks=False):
        self.kind = kind          # op kind, e.g. "engel_solve"
        self.key = key            # pool key, e.g. "A2F5-E1/17"
        self.run = run
        self.check = check or (lambda out: True)
        self.encode = encode or (lambda out: out.to_json())
        self.base = base          # work units: Y values or scan assignments
        self.forks = forks        # runs in a pool of worker processes


class Lib:
    """The liemap modules, with fields and algebras built on demand."""

    def __init__(self):
        self.m = load()
        self._fields = {}

    def field(self, spec):
        if spec not in self._fields:
            self._fields[spec] = self.m["scalar"].make_field(spec)
        return self._fields[spec]

    def algebra(self, t, r, spec):
        return self.m["chevalley"].build_algebra(t, r, self.field(spec))


# -- input generation ------------------------------------------------------------


def _rng(cls, idx):
    return random.Random("%s/%d" % (cls, idx))


def _target(alg, cls, idx):
    """A random nonzero element: coefficients uniform in F_p, or in [-5, 5]
    over Q."""
    rng = _rng(cls, idx)
    p = alg.field.characteristic
    while True:
        x = alg.element_from_ints([rng.randrange(p) if p else rng.randint(-5, 5)
                                   for _ in range(alg.dim)])
        if not x.is_zero():
            return x


def _eval_inputs(lib, cls, idx):
    """A random combination of three fixed monomials of degree 3, 4 and 4 in
    three variables (coefficients in +-{1, 2, 3}), and three random elements
    with entries in [-3, 3].  Fixing the monomials fixes the size of the
    normal form, so the cost of an op varies little from one draw to another."""
    freelie = lib.m["freelie"]
    X1, X2, X3 = (freelie.Var(i) for i in (1, 2, 3))
    Br = freelie.Br
    monomials = (Br(Br(X1, X2), X3), Br(Br(Br(X1, X2), X3), X1),
                 Br(Br(X2, X3), Br(X1, X2)))
    t, r = EVAL_Q[cls]
    alg = lib.algebra(t, r, "Q")
    rng = _rng(cls, idx)
    terms = tuple((Fraction(rng.choice((-3, -2, -1, 1, 2, 3))), m) for m in monomials)
    P = freelie.LiePoly(freelie.Sum(terms), 3)
    xs = [alg.element_from_ints([rng.randint(-3, 3) for _ in range(alg.dim)])
          for _ in range(3)]
    return P, xs


# -- op constructors ---------------------------------------------------------------


def _solve_op(lib, key, alg, coeffs, target):
    maps, freelie = lib.m["maps"], lib.m["freelie"]
    P, spec = freelie.make_engel(coeffs)
    return Op("engel_solve", key,
              lambda: maps.engel_solve(alg, spec, target),
              lambda sol: freelie.evaluate(P, [sol.X, sol.Y]) == target)


def solve_a_op(lib, cls, idx):
    t, r, fs, coeffs = SOLVE_A[cls]
    alg = lib.algebra(t, r, fs)
    return _solve_op(lib, "%s/%d" % (cls, idx), alg, coeffs,
                     _target(alg, cls, idx))


def solve_b2_op(lib, pool, attempts, idx):
    alg = lib.algebra("B", 2, "F5")
    target = alg.element_from_ints(pool["b2_targets"][str(attempts)][idx])
    return _solve_op(lib, "%s/k%d/%d" % (B2_CLASS, attempts, idx), alg, (1,),
                     target)


def solve_q_op(lib, cls, idx):
    t, r, coeffs = SOLVE_Q[cls]
    alg = lib.algebra(t, r, "Q")
    return _solve_op(lib, "%s/%d" % (cls, idx), alg, coeffs,
                     _target(alg, cls, idx))


def eval_op(lib, cls, idx):
    """Evaluate P and its Lyndon normal form at the same point."""
    freelie = lib.m["freelie"]
    P, xs = _eval_inputs(lib, cls, idx)

    def run():
        nf = freelie.normal_form(P).to_lie_poly(P.nvars)
        return freelie.evaluate(P, xs), freelie.evaluate(nf, xs)

    return Op("evaluate", "%s/%d" % (cls, idx), run,
              lambda out: out[0] == out[1], lambda out: out[0].to_json())


def wsearch_op(lib, cls, idx):
    maps, fixtures = lib.m["maps"], lib.m["fixtures"]
    P = fixtures.load_poly("razmyslov_bracket")
    real, Q = cls.split("-")[1], lib.field("Q")
    return Op("dominance_witness_search", "%s/%d" % (cls, idx),
              lambda: maps.dominance_witness_search(P, real, Q, seed=idx),
              lambda res: res.status == "confirmed")


def _identity_op(lib, key, P):
    maps, Q = lib.m["maps"], lib.field("Q")
    return Op("is_identity_sl2", key,
              lambda: maps.is_identity_sl2(P, Q, mode="exact"),
              encode=lambda v: v.to_json(Q))


def identity_exact_op(lib, name):
    return _identity_op(lib, "identity-exact/" + name,
                        lib.m["fixtures"].load_poly(name))


def identity_shortcut_op(lib, m):
    return _identity_op(lib, "identity-shortcut/E%d" % m,
                        lib.m["freelie"].engel_monomial(m))


def witness_op(lib, key):
    maps, fixtures = lib.m["maps"], lib.m["fixtures"]
    P = fixtures.load_poly("razmyslov_bracket")
    _, t1, t2 = fixtures.load_witness_triples(key, lib.field("Q"))
    return Op("dominance_witness_check", "witness/" + key,
              lambda: maps.dominance_witness_check(P, t1, t2),
              lambda v: v.result == "confirmed")


def probe_op(lib):
    maps, alg = lib.m["maps"], lib.algebra("A", 2, "F3")
    return Op("central_image_probe", "probe-A2F3-m1..12",
              lambda: maps.central_image_probe(alg, range(1, 13), workers=2),
              lambda rep: rep.m0 == 3, base=3 ** alg.dim, forks=True)


def scan_op(lib, which):
    maps, alg = lib.m["maps"], lib.algebra("A", 1, "F7")
    P = lib.m["freelie"].engel_monomial(2) if which == "E2" else maps.example48_poly()
    return Op("image_scan", "scan-%s-A1F7" % which,
              lambda: maps.image_scan(alg, P, workers=2),
              base=(7 ** alg.dim) ** P.nvars, forks=True)


def sampled_op(lib, idx):
    maps, alg = lib.m["maps"], lib.algebra("A", 2, "F3")
    P = lib.m["freelie"].engel_monomial(2)
    return Op("image_scan", "%s/%d" % (SAMPLED, idx),
              lambda: maps.image_scan(alg, P, mode="sampled", seed=idx,
                                      workers=2, sample_count=SAMPLES),
              base=SAMPLES, forks=True)


def engel_scan_op(lib):
    maps, alg = lib.m["maps"], lib.algebra("A", 2, "F3")
    _, spec = lib.m["freelie"].make_engel((0, 1))
    return Op("engel_image_scan", "engel-scan-E2-A2F3",
              lambda: maps.engel_image_scan(alg, spec, workers=2),
              base=3 ** alg.dim)      # the library ignores workers here


def _fixed_exact_ops(lib):
    return ([identity_exact_op(lib, n) for n in IDENTITY_EXACT]
            + [identity_shortcut_op(lib, m) for m in IDENTITY_SHORTCUT]
            + [witness_op(lib, k) for k in WITNESS_FIXTURES])


_CLASS_OPS = {**{c: solve_a_op for c in SOLVE_A}, **{c: solve_q_op for c in SOLVE_Q},
              **{c: eval_op for c in EVAL_Q}, **{c: wsearch_op for c in WSEARCH},
              SAMPLED: lambda lib, cls, i: sampled_op(lib, i)}
_WORKLOAD_CLASSES = {
    "solve": tuple(SOLVE_A),
    "images": (SAMPLED,),
    "exact": WSEARCH + tuple(SOLVE_Q) + tuple(EVAL_Q),
}


# -- per-workload op lists ----------------------------------------------------------


def pool_ops(lib, pool, workload):
    """Every op of the workload's pools, in a fixed order (for recording)."""
    ops = []
    for cls in _WORKLOAD_CLASSES[workload]:
        ops += [_CLASS_OPS[cls](lib, cls, i) for i in range(POOL_SIZES[cls])]
    if workload == "solve":
        ops += [solve_b2_op(lib, pool, k, i)
                for k in B2_ATTEMPTS for i in range(B2_PER_ATTEMPTS)]
    elif workload == "images":
        ops += [probe_op(lib), scan_op(lib, "E2"), scan_op(lib, "ex48"),
                engel_scan_op(lib)]
    else:
        ops += _fixed_exact_ops(lib)
    return ops


def pass_ops(lib, pool, workload, seed, tiny=False):
    """The op list of one pass: drawn from the pools by the seed, shuffled."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    ops = []
    for cls in _WORKLOAD_CLASSES[workload]:
        picks = rng.sample(range(POOL_SIZES[cls]), DRAWS[cls][1 if tiny else 0])
        ops += [_CLASS_OPS[cls](lib, cls, i) for i in sorted(picks)]
    if workload == "solve":
        wanted = Counter(B2_PASS_TINY if tiny else B2_PASS)
        for k, count in sorted(wanted.items()):
            ops += [solve_b2_op(lib, pool, k, i)
                    for i in sorted(rng.sample(range(B2_PER_ATTEMPTS), count))]
    elif workload == "images":
        ops.append(scan_op(lib, "E2"))
        if not tiny:
            ops += [probe_op(lib), scan_op(lib, "ex48"), engel_scan_op(lib)]
    else:
        ops += _fixed_exact_ops(lib)
    rng.shuffle(ops)
    return ops


# -- set-up ------------------------------------------------------------------------

ALGEBRAS = {
    "solve": (("A", 2, "F5"), ("A", 2, "F7"), ("A", 3, "F5"), ("B", 2, "F5")),
    "images": (("A", 2, "F3"), ("A", 1, "F7")),
    "exact": (("A", 2, "Q"), ("A", 3, "Q"), ("A", 4, "Q"), ("A", 8, "Q"),
              ("D", 4, "Q"), ("B", 4, "Q"), ("G", 2, "Q")),
}


def warmup_ops(lib, pool, workload):
    """One op per algebra and op kind, on the smallest instance of its kind.
    The probe has no instance smaller than a timed one, so it has none."""
    if workload == "solve":
        return ([solve_a_op(lib, cls, 0) for cls in SOLVE_A]
                + [solve_b2_op(lib, pool, B2_ATTEMPTS[0], 0)])
    if workload == "images":
        maps, freelie = lib.m["maps"], lib.m["freelie"]
        a17 = lib.algebra("A", 1, "F7")
        E2 = freelie.engel_monomial(2)
        _, spec = freelie.make_engel((0, 1))
        return [Op("image_scan", "warmup-sampled-A1F7",
                   lambda: maps.image_scan(a17, E2, mode="sampled", seed=0,
                                           sample_count=100, workers=2)),
                Op("engel_image_scan", "warmup-engel-scan-A1F7",
                   lambda: maps.engel_image_scan(a17, spec, workers=2))]
    return ([identity_exact_op(lib, IDENTITY_EXACT[0]),
             identity_shortcut_op(lib, IDENTITY_SHORTCUT[0]),
             witness_op(lib, WITNESS_FIXTURES[0])]
            + [_CLASS_OPS[cls](lib, cls, 0) for cls in _WORKLOAD_CLASSES["exact"]])


def setup(lib, pool, workload, mark=lambda label: None):
    """Build every algebra the workload uses (construction with its Jacobi
    sweep, then the centre) and run the warm-up ops, which also fill the
    lazily built matrix realizations.  ``mark`` is told what comes next."""
    for t, r, fs in ALGEBRAS[workload]:
        mark("%s%d/%s" % (t, r, fs))
        lib.algebra(t, r, fs).center()
    mark("warmup")
    for op in warmup_ops(lib, pool, workload):
        op.check(op.run())
