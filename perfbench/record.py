"""Regenerate ``perfbench/data``: the B2 targets, the CLI gate targets and the
digest of every pool op's output and of every gate invocation's stdout.

    python3 perfbench/record.py

Run it only to re-baseline the benchmark on purpose: the digests it writes
are what every later run is checked against.  It takes a few minutes.
"""

from __future__ import annotations

import json
import os
import random
import sys

import child
import workloads as wl
from run import source_digest


def b2_targets(lib):
    """Targets of E_1 on B2/F5 sorted by the number of search attempts that
    engel_solve(seed=0) needs for them.

    The solver's search draws the same words g_1, g_2, ... for every target
    (random.Random(seed), 2|R+| root automorphisms per word) and stops at the
    first g_k that clears the H-part of the target.  The H-rows of g_k are
    computed once here, and random targets are sorted by the first k whose
    rows annihilate them."""
    alg = lib.algebra("B", 2, "F5")
    p, roots = alg.field.modulus, alg.rs.roots
    steps = 2 * len(alg.rs.positive_roots)
    rng = random.Random(0)
    h_rows = []
    for _ in range(max(wl.B2_ATTEMPTS)):
        g = alg.identity_automorphism()
        for _ in range(steps):
            b = roots[rng.randrange(len(roots))]
            t = alg.field.from_int(rng.randrange(1, p))
            g = alg.root_automorphism(b, t).compose(g)
        h_rows.append([[c.val for c in g.matrix[i]] for i in range(alg.rank)])

    def attempts(v):
        if not any(v[:alg.rank]):
            return 0                         # already in U: no search at all
        for k, rows in enumerate(h_rows, start=1):
            if all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows):
                return k
        return None

    found = {k: [] for k in wl.B2_ATTEMPTS}
    cand = random.Random("%s/candidates" % wl.B2_CLASS)
    while any(len(v) < wl.B2_PER_ATTEMPTS for v in found.values()):
        v = [cand.randrange(p) for _ in range(alg.dim)]
        k = attempts(v)
        if k in found and len(found[k]) < wl.B2_PER_ATTEMPTS:
            found[k].append(v)
    return {str(k): v for k, v in found.items()}


def check_b2_attempts(lib, pool):
    """Each stored target must cost exactly 2|R+| root automorphisms per
    attempt; a mismatch means the solver's search changed."""
    chev = lib.m["chevalley"]
    orig = chev.ChevalleyAlgebra.root_automorphism
    calls = [0]

    def counted(self, *a, **k):
        calls[0] += 1
        return orig(self, *a, **k)

    chev.ChevalleyAlgebra.root_automorphism = counted
    try:
        for k in wl.B2_ATTEMPTS:
            for i in range(wl.B2_PER_ATTEMPTS):
                op = wl.solve_b2_op(lib, pool, k, i)
                calls[0] = 0
                op.check(op.run())
                if calls[0] != 8 * k:
                    raise SystemExit("B2 target k=%d/%d made %d root automorphisms"
                                     % (k, i, calls[0]))
    finally:
        chev.ChevalleyAlgebra.root_automorphism = orig


def main():
    lib = child.load_lib()
    os.makedirs(child.DATA, exist_ok=True)
    pool = {"source_sha256": source_digest(),
            "b2_targets": b2_targets(lib)}
    check_b2_attempts(lib, pool)

    # the engel-solve invocations of the gate read their targets from files
    a2 = lib.algebra("A", 2, "F5")
    b2 = lib.algebra("B", 2, "F5")
    gate_targets = {
        "target_A2F5.json": wl._target(a2, "A2F5-E2", 0).to_json(),
        "target_B2F5.json": b2.element_from_ints(pool["b2_targets"]["3"][0]).to_json(),
    }
    for name, obj in gate_targets.items():
        with open(os.path.join(child.DATA, name), "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")

    digests = {}
    for workload in wl.WORKLOADS:
        for op in wl.pool_ops(lib, pool, workload):
            out = op.run()
            if not op.check(out):
                raise SystemExit("op %s fails its check" % op.key)
            digests[op.key] = wl.digest(op.encode(out))
        print("recorded", workload, file=sys.stderr)
    pool["digests"] = digests
    gate = child.run_gate(lib)
    bad = [name for name, g in gate.items() if g["rc"] != 0]
    if bad:
        raise SystemExit("gate invocations failed: %s" % bad)
    pool["gate"] = {name: g["digest"] for name, g in gate.items()}
    with open(wl.POOL_PATH, "w") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
