"""Child processes of the liemap benchmark; ``run.py`` starts them.

    python3 perfbench/child.py setup   --workload W [--trace]
    python3 perfbench/child.py measure --workload W --seed N --seconds S [--trace] [--tiny]
    python3 perfbench/child.py gate

Each prints one JSON object on its last stdout line.  ``setup`` times, in a
fresh interpreter, the import of liemap, the construction of every algebra
the workload uses and one warm-up op of each kind.  ``measure`` sets up the
same way, untimed, then runs passes over the workload's op list as a closed
loop with one client.  ``gate`` runs the fixed CLI invocations in-process and
digests their stdout bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

DATA = os.path.join(HERE, "data")
# ROADMAP's fixed end-to-end invocations, digested on their stdout bytes.
GATE = (
    ("algebra A8/Q", ["algebra", "--type", "A", "--rank", "8", "--field", "Q"]),
    ("engel-solve A2/F5", ["engel-solve", "--algebra", "A2", "--field", "F5",
                           "--coeffs", "0,1", "--target",
                           os.path.join(DATA, "target_A2F5.json")]),
    ("engel-solve B2/F5", ["engel-solve", "--algebra", "B2", "--field", "F5",
                           "--coeffs", "1", "--target",
                           os.path.join(DATA, "target_B2F5.json")]),
    ("central-probe A2/F3 m=1..12", ["central-probe", "--algebra", "A2", "--field",
                                     "F3", "--m-from", "1", "--m-to", "12",
                                     "--workers", "2"]),
    ("scan E2 A1/F5", ["scan", "--poly", "[[X1,X2],X2]", "--algebra", "A1",
                       "--field", "F5", "--mode", "exhaustive"]),
    ("identity filippov Q", ["identity", "--poly", "@filippov.lie", "--field", "Q",
                             "--mode", "exact"]),
    ("witness paper-a2", ["witness", "--realization", "sl3", "--fixtures",
                          "paper-a2"]),
)


def load_lib():
    lib = wl.Lib()
    path = os.path.abspath(lib.m["liemap"].__file__)
    if not path.startswith(os.path.join(SRC, "liemap") + os.sep):
        raise SystemExit("liemap was imported from %s, not from %s" % (path, SRC))
    return lib


# -- machine-speed calibration ---------------------------------------------------------

# Nominal time of one calibration sample, about its median on a shared 2-vCPU
# Xeon VM under Python 3.11.  Calibrated times are scaled to that speed.
CAL_REF_S = 0.004
CAL_EVERY_S = 0.25
CAL_WINDOW_S = 1.0
CAL_NEAREST = 5
# Each op's latency is its median over at least this many passes, even when
# one pass (about 17 s on solve) outlasts --seconds.
MIN_PASSES = 2


# Entries above 256, so that products allocate int objects as the library's
# scalar arithmetic does; ints are not tracked by the garbage collector.
_CAL_MATRIX = [[1000 + (3 * i + j) % 7 for j in range(8)] for i in range(8)]
_CAL_COUNTS = [0] * 97


def calibration_sample():
    """Seconds taken by a fixed piece of pure-Python work that does not touch
    liemap: 8x8 integer matrix products mod a prime, and list updates.  It
    creates no object the garbage collector tracks, so the collector's
    settings and the size of the live heap do not change its time."""
    A, counts = _CAL_MATRIX, _CAL_COUNTS
    t0 = perf_counter()
    for _ in range(12):
        for i in range(8):
            Ai = A[i]
            for j in range(8):
                acc = Ai[0] * A[0][j]
                for k in range(1, 8):
                    acc = (acc + Ai[k] * A[k][j]) % 7919
        for i in range(2000):
            counts[i * 31 % 97] = (counts[i * 31 % 97] + i) % 7919
    return perf_counter() - t0


class Calibrator:
    """Samples machine speed between ops, at most every CAL_EVERY_S."""

    def __init__(self):
        self.samples = []          # (time, seconds)
        self._last = float("-inf")

    def sample(self, force=False):
        now = perf_counter()
        if force or now - self._last >= CAL_EVERY_S:
            self.samples.append((now, calibration_sample()))
            self._last = perf_counter()

    def slowdown(self, t, seconds):
        """Median sample near an op that started at t and took ``seconds``,
        over CAL_REF_S.  Near means within max(CAL_WINDOW_S, 2 * seconds) of
        the op, so a long op is compared with a long stretch of samples; if
        that holds fewer than CAL_NEAREST samples, the CAL_NEAREST nearest."""
        w = max(CAL_WINDOW_S, 2 * seconds)
        near = [d for s, d in self.samples if t - w <= s <= t + seconds + w]
        if len(near) < CAL_NEAREST:
            near = [d for _, d in sorted(self.samples,
                                         key=lambda s: abs(s[0] - t))[:CAL_NEAREST]]
        return statistics.median(near) / CAL_REF_S


# -- gate ------------------------------------------------------------------------


def run_gate(lib):
    cli = lib.m["cli"]
    out = {}
    for name, argv in GATE:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        out[name] = {"rc": rc, "digest": wl.digest(buf.getvalue())}
    return out


# -- set-up ------------------------------------------------------------------------


def setup_role(args):
    pool = wl.read_pool()
    cal = Calibrator()
    for _ in range(CAL_NEAREST):
        cal.sample(force=True)
    t0 = perf_counter()
    lib = load_lib()
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
        tr.active = True

    def mark(label):
        if tr is not None:
            tr.op = label

    wl.setup(lib, pool, args.workload, mark)
    setup_s = perf_counter() - t0
    if tr is not None:
        tr.active = False
    for _ in range(CAL_NEAREST):
        cal.sample(force=True)
    slowdown = statistics.median(d for _, d in cal.samples) / CAL_REF_S
    result = {"setup_s": setup_s, "slowdown": slowdown}
    if tr is not None:
        per_algebra = {}
        for name, t_start, t_end, _, label in tr.spans:
            if name in SETUP_SPANS:
                entry = per_algebra.setdefault(label, {})
                entry[name] = entry.get(name, 0.0) + (t_end - t_start) * 1e3
        result["per_algebra_ms"] = per_algebra
        result["layers"] = {
            metric: sum(v.get(name, 0.0) for v in per_algebra.values())
            for metric, name in SETUP_METRICS.items()}
    return result


SETUP_METRICS = {
    "chevalley.ChevalleyAlgebra.init.ms": "chevalley.ChevalleyAlgebra.init",
    "chevalley.center.ms": "chevalley.center",
    "linalg.kernel_basis.ms": "linalg.kernel_basis",
    "rootsystem.build_root_system.ms": "rootsystem.build_root_system",
}
SETUP_SPANS = set(SETUP_METRICS.values())


# -- measured passes -------------------------------------------------------------------


def run_pass(ops, digests, cal, tr=None, scale=True):
    """Run every op once.  Only ``op.run()`` is timed; checks and calibration
    samples run between ops.  Without ``scale`` the calibrated latencies are
    the raw ones."""
    lat, starts, failures = [], [], []
    bases = Counter()
    for i, op in enumerate(ops):
        cal.sample()
        if tr is not None:
            tr.op = i
            tr.active = True
        t0 = perf_counter()
        starts.append(t0)
        try:
            out = op.run()
        except Exception as e:    # an op that raises is a failed op
            lat.append(perf_counter() - t0)
            failures.append((op.key, "raised %s: %s" % (type(e).__name__, e)))
            continue
        finally:
            if tr is not None:
                tr.active = False
        lat.append(perf_counter() - t0)
        try:
            ok = op.check(out)
            got = wl.digest(op.encode(out))
        except Exception as e:
            failures.append((op.key, "check raised %s: %s" % (type(e).__name__, e)))
            continue
        want = digests.get(op.key)
        if not ok:
            failures.append((op.key, "output fails its check"))
        elif got != want:
            failures.append((op.key, "digest %s, recorded %s" % (got, want)))
        bases[op.kind] += op.base
        if op.kind == "dominance_witness_search":
            bases["search.attempts"] += out.attempts
            bases["search.confirmed"] += out.status == "confirmed"
    cal.sample(force=True)
    cal_lat = [x / cal.slowdown(t, x) for x, t in zip(lat, starts)] if scale else lat
    return {"raw_wall_s": sum(lat), "lat": cal_lat, "raw_lat": lat,
            "failures": failures, "bases": bases}


def op_stats(passes, key):
    """wall_s, op_p50_ms and op_tail_ms of the op list, from each op's median
    latency over the passes.  op_tail_ms is the highest percentile with at
    least ten ops beyond it; with ten ops or fewer, the slowest op."""
    n = len(passes[0][key])
    per_op = sorted(statistics.median(p[key][i] for p in passes) for i in range(n))
    rank = n - 11 if n > 10 else n - 1
    return {"wall_s": sum(per_op), "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_tail_ms": per_op[rank] * 1e3}, {
                "percentile": 100.0 * (rank + 1) / n, "ops": n,
                "ops_beyond": n - rank - 1, "passes": len(passes)}


def layer_metrics(spans, counts, bases):
    """Per-layer values of one traced pass; None where nothing ran."""
    s = tracing.summarize(spans)

    def calls(n):
        return s[n][0] if n in s else 0

    def total(n, scale=1.0):
        return s[n][1] * scale if n in s else None

    def own(n, scale=1e3):
        return s[n][2] * scale if n in s else None

    def per(num, den):
        return num / den if num is not None and den else None

    # root automorphisms per conjugation that used any
    by_conj = Counter()
    for i, sp in enumerate(spans):
        if sp[0] == "chevalley.root_automorphism":
            by_conj[tracing.nearest_ancestor(spans, i, "chevalley.conjugate_into_U")] += 1
    ra = "chevalley.root_automorphism"
    return {
        "maps.engel_solve.calls": calls("maps.engel_solve"),
        "maps.engel_solve.self_ms": own("maps.engel_solve"),
        "maps.central_image_probe.s": total("maps.central_image_probe"),
        "maps.probe.us_per_y": per(total("maps.central_image_probe", 1e6),
                                   bases["central_image_probe"]),
        "maps.image_scan.s": total("maps.image_scan"),
        "maps.image_scan.us_per_assignment": per(total("maps.image_scan", 1e6),
                                                 bases["image_scan"]),
        "maps.engel_image_scan.s": total("maps.engel_image_scan"),
        "maps.engel_image_scan.us_per_y": per(total("maps.engel_image_scan", 1e6),
                                              bases["engel_image_scan"]),
        "maps.is_identity_sl2.ms_per_call": per(total("maps.is_identity_sl2", 1e3),
                                                calls("maps.is_identity_sl2")),
        "maps.dominance_witness_check.ms_per_call": per(
            total("maps.dominance_witness_check", 1e3),
            calls("maps.dominance_witness_check")),
        "maps.dominance_witness_search.attempts": bases["search.attempts"],
        "maps.dominance_witness_search.hit_ratio": per(bases["search.confirmed"],
                                                       bases["search.attempts"]),
        "chevalley.conjugate_into_U.calls": calls("chevalley.conjugate_into_U"),
        "chevalley.conjugate_into_U.self_ms": own("chevalley.conjugate_into_U"),
        "chevalley.conjugate_into_U.ms_per_call": per(
            total("chevalley.conjugate_into_U", 1e3), calls("chevalley.conjugate_into_U")),
        "chevalley.root_automorphism.calls": calls(ra),
        "chevalley.root_automorphism.ms_per_call": per(total(ra, 1e3), calls(ra)),
        "chevalley.root_automorphism.calls_per_conjugation": per(calls(ra), len(by_conj)),
        "chevalley.LieAutomorphism.compose.calls": calls("chevalley.LieAutomorphism.compose"),
        "chevalley.LieAutomorphism.compose.ms": total("chevalley.LieAutomorphism.compose", 1e3),
        "chevalley.LieAutomorphism.apply.calls": calls("chevalley.LieAutomorphism.apply"),
        "chevalley.find_regular.ms_per_call": per(total("chevalley.find_regular", 1e3),
                                                  calls("chevalley.find_regular")),
        "chevalley.is_central.calls": calls("chevalley.is_central"),
        "chevalley.bracket.calls": calls("chevalley.bracket"),
        "chevalley.bracket.us_per_call": per(total("chevalley.bracket", 1e6),
                                             calls("chevalley.bracket")),
        "linalg.mat_mul.calls": calls("linalg.mat_mul"),
        "linalg.mat_mul.us_per_call": per(total("linalg.mat_mul", 1e6),
                                          calls("linalg.mat_mul")),
        "linalg.mat_mul.self_ms": own("linalg.mat_mul"),
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.rref.us_per_call": per(total("linalg.rref", 1e6), calls("linalg.rref")),
        "linalg.solve.calls": calls("linalg.solve"),
        "linalg.mat_vec.calls": calls("linalg.mat_vec"),
        "matrixrep.Realization.matrix_coords.calls": calls("matrixrep.Realization.matrix_coords"),
        "matrixrep.Realization.matrix_coords.us_per_call": per(
            total("matrixrep.Realization.matrix_coords", 1e6),
            calls("matrixrep.Realization.matrix_coords")),
        "matrixrep.char_invariants.ms_per_call": per(total("matrixrep.char_invariants", 1e3),
                                                     calls("matrixrep.char_invariants")),
        "matrixrep.theta_separates.calls": calls("matrixrep.theta_separates"),
        "freelie.evaluate.calls": calls("freelie.evaluate"),
        "freelie.evaluate.self_ms": own("freelie.evaluate"),
        "freelie.normal_form.ms_per_call": per(total("freelie.normal_form", 1e3),
                                               calls("freelie.normal_form")),
        "freelie.EngelSpec.roots_in.ms_per_call": per(total("freelie.EngelSpec.roots_in", 1e3),
                                                      calls("freelie.EngelSpec.roots_in")),
        "scalar.FpElement.mul.calls": counts["scalar.FpElement.mul"],
        "scalar.FpElement.add.calls": counts["scalar.FpElement.add"],
    }


def measure_role(args):
    pool = wl.read_pool()
    lib = load_lib()
    wl.setup(lib, pool, args.workload)
    ops = wl.pass_ops(lib, pool, args.workload, args.seed, tiny=args.tiny)
    digests = pool["digests"]
    cal = Calibrator()
    # The samples time this process.  They did not track the speed of ops
    # that run in forked workers (on images the scaled times spread twice as
    # much as the raw ones), so a workload with such ops is not scaled.
    scale = not any(op.forks for op in ops)
    deadline = perf_counter() + args.seconds
    result = {"ops_per_pass": len(ops),
              "op_kinds": dict(Counter(op.kind for op in ops))}
    if args.trace:
        # one untraced pass for the overhead, then at least two traced ones
        base = run_pass(ops, digests, cal, scale=scale)
        tr = tracing.Tracer()
        tr.install()
        passes, layers = [], []
        while len(passes) < MIN_PASSES or perf_counter() < deadline:
            tr.reset()
            p = run_pass(ops, digests, cal, tr, scale)
            layers.append(layer_metrics(tr.spans, tr.counts, p["bases"]))
            passes.append(p)
        tr.uninstall()
        all_passes = [base] + passes
        result["layers"] = layers
        result["bases"] = dict(passes[0]["bases"])
        result["untraced_wall_s"] = base["raw_wall_s"]
        result["uncalibrated"], _ = op_stats([base], "raw_lat")
        result["traced_wall_s"] = statistics.median(p["raw_wall_s"] for p in passes)
        result["solve_ops"] = sum(op.kind == "engel_solve" for op in ops)
    else:
        passes = []
        while len(passes) < MIN_PASSES or perf_counter() < deadline:
            passes.append(run_pass(ops, digests, cal, scale=scale))
        all_passes = passes
        stats, result["op_tail"] = op_stats(passes, "lat")
        result.update(stats)
        result["raw"], _ = op_stats(passes, "raw_lat")
    result["slowdown"] = statistics.median(d for _, d in cal.samples) / CAL_REF_S
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update({
        "attempted": sum(len(p["lat"]) for p in all_passes),
        "failures": [f for p in all_passes for f in p["failures"]],
        "rss_self_mb": self_kb / 1024.0,
        "rss_children_mb": child_kb / 1024.0,
        "algebra_cache_entries": len(getattr(lib.m["chevalley"], "_ALGEBRA_CACHE", ())),
    })
    return result


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=["setup", "measure", "gate"])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    if args.role == "setup":
        result = setup_role(args)
    elif args.role == "measure":
        result = measure_role(args)
    else:
        result = run_gate(load_lib())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
