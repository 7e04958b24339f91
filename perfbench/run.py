"""liemap benchmark: one command, three workloads, outputs checked.

    python3 perfbench/run.py --workload solve|images|exact --seed N \\
        --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source checkout; liemap is imported from ./src.
Each workload runs in its own process as a closed loop with one client; only
``images`` forks, through the library's own ``workers=2``.  The run:

1. times set-up five times (once at the tiny size), each in a fresh
   interpreter; ``setup_s`` is their median;
2. runs passes over the seed's op list until ``--seconds`` have passed, and
   at least two, checking every op's output against the digest recorded in
   data/pool.json;
3. runs the fixed CLI invocations once, untimed, and compares the digests of
   their stdout bytes.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
traces the same passes (after one untraced pass) and reports the per-layer
metrics and the tracing overhead.

Each op's latency is its median over the passes, divided by the machine's
slowdown at the time: a fixed piece of pure-Python work that does not touch
liemap (child.calibration_sample) is timed between ops, and the slowdown is
its median time near the op over its time on an idle machine.  On a shared
VM the speed of the same code drifts by tens of percent between runs; the
scaled times drift far less.  Set-up runs are scaled the same way.  The ops
of ``images`` run in forked workers, whose speed the samples did not track,
so its op times are not scaled.  The raw times are in the report line, and
the traced run gives them as per-layer metrics (``uncalibrated.*``, with
``calibration.slowdown``), so a change that moves the calibration sample as
well as liemap can be seen.  Every line but the last is a report with the
details (environment, failures, percentile bases, absent metrics); the last
line is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
POOL = os.path.join(HERE, "data", "pool.json")
TIME_LIMIT_S = 170.0
SETUP_RUNS = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MiB"}
SETUP_LAYER_UNITS = {"chevalley.ChevalleyAlgebra.init.ms": "ms",
                     "chevalley.center.ms": "ms", "linalg.kernel_basis.ms": "ms",
                     "rootsystem.build_root_system.ms": "ms"}


def layer_unit(name):
    last = name.rsplit(".", 1)[1]
    return {"calls": "count", "attempts": "count", "hit_ratio": "ratio",
            "calls_per_conjugation": "calls/conj", "s": "s", "ms": "ms",
            "self_ms": "ms", "ms_per_call": "ms", "us_per_call": "us",
            "us_per_y": "us", "us_per_assignment": "us"}[last]


class HarnessError(Exception):
    pass


def call_child(args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError("time limit reached before %s" % args[0])
    try:
        proc = subprocess.run([sys.executable, CHILD] + args, cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise HarnessError("child %s timed out" % args[0])
    if proc.returncode != 0:
        raise HarnessError("child %s exited %d: %s" % (
            args[0], proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- environment ---------------------------------------------------------------------


def git_sha():
    """HEAD of ./.git if the checkout is a git repository, read from its files."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the paths and bytes of every file under src/liemap."""
    h = hashlib.sha256()
    base = os.path.join(ROOT, "src", "liemap")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_caches():
    # glibc sysconf names _SC_LEVEL1_ICACHE_SIZE .. _SC_LEVEL3_CACHE_SIZE
    out = {}
    for name, code in (("L1i", 185), ("L1d", 188), ("L2", 191), ("L3", 194)):
        try:
            out[name] = os.sysconf(code)
        except (OSError, ValueError):
            out[name] = None
    return out


def environment():
    return {"git_sha": git_sha(), "source_sha256": source_digest(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "cpu_cache_bytes": cpu_caches(), "machine": platform.machine()}


# -- run -------------------------------------------------------------------------------


def run(args):
    deadline = time.monotonic() + TIME_LIMIT_S
    with open(POOL) as fh:
        pool = json.load(fh)
    wl_args = ["--workload", args.workload]
    trace = ["--trace"] if args.trace else []
    tiny = ["--tiny"] if args.size == "tiny" else []

    setups = [call_child(["setup"] + wl_args + trace, deadline)
              for _ in range(1 if args.size == "tiny" else SETUP_RUNS)]
    # the traced run reports its untraced set-up time too, unscaled
    plain_setup = call_child(["setup"] + wl_args, deadline) if args.trace else None
    measured = call_child(["measure"] + wl_args + trace + tiny +
                          ["--seed", str(args.seed), "--seconds", str(args.seconds)],
                          deadline)
    gate = call_child(["gate"], deadline)

    failures = [{"op": key, "why": why} for key, why in measured["failures"]]
    for name, want in pool["gate"].items():
        got = gate.get(name, {})
        if got.get("rc") != 0 or got.get("digest") != want:
            failures.append({"op": "cli: " + name,
                             "why": "rc %s, stdout digest %s, recorded %s"
                                    % (got.get("rc"), got.get("digest"), want)})
    attempted = measured["attempted"] + len(pool["gate"])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": environment(),
        "recorded_source_sha256": pool["source_sha256"],
        "ops_per_pass": measured["ops_per_pass"], "op_kinds": measured["op_kinds"],
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failed_frac_base": "%d ops and CLI invocations" % attempted,
        "failures": failures,
        "cli_gate": {name: gate.get(name, {}).get("digest") == want
                     for name, want in pool["gate"].items()},
        "algebra_cache_entries": measured["algebra_cache_entries"],
        "setup_runs": [s["setup_s"] for s in setups],
    }
    sane = True
    if args.trace:
        metrics, sane = trace_metrics(measured, setups, plain_setup, report)
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] / s["slowdown"] for s in setups),
            "wall_s": measured["wall_s"],
            "op_p50_ms": measured["op_p50_ms"],
            "op_tail_ms": measured["op_tail_ms"],
            "peak_rss_mb": max(measured["rss_self_mb"], measured["rss_children_mb"]),
        }
        report.update({"op_tail": measured["op_tail"],
                       "slowdown": measured["slowdown"],
                       "raw": {"setup_s": statistics.median(s["setup_s"] for s in setups),
                               "setup_slowdown": [s["slowdown"] for s in setups],
                               **measured["raw"]},
                       "rss_self_mb": measured["rss_self_mb"],
                       "rss_children_mb": measured["rss_children_mb"]})
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    print(json.dumps(report, sort_keys=True))
    return {"correct": not failures and sane, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def trace_metrics(measured, setups, plain_setup, report):
    """Per-layer metrics: counts from the first traced pass (checked to repeat
    in the others), times as medians over traced passes; set-up layers from
    the traced set-up runs; tracing overhead from the untraced pass.  The
    untraced pass and set-up run also give the end-to-end times without the
    calibration scaling, and the slowdown they were scaled by."""
    layers = measured["layers"]
    metrics, absent, mismatched = {}, {}, []
    for name in layers[0]:
        values = [lay[name] for lay in layers]
        if values[0] is None:
            absent[name] = "no calls on this workload"
            value = 0
        elif name.endswith((".calls", ".attempts")):
            value = values[0]
            if any(v != value for v in values):
                mismatched.append(name)
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    for name, unit in SETUP_LAYER_UNITS.items():
        metrics[name] = {"value": statistics.median(s["layers"][name] for s in setups),
                         "unit": unit}
    for name, value in measured["uncalibrated"].items():
        metrics["uncalibrated." + name] = {"value": value,
                                           "unit": END_TO_END_UNITS[name]}
    metrics["uncalibrated.setup_s"] = {"value": plain_setup["setup_s"], "unit": "s"}
    metrics["calibration.slowdown"] = {"value": measured["slowdown"], "unit": "ratio"}
    overhead = measured["traced_wall_s"] - measured["untraced_wall_s"]
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    solve_spans = layers[0]["maps.engel_solve.calls"]
    checks = {
        "engel_solve_spans_equal_solve_ops": solve_spans == measured["solve_ops"],
        "counts_repeat_across_traced_passes": not mismatched,
    }
    report.update({
        "absent": absent, "counts_not_repeating": mismatched,
        "ratio_bases": {"work units per op kind, first traced pass": measured["bases"],
                        "per-call ratios": "divided by the matching .calls count"},
        "traced_passes": len(layers), "span_checks": checks,
        "untraced_wall_s": measured["untraced_wall_s"],
        "traced_wall_s": measured["traced_wall_s"],
        "repeat_counts": {n: layers[0][n] for n in
                          ("chevalley.root_automorphism.calls", "linalg.mat_mul.calls",
                           "scalar.FpElement.mul.calls")},
        "setup_per_algebra_ms": setups[0]["per_algebra_ms"],
    })
    return metrics, all(checks.values())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["solve", "images", "exact"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args(argv)
    missing = [p for p in (os.path.join(ROOT, "src", "liemap", "__init__.py"), POOL)
               if not os.path.exists(p)]
    if missing:
        print("run.py: not a liemap checkout, missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except HarnessError as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
