"""The benchmark's span tracer (perfbench/tracer.py) wraps liemap functions
by name; a name that no longer resolves would break `run.py --trace 1`."""

import ast
import importlib
import json
import os
import subprocess
import sys

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _traced_names():
    """SPANS and COUNTERS, read from the tracer's source without running it."""
    with open(TRACER) as fh:
        tree = ast.parse(fh.read(), TRACER)
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("SPANS", "COUNTERS")}
    names = [(mod, cls, attr) for _, mod, cls, attr in tables["SPANS"]]
    names += [(mod, cls, attr) for _, mod, cls, attrs in tables["COUNTERS"]
              for attr in attrs]
    return names


def test_traced_names_resolve_in_liemap():
    names = _traced_names()
    assert len(names) > 20
    for mod, cls, attr in names:
        owner = importlib.import_module("liemap." + mod)
        if cls is not None:
            owner = getattr(owner, cls, None)
        assert callable(getattr(owner, attr, None)), (mod, cls, attr)


def test_benchmark_gate_digests_hold():
    # perfbench/child.py gate digests the stdout of ROADMAP's fixed CLI
    # invocations; each must exit 0 with the digest the pool records
    perfbench = os.path.dirname(TRACER)
    proc = subprocess.run([sys.executable, os.path.join(perfbench, "child.py"), "gate"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    gate = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(perfbench, "data", "pool.json")) as fh:
        expected = json.load(fh)["gate"]
    assert len(expected) == 7 and set(gate) == set(expected)
    for name, digest in expected.items():
        assert gate[name] == {"rc": 0, "digest": digest}, name
