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


# What `import liemap` loads beyond a bare interpreter.  peak_rss_mb counts
# every loaded module, so adding one must be a visible edit here.
IMPORTED_MODULES = {
    "__future__", "_blake2", "_decimal", "_hashlib", "_json", "decimal",
    "fractions", "hashlib", "json", "json.decoder", "json.encoder",
    "json.scanner", "liemap", "liemap.chevalley", "liemap.freelie",
    "liemap.errors", "liemap.linalg", "liemap.maps", "liemap.matrixrep",
    "liemap.rootsystem", "liemap.scalar", "liemap.sl2", "numbers",
}


def test_import_loads_no_new_modules():
    src = os.path.join(os.path.dirname(os.path.dirname(TRACER)), "src")
    code = ("import sys; before = set(sys.modules); import liemap; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "liemap.scalar" in loaded
    assert loaded <= IMPORTED_MODULES, sorted(loaded - IMPORTED_MODULES)


def test_only_freelie_walks_the_tree():
    # freelie.walk is the one recursion that evaluates a polynomial: a module
    # that needs the node classes is about to grow a second one
    src = os.path.join(os.path.dirname(os.path.dirname(TRACER)), "src", "liemap")
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "freelie.py":
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not imported & {"Var", "Br", "Sum"}, name


def test_only_rootsystem_reads_the_gram_form():
    # the root datum (beta(h_i), lengths, coroots) is tabulated once in
    # rootsystem.py; a module that reads the Gram form is about to recompute it
    src = os.path.join(os.path.dirname(os.path.dirname(TRACER)), "src", "liemap")
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "rootsystem.py":
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr != "gram", (name, node.lineno)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr != "inner", (name, node.lineno)


def test_no_module_exceeds_32_kib():
    # a run from a fresh checkout compiles liemap from source, and the
    # largest compile() peak (+2.25 MB for a 32.7 KB module) sets the
    # process's RSS floor; a module past this size is split, or its rarely
    # used part moves to a module loaded on first use (as lanes.py is)
    src = os.path.join(os.path.dirname(os.path.dirname(TRACER)), "src", "liemap")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            size = os.path.getsize(os.path.join(src, name))
            assert size <= 32 * 1024, (name, size)

