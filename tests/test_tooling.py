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


def test_only_chevalley_applies_root_elements():
    # x_beta(t) runs in one place, ChevalleyAlgebra._root_element_row, from
    # the integral divided powers; a module that reads them is about to grow
    # a second root-element path
    from liemap.chevalley import ChevalleyAlgebra
    assert not hasattr(ChevalleyAlgebra, "_root_element_times")
    powers = {"_z_powers", "_integral_divided_powers"}
    src = os.path.join(os.path.dirname(os.path.dirname(TRACER)), "src", "liemap")
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            used = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, ast.alias) else None)
            assert used != "_root_element_times", (name, node.lineno)
            if name != "chevalley.py":
                assert used not in powers, (name, getattr(node, "lineno", None))


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


def test_sl2_keeps_no_bracket_of_its_own():
    # sl(2) is A_1: its brackets come from A_1's integer table through
    # ChevalleyAlgebra._bracket_rows, so a class in sl2 with a bracket
    # method is a second, hand-written copy of that structure
    path = os.path.join(os.path.dirname(os.path.dirname(TRACER)), "src", "liemap",
                        "sl2.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            assert "bracket" not in methods, node.name


def test_one_element_type_implements_evaluate():
    # freelie.evaluate has one hook implementer, AlgElement.integer_rows;
    # witness matrices are evaluated through their realization, so a class
    # that defines the hook or matrix arithmetic is a second element type
    src = os.path.join(os.path.dirname(os.path.dirname(TRACER)), "src", "liemap")
    hooks, matrix_methods = [], None
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                if "integer_rows" in methods:
                    hooks.append((name, node.name))
                if node.name == "MatrixElement":
                    matrix_methods = methods
    assert hooks == [("chevalley.py", "AlgElement")]
    assert matrix_methods is not None
    assert not matrix_methods & {"__add__", "__sub__", "__neg__", "scale", "bracket"}


def test_cli_chooses_no_scan_engine():
    # maps.image_scan chooses brute force or the Engel engine, and its forked
    # workers share the caller's algebra and kernel: a CLI that names the
    # Engel engine, or a chunk that parses P or builds an algebra, is a
    # second copy of those decisions
    src = os.path.join(os.path.dirname(os.path.dirname(TRACER)), "src", "liemap")
    with open(os.path.join(src, "cli.py")) as fh:
        tree = ast.parse(fh.read(), "cli.py")
    for node in ast.walk(tree):
        used = (node.attr if isinstance(node, ast.Attribute) else
                node.id if isinstance(node, ast.Name) else
                node.name if isinstance(node, ast.alias) else None)
        assert used not in ("engel_spec", "engel_image_scan"), ("cli.py", node.lineno)
    with open(os.path.join(src, "maps.py")) as fh:
        tree = ast.parse(fh.read(), "maps.py")
    chunk, = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_scan_chunk"]
    for node in ast.walk(chunk):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            assert name not in ("parse", "build_algebra"), ("_scan_chunk", node.lineno)


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



def test_only_scalar_names_fp_element():
    # a residue is the one scalar the library takes in and gives out;
    # FpElement stays in scalar.py for the benchmark's counters, and a
    # module that names it is about to build a second scalar form
    src = os.path.join(os.path.dirname(os.path.dirname(TRACER)), "src", "liemap")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "scalar.py":
            with open(os.path.join(src, name)) as fh:
                assert "FpElement" not in fh.read(), name
    scalar = importlib.import_module("liemap.scalar")
    assert not hasattr(scalar, "invert")


def _library_callers(called_name):
    """(module file, top-level definition) of every call in src/liemap to a
    function or method named called_name."""
    src = os.path.join(os.path.dirname(os.path.dirname(TRACER)), "src", "liemap")
    callers = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for top in tree.body:
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                called = (func.attr if isinstance(func, ast.Attribute)
                          else getattr(func, "id", None))
                if called == called_name:
                    callers.append((name, getattr(top, "name", None)))
    return callers


def test_one_orbit_labelling_search():
    # orbits._orbit_tree is the one breadth-first search that labels the
    # orbits of G; the cover, the saturation and the carried rows all read
    # its labels, so a second deque in the library is a second labelling
    assert _library_callers("deque") == [("orbits.py", "_orbit_tree")]


def test_engel_annihilators_carried_by_the_family_alone():
    # maps._engel_family, cached per (algebra, g), is the one caller of
    # orbits.subspace_annihilators, so no scan carries its own annihilators
    assert _library_callers("subspace_annihilators") == [("maps.py", "_engel_family")]
