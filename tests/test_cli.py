import hashlib
import json
import os
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import pytest

import liemap
from liemap.cli import main
from liemap.fixtures import fixture_text, load_poly


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def validate(obj):
    name = obj["schema"].split("/")[1]
    schema = json.loads(resources.files("liemap").joinpath(
        "schemas", name + ".v1.json").read_text())
    jsonschema.validate(obj, schema)


def test_roots(capsys):
    code, out = run(capsys, ["roots", "--type", "A", "--rank", "2"])
    obj = json.loads(out)
    assert code == 0 and len(obj["roots"]) == 6 and obj["positive_count"] == 3
    validate(obj)


def test_algebra_structure(capsys):
    code, out = run(capsys, ["algebra", "--type", "A", "--rank", "1",
                             "--field", "F5", "--print-structure"])
    obj = json.loads(out)
    assert code == 0 and obj["dim"] == 3 and obj["center_dim"] == 0
    assert "bracket_table" in obj["structure"]
    validate(obj)


def test_parse(capsys):
    code, out = run(capsys, ["parse", "--poly", "[X2,X1] + X1"])
    obj = json.loads(out)
    assert code == 0 and obj["normal_form"] == {"1": "1", "12": "-1"}
    assert obj["linear_part"] == ["1", "0"]
    validate(obj)


def test_identity_fixture_and_expect(capsys):
    code, out = run(capsys, ["identity", "--poly", "@filippov.lie",
                             "--field", "Q", "--mode", "exact"])
    obj = json.loads(out)
    assert code == 0 and obj["result"] == "identity"
    validate(obj)
    code, _ = run(capsys, ["identity", "--poly", "[[X1,X2],X2]",
                           "--expect", "identity"])
    assert code == 1
    code, out = run(capsys, ["identity", "--poly", "[[X1,X2],X2]",
                             "--expect", "not_identity"])
    assert code == 0
    validate(json.loads(out))


def test_witness_fixtures(capsys):
    code, out = run(capsys, ["witness", "--realization", "sl3",
                             "--fixtures", "paper-a2"])
    obj = json.loads(out)
    assert code == 0 and obj["result"] == "confirmed"
    validate(obj)
    code, out = run(capsys, ["witness", "--fixtures", "paper-b2",
                             "--expect", "confirmed"])
    assert code == 0
    validate(json.loads(out))


def test_witness_search(capsys):
    code, out = run(capsys, ["witness-search", "--poly", "[X1,X2]",
                             "--realization", "sl3", "--budget", "200",
                             "--seed", "4"])
    obj = json.loads(out)
    assert code == 0 and obj["status"] == "confirmed" and obj["seed"] == 4
    validate(obj)


def test_engel_solve(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps(
        {"basis": "chevalley", "coeffs": ["1", "2", "0", "0", "3", "0", "1", "0"]}))
    code, out = run(capsys, ["engel-solve", "--algebra", "A2", "--field", "F5",
                             "--coeffs", "0,1", "--target", str(target)])
    obj = json.loads(out)
    assert code == 0 and obj["certificate"]
    validate(obj)


def test_engel_solve_large_rational_coefficient(tmp_path, capsys):
    # the rational roots of f come from the divisors of 10^12, found by trial
    # division up to 10^6
    target = tmp_path / "target.json"
    target.write_text(json.dumps(
        {"basis": "chevalley", "coeffs": ["1", "2", "0", "0", "3", "0", "1", "0"]}))
    start = time.perf_counter()
    code, out = run(capsys, ["engel-solve", "--algebra", "A2", "--field", "Q",
                             "--coeffs", "1000000000000,1", "--target", str(target)])
    assert time.perf_counter() - start < 1
    obj = json.loads(out)
    assert code == 0 and obj["certificate"]
    assert obj["trace"]["avoid"] == ["0", "1000000000000"]
    validate(obj)


# stdout sha256 of engel-solve runs, recorded before the type-A conjugator
# became a root-element word
ENGEL_SOLVE_DIGESTS = [
    (["A2", "F5", "1"], ["1", "2", "0", "0", "3", "0", "1", "0"],
     "068a8a9b66986407054bd24d1e7a17d80ba7fa712bc2b22659eb8c6e2d10f442"),
    (["A3", "F7", "0,1"],
     ["2", "5", "1", "0", "1", "0", "3", "0", "0", "4", "0", "0", "6", "0", "2"],
     "49c2fca634f46e943e4d8bed2ef45f3d5d9418916ffb5f7c4a217dde75a0aea8"),
    (["A2", "Q", "720720,1"], ["3", "-1", "0", "2", "0", "1", "0", "-2"],
     "46c3d7d3617bb07a464c0d79ae68622f7d00293baab081080e5a9ed834ac4b7d"),
    (["A4", "Q", "0,1"],
     ["1", "-2", "3", "1", "0", "1", "0", "0", "2", "0", "0", "0", "0", "-1",
      "1", "0", "0", "3", "0", "0", "0", "0", "1", "0"],
     "1d0dc5142e30c9c8bedba33263247ce8145af0a0515861a415dbac7278259c23"),
]


@pytest.mark.parametrize("args,coeffs,digest", ENGEL_SOLVE_DIGESTS,
                         ids=["A2-F5-E1", "A3-F7-E2", "A2-Q-720720", "A4-Q-E2"])
def test_engel_solve_pinned_bytes(tmp_path, capsys, args, coeffs, digest):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"basis": "chevalley", "coeffs": coeffs}))
    algebra, field, engel = args
    code, out = run(capsys, ["engel-solve", "--algebra", algebra, "--field", field,
                             "--coeffs", engel, "--target", str(target)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_identity_answers_at_once(capsys):
    # randomized mode reads the degree off the tensor expansion, not the
    # Lyndon normal form, so the 9-variable chain takes no time
    chain = "X1"
    for i in range(2, 10):
        chain = "[%s,X%d]" % (chain, i)
    start = time.perf_counter()
    code, out = run(capsys, ["identity", "--poly", chain, "--mode", "randomized"])
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["result"] == "not_identity"
    # over F5 with deg(P) >= 5 exact mode decides from the folded value
    code, out = run(capsys, ["identity", "--poly", "[[[[X4,X3],X2],X1],X4]",
                             "--field", "F5", "--expect", "not_identity"])
    assert code == 0 and json.loads(out)["mode"] == "exact_symbolic"
    validate(json.loads(out))


def test_scan(capsys):
    code, out = run(capsys, ["scan", "--poly", "[[X1,X2],X2]", "--algebra",
                             "A1", "--field", "F3", "--mode", "exhaustive"])
    obj = json.loads(out)
    assert code == 0
    assert obj["attained_count"] == 27 and obj["contains_all_noncentral"]
    validate(obj)


def test_scan_past_budget_uses_engel_engine_sl3_F3(capsys):
    # brute force would need 3^16 evaluations, so the Engel engine answers;
    # its report, less the schema key, is the pinned library report
    code, out = run(capsys, ["scan", "--poly", "[[X,Y],Y]", "--algebra", "A2",
                             "--field", "F3"])
    obj = json.loads(out)
    assert code == 0 and obj.pop("schema") == "liemap/scan/v1"
    assert obj["mode"] == {"kind": "exhaustive", "engine": "engel-linear"}
    assert hashlib.sha256(liemap.maps._canonical(obj).encode()).hexdigest() == \
        "22929e9e7775bcdaa2f83979e2ce9b63ddb76e2178638ae5184cd564a70cebd5"


@pytest.mark.parametrize("poly", ["[[X1,X2],X2]", "[X1,X2] + 2*[[X1,X2],X2]"])
def test_scan_engines_print_the_same_report(capsys, poly):
    # A1/F5: 125 elements, 15,625 assignments; a budget between the two
    # selects the Engel engine
    argv = ["scan", "--poly", poly, "--algebra", "A1", "--field", "F5"]
    _, brute = run(capsys, argv)
    _, linear = run(capsys, argv + ["--budget", "125"])
    brute, linear = json.loads(brute), json.loads(linear)
    assert brute.pop("mode") == {"kind": "exhaustive", "engine": "brute-force"}
    assert linear.pop("mode") == {"kind": "exhaustive", "engine": "engel-linear"}
    brute.pop("poly"), linear.pop("poly")
    assert brute == linear


@pytest.mark.parametrize("argv", [
    ["--poly", "[[X1,X2],X1]"],
    ["--poly", "[[X1,X2],X2] + X1"],
    ["--poly", "[[X1,X2],X3]"],
    ["--poly", "[[X1,X2],X2]", "--budget", "6560"],
], ids=["not-engel", "linear-term", "three-variables", "elements-past-budget"])
def test_scan_past_budget_keeps_brute_force_refusal(capsys, argv):
    # the Engel engine is taken only for P = sum a_k E_k(X1, X2) with
    # p^dim within the budget; otherwise brute force refuses as before
    code, out = run(capsys, ["scan", "--algebra", "A2", "--field", "F3"] + argv)
    err = json.loads(out)
    assert code == 1 and err["kind"] == "ScanBudgetError"
    assert err["error"].startswith("exhaustive scan needs")


def test_scan_sampled_stays_brute_force(capsys):
    code, out = run(capsys, ["scan", "--poly", "[[X1,X2],X2]", "--algebra", "A2",
                             "--field", "F3", "--mode", "sampled", "--seed", "1",
                             "--samples", "50"])
    obj = json.loads(out)
    assert code == 0 and obj["mode"] == {"kind": "sampled", "count": 50, "seed": 1}


def test_central_probe(capsys):
    code, out = run(capsys, ["central-probe", "--algebra", "A2", "--field",
                             "F3", "--m-from", "1", "--m-to", "3"])
    obj = json.loads(out)
    assert code == 0 and obj["m0"] == 3
    validate(obj)


PROBE_A3F2_DIGESTS = {
    "1": "fe8a8a0bb78e732491e9730f6bb2d492dc6913a0f157b2053f29df8927e6afa8",
    "2": "87e2b6d12692cc17f6f7c8b715d6a292a793378b84ae0f52b93ea70d50de220d",
}


@pytest.mark.parametrize("workers", sorted(PROBE_A3F2_DIGESTS))
def test_central_probe_A3F2_pinned(capsys, workers):
    # 32,768 values of Y in 20 orbits; the stdout bytes are those of the
    # probe that visited every scaling class
    t0 = time.perf_counter()
    code, out = run(capsys, ["central-probe", "--algebra", "A3", "--field", "F2",
                             "--m-from", "1", "--m-to", "5", "--workers", workers])
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PROBE_A3F2_DIGESTS[workers]


def test_example48(capsys):
    code, out = run(capsys, ["example48", "--field", "F5", "--a", "1",
                             "--b", "1", "--c", "1", "--d", "1"])
    obj = json.loads(out)
    assert code == 0 and obj["matches_direct"]
    assert obj["value"]["coeffs"] == ["2", "1", "4"]
    validate(obj)


def test_determinism_byte_identical(capsys):
    argv = ["scan", "--poly", "[[X1,X2],X2]", "--algebra", "A1",
            "--field", "F3", "--mode", "sampled", "--seed", "7"]
    _, out1 = run(capsys, argv)
    _, out2 = run(capsys, argv)
    assert out1 == out2
    argv2 = ["witness-search", "--poly", "[X1,X2]", "--realization", "sl3",
             "--budget", "100", "--seed", "1"]
    _, o1 = run(capsys, argv2)
    _, o2 = run(capsys, argv2)
    assert o1 == o2


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["scan", "--poly", "[X1,X2]"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_scan_workers_below_1_is_usage_error(workers):
    with pytest.raises(SystemExit) as e:
        main(["scan", "--poly", "[[X1,X2],X2]", "--algebra", "A1",
              "--field", "F3", "--workers", workers])
    assert e.value.code == 2


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_central_probe_workers_below_1_is_usage_error(workers):
    with pytest.raises(SystemExit) as e:
        main(["central-probe", "--algebra", "A2", "--field", "F3",
              "--m-from", "1", "--m-to", "3", "--workers", workers])
    assert e.value.code == 2


@pytest.mark.parametrize("argv", [
    ["scan", "--poly", "[[X1,X2],X2]", "--algebra", "A1", "--field", "F3",
     "--mode", "sampled", "--seed", "1", "--samples", "-5"],
    ["scan", "--poly", "[[X1,X2],X2]", "--algebra", "A1", "--field", "F3",
     "--budget", "-1"],
    ["witness-search", "--poly", "[[X1,X2],X2]", "--realization", "sl3",
     "--budget", "-1"],
    ["identity", "--poly", "[[[[X,Y],Y],Y],Y]", "--mode", "randomized",
     "--trials", "-1"],
    ["identity", "--poly", "[[[[X,Y],Y],Y],Y]", "--mode", "randomized",
     "--grid", "0"],
], ids=["scan-samples", "scan-budget", "witness-search-budget",
        "identity-trials", "identity-grid"])
def test_nonpositive_count_is_usage_error(argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2


def test_semantic_error_exit_1(capsys):
    code, out = run(capsys, ["roots", "--type", "A", "--rank", "1",
                             "--field", "F2"])
    assert code == 1
    assert "error" in json.loads(out)
    code, out = run(capsys, ["scan", "--poly", "[[X1,X2],X2]", "--algebra",
                             "A2", "--field", "F3", "--budget", "100"])
    assert code == 1 and "error" in json.loads(out)


def test_internal_error_exit_3(tmp_path, capsys, monkeypatch):
    # a failed re-evaluation certificate is an internal error, told apart
    # from a mathematical precondition: error JSON and exit code 3
    from liemap import maps
    monkeypatch.setattr(maps, "evaluate", lambda P, xs: xs[0].alg.zero())
    target = tmp_path / "target.json"
    target.write_text(json.dumps(
        {"basis": "chevalley", "coeffs": ["1", "2", "0", "0", "3", "0", "1", "0"]}))
    code, out = run(capsys, ["engel-solve", "--algebra", "A2", "--field", "F5",
                             "--coeffs", "0,1", "--target", str(target)])
    assert code == 3
    assert json.loads(out) == {"error": "Engel solver produced an invalid solution",
                               "kind": "InternalError"}


def _file_error(capsys, argv, kind):
    code, out = run(capsys, argv)
    err = json.loads(out)
    assert code == 2 and err["kind"] == kind and set(err) == {"error", "kind"}


def test_unreadable_target_is_usage_error(tmp_path, capsys):
    _file_error(capsys, ["engel-solve", "--algebra", "A2", "--field", "F5",
                         "--coeffs", "1", "--target", str(tmp_path / "none.json")],
                "FileNotFoundError")


def test_unreadable_triples_is_usage_error(tmp_path, capsys):
    _file_error(capsys, ["witness", "--triples", str(tmp_path / "none.json")],
                "FileNotFoundError")


def test_unreadable_poly_file_is_usage_error(tmp_path, capsys):
    _file_error(capsys, ["parse", "--poly", "@" + str(tmp_path)],
                "IsADirectoryError")


def test_poly_path_with_directory_part_is_a_file(tmp_path, capsys, monkeypatch):
    # a missing file is reported as one, even when its name is a fixture's
    _file_error(capsys, ["parse", "--poly", "@" + str(tmp_path / "x.lie")],
                "FileNotFoundError")
    monkeypatch.chdir(tmp_path)
    _file_error(capsys, ["parse", "--poly", "@sub/filippov.lie"], "FileNotFoundError")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "filippov.lie").write_text("[X1,X2]\n")
    code, out = run(capsys, ["parse", "--poly", "@sub/filippov.lie"])
    assert code == 0 and json.loads(out)["pretty"] == "[X1,X2]"


def test_poly_bare_name_is_a_fixture(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, ["parse", "--poly", "@filippov.lie"])
    assert code == 0
    assert json.loads(out)["pretty"] == load_poly("filippov").pretty()
    # a file of that name in the working directory is read instead
    (tmp_path / "filippov.lie").write_text("[X1,X2]\n")
    code, out = run(capsys, ["parse", "--poly", "@filippov.lie"])
    assert code == 0 and json.loads(out)["pretty"] == "[X1,X2]"


@pytest.mark.parametrize("argv", [
    ["engel-solve", "--algebra", "A2", "--field", "F5", "--coeffs", "1"],
    ["witness", "--realization", "sl3"],
    ["witness", "--fixtures", "paper-a2", "--triples", "triples.json"],
], ids=["engel-solve-no-target", "witness-no-source", "witness-two-sources"])
def test_missing_or_conflicting_argument_is_usage_error(argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2


def test_witness_triples_file_matches_fixture(tmp_path, capsys):
    path = tmp_path / "triples.json"
    path.write_text(fixture_text("paper_a2.json"))
    code, out = run(capsys, ["witness", "--triples", str(path)])
    assert code == 0
    assert out == run(capsys, ["witness", "--fixtures", "paper-a2"])[1]


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    # --out is written before stdout, so stdout holds only the error JSON
    _file_error(capsys, ["scan", "--poly", "X1", "--algebra", "A1", "--field", "F3",
                         "--out", str(tmp_path / "missing" / "x.json")],
                "FileNotFoundError")


def test_central_probe_degree_count_is_budgeted(capsys, monkeypatch):
    # A2/F3 has 3^8 = 6561 values of Y; the 7001 degrees exceed the budget
    monkeypatch.setenv("LIEMAP_BUDGET", "7000")
    argv = ["central-probe", "--algebra", "A2", "--field", "F3", "--m-from", "1"]
    code, out = run(capsys, argv + ["--m-to", "7001"])
    err = json.loads(out)
    assert code == 1 and err["kind"] == "ScanBudgetError"
    assert err["error"] == \
        "probe needs 7001 Engel degrees > budget 7000; raise LIEMAP_BUDGET"
    code, out = run(capsys, argv + ["--m-to", "12"])
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == \
        "3ac34bd134bae39e878badb99044c8276cbf26bf3004c06e7230dced799ceac8"


def test_out_file(tmp_path, capsys):
    path = tmp_path / "roots.json"
    code, out = run(capsys, ["roots", "--type", "G", "--rank", "2",
                             "--out", str(path)])
    assert code == 0
    assert path.read_text() == out


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    # A1/F3: 27 elements, 729 assignments; 26 is below both engines' needs
    monkeypatch.setenv("LIEMAP_BUDGET", "26")
    code, out = run(capsys, ["scan", "--poly", "[X1,X2]", "--algebra", "A1",
                             "--field", "F3", "--mode", "exhaustive"])
    assert code == 1 and "budget" in json.loads(out)["error"]


def test_budget_env_override_selects_engel_engine(capsys, monkeypatch):
    # below the 729 assignments brute force needs, above the 27 elements
    # the Engel engine labels
    monkeypatch.setenv("LIEMAP_BUDGET", "100")
    code, out = run(capsys, ["scan", "--poly", "[X1,X2]", "--algebra", "A1",
                             "--field", "F3", "--mode", "exhaustive"])
    obj = json.loads(out)
    assert code == 0 and obj["mode"]["engine"] == "engel-linear"


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
@pytest.mark.parametrize("mode", [[], ["--mode", "sampled", "--seed", "1"]],
                         ids=["exhaustive", "sampled"])
def test_budget_env_must_be_positive_integer(capsys, monkeypatch, value, mode):
    monkeypatch.setenv("LIEMAP_BUDGET", value)
    code, out = run(capsys, ["scan", "--poly", "[X1,X2]", "--algebra", "A1",
                             "--field", "F3"] + mode)
    err = json.loads(out)
    assert code == 1 and err["kind"] == "InvalidBudgetError"
    assert "LIEMAP_BUDGET" in err["error"]


def test_python_m_liemap_matches_cli_main(capsys):
    argv = ["roots", "--type", "A", "--rank", "1"]
    src = os.path.dirname(os.path.dirname(liemap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "liemap"] + argv, env=env,
                          capture_output=True, text=True, timeout=60)
    code, out = run(capsys, argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out
