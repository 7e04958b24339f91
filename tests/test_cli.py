import json
import time
from importlib import resources

import jsonschema
import pytest

from liemap.cli import main


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


def test_central_probe(capsys):
    code, out = run(capsys, ["central-probe", "--algebra", "A2", "--field",
                             "F3", "--m-from", "1", "--m-to", "3"])
    obj = json.loads(out)
    assert code == 0 and obj["m0"] == 3
    validate(obj)


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


def test_out_file(tmp_path, capsys):
    path = tmp_path / "roots.json"
    code, out = run(capsys, ["roots", "--type", "G", "--rank", "2",
                             "--out", str(path)])
    assert code == 0
    assert path.read_text() == out


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LIEMAP_BUDGET", "100")
    code, out = run(capsys, ["scan", "--poly", "[X1,X2]", "--algebra", "A1",
                             "--field", "F3", "--mode", "exhaustive"])
    assert code == 1 and "budget" in json.loads(out)["error"]
