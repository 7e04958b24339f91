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
from helpers import fork_counter
from liemap import maps
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


def test_engel_solve_refuses_a_huge_rational_coefficient(tmp_path, capsys):
    # f = -t + 7..7 t^2 over Q: trial division of its 40-digit coefficient
    # would walk about 10^20 candidates, so the rational-root stage refuses
    target = tmp_path / "target.json"
    target.write_text(json.dumps(
        {"basis": "chevalley", "coeffs": ["1", "2", "0", "0", "3", "0", "1", "0"]}))
    start = time.perf_counter()
    code, out = run(capsys, ["engel-solve", "--algebra", "A2", "--field", "Q",
                             "--coeffs", "1," + "7" * 40, "--target", str(target)])
    assert time.perf_counter() - start < 1
    err = json.loads(out)
    assert code == 1 and err["kind"] == "CostGuardError"
    assert err["error"].startswith("rational roots of f: ") and "10000000" in err["error"]


def test_engel_solve_huge_monomial_coefficient(tmp_path, capsys):
    # f = 7..7 t^2 has the root 0 alone, so no trial division runs
    target = tmp_path / "target.json"
    target.write_text(json.dumps(
        {"basis": "chevalley", "coeffs": ["1", "2", "0", "0", "3", "0", "1", "0"]}))
    start = time.perf_counter()
    code, out = run(capsys, ["engel-solve", "--algebra", "A2", "--field", "Q",
                             "--coeffs", "0," + "7" * 40, "--target", str(target)])
    assert time.perf_counter() - start < 1
    obj = json.loads(out)
    assert code == 0 and obj["certificate"]
    assert obj["trace"]["avoid"] == ["0"]
    validate(obj)


@pytest.mark.parametrize("coeffs,entry", [
    ("9" * 5000, 1), ("0," + "9" * 5000, 2), ("1/" + "3" * 5000 + ",1", 1)],
    ids=["first", "second", "denominator"])
def test_overlong_engel_coefficient_names_its_entry(tmp_path, capsys, coeffs, entry):
    # Fraction refuses more than 4,300 digits; the error names --coeffs and
    # the entry, counted from 1 like a_1..a_m
    target = tmp_path / "target.json"
    target.write_text(json.dumps(_A2F5_TARGET))
    code, out = run(capsys, ["engel-solve", "--algebra", "A2", "--field", "Q",
                             "--coeffs", coeffs, "--target", str(target)])
    err = json.loads(out)
    assert code == 1 and err["kind"] == "ValueError"
    assert err["error"].startswith("--coeffs entry %d: " % entry)
    assert "4300 digits" in err["error"]


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_overlong_target_coefficient_names_its_index(tmp_path, capsys, field):
    target = tmp_path / "target.json"
    coeffs = list(_A2F5_TARGET["coeffs"])
    coeffs[3] = "9" * 5000
    target.write_text(json.dumps(dict(_A2F5_TARGET, coeffs=coeffs)))
    code, out = run(capsys, ["engel-solve", "--algebra", "A2", "--field", field,
                             "--coeffs", "0,1", "--target", str(target)])
    err = json.loads(out)
    assert code == 1 and err["kind"] == "ChevalleyError"
    assert err["error"].startswith("coeffs[3]: ") and "4300 digits" in err["error"]


def test_engel_solve_high_rank_answers_at_once(tmp_path, capsys):
    # the regular element is the lex-least point of F_19^8, which a walk over
    # every point in lex order reaches only after about 5 * 10^7 points
    coeffs = ["0"] * 80
    coeffs[8] = "1"                      # e_{alpha_1}
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"basis": "chevalley", "coeffs": coeffs}))
    start = time.perf_counter()
    code, out = run(capsys, ["engel-solve", "--algebra", "A8", "--field", "F19",
                             "--coeffs", "1", "--target", str(target)])
    assert time.perf_counter() - start < 1
    obj = json.loads(out)
    assert code == 0 and obj["certificate"]
    assert obj["trace"]["h"]["coeffs"][:8] == ["0", "1", "0", "2", "0", "3", "0", "4"]
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

# stdout sha256 of Q engel-solve runs whose rows carry a denominator,
# recorded while root elements still built a Fraction per coordinate: a target
# with non-integral coefficients (d > 1), and f with non-integral
# coefficients (D > 1)
_A3_FRACTIONAL_TARGET = ["1/2", "-3/4", "0", "2", "0", "1/3", "0", "0", "5", "0",
                         "0", "-1", "0", "0", "7/6"]
ENGEL_SOLVE_DIGESTS += [
    (["A3", "Q", "0,1"], _A3_FRACTIONAL_TARGET,
     "2d40e97cdb15ce81e438a528791a5201164a4809135b2cf6b8ee5b560cc15970"),
    (["A3", "Q", "1/2,0,1"], _A3_FRACTIONAL_TARGET,
     "e241fa56209a5e5149e9fa159c12fcb7ad1c99937dc25cdda889b4c107c8a00b"),
    (["A2", "Q", "1/2,3"], ["3", "-1", "0", "2", "0", "1", "0", "-2"],
     "21deaa7843fc7a0cd77a0408dfadb4e945b62bbe8427af6edd0c950f719e9e2a"),
]


# stdout sha256 of F_p commands whose scalars changed form (FpElement to
# residue ints), recorded while FpElement was still the public F_p scalar
FP_SCALAR_DIGESTS = [
    (["identity", "--poly", "[[[[X4,X3],X2],X1],X4]", "--field", "F5"],
     "f285deb0032670647aea05754dbd80d7b273fd8c509142ed61051803722a6066"),
    (["identity", "--poly", "[[[[X1,X2],X2],X2],X2]", "--field", "F7"],
     "d27bd881731b89752e9a294407d7f3bc7b5dd617fefd40975d511dd158f258a8"),
    (["identity", "--poly", "@filippov.lie", "--field", "F5"],
     "2b59a03bf26acef426b608ff2f961b1ac9725d42b2f27910f083b27bdb7ebf63"),
    (["witness", "--fixtures", "paper-a2", "--field", "F5"],
     "c8e59db2f92234752a25e76a5083c547e882bc723a8cbb133410daf66cab85c5"),
    (["witness", "--fixtures", "paper-b2", "--field", "F7"],
     "1eed4c37e66119ad2e020bca1df2f2185eeee80997689fdfdc6e44a8178ed9a0"),
    (["witness-search", "--poly", "[[X1,X2],X3]", "--realization", "so5",
      "--field", "F7", "--seed", "1"],
     "be215fc5c30493a22b733b1def85c4a0711b7506e112d26a273c408a902f25d7"),
    (["witness-search", "--poly", "[[X1,X2],X3]", "--realization", "sl3",
      "--field", "F5", "--seed", "2"],
     "3fd4187164fe6f4c18754cbece1162c2fef23230b36da6ecc40adf9015e97fc7"),
    (["witness-search", "--poly", "[[[X1,X2],X2],X1]", "--realization", "so5",
      "--field", "F5", "--seed", "0"],
     "77f380686c5b7ba66fd31f2317a2ba47c9c8988bd87f15041e7f999a0696432e"),
    (["example48", "--field", "F7", "--a", "2", "--b", "3", "--c", "1", "--d", "5"],
     "3cf621cf0825f7478ce4c7cb51a3be463a039a2d6b36ae1e082a69897590dab3"),
    (["example48", "--field", "F5", "--a", "1", "--b", "2", "--c", "3", "--d", "4"],
     "3dfb284dedfdc5a96a9e4761f132e21a898b6bdcc0c3738552937ceac78ed5cf"),
]


# stdout sha256 of sl3 witnesses over F2, recorded while witness matrices
# were still evaluated as matrices, before they were read into A2/F2
CHAR2_SL3_DIGESTS = [
    (["witness", "--fixtures", "paper-a2", "--field", "F2"],
     "011d4de72ee41330473fc92bdac2c031456c63d76b19419dec5d3236d87125db"),
    (["witness-search", "--poly", "[[X1,X2],X3]", "--realization", "sl3",
      "--field", "F2"],
     "ac726d173699108529599d9ee25686df99a7fc5eb9a586f86021e6903d3dbd7e"),
]


@pytest.mark.parametrize("argv,digest", CHAR2_SL3_DIGESTS,
                         ids=["witness-a2-F2", "search-sl3-F2"])
def test_sl3_witnesses_over_f2_keep_their_bytes(capsys, argv, digest):
    code, out = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["witness", "--fixtures", "paper-b2", "--field", "F2"],
    ["witness-search", "--poly", "[[X1,X2],X3]", "--realization", "so5", "--field", "F2"],
], ids=["witness-b2-F2", "search-so5-F2"])
def test_so5_witnesses_over_f2_are_refused(capsys, argv):
    # so5 is read into B2, which is of type C in characteristic 2 and is
    # rejected when its root system is built
    code, out = run(capsys, argv)
    assert code == 1 and json.loads(out) == {
        "error": "B_2 is of type C in characteristic 2 and is rejected",
        "kind": "RootSystemError"}


@pytest.mark.parametrize("argv,digest", FP_SCALAR_DIGESTS,
                         ids=["identity-E4x-F5", "identity-E4-F7", "identity-filippov-F5",
                              "witness-a2-F5", "witness-b2-F7", "search-so5-F7",
                              "search-sl3-F5", "search-so5-F5-2-attempts",
                              "example48-F7", "example48-F5"])
def test_fp_scalar_pinned_bytes(capsys, argv, digest):
    code, out = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args,coeffs,digest", ENGEL_SOLVE_DIGESTS,
                         ids=["A2-F5-E1", "A3-F7-E2", "A2-Q-720720", "A4-Q-E2",
                              "A3-Q-E2-fractional-target", "A3-Q-fractional-f",
                              "A2-Q-half-3"])
def test_engel_solve_pinned_bytes(tmp_path, capsys, args, coeffs, digest):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"basis": "chevalley", "coeffs": coeffs}))
    algebra, field, engel = args
    code, out = run(capsys, ["engel-solve", "--algebra", algebra, "--field", field,
                             "--coeffs", engel, "--target", str(target)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout sha256 of `identity --mode randomized`, recorded while sl(2) points
# were evaluated by a hand-written sl(2) bracket, before they became A_1
# elements: a not_identity witness over Q and over F7, and a
# probably_identity verdict over Q
IDENTITY_RANDOMIZED_DIGESTS = [
    (["--poly", "[[[[[X1,X2],X2],X2],X2],X2]"],
     "65a0d1e4154710137545196f675c6fa54dad233df3ba093686935786db003c4a"),
    (["--poly", "[[[[X1,X2],X2],X2],X2]", "--field", "F7"],
     "3cc14951be356fa12f00d1dd8d2d3ea297d4bfa367531d0b246750676afdf9a5"),
    (["--poly", "@razmyslov_bracket.lie"],
     "9de21ab384d2101b2854f0e7aff514d6928f359a95322d162908c18e8ca46bcf"),
]


@pytest.mark.parametrize("args,digest", IDENTITY_RANDOMIZED_DIGESTS,
                         ids=["E5-Q", "E4-F7", "razmyslov_bracket-Q"])
def test_identity_randomized_pinned_bytes(capsys, args, digest):
    code, out = run(capsys, ["identity", "--mode", "randomized", "--seed", "3"] + args)
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


def test_scan_past_budget_names_the_engel_need(capsys):
    # G2/F3: brute force needs (3^14)^2 evaluations, the Engel engine labels
    # the 3^14 elements; neither fits the default budget, and the refusal
    # says which budget would answer
    code, out = run(capsys, ["scan", "--poly", "[[X1,X2],X2]", "--algebra", "G2",
                             "--field", "F3"])
    err = json.loads(out)
    assert code == 1 and err["kind"] == "ScanBudgetError"
    assert err["error"].startswith("exhaustive scan needs 22876792454961 evaluations")
    assert "needs 4782969 element labels" in err["error"]
    code, out = run(capsys, ["scan", "--poly", "[[X1,X2],X1]", "--algebra", "G2",
                             "--field", "F3"])
    err = json.loads(out)
    assert code == 1 and "element labels" not in err["error"]


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


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["1cpu", "2cpus"])
def test_scan_worker_error_is_the_same_for_any_worker_count(capsys, monkeypatch, cpus):
    # 1/11 has no residue mod 11: every chunk raises, in this process or in
    # a forked child (A1/F11 maps 10 blocks, enough to fork for), and the
    # error JSON does not depend on where
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    forks = fork_counter(monkeypatch)
    outs = {run(capsys, ["scan", "--poly", "1/11*[X1,X2]", "--algebra", "A1",
                         "--field", "F11", "--workers", w]) for w in ("1", "2")}
    assert len(forks) == len(cpus) - 1
    (code, out), = outs
    assert code == 1 and json.loads(out) == {
        "error": "denominator 11 not invertible mod 11", "kind": "ZeroDivisionError"}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_scan_worker_that_dies_is_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = fork_counter(monkeypatch)
    cover = maps._scan_cover

    def die_in_the_child(args):
        # the child runs the cover's second chunk; this process runs the first
        if args[0]:
            os._exit(1)
        return cover(args)

    monkeypatch.setattr(maps, "_scan_cover", die_in_the_child)
    code, out = run(capsys, ["scan", "--poly", "[[X1,X2],X2]", "--algebra", "A1",
                             "--field", "F11", "--workers", "2"])
    assert len(forks) == 1
    err = json.loads(out)
    assert code == 2 and err["kind"] == "ChildProcessError"
    assert "ended without a result" in err["error"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def test_engel_scan_unsolvable_preimage_exit_3(capsys, monkeypatch):
    # an element credited to a column space that solve cannot reach is an
    # internal error (exit 3), not a TypeError
    from liemap import linalg
    monkeypatch.setattr(linalg, "solve", lambda A, b, field: None)
    code, out = run(capsys, ["scan", "--poly", "[[X1,X2],X2]", "--algebra", "A1",
                             "--field", "F3", "--budget", "100"])
    assert code == 3
    assert json.loads(out) == {"error": "column preimage fails M x = v",
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


_A2F5_TARGET = {"basis": "chevalley", "coeffs": ["1", "2", "0", "0", "3", "0", "1", "0"]}
_PAPER_A2_AS_SO5 = dict(json.loads(fixture_text("paper_a2.json")), realization="so5")
_SL3_DIAG = {"basis": "matrix", "realization": "sl3",
             "rows": [[1, 0, 0], [0, -1, 0], [0, 0, 0]]}


def _error_json(capsys, argv, kind):
    code, out = run(capsys, argv)
    err = json.loads(out)
    assert code == 1 and err["kind"] == kind and set(err) == {"error", "kind"}


@pytest.mark.parametrize("command,doc,kind", [
    ("engel-solve", _A2F5_TARGET["coeffs"], "ChevalleyError"),
    ("engel-solve", dict(_A2F5_TARGET, coeffs=[1, 2, 0, 0, 3, 0, 1, 0]), "ChevalleyError"),
    ("engel-solve", {"basis": "chevalley"}, "ChevalleyError"),
    ("witness", [], "MatrixRepError"),
    ("witness", {"realization": "sl3", "triple1": [_SL3_DIAG] * 3,
                 "triple2": [_SL3_DIAG] * 3}, "MatrixRepError"),
    ("witness", _PAPER_A2_AS_SO5, "MatrixRepError"),
], ids=["target-list", "target-int-coeffs", "target-no-coeffs", "triples-list",
        "triples-int-rows", "triples-mislabelled"])
def test_malformed_input_file_is_error_json(tmp_path, capsys, command, doc, kind):
    # the shape is checked at the boundary: no input format beyond strings
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = {"engel-solve": ["engel-solve", "--algebra", "A2", "--field", "F5",
                            "--coeffs", "0,1", "--target"],
            "witness": ["witness", "--triples"]}[command]
    _error_json(capsys, argv + [str(path)], kind)


@pytest.mark.parametrize("argv", [
    ["parse"],
    ["scan", "--algebra", "A1", "--field", "F3"],
    ["identity", "--field", "Q"],
    ["witness-search", "--realization", "sl3"],
], ids=["parse", "scan", "identity", "witness-search"])
def test_huge_variable_index_is_refused(capsys, argv):
    # one entry per variable up to the largest index: X99999999999 would ask
    # for a table of that size, and is refused at its offset instead
    t0 = time.perf_counter()
    code, out = run(capsys, argv + ["--poly", "[X1,X99999999999]"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and json.loads(out) == {
        "error": "variable index above 200 (at offset 5)", "kind": "ParseError"}


@pytest.mark.parametrize("prefix", ["", "[X1,X2] + "], ids=["first", "offset-10"])
def test_overlong_coefficient_is_a_parse_error(capsys, prefix):
    # int() refuses a decimal string of more than 4,300 digits; the parser
    # reports it at the coefficient's offset like any malformed polynomial
    code, out = run(capsys, ["parse", "--poly", prefix + "9" * 5000 + "*X1"])
    assert code == 1 and json.loads(out) == {
        "error": "coefficient of 5000 digits is too long (at offset %d)" % len(prefix),
        "kind": "ParseError"}


def test_nesting_bound_from_the_cli(tmp_path, capsys):
    from liemap.freelie import MAX_NESTING

    def engel(m):
        return "[" * m + "X1,X2]" + ",X2]" * (m - 1)

    code, out = run(capsys, ["parse", "--poly", engel(MAX_NESTING)])
    assert code == 0
    assert json.loads(out)["normal_form"] == {"1" + "2" * MAX_NESTING: "1"}
    for text in (engel(MAX_NESTING + 1), "(" * 3000 + "X1" + ")" * 3000):
        _error_json(capsys, ["parse", "--poly", text], "ParseError")
    deep = tmp_path / "deep.lie"
    deep.write_text("[" * 600 + "X1,X2]" + ",X1]" * 599)
    _error_json(capsys, ["identity", "--poly", "@" + str(deep)], "ParseError")
    target = tmp_path / "target.json"
    target.write_text(json.dumps(_A2F5_TARGET))
    for m in (MAX_NESTING + 1, 1200):
        _error_json(capsys, ["engel-solve", "--algebra", "A2", "--field", "F5",
                             "--coeffs", ",".join(["0"] * (m - 1) + ["1"]),
                             "--target", str(target)], "ValueError")


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


def test_engel_solve_excluded_in_characteristic_2(tmp_path, capsys):
    # B_r (r >= 3) is the char-2 exclusion that reaches the solver: A1, B2
    # and C_r are rejected when the root system is built
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"basis": "chevalley", "coeffs": ["1"] + ["0"] * 20}))
    code, out = run(capsys, ["engel-solve", "--algebra", "B3", "--field", "F2",
                             "--coeffs", "0,1", "--target", str(target)])
    err = json.loads(out)
    assert code == 1 and err["kind"] == "EngelSolveError"
    assert liemap.maps.EXCLUDED_COMBINATIONS in err["error"]


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


def test_run_module_main_matches_cli_main(capsys, monkeypatch):
    # liemap/__main__.py run in-process, as `python -m liemap` runs it
    import runpy
    argv = ["roots", "--type", "A", "--rank", "2"]
    monkeypatch.setattr(sys, "argv", ["liemap"] + argv)
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("liemap", run_name="__main__", alter_sys=True)
    module_out = capsys.readouterr().out
    code, out = run(capsys, argv)
    assert exit_info.value.code == code == 0
    assert module_out == out
