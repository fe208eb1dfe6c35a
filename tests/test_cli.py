import json
import time

import pytest

import flagspec.cli as cli
from flagspec import spectra
from flagspec.graphs import graph_from_graph6
from flagspec.reporting import CriterionResult, ReproductionReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_catalog_list(capsys):
    code, obj = run_json(capsys, "catalog")
    assert code == 0
    assert len(obj["designs"]) == 8
    assert obj["designs"][0]["id"] == "biplane-4-3-2"
    assert "clebsch" in obj["reference_graphs"]


def test_catalog_show_round_trips_into_validate(capsys, tmp_path):
    code, obj = run_json(capsys, "catalog", "show", "biplane-7-4-2")
    assert code == 0
    path = tmp_path / "design.json"
    path.write_text(json.dumps(obj))
    code, params = run_json(capsys, "validate", str(path))
    assert code == 0
    assert (params["v"], params["k"], params["lambda"]) == (7, 4, 2)


def test_catalog_show_requires_id(capsys):
    code, obj = run_json(capsys, "catalog", "show")
    assert code == 3
    assert obj["error"]["type"] == "usage"


def test_validate_catalog_reference(capsys):
    code, obj = run_json(capsys, "validate", "catalog:complete-6-20-10-3-4")
    assert code == 0
    assert obj == {"v": 6, "b": 20, "r": 10, "k": 3, "lambda": 4,
                   "symmetric": False}


def test_validate_rejects_bad_design(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"v": 4, "blocks": [[0, 1], [1, 2], [2, 3]]}))
    code, obj = run_json(capsys, "validate", str(path))
    assert code == 2
    assert obj["error"]["type"] == "PairCountMismatch"


def test_missing_file_is_not_a_validation_error(capsys):
    code, obj = run_json(capsys, "validate", "/no/such/file.json")
    assert code == 3
    assert obj["error"]["type"] == "file"


def test_unknown_catalog_id(capsys):
    code, obj = run_json(capsys, "validate", "catalog:nope")
    assert code == 2
    assert obj["error"]["type"] == "UnknownCatalogId"


def test_gamma1_graph6_output(capsys):
    code, out = run(capsys, "gamma1", "catalog:biplane-4-3-2", "--format",
                    "graph6")
    assert code == 0
    g = graph_from_graph6(out.strip())
    assert g.n == 12 and all(g.degree(v) == 4 for v in range(12))


def test_gamma1_json_output_reloads_as_graph(capsys, tmp_path):
    code, out = run(capsys, "gamma1", "catalog:biplane-4-3-2")
    assert code == 0
    obj = json.loads(out)
    assert obj["variant"] == "gamma1" and len(obj["flags"]) == 12
    path = tmp_path / "g.json"
    path.write_text(out)
    code, profile = run_json(capsys, "classify", str(path))
    assert code == 0
    assert profile["classification"] == "QSRG"


def test_self_check_failure_exits_two(capsys, monkeypatch, tmp_path):
    code, out = run(capsys, "incidence", "catalog:fano-7-3-1", "--format",
                    "graph6")
    path = tmp_path / "inc.g6"
    path.write_text(out)
    monkeypatch.setattr(spectra, "_modular_primes", lambda beyond: [7])
    code, obj = run_json(capsys, "charpoly", str(path))
    assert code == 2
    assert obj["error"]["type"] == "SelfCheckFailed"


def test_gamma2_rejects_non_biplane(capsys):
    code, obj = run_json(capsys, "gamma2", "catalog:fano-7-3-1")
    assert code == 2
    assert obj["error"]["type"] == "NotABiplane"


def test_classify_via_design(capsys):
    code, obj = run_json(capsys, "classify", "catalog:biplane-11-5-2",
                         "--via", "gamma2")
    assert code == 0
    assert obj["matches_prediction"] is True
    assert obj["profile"]["eta_set"] == [0]


def test_charpoly_and_spectrum(capsys, tmp_path):
    code, out = run(capsys, "incidence", "catalog:fano-7-3-1", "--format",
                    "graph6")
    path = tmp_path / "inc.g6"
    path.write_text(out)
    code, obj = run_json(capsys, "charpoly", str(path))
    assert code == 0
    assert obj["coefficients"][-1] == 1
    assert obj["coefficients"][-3] == -21  # edge count with flipped sign

    code, claim_obj = run_json(capsys, "formula", "incidence", "--params",
                               "7,7,3,3,1")
    claim_path = tmp_path / "claim.json"
    claim_path.write_text(json.dumps(claim_obj["claim"]))
    code, verdict = run_json(capsys, "spectrum", str(path), "--claim",
                             str(claim_path), "--numeric")
    assert code == 0
    assert verdict["verified"] is True
    assert verdict["numeric"][0][0] == pytest.approx(3.0)

    # a wrong claim is a negative decision, not an error
    code, claim_obj = run_json(capsys, "formula", "gamma1", "--params",
                               "7,7,3,3,1")
    claim_path.write_text(json.dumps(claim_obj["claim"]))
    code, verdict = run_json(capsys, "spectrum", str(path), "--claim",
                             str(claim_path))
    assert code == 1
    assert verdict["verified"] is False


def test_spectrum_requires_a_mode(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text("C~")
    code, obj = run_json(capsys, "spectrum", str(path))
    assert code == 3


def test_formula_rejects_malformed_params(capsys):
    code, obj = run_json(capsys, "formula", "gamma1", "--params", "7,7,3,3")
    assert code == 3
    code, obj = run_json(capsys, "formula", "gamma1", "--params", "7,7,x,3,1")
    assert code == 3
    code, obj = run_json(capsys, "formula", "gamma1", "--params", "7,7,4,3,1")
    assert code == 2  # arithmetic constraints fail


def test_iso_designs_matrix(capsys):
    code, obj = run_json(capsys, "iso", "catalog:biplane-16-6-2-D1",
                         "catalog:biplane-16-6-2-D2", "--designs")
    assert code == 1 and obj == {"isomorphic": False}
    code, obj = run_json(capsys, "iso", "catalog:biplane-16-6-2-D3",
                         "catalog:biplane-16-6-2-D3", "--designs")
    assert code == 0 and obj == {"isomorphic": True}


def test_iso_and_cospectral_on_graph_files(capsys, tmp_path):
    a = tmp_path / "a.g6"
    b = tmp_path / "b.g6"
    code, out = run(capsys, "gamma1", "catalog:biplane-16-6-2-D1",
                    "--format", "graph6")
    a.write_text(out)
    code, out = run(capsys, "gamma1", "catalog:biplane-16-6-2-D2",
                    "--format", "graph6")
    b.write_text(out)
    code, obj = run_json(capsys, "cospectral", str(a), str(b))
    assert code == 0 and obj == {"cospectral": True}
    code, obj = run_json(capsys, "iso", str(a), str(b))
    assert code == 1 and obj == {"isomorphic": False}


def test_components_of_smallest_gamma2(capsys, tmp_path):
    code, out = run(capsys, "gamma2", "catalog:biplane-4-3-2", "--format",
                    "graph6")
    path = tmp_path / "g2.g6"
    path.write_text(out)
    code, obj = run_json(capsys, "components", str(path))
    assert code == 0
    assert obj["count"] == 3 and obj["sizes"] == [4, 4, 4]
    for s in obj["graph6"]:
        assert graph_from_graph6(s).n == 4


def test_usage_errors_exit_three(capsys):
    assert cli.main(["no-such-command"]) == 3
    capsys.readouterr()
    assert cli.main(["iso", "onlyone"]) == 3
    capsys.readouterr()
    assert cli.main(["gamma1", "catalog:fano-7-3-1", "--format", "dot"]) == 3
    capsys.readouterr()


def test_report_plumbing_uses_exit_codes(capsys, monkeypatch):
    calls = {}

    def fake_run(relabel_rounds, seed):
        calls["args"] = (relabel_rounds, seed)
        return ReproductionReport(
            (CriterionResult(1, "stub", True, ("detail: ok",)),)
        )

    monkeypatch.setattr(cli, "run_reproduction", fake_run)
    code, obj = run_json(capsys, "report", "paper-table5",
                         "--relabel-rounds", "7", "--seed", "3")
    assert code == 0
    assert calls["args"] == (7, 3)
    assert obj["passed"] is True

    def fake_fail(relabel_rounds, seed):
        return ReproductionReport(
            (CriterionResult(1, "stub", False, ("detail: FAIL",)),)
        )

    monkeypatch.setattr(cli, "run_reproduction", fake_fail)
    code, out = run(capsys, "report", "paper-table5", "--pretty")
    assert code == 1
    assert "[FAIL]" in out


def test_pretty_flag_indents(capsys):
    code, out = run(capsys, "catalog", "list", "--pretty")
    assert code == 0
    assert out.startswith("{\n")


def test_catalog_dir_override_via_env(capsys, tmp_path, monkeypatch):
    code, obj = run_json(capsys, "catalog", "show", "biplane-4-3-2")
    payload = {"id": "biplane-4-3-2", "provenance": "from override",
               **obj["design"]}
    (tmp_path / "biplane-4-3-2.json").write_text(json.dumps(payload))
    monkeypatch.setenv("FLAGSPEC_CATALOG_DIR", str(tmp_path))
    code, shown = run_json(capsys, "catalog", "show", "biplane-4-3-2")
    assert code == 0
    assert shown["provenance"] == "from override"


def test_formula_output_feeds_spectrum_claim(capsys, tmp_path):
    # the README workflow: the whole `formula` output is a valid --claim file
    code, out = run(capsys, "gamma1", "catalog:fano-7-3-1", "--format",
                    "graph6")
    graph_path = tmp_path / "fano-g1.g6"
    graph_path.write_text(out)
    code, out = run(capsys, "formula", "gamma1", "--params", "7,7,3,3,1")
    assert code == 0
    claim_path = tmp_path / "claim.json"
    claim_path.write_text(out)
    code, verdict = run_json(capsys, "spectrum", str(graph_path), "--claim",
                             str(claim_path), "--numeric")
    assert code == 0
    assert verdict["verified"] is True


@pytest.mark.parametrize("tolerance", ["inf", "-inf", "nan", "0"])
def test_numeric_spectrum_rejects_non_finite_tolerance(capsys, tmp_path, tolerance):
    code, out = run(capsys, "gamma1", "catalog:biplane-11-5-2", "--format",
                    "graph6")
    path = tmp_path / "g.g6"
    path.write_text(out)
    code, obj = run_json(capsys, "spectrum", str(path), "--numeric",
                         f"--tolerance={tolerance}")
    assert code == 2
    assert obj["error"] == {"type": "format", "message":
                            "tolerance must be a positive finite number"}


def test_non_integer_json_numbers_exit_two(capsys, tmp_path):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps({"n": 3, "edges": [[0, 1.9]]}))
    code, obj = run_json(capsys, "charpoly", str(graph_path))
    assert code == 2
    assert obj["error"]["type"] == "format"

    graph_path.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    claim_path = tmp_path / "claim.json"
    claim_path.write_text(json.dumps(
        {"entries": [{"a": "1", "multiplicity": 1},
                     {"a": "-1", "multiplicity": 1.5}]}))
    code, obj = run_json(capsys, "spectrum", str(graph_path), "--claim",
                         str(claim_path))
    assert code == 2
    assert obj["error"]["type"] == "format"


@pytest.mark.parametrize("entry", [
    {"a": "1/0", "multiplicity": 1},
    {"a": "1e400", "multiplicity": 1},
    {"b": "1/0", "d": 2, "multiplicity": 1},
    {"b": "1e400", "d": 2, "multiplicity": 1},
], ids=["a-zero-denominator", "a-beyond-float", "b-zero-denominator",
        "b-beyond-float"])
def test_claim_values_that_do_not_parse_or_order_exit_two(capsys, tmp_path, entry):
    # Fraction("1/0") raises ZeroDivisionError and the claim's float sort
    # key overflows on 1e400; both are format errors, not refutations
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    claim_path = tmp_path / "claim.json"
    claim_path.write_text(json.dumps({"entries": [entry]}))
    code, obj = run_json(capsys, "spectrum", str(graph_path), "--claim",
                         str(claim_path))
    assert code == 2
    assert obj["error"]["type"] == "format"
    assert "claim entry" in obj["error"]["message"]


@pytest.mark.parametrize("command", ["classify", "charpoly"])
def test_dense_vertex_limit_exits_two(capsys, tmp_path, command):
    # 10,000 vertices, above DENSE_VERTEX_LIMIT but within the graph-file
    # limit: refused before the n x n adjacency matrix is allocated
    path = tmp_path / "big.json"
    path.write_text('{"n": 10000, "edges": []}')
    code, obj = run_json(capsys, command, str(path))
    assert code == 2
    assert obj["error"]["type"] == "TooManyVertices"
    assert "DENSE_VERTEX_LIMIT" in obj["error"]["message"]


def test_graph_file_vertex_limit_exits_two(capsys, tmp_path):
    # the reader refuses more vertices than graph6 can encode before Graph
    # allocates one neighbor list per vertex, so a few bytes declaring ten
    # billion vertices cannot exhaust memory.  The first refused order keeps
    # this test cheap should the check ever go missing: classify would then
    # stop at the dense-kernel limit, with the other message
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 258048, "edges": []}))
    code, obj = run_json(capsys, "classify", str(path))
    assert code == 2
    assert obj["error"]["type"] == "TooManyVertices"
    assert "graph-file limit" in obj["error"]["message"]
    assert "258047" in obj["error"]["message"]


@pytest.mark.parametrize("command, payload, message", [
    ("classify", {"n": True, "edges": []}, "'n' must be an integer"),
    ("classify", {"n": 3, "edges": [[True, 2]]}, "bad edge entry"),
    ("validate", {"v": True, "blocks": [[0]]}, "'v' must be an integer"),
    ("validate", {"v": 7, "blocks": [[0, 1, 3], [1, 2, False]]}, "bad block entry"),
    ("spectrum", {"entries": [{"a": 0, "multiplicity": True}]}, "must be integers"),
    ("spectrum", {"entries": [{"a": 0, "b": 1, "d": True, "multiplicity": 1},
                              {"a": 0, "b": -1, "d": True, "multiplicity": 1}]},
     "must be integers"),
], ids=["graph-n", "graph-endpoint", "design-v", "design-point",
        "claim-multiplicity", "claim-d"])
def test_json_booleans_are_not_integers(capsys, tmp_path, command, payload, message):
    # json.loads gives bool for true and false, which Python counts as int
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    if command == "spectrum":
        graph_path = tmp_path / "g.json"
        graph_path.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
        argv = ["spectrum", str(graph_path), "--claim", str(path)]
    else:
        argv = [command, str(path)]
    code, obj = run_json(capsys, *argv)
    assert code == 2
    assert obj["error"]["type"] == "format"
    assert message in obj["error"]["message"]


def _fano_gamma1_file(capsys, tmp_path):
    _, out = run(capsys, "gamma1", "catalog:fano-7-3-1", "--format", "graph6")
    path = tmp_path / "fano-g1.g6"
    path.write_text(out)
    return path


@pytest.mark.parametrize("entries, expected", [
    # total multiplicity 10**9 against 21 vertices: refuted unexpanded
    ([{"a": 0, "multiplicity": 10**9}], 1),
    ([{"a": "1/2", "multiplicity": 10**9}], 2),
    # d = 10**18 + 3 takes trial division to its cube root only
    ([{"a": 0, "b": 1, "d": 10**18 + 3, "multiplicity": 1},
      {"a": 0, "b": -1, "d": 10**18 + 3, "multiplicity": 1},
      {"a": 0, "multiplicity": 19}], 1),
    # d = 2**89 - 1 is prime: no factor up to 2**22 and not below 2**66
    ([{"a": 0, "b": 1, "d": 2**89 - 1, "multiplicity": 1},
      {"a": 0, "b": -1, "d": 2**89 - 1, "multiplicity": 1}], 2),
], ids=["multiplicity-1e9", "non-integral-1e9", "d-1e18+3", "d-too-large"])
def test_large_claims_finish_quickly(capsys, tmp_path, entries, expected):
    graph_path = _fano_gamma1_file(capsys, tmp_path)
    claim_path = tmp_path / "claim.json"
    claim_path.write_text(json.dumps({"entries": entries}))
    start = time.perf_counter()
    code, obj = run_json(capsys, "spectrum", str(graph_path), "--claim",
                         str(claim_path))
    assert time.perf_counter() - start < 2.0
    assert code == expected
    if expected == 1:
        assert obj["verified"] is False


def test_formula_with_a_huge_radicand_exits_two(capsys):
    # disc = (v - 1)**2 with v - 1 = 10**12 + 39 prime, too large to factor
    start = time.perf_counter()
    code, obj = run_json(capsys, "formula", "gamma1", "--params",
                         "1000000000040,500000000039500000000780,"
                         "1000000000039,2,1")
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert "too large to factor" in obj["error"]["message"]
