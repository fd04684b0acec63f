import json

import pytest

from bccsp.cli import main
from bccsp.proofs import script_from_json
from bccsp.terms import make_alphabet, render

A = make_alphabet(("a", "b"))
THREE = "(a + b) || a.b || a"


@pytest.mark.parametrize("system", ("E_CS", "E_S", "E_RS", "E_T"))
def test_eliminate_proof_out_then_prove_check(tmp_path, capsys, system):
    out = tmp_path / "proof.json"
    assert main(["eliminate", THREE, "--system", system, "--proof-out", str(out)]) == 0
    result = capsys.readouterr().out.strip()
    assert "||" not in result
    doc = json.loads(out.read_text())
    assert doc["system"] == system
    assert render(script_from_json(doc, A).rhs) == result

    assert main(["prove-check", str(out)]) == 0
    assert capsys.readouterr().out.startswith("accepted")
    assert main(["prove-check", str(out), "--emit", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["accepted"] is True
    assert report["steps"] == len(doc["steps"])


def test_prove_check_rejects_a_script_under_a_system_without_its_axioms(tmp_path, capsys):
    out = tmp_path / "proof.json"
    assert main(["eliminate", THREE, "--system", "E_CS", "--proof-out", str(out)]) == 0
    capsys.readouterr()
    assert main(["prove-check", str(out), "--system", "E_RS"]) == 1
    assert capsys.readouterr().out.startswith("rejected")


def test_common_options_go_on_either_side_of_the_subcommand(capsys):
    assert main(["--sync", "--alphabet", "a", "eliminate", "a || a'", "--system", "E^c_CS"]) == 0
    before = capsys.readouterr().out
    assert main(["eliminate", "a || a'", "--system", "E^c_CS", "--sync", "--alphabet", "a"]) == 0
    assert capsys.readouterr().out == before
    assert "tau." in before


def test_unknown_options_and_bad_terms_are_usage_errors(capsys):
    assert main(["--jobs", "2", "parse", "a"]) == 2
    assert main(["parse", "a.(b"]) == 2
    capsys.readouterr()


def test_deep_prefix_chains_parse_and_compare(capsys):
    assert main(["parse", "a." * 990 + "0"]) == 0
    assert capsys.readouterr().out.startswith("a." * 990)
    assert main(["parse", "(" * 400 + "a" + ")" * 400]) == 0
    assert capsys.readouterr().out.strip() == "a.0"
    assert main(["parse", "(" * 400 + "a" + ")" * 399]) == 2
    assert "expected ')'" in capsys.readouterr().err
    assert main(["equiv", "CT", "a." * 1000 + "0", "a." * 999 + "b"]) == 1
    assert capsys.readouterr().out.strip() == "CT: not equivalent"


def test_bisimilarity_of_deep_prefix_chains(capsys):
    assert main(["equiv", "B", "a." * 400 + "0", "a." * 400 + "b"]) == 1
    assert capsys.readouterr().out.strip() == "B: not equivalent"


def test_equiv_takes_nested_relations_by_name(capsys):
    assert main(["equiv", "NS2", "a.(a + b)", "a.a + a.b"]) == 1
    assert capsys.readouterr().out.strip() == "NS2: not equivalent"
    assert main(["equiv", "NTx", "a", "b"]) == 2
    assert capsys.readouterr().err.strip() == "error: unknown relation 'NTx'"


def test_json_output_carries_the_proof_written_out(tmp_path, capsys):
    out = tmp_path / "proof.json"
    argv = ["eliminate", "a || b", "--system", "E_RS", "--emit", "json"]
    assert main(argv + ["--proof-out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["proof"] == json.loads(out.read_text())
    back = script_from_json(doc["proof"], A)
    assert (render(back.lhs), render(back.rhs)) == ("a.0 || b.0", doc["result"])
    assert doc["proof_steps"] == len(doc["proof"]["steps"])
    assert main(argv) == 0
    assert "proof" not in json.loads(capsys.readouterr().out)


def test_a_deep_term_eliminates_and_its_proof_checks(tmp_path, capsys):
    out = tmp_path / "proof.json"
    term = "a." * 800 + "(a || b)"
    assert main(["eliminate", term, "--system", "E_RS", "--proof-out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("a." * 800)
    assert main(["prove-check", str(out)]) == 0
    assert capsys.readouterr().out.startswith("accepted")


ROWS = [["0"], [".", "a", 0]]
GOAL = {"lhs": 1, "rhs": 1}
REFL = [{"rule": "refl", "term": 1}]


def table(*rows) -> dict:
    return {"terms": [["0"], *rows], "goal": {"lhs": 0, "rhs": 0}, "steps": []}


@pytest.mark.parametrize(
    "doc,system",
    [
        ({"terms": ROWS, "goal": GOAL, "steps": [{"rule": "refl", "term": 1, "of": 3}]}, "E0"),
        ([1], "E0"),
        ({"terms": ROWS, "goal": GOAL, "steps": {"rule": "refl"}}, "E0"),
        ({"terms": ROWS, "goal": GOAL, "steps": [7]}, "E0"),
        ({"terms": ROWS, "goal": GOAL, "steps": [{"rule": "refl", "term": 1, "of": ["0"]}]}, "E0"),
        ({"terms": ROWS, "goal": GOAL, "steps": [{"rule": "refl", "term": "a"}]}, "E0"),
        ({"terms": ROWS, "goal": [1, 1], "steps": []}, "E0"),
        ({"terms": ROWS, "goal": GOAL, "steps": [], "system": 3}, None),
        # rows referring to themselves or to later rows
        (table(["+", 1, 0]), "E0"),
        ({"terms": [[".", "a", 1], ["0"]], "goal": {"lhs": 1, "rhs": 1}, "steps": []}, "E0"),
        # an unknown tag, a row of the wrong length, a row that is no list
        (table(["*", 0, 0]), "E0"),
        (table([".", "a"]), "E0"),
        (table(["0", 0]), "E0"),
        (table([]), "E0"),
        (table("0"), "E0"),
        # an action outside the alphabet, a variable named like an action
        (table([".", "c", 0]), "E0"),
        (table(["v", "a"]), "E0"),
        (table(["v", ""]), "E0"),
        # term indices out of range or not integers
        ({"terms": ROWS, "goal": {"lhs": 1, "rhs": 2}, "steps": REFL}, "E0"),
        ({"terms": ROWS, "goal": GOAL, "steps": [{"rule": "refl", "term": -1}]}, "E0"),
        ({"terms": ROWS, "goal": GOAL, "steps": [{"rule": "axiom", "axiom": "A0", "subst": {"x": 2}}]}, "E0"),
        ({"terms": ROWS, "goal": {"lhs": True, "rhs": 1}, "steps": REFL}, "E0"),
        # terms that is not a list, and a script that writes its terms as text
        ({"terms": {"0": ["0"]}, "goal": GOAL, "steps": REFL}, "E0"),
        ({"goal": {"lhs": "a", "rhs": "a"}, "steps": [{"rule": "refl", "term": "a"}]}, "E0"),
    ],
)
def test_prove_check_reports_malformed_scripts_as_errors(tmp_path, capsys, doc, system):
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(doc))
    argv = ["prove-check", str(path)] + (["--system", system] if system else [])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_models_of_a_deep_goal(capsys):
    goal = "a." * 1500 + "0 = 0"
    argv = ["model", "check", "--fixture", "table6", "--axioms", "E_CS", "--goal", goal]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip().endswith("fails at {}: lhs=4 rhs=0")
    assert main(["model", "search", "--axioms", "E_T", "--carrier", "2", "--goal", goal]) == 0
    assert capsys.readouterr().out.startswith("found at carrier 2")


def test_model_without_a_table_for_an_action(tmp_path, capsys):
    path = tmp_path / "m.json"
    tab = [[0, 1], [1, 1]]
    path.write_text(json.dumps({"carrier": 2, "zero": 0, "prefix": {"a": [1, 1]}, "plus": tab, "par": tab}))
    argv = ["model", "check", "--file", str(path), "--axioms", "E_T", "--goal", "a.0 = b.0"]
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == "error: model has no table for action 'b'"
