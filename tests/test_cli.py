import json

import pytest

from bccsp.cli import main

THREE = "(a + b) || a.b || a"


@pytest.mark.parametrize("system", ("E_CS", "E_S", "E_RS", "E_T"))
def test_eliminate_proof_out_then_prove_check(tmp_path, capsys, system):
    out = tmp_path / "proof.json"
    assert main(["eliminate", THREE, "--system", system, "--proof-out", str(out)]) == 0
    result = capsys.readouterr().out.strip()
    assert "||" not in result
    doc = json.loads(out.read_text())
    assert doc["system"] == system
    assert doc["goal"]["rhs"] == result

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


def test_json_output_carries_the_proof_written_out(tmp_path, capsys):
    out = tmp_path / "proof.json"
    argv = ["eliminate", "a || b", "--system", "E_RS", "--emit", "json"]
    assert main(argv + ["--proof-out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["proof"] == json.loads(out.read_text())
    assert doc["proof"]["goal"] == {"lhs": "a.0 || b.0", "rhs": doc["result"]}
    assert doc["proof_steps"] == len(doc["proof"]["steps"])
    assert main(argv) == 0
    assert "proof" not in json.loads(capsys.readouterr().out)


GOAL = {"lhs": "a", "rhs": "a"}


@pytest.mark.parametrize(
    "doc,system",
    [
        ({"goal": GOAL, "steps": [{"rule": "refl", "term": "a", "of": 3}]}, "E0"),
        ([1], "E0"),
        ({"goal": GOAL, "steps": {"rule": "refl"}}, "E0"),
        ({"goal": GOAL, "steps": [7]}, "E0"),
        ({"goal": GOAL, "steps": [{"rule": "refl", "term": "a", "path": ["0"]}]}, "E0"),
        ({"goal": GOAL, "steps": [{"rule": "refl", "term": 1}]}, "E0"),
        ({"goal": ["a", "a"], "steps": []}, "E0"),
        ({"goal": GOAL, "steps": [], "system": 3}, None),
    ],
)
def test_prove_check_reports_malformed_scripts_as_errors(tmp_path, capsys, doc, system):
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(doc))
    argv = ["prove-check", str(path)] + (["--system", system] if system else [])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
