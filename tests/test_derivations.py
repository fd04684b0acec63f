import json
from importlib import resources
from pathlib import Path

import pytest

from bccsp.axioms import build_system
from bccsp.derivations import (
    FIXTURE_LEMMAS,
    derivable_ids,
    derivation_hook,
    fixture_path,
    fixture_payload,
    fixture_scripts,
)
from bccsp.proofs import ProofBuilder, ProofError, check_proof, script_from_json
from bccsp.terms import make_alphabet

A = make_alphabet(("a", "b"))

DATA_DIR = Path(str(resources.files("bccsp").joinpath("data")))

EXPECTED_COUNTS = {
    ("E_S", "CS"): 4,
    ("E_S", "CSP1"): 16,
    ("E_S", "CSP2"): 8,
    ("E_T", "CT"): 8,
    ("E_T", "CTP"): 4,
    ("E_F", "FT"): 2,
    ("E_F", "RS"): 4,
    ("E_FT", "RT"): 8,
    ("E_R", "RT"): 8,
}


def test_derivable_ids():
    assert derivable_ids("E_S") == ("CS", "CSP1", "CSP2")
    assert derivable_ids("E_T") == ("CT", "CTP")
    assert derivable_ids("E_F") == ("FT", "RS")
    assert derivable_ids("E_FT") == ("RT",)
    assert derivable_ids("E_R") == ("RT",)
    assert derivable_ids("E_RS") == ()
    assert derivation_hook("E_RS") is None
    assert derivation_hook("E0") is None


def test_hook_derives_a_foreign_axiom():
    b = ProofBuilder(build_system("E_S", A), derive=derivation_hook("E_S"))
    idx = b.axiom("CS[a,b]")
    want = build_system("E_CS", A).by_id["CS[a,b]"]
    assert b.conclusion(idx) == (want.lhs, want.rhs)


def test_hook_refuses_out_of_scope_schemas():
    b = ProofBuilder(build_system("E_S", A), derive=derivation_hook("E_S"))
    with pytest.raises(ProofError):
        b.axiom("RT[a;a,b]")


@pytest.mark.parametrize("host,schema", FIXTURE_LEMMAS)
def test_generated_scripts_check_against_the_host(host, schema):
    system = build_system(host, A)
    scripts = fixture_scripts(host, schema)
    assert len(scripts) == EXPECTED_COUNTS[(host, schema)]
    reference_ids = set()
    for eq, script in scripts:
        assert script.lhs is eq.lhs and script.rhs is eq.rhs
        assert check_proof(script, system)
        reference_ids.add(eq.id)
    assert len(reference_ids) == len(scripts)


@pytest.mark.parametrize("host,schema", FIXTURE_LEMMAS)
def test_shipped_fixtures_replay(host, schema):
    path = fixture_path(DATA_DIR, host, schema)
    doc = json.loads(path.read_text())
    assert doc["system"] == host
    assert doc["schema"] == schema
    alphabet = make_alphabet(tuple(doc["alphabet"]))
    system = build_system(host, alphabet)
    assert len(doc["scripts"]) == EXPECTED_COUNTS[(host, schema)]
    for entry in doc["scripts"]:
        script = script_from_json(entry, alphabet)
        out = check_proof(script, system)
        assert out, f"{entry['id']}: {out.reason}"


@pytest.mark.parametrize("host,schema", FIXTURE_LEMMAS)
def test_shipped_fixtures_are_current(host, schema):
    """Regenerating a fixture must reproduce the shipped file, so the data
    cannot silently drift from the derivation code."""
    path = fixture_path(DATA_DIR, host, schema)
    assert json.loads(path.read_text()) == fixture_payload(host, schema), (
        f"{path.name} is stale; regenerate the fixtures from the root of the checkout with "
        'PYTHONPATH=src python -c "from bccsp.derivations import main; main()"'
    )
