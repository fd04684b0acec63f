import pytest

from bccsp.eliminate import eliminate
from bccsp.semantics import TransitionMode
from bccsp.terms import Nil, Par, Prefix, Sum, Var, depth, make_alphabet, norm, render
from bccsp.witness import (
    WitnessCheckError,
    has_summand_equiv,
    make_family,
    negative_evidence_report,
    script_summand_audit,
)

a0 = Prefix("a", Nil())
b0 = Prefix("b", Nil())


def test_first_family_member_is_the_expected_expansion():
    fam = make_family("interleaving", 1)
    assert str(fam.equation) == "e_1: a.0 || b.a.0 = a.b.a.0 + b.(a.0 || a.0)"
    assert render(fam.p) == "b.a.0"
    assert fam.mode is TransitionMode.INTERLEAVING


def test_family_shape_grows_with_n():
    fam = make_family("interleaving", 3)
    assert norm(fam.equation.lhs) == 3
    assert depth(fam.equation.lhs) == 5
    assert (
        render(fam.equation.rhs)
        == "a.(b.a.0 + b.b.a.0 + b.b.b.a.0) + b.(a.0 || a.0) + "
        "b.(a.0 || b.a.0) + b.(a.0 || b.b.a.0)"
    )


def test_sync_family_stacks_the_silent_action():
    fam = make_family("sync", 2)
    assert fam.equation.id == "ec_2"
    assert render(fam.p) == "tau.a.0 + tau.tau.a.0"
    assert fam.mode is TransitionMode.CCS_SYNC


def test_family_input_validation():
    with pytest.raises(ValueError, match="unknown witness kind"):
        make_family("weak", 1)
    with pytest.raises(ValueError, match="starts at N = 1"):
        make_family("interleaving", 0)
    with pytest.raises(ValueError, match="two distinct actions"):
        make_family("interleaving", 2, make_alphabet(("a",)))
    with pytest.raises(ValueError, match="plain alphabet"):
        make_family("interleaving", 2, make_alphabet(("a", "b"), sync=True))
    with pytest.raises(ValueError, match="sync-mode alphabet"):
        make_family("sync", 2, make_alphabet(("a", "b")))


def test_has_summand_equiv_scans_top_level_summands(ab):
    p = Sum(a0, Prefix("b", a0))
    assert has_summand_equiv(p, a0, "PF", ab)
    assert has_summand_equiv(p, Prefix("b", Sum(a0, a0)), "PF", ab)
    assert not has_summand_equiv(p, b0, "PF", ab)
    assert not has_summand_equiv(a0, b0, "PF", ab)
    with pytest.raises(ValueError, match="closed"):
        has_summand_equiv(Sum(a0, Prefix("a", Var("x"))), a0, "PF", ab)


def test_witness_summand_asymmetry_for_small_n(ab):
    fam = make_family("interleaving", 2)
    lhs, rhs = fam.equation.lhs, fam.equation.rhs
    assert has_summand_equiv(lhs, lhs, "PF", ab)
    assert not has_summand_equiv(rhs, lhs, "PF", ab)


def test_negative_evidence_report_interleaving(ab):
    rep = negative_evidence_report("interleaving", 3)
    assert rep["all_pass"] is True
    assert rep["n_max"] == 3
    assert [f["n"] for f in rep["families"]] == [1, 2, 3]
    for fam in rep["families"]:
        assert all(fam["checks"].values())
    assert "tau_steps_on_both_sides" not in rep["families"][0]["checks"]


def test_negative_evidence_report_sync():
    rep = negative_evidence_report("sync", 2)
    assert rep["all_pass"] is True
    assert rep["alphabet"] == ["a", "a'", "tau"]
    for fam in rep["families"]:
        assert fam["checks"]["tau_steps_on_both_sides"] is True


@pytest.mark.parametrize("kind", ["interleaving", "sync"])
def test_negative_evidence_report_at_a_hundred(kind):
    # PF is decided by a class per node and the report holds every family
    # for its length, so the families share their towers' classes
    rep = negative_evidence_report(kind, 100)
    assert rep["all_pass"] is True
    assert [f["n"] for f in rep["families"]] == list(range(1, 101))
    assert all(all(fam["checks"].values()) for fam in rep["families"])


def test_negative_evidence_report_validation():
    with pytest.raises(ValueError, match="n_max"):
        negative_evidence_report("interleaving", 0)
    with pytest.raises(ValueError, match="unknown witness kind"):
        negative_evidence_report("nope", 2)


def test_script_audit_sees_the_split_destroy_the_summand(ab):
    target = Par(a0, b0)
    result, script = eliminate(target, "E_RS", ab, emit_proof=True)
    assert render(result) == "a.b.0 + b.a.0"
    audit = script_summand_audit(script, "E_RS", target, alphabet=ab)
    assert audit["steps"] > 0
    assert 0 < audit["closed_steps"] <= audit["steps"]
    assert audit["preserved"] is False
    assert audit["violations"]


def test_script_audit_preserves_an_unrelated_target(ab):
    target = Par(a0, b0)
    _, script = eliminate(target, "E_RS", ab, emit_proof=True)
    stranger = Prefix("a", Prefix("a", Prefix("a", Nil())))
    audit = script_summand_audit(script, "E_RS", stranger, alphabet=ab)
    assert audit["preserved"] is True
    assert audit["violations"] == []


def test_check_error_is_a_value_error():
    assert issubclass(WitnessCheckError, ValueError)
