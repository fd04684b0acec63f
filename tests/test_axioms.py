import pytest

from bccsp.axioms import (
    PLAIN_SYSTEM_NAMES,
    SYNC_SYSTEM_NAMES,
    SYSTEM_NAMES,
    build_system,
    canonical_system_name,
    check_sound,
    saturate,
)
from bccsp.equivalences import NotRefuted, Refuted
from bccsp.semantics import TransitionMode
from bccsp.terms import Nil, Par, Prefix, Sum, Var, make_alphabet, render

from conftest import is_saturated

A = make_alphabet(("a", "b"))
S1 = make_alphabet(("a",), sync=True)

x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")


def ids_with_prefix(system, stem):
    return [e.id for e in system if e.id == stem or e.id.startswith(stem + "[")]


def test_system_name_tables():
    assert len(PLAIN_SYSTEM_NAMES) == 11
    assert len(SYNC_SYSTEM_NAMES) == 9
    assert "E0" in SYSTEM_NAMES and "E^c_RS" in SYSTEM_NAMES
    assert canonical_system_name("Ec_RS") == "E^c_RS"
    assert canonical_system_name("E_F") == "E_F"
    with pytest.raises(ValueError):
        canonical_system_name("E2")


def test_core_axiom_shapes():
    e0 = build_system("E0", A)
    assert [e.id for e in e0] == ["A0", "A1", "A2", "A3"]
    a0 = e0.by_id["A0"]
    assert a0.lhs is Sum(x, Nil()) and a0.rhs is x
    assert str(a0) == "A0: x + 0 = x"
    a2 = e0.by_id["A2"]
    assert a2.lhs is Sum(Sum(x, y), z)
    assert a2.rhs is Sum(x, Sum(y, z))
    assert e0.target_relation == "B"


def test_parallel_unit_laws():
    e1 = build_system("E1", A)
    assert [e.id for e in e1] == ["A0", "A1", "A2", "A3", "P0", "P1"]
    assert e1.by_id["P0"].lhs is Par(x, Nil())
    assert e1.by_id["P1"].rhs is Par(y, x)


def test_plain_system_sizes_over_two_actions():
    sizes = {n: len(build_system(n, A)) for n in PLAIN_SYSTEM_NAMES}
    assert sizes == {
        "E0": 4,
        "E1": 6,
        "E_T": 13,
        "E_CT": 22,
        "E_F": 30,
        "E_R": 28,
        "E_FT": 30,
        "E_RT": 32,
        "E_S": 15,
        "E_CS": 38,
        "E_RS": 38,
    }


def test_sync_system_sizes_over_one_action():
    sizes = {n: len(build_system(n, S1)) for n in SYNC_SYSTEM_NAMES}
    assert sizes == {
        "E^c_T": 19,
        "E^c_CT": 51,
        "E^c_F": 85,
        "E^c_R": 82,
        "E^c_FT": 85,
        "E^c_RT": 154,
        "E^c_S": 22,
        "E^c_CS": 132,
        "E^c_RS": 112,
    }


def test_instance_counts_by_schema():
    ers = build_system("E_RS", A)
    assert len(ids_with_prefix(ers, "RS")) == 4
    assert len(ids_with_prefix(ers, "RSP1")) == 4
    assert len(ids_with_prefix(ers, "RSP2")) == 8
    assert len(ids_with_prefix(ers, "EL2")) == 16

    ecs = build_system("E_CS", A)
    assert len(ids_with_prefix(ecs, "CS")) == 4
    assert len(ids_with_prefix(ecs, "CSP1")) == 16
    assert len(ids_with_prefix(ecs, "CSP2")) == 8
    assert len(ids_with_prefix(ecs, "EL1")) == 4

    ert = build_system("E_RT", A)
    assert len(ids_with_prefix(ert, "RT")) == 8
    assert len(ids_with_prefix(ert, "FP")) == 2
    assert len(ids_with_prefix(ert, "EL2")) == 16


def test_schema_ids_spell_their_parameters():
    ers = build_system("E_RS", A)
    assert "RSP2[{a};b]" in ers.by_id
    assert "RSP2[{a,b};a]" in ers.by_id
    assert "EL2[{};{}]" in ers.by_id
    assert "RT[a;a,b]" in build_system("E_RT", A).by_id
    assert "CSP1[a,b,a,b]" in build_system("E_CS", A).by_id


def test_expansion_law_shape():
    el = build_system("E_CS", A).by_id["EL1[a,b]"]
    assert el.lhs is Par(Prefix("a", x), Prefix("b", y))
    assert el.rhs is Sum(
        Prefix("a", Par(x, Prefix("b", y))),
        Prefix("b", Par(Prefix("a", x), y)),
    )


def test_empty_expansion_law_is_the_nil_merge():
    el = build_system("E_RS", A).by_id["EL2[{};{}]"]
    assert el.lhs is Par(Nil(), Nil())
    assert el.rhs is Nil()


def test_sync_expansion_marks_complementary_pairs():
    ect = build_system("E^c_T", S1)
    assert "ELC1t[a,a']" in ect.by_id
    assert "ELC1[a,tau]" in ect.by_id
    marked = ect.by_id["ELC1t[a,a']"]
    plain = ect.by_id["ELC1[a,a]"]
    # the synchronising variant carries one extra summand
    assert render(marked.rhs).count("+") == render(plain.rhs).count("+") + 1
    assert "tau.(x || y)" in render(marked.rhs)


def test_target_relations():
    assert build_system("E0", A).target_relation == "B"
    assert build_system("E1", A).target_relation == "B"
    for n in PLAIN_SYSTEM_NAMES[2:]:
        assert build_system(n, A).target_relation == n[2:]
    assert build_system("E^c_RT", S1).target_relation == "RT"


def test_build_system_input_validation():
    with pytest.raises(ValueError):
        build_system("E_RS", S1)  # sync alphabet with a plain system
    with pytest.raises(ValueError):
        build_system("E^c_RS", A)  # plain alphabet with a sync system
    with pytest.raises(ValueError):
        build_system("E_RS", A, TransitionMode.CCS_SYNC)
    with pytest.raises(ValueError):
        build_system("E9", A)


def test_check_sound_distinguishes_relations():
    tp = build_system("E_T", A).by_id["TP"]
    assert isinstance(check_sound(tp, "B", A), Refuted)
    assert isinstance(check_sound(tp, "T", A), NotRefuted)


def test_saturate_adds_zeroed_instances():
    sat = saturate(build_system("E_S", A))
    assert sat.name == "cl(E_S)"
    eq = sat.by_id["SP2[a]/z=0"]
    assert render(eq.lhs) == "a.x || y"
    assert render(eq.rhs) == "a.(x || y) + a.x || y + a.x"
    assert sat.target_relation == "S"


def test_saturation_status():
    assert is_saturated(build_system("E0", A))
    assert is_saturated(build_system("E1", A))
    assert not is_saturated(build_system("E_S", A))
    assert is_saturated(saturate(build_system("E_S", A)))
