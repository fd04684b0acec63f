import importlib
import json

import pytest

from bccsp.axioms import build_system
from bccsp.eliminate import eliminate, family_of, par_free
from bccsp.equivalences import equivalent
from bccsp.proofs import (
    Accepted,
    ProofScript,
    Rejected,
    check_proof,
    script_from_json,
    script_to_json,
)
from bccsp.semantics import TransitionMode
from bccsp.terms import Nil, Prefix, Sum, Var, make_alphabet, parse, render

A = make_alphabet(("a", "b"))
S1 = make_alphabet(("a",), sync=True)

# the package exports the function under the module's name
eliminate_module = importlib.import_module("bccsp.eliminate")

ELIMINATING = ("E_T", "E_CT", "E_F", "E_R", "E_FT", "E_RT", "E_S", "E_CS", "E_RS")


def test_family_of():
    assert family_of("E_RS") == "RS"
    assert family_of("E_S") == "CS"
    assert family_of("E_CS") == "CS"
    assert family_of("E_F") == "RT"
    assert family_of("E_T") == "CT"
    assert family_of("E^c_CT") == "CT"
    for name in ("E0", "E1"):
        with pytest.raises(ValueError):
            family_of(name)


def test_par_free():
    assert par_free(parse("a.b + b.a", A))
    assert not par_free(parse("a.(b || 0)", A))


def test_two_prefixes_expand_to_the_interleaving():
    got, script = eliminate(parse("a || b", A), "E_RS", A)
    assert got is parse("a.b + b.a", A)
    assert script is None


def test_nested_parallel_is_fully_removed():
    t = parse("(a || b) || a.b", A)
    got, _ = eliminate(t, "E_CS", A)
    assert par_free(got)
    assert equivalent(t, got, "CS", A)


def test_eliminate_accepts_built_systems_and_requires_alphabets():
    sys_ = build_system("E_RT", A)
    got, _ = eliminate(parse("a || a", A), sys_)
    assert par_free(got)
    with pytest.raises(ValueError):
        eliminate(parse("a || a", A), "E_RT")


def test_eliminate_rejects_open_terms_and_lawless_systems():
    with pytest.raises(ValueError):
        eliminate(Var("x"), "E_RS", A)
    for name in ("E0", "E1"):
        with pytest.raises(ValueError):
            eliminate(parse("a || b", A), name, A)


def first_case_axiom(script):
    for step in script.steps:
        if step.rule == "axiom" and step.axiom_id[0] not in "AP":
            return step.axiom_id
    return None


@pytest.mark.parametrize(
    "system,text,axiom",
    [
        ("E_RS", "(a + a.b) || (b + b.a)", "RSP1[a,b]"),
        ("E_RS", "(a + b) || (a + a.b)", "RSP2[{a,b};a]"),
        ("E_RS", "a || b", "EL2[{a};{b}]"),
        ("E_CS", "a || (a + b)", "CSP2[a,a,b]"),
        ("E_CS", "(a + b) || (a + b)", "CSP1[a,b,a,b]"),
        ("E_CS", "a || b", "EL1[a,b]"),
        ("E_RT", "(a + a.b) || b", "FP[a]"),
        ("E_RT", "(a + b) || a", "EL2[{a,b};{a}]"),
        ("E_CT", "(a + b) || a", "CTP[a,b]"),
        ("E_CT", "b || a", "EL1[b,a]"),
    ],
)
def test_case_analysis_picks_the_family_axiom(system, text, axiom):
    t = parse(text, A)
    got, script = eliminate(t, system, A, emit_proof=True)
    assert par_free(got)
    assert first_case_axiom(script) == axiom
    assert check_proof(script, build_system(system, A))


@pytest.mark.parametrize("name", ELIMINATING)
def test_each_system_eliminates_and_proves(name):
    sys_ = build_system(name, A)
    rel = sys_.target_relation
    for text in ("a || b", "(a + b.a) || (b + a.b)", "a.(a || b) + b || a"):
        t = parse(text, A)
        got, script = eliminate(t, sys_, emit_proof=True)
        assert par_free(got)
        assert equivalent(t, got, rel, A)
        assert check_proof(script, sys_), f"{name} on {text}"


@pytest.mark.parametrize("name", ("E^c_T", "E^c_S", "E^c_RS", "E^c_RT"))
def test_sync_systems_eliminate_with_silent_summands(name):
    sys_ = build_system(name, S1)
    t = parse("a || a'", S1)
    got, script = eliminate(t, sys_, emit_proof=True)
    assert par_free(got)
    assert "tau." in render(got)
    assert equivalent(t, got, sys_.target_relation, S1, TransitionMode.CCS_SYNC)
    assert check_proof(script, sys_)


def test_elimination_is_stable_on_par_free_input():
    t = parse("a.b + b", A)
    got, script = eliminate(t, "E_RS", A, emit_proof=True)
    assert got is t
    assert check_proof(script, build_system("E_RS", A))


def count_case_splits(monkeypatch):
    """Wrap the case split so every call is recorded with its node."""
    seen = []
    real = eliminate_module._case

    def counting(ctx, tr):
        seen.append(tr.term)
        return real(ctx, tr)

    monkeypatch.setattr(eliminate_module, "_case", counting)
    return seen


@pytest.mark.parametrize("name", ("E_RS", "E_CS", "E_RT", "E_CT", "E_S", "E_T"))
@pytest.mark.parametrize("emit_proof", (False, True))
def test_a_recurring_parallel_node_is_split_once(monkeypatch, name, emit_proof):
    abc = make_alphabet(("a", "b", "c"))
    sys_ = build_system(name, abc)
    seen = count_case_splits(monkeypatch)
    alone, _ = eliminate(parse("b || c", abc), sys_, emit_proof=emit_proof)
    splits_alone = len(seen)
    seen.clear()
    t = parse("a.(b || c) + (b || c)", abc)
    got, script = eliminate(t, sys_, emit_proof=emit_proof)
    assert len(seen) == splits_alone > 0
    assert got is Sum(Prefix("a", alone), alone)
    if emit_proof:
        assert check_proof(script, sys_)


@pytest.mark.parametrize(
    "name,sync,text",
    [
        (
            "E^c_S",
            True,
            "a.((a'.0 + a'.0) || a.tau.0) + ((a'.0 + a'.0) || a.tau.0) || a'.a'.0",
        ),
        ("E_CT", False, "b.(b.0 + b.0) || (a.b.0 + a.(b.0 + a.0)) || a.b.0"),
        ("E_RS", False, "b.(b.0 + b.0) || (a.b.0 + a.(b.0 + a.0)) || a.b.0"),
    ],
)
def test_three_component_terms_with_repeated_heads(name, sync, text):
    alpha = S1 if sync else A
    sys_ = build_system(name, alpha)
    t = parse(text, alpha)
    got, script = eliminate(t, sys_, emit_proof=True)
    assert par_free(got)
    assert script.lhs is t and script.rhs is got
    assert check_proof(script, sys_)


def test_a_result_too_large_to_print_round_trips_through_json():
    # the result has under 2,000 distinct nodes but about 3e9 tree nodes
    sys_ = build_system("E_RS", A)
    t = parse("b.(b.0 + b.0) || (a.b.0 + a.(b.0 + a.0)) || a.b.0", A)
    result, script = eliminate(t, sys_, emit_proof=True)
    blob = json.dumps(script_to_json(script, sys_.name))
    assert len(blob) < 1_000_000
    back = script_from_json(json.loads(blob), A)
    assert back.lhs is t and back.rhs is result
    assert check_proof(back, sys_) == Accepted(len(script.steps))
    # a rejection names the huge side by its size
    out = check_proof(ProofScript(t, Nil(), back.steps), sys_)
    assert isinstance(out, Rejected) and out.step == -1
    assert len(out.reason) < 1000 and "<term of size" in out.reason


def test_a_split_that_does_not_shrink_is_caught(monkeypatch):
    # with every measure equal, the first parallel node a split leaves behind
    # is no smaller than the node split
    monkeypatch.setattr(eliminate_module, "size", lambda t: 1)
    with pytest.raises(AssertionError, match="failed to shrink"):
        eliminate(parse("a.b || b", A), "E_RS", A)


def test_a_split_that_leaves_its_node_behind_is_caught(monkeypatch):
    monkeypatch.setattr(eliminate_module, "_case", lambda ctx, tr: None)
    with pytest.raises(AssertionError, match="needs itself"):
        eliminate(parse("a || b", A), "E_RS", A)


def test_deep_terms_do_not_exhaust_the_call_stack():
    # the first term is built with the constructors, so only the elimination
    # and the analyses it calls can run out of call frames; it goes first,
    # because the second is a subterm of it and would leave its entries
    # cached
    deep = parse("a || b", A)
    for _ in range(1500):
        deep = Prefix("a", deep)
    sys_ = build_system("E_RS", A)
    for t in (deep, parse("a." * 800 + "(a || b)", A)):
        got, script = eliminate(t, sys_, emit_proof=True)
        assert par_free(got)
        assert check_proof(script, sys_)


def test_par_free_is_cached_on_shared_nodes():
    shared = parse("a || b", A)
    t = parse("a.(a || b) + b.(a || b)", A)
    assert not par_free(t)
    assert shared.cache()["par_free"] is False
    assert par_free(parse("a.(a.b + b)", A))


def test_the_reference_system_is_built_once_per_alphabet(monkeypatch):
    built = []
    real = eliminate_module.build_system

    def counting(name, alphabet):
        built.append((name, alphabet))
        return real(name, alphabet)

    monkeypatch.setattr(eliminate_module, "build_system", counting)
    eliminate_module._reference_system.cache_clear()
    for name, alpha in (("E_S", A), ("E_T", A), ("E^c_F", S1)):
        sys_ = build_system(name, alpha)
        for _ in range(3):
            got, script = eliminate(parse("a || a.a", alpha), sys_, emit_proof=True)
            assert check_proof(script, sys_)
    assert built == [("E_CS", A), ("E_CT", A), ("E^c_RT", S1)]
