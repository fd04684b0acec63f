import json
from importlib import resources
from pathlib import Path

import pytest
from conftest import open_terms
from hypothesis import given, settings
from hypothesis import strategies as st

from bccsp.axioms import build_system
from bccsp.proofs import (
    Accepted,
    AcMismatch,
    ProofBuilder,
    ProofError,
    ProofScript,
    Rejected,
    Step,
    TermTrace,
    canon,
    check_proof,
    replay_conclusions,
    script_from_json,
    script_to_json,
)
from bccsp.terms import Nil, Par, Prefix, Sum, make_alphabet, parse, postorder

A = make_alphabet(("a", "b"))
E0 = build_system("E0", A)
E1 = build_system("E1", A)

pa = parse("a.0", A)
pb = parse("b.0", A)


def test_canon_flattens_sorts_dedups_drops_zero():
    assert canon(parse("b + a + 0 + a", A)) is parse("a + b", A)
    assert canon(parse("a.(y + x + x)", A)) is parse("a.(x + y)", A)
    assert canon(parse("0 + 0", A)) is parse("0", A)
    assert canon(parse("(x + y) || (y + x)", A)) is parse("(x + y) || (x + y)", A)


def test_empty_script_only_proves_trivial_goals():
    assert check_proof(ProofScript(pa, pa, ()), E0) == Accepted(0)
    out = check_proof(ProofScript(pa, pb, ()), E0)
    assert isinstance(out, Rejected) and out.step == -1


def test_refl_and_goal_mismatch():
    good = ProofScript(pa, pa, (Step("refl", term=pa),))
    assert check_proof(good, E0)
    bad = ProofScript(pa, pb, (Step("refl", term=pa),))
    out = check_proof(bad, E0)
    assert not out and out.step == -1
    assert "goal" in out.reason


def test_axiom_step_with_substitution():
    lhs = Sum(pa, pa)
    steps = (Step("axiom", axiom_id="A3", subst=(("x", pa),)),)
    assert check_proof(ProofScript(lhs, pa, steps), E0)
    # flipped direction swaps the conclusion
    steps = (Step("axiom", axiom_id="A3", subst=(("x", pa),), direction="rl"),)
    assert check_proof(ProofScript(pa, lhs, steps), E0)


def test_axiom_outside_the_system_is_rejected():
    steps = (Step("axiom", axiom_id="P0", subst=(("x", pa),)),)
    out = check_proof(ProofScript(parse("a || 0", A), pa, steps), E0)
    assert isinstance(out, Rejected)
    assert out.step == 0
    assert "not in system" in out.reason


def test_broken_transitivity_chain():
    steps = (
        Step("refl", term=pa),
        Step("refl", term=pb),
        Step("trans", of=(0, 1)),
    )
    out = check_proof(ProofScript(pa, pb, steps), E0)
    assert isinstance(out, Rejected)
    assert out.step == 2
    assert "chain" in out.reason


def test_premise_index_out_of_range():
    out = check_proof(ProofScript(pa, pa, (Step("sym", of=(3,)),)), E0)
    assert isinstance(out, Rejected) and out.step == 0


def test_replay_conclusions_lists_every_step():
    steps = (
        Step("refl", term=pa),
        Step("cong_prefix", of=(0,), action="b"),
    )
    concl = replay_conclusions(ProofScript(pa, pa, steps), E0)
    assert concl == [(pa, pa), (parse("b.a", A), parse("b.a", A))]
    with pytest.raises(ProofError):
        replay_conclusions(ProofScript(pa, pa, (Step("sym", of=(9,)),)), E0)


def test_builder_ac_proves_choice_rearrangements():
    t = parse("a + (b + a)", A)
    u = parse("b + a + a + 0", A)
    b = ProofBuilder(E0)
    idx = b.ac(t, u)
    script = b.script(t, u, idx)
    assert check_proof(script, E0) == Accepted(len(script.steps))


def leaves(t):
    return leaves(t.left) + leaves(t.right) if isinstance(t, Sum) else [t]


def bracket(rnd, ts):
    """A sum of ts, in order, bracketed at random."""
    if len(ts) == 1:
        return ts[0]
    cut = rnd.randint(1, len(ts) - 1)
    return Sum(bracket(rnd, ts[:cut]), bracket(rnd, ts[cut:]))


def reshuffle(rnd, t):
    """t with every sum rebuilt from its leaves, shuffled, with one leaf
    repeated and one 0 added."""
    if isinstance(t, Prefix):
        return Prefix(t.action, reshuffle(rnd, t.body))
    if isinstance(t, Par):
        return Par(reshuffle(rnd, t.left), reshuffle(rnd, t.right))
    if not isinstance(t, Sum):
        return t
    ts = [reshuffle(rnd, u) for u in leaves(t)]
    ts += [rnd.choice(ts), Nil()]
    rnd.shuffle(ts)
    return bracket(rnd, ts)


@settings(max_examples=150, deadline=None)
@given(open_terms, open_terms, st.randoms(use_true_random=False))
def test_builder_ac_proves_every_reshuffle(t, other, rnd):
    u = reshuffle(rnd, t)
    b = ProofBuilder(E0)
    script = b.script(t, u, b.ac(t, u))
    assert check_proof(script, E0) == Accepted(len(script.steps))
    if canon(t) is canon(other):
        assert check_proof(b.script(t, other, b.ac(t, other)), E0)
    else:
        with pytest.raises(AcMismatch):
            b.ac(t, other)


def test_builder_ac_normalises_a_recurring_sum_once():
    t = parse("(b + a) || a.(b + a)", A)
    u = parse("(a + b) || a.(a + b)", A)
    b = ProofBuilder(E0)
    script = b.script(t, u, b.ac(t, u))
    assert check_proof(script, E0)
    used = [s.axiom_id for s in script.steps if s.rule == "axiom"]
    assert used == ["A1"]


def test_script_stops_at_the_final_step():
    # the A3 instance is not the last step the builder holds
    b = ProofBuilder(E0)
    idx = b.axiom("A3", {"x": pa})
    b.refl(pb)
    script = b.script(Sum(pa, pa), pa, idx)
    assert check_proof(script, E0) == Accepted(1)


def test_builder_ac_rejects_genuinely_different_terms():
    b = ProofBuilder(E0)
    with pytest.raises(AcMismatch):
        b.ac(pa, pb)


def test_builder_rewrite_deep_in_a_term():
    host = parse("(a + a) || b.(0 + 0)", A)
    b = ProofBuilder(E1)
    idx = b.embed(host, (0,), b.axiom("A3", {"x": pa}))
    new = b.conclusion(idx)[1]
    assert new is parse("a || b.(0 + 0)", A)
    idx2 = b.embed(new, (1, 0), b.axiom("A0", {"x": Nil()}))
    new2 = b.conclusion(idx2)[1]
    assert new2 is parse("a || b.0", A)
    with pytest.raises(ProofError):
        b.embed(new, (1,), idx2)
    final = b.trans([idx, idx2])
    script = b.script(host, new2, final)
    assert check_proof(script, E1)


def test_builder_refuses_wrong_goal():
    b = ProofBuilder(E0)
    idx = b.refl(pa)
    with pytest.raises(ProofError):
        b.script(pa, pb, idx)


def test_trace_without_builder_applies_choice_laws():
    t = parse("a + b", A)
    tr = TermTrace(t, None)
    tr.rewrite_axiom(E0.by_id["A1"], {"x": pa, "y": pb})
    assert tr.term is parse("b + a", A)
    tr.ac_to(parse("a + b + 0", A))
    assert tr.term is parse("a + b + 0", A)
    with pytest.raises(AcMismatch):
        tr.ac_to(pa)
    assert tr.proof_index() is None


def test_trace_with_builder_accumulates_a_proof():
    t = parse("(a + a) + b", A)
    b = ProofBuilder(E0)
    tr = TermTrace(t, b)
    tr.ac_to(parse("a + b", A))
    idx = tr.proof_index()
    script = b.script(t, parse("a + b", A), idx)
    assert check_proof(script, E0)


@pytest.mark.parametrize("emit", (False, True))
def test_splice_children_rewrites_both_sides_in_one_step(emit):
    host = parse("(b + b) || a.(a + 0)", A)
    b = ProofBuilder(E0) if emit else None
    left, right = TermTrace(host.left, b), TermTrace(host.right, b)
    left.ac_to(pb)
    right.ac_to(parse("a.a", A))
    tr = TermTrace(host, b)
    tr.splice_children([left, right])
    assert tr.term is parse("b || a.a", A)
    tr.splice_children([None, TermTrace(tr.term.right, b)])
    assert tr.term is parse("b || a.a", A)
    with pytest.raises(ProofError):
        tr.splice_children([None, left])
    if emit:
        script = b.script(host, tr.term, tr.proof_index())
        assert check_proof(script, E0)
        assert sum(s.rule == "cong_par" for s in script.steps) == 1


def test_cong_checks_the_children():
    host = parse("a.(b + 0)", A)
    b = ProofBuilder(E0)
    idx = b.axiom("A0", {"x": pb})
    step = b.cong(host, [idx])
    assert b.conclusion(step) == (host, parse("a.b", A))
    with pytest.raises(ProofError):
        b.cong(parse("a.b", A), [idx])


def test_script_json_round_trip():
    host = parse("b.(a + 0) + a.(a + 0)", A)
    b = ProofBuilder(E0)
    ax = b.axiom("A0", {"x": pa})
    first = b.embed(host, (0, 0), ax)
    idx = b.trans([first, b.embed(b.conclusion(first)[1], (1, 0), ax)])
    script = b.script(host, parse("b.a + a.a", A), idx)

    doc = script_to_json(script, system_name="E0")
    assert doc["system"] == "E0"
    text = json.dumps(doc)
    back = script_from_json(json.loads(text), A)
    assert back.lhs is script.lhs and back.rhs is script.rhs
    assert back.steps == script.steps
    assert check_proof(back, E0)
    # a + 0 is used by the goal and by several steps, each node is one row
    nodes = {u for t in script_terms(script) for u in postorder(t)}
    assert len(doc["terms"]) == len(nodes)
    assert len({json.dumps(row) for row in doc["terms"]}) == len(nodes)


def test_step_json_writes_terms_as_row_indices():
    step = Step("axiom", axiom_id="A0", subst=(("x", pa),))
    doc = script_to_json(ProofScript(Sum(pa, Nil()), pa, (step,)))
    rows = doc["terms"]
    nil = rows.index(["0"])
    a = rows.index([".", "a", nil])
    assert rows[doc["goal"]["lhs"]] == ["+", a, nil]
    assert doc["goal"]["rhs"] == a
    (sd,) = doc["steps"]
    assert sd == {"rule": "axiom", "subst": {"x": a}, "axiom": "A0", "dir": "lr"}
    assert all(i < k for k, row in enumerate(rows) for i in row[1:] if type(i) is int)


DATA_DIR = Path(str(resources.files("bccsp").joinpath("data")))


def step_indexes(d: dict) -> list:
    """(field, row index) for every term of one step's JSON."""
    out = [("term", d["term"])] if "term" in d else []
    out += [(f"subst {n}", i) for n, i in sorted(d.get("subst", {}).items())]
    return out


def step_terms(step: Step) -> list:
    out = [("term", step.term)] if step.term is not None else []
    out += [(f"subst {n}", t) for n, t in step.subst]
    return out


def script_terms(script: ProofScript) -> list:
    out = [script.lhs, script.rhs]
    for step in script.steps:
        out += [t for _, t in step_terms(step)]
    return out


def row_texts(rows) -> list:
    """Every row of a terms table written out as fully parenthesised text."""
    out: list = []
    for row in rows:
        if row[0] == "0":
            out.append("0")
        elif row[0] == "v":
            out.append(row[1])
        elif row[0] == ".":
            out.append(f"{row[1]}.({out[row[2]]})")
        else:
            out.append(f"({out[row[1]]}) {row[0]} ({out[row[2]]})")
    return out


@pytest.mark.parametrize("path", sorted(DATA_DIR.glob("derived_*.json")), ids=lambda p: p.stem)
def test_shipped_scripts_decode_as_text_by_text_parsing(path):
    payload = json.loads(path.read_text())
    alpha = make_alphabet(tuple(payload["alphabet"]))
    for doc in payload["scripts"]:
        back = script_from_json(doc, alpha)
        texts = row_texts(doc["terms"])
        assert back.lhs is parse(texts[doc["goal"]["lhs"]], alpha)
        assert back.rhs is parse(texts[doc["goal"]["rhs"]], alpha)
        assert len(back.steps) == len(doc["steps"])
        for d, step in zip(doc["steps"], back.steps):
            want = [(f, parse(texts[i], alpha)) for f, i in step_indexes(d)]
            got = step_terms(step)
            assert [f for f, _ in got] == [f for f, _ in want]
            assert all(g is w for (_, g), (_, w) in zip(got, want)), doc["id"]
        nodes = {u for t in script_terms(back) for u in postorder(t)}
        assert len(doc["terms"]) == len(nodes), doc["id"]
