import json

import pytest

from bccsp.semantics import (
    TransitionMode,
    build_lts,
    completed_traces,
    derivatives,
    initials,
    lts_dot,
    lts_json,
    multi_derivatives,
    traces,
    transitions,
)
from bccsp.terms import Nil, Par, Prefix, Var, make_alphabet, parse

A = make_alphabet(("a", "b"))
SYNC = TransitionMode.CCS_SYNC


def test_nil_and_var_are_inert():
    assert transitions(Nil()) == frozenset()
    assert transitions(Var("x")) == frozenset()


def test_prefix_and_sum_moves():
    t = parse("a.b + b.0", A)
    assert transitions(t) == frozenset(
        {("a", parse("b.0", A)), ("b", Nil())}
    )
    assert initials(t) == frozenset({"a", "b"})
    assert derivatives(t, "a") == frozenset({parse("b.0", A)})
    assert derivatives(t, "b") == frozenset({Nil()})


def test_par_interleaves():
    t = parse("a || b", A)
    assert transitions(t) == frozenset(
        {
            ("a", Par(Nil(), parse("b.0", A))),
            ("b", Par(parse("a.0", A), Nil())),
        }
    )


def test_multi_derivatives_includes_empty():
    t = parse("a.b", A)
    md = multi_derivatives(t)
    assert ((), t) in md
    assert (("a", "b"), Nil()) in md
    assert len(md) == 3


def test_traces_of_branching_term():
    p2 = parse("b.a + b.b.a", A)
    assert traces(p2) == frozenset(
        {(), ("b",), ("b", "a"), ("b", "b"), ("b", "b", "a")}
    )
    assert completed_traces(p2) == frozenset({("b", "a"), ("b", "b", "a")})


def test_traces_distinguish_distribution():
    # a.(b + c) and a.b + a.c share traces but not completed behaviour
    A3 = make_alphabet(("a", "b", "c"))
    t = parse("a.(b + c)", A3)
    u = parse("a.b + a.c", A3)
    assert traces(t) == traces(u)
    assert completed_traces(t) == completed_traces(u)


def test_lts_of_branching_term():
    p2 = parse("b.a + b.b.a", A)
    lts = build_lts(p2)
    assert lts.n_states == 4
    assert lts.n_transitions == 4
    assert lts.states[0] is p2


def test_lts_of_parallel_pair():
    lts = build_lts(parse("a || b", A))
    assert lts.n_states == 4
    assert lts.n_transitions == 4


def test_sync_mode_inserts_silent_step():
    S = make_alphabet(("a",), sync=True)
    t = parse("a || a'", S)
    moves = transitions(t, SYNC, S)
    labels = sorted(a for a, _ in moves)
    assert labels == ["a", "a'", "tau"]
    assert (S.tau, Par(Nil(), Nil())) in moves
    assert ("tau",) in traces(t, SYNC, S)


def test_sync_needs_sync_alphabet():
    with pytest.raises(ValueError):
        transitions(parse("a || b", A), SYNC, A)
    with pytest.raises(ValueError):
        transitions(parse("a || b", A), SYNC, None)


def test_equal_alphabets_share_cache_entries():
    S1, S2 = make_alphabet(("a",), sync=True), make_alphabet(("a",), sync=True)
    assert S1 is not S2 and S1 == S2 and hash(S1) == hash(S2)
    t = parse("a || a'", S1)
    assert transitions(t, SYNC, S1) is transitions(t, SYNC, S2)


def test_tau_never_synchronises():
    S = make_alphabet(("a",), sync=True)
    t = parse("tau.0 || tau.0", S)
    moves = transitions(t, SYNC, S)
    # only the two interleaved silent moves; tau has no complement
    assert len(moves) == 2
    assert (S.tau, Par(Nil(), Nil())) not in moves


def test_lts_json_shape():
    lts = build_lts(parse("a.b", A))
    doc = json.loads(lts_json(lts))
    assert doc["root"] == 0
    assert doc["states"] == ["a.b.0", "b.0", "0"]
    assert doc["transitions"] == [
        {"from": 0, "label": "a", "to": 1},
        {"from": 1, "label": "b", "to": 2},
    ]


def test_lts_dot_mentions_every_state():
    lts = build_lts(parse("a || b", A))
    dot = lts_dot(lts)
    assert dot.startswith("digraph lts {")
    for s in lts.states:
        assert f"n{lts.states.index(s)}" in dot
