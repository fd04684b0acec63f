import pytest

from bccsp.observations import (
    OBSERVATION_KINDS,
    failure_pairs,
    failure_traces,
    observation_set,
    possible_futures,
    ready_pairs,
    ready_traces,
)
from bccsp.terms import make_alphabet, parse

A = make_alphabet(("a", "b"))
A3 = make_alphabet(("a", "b", "c"))

e = frozenset()


def test_failure_pairs_need_alphabet():
    with pytest.raises(ValueError):
        failure_pairs(parse("a.0", A), None)
    with pytest.raises(ValueError):
        failure_traces(parse("a.0", A), None)


def test_failure_pair_separating_example():
    # after an a-step the left term can refuse {b}, the right never can
    t = parse("a.b + a.c", A3)
    u = parse("a.(b + c)", A3)
    ft = failure_pairs(t, A3)
    fu = failure_pairs(u, A3)
    assert (("a",), frozenset({"b"})) in ft
    assert (("a",), frozenset({"b"})) not in fu
    assert fu <= ft


def test_failure_pairs_of_single_prefix():
    fp = failure_pairs(parse("a.0", A), A)
    assert fp == frozenset(
        {
            ((), e),
            ((), frozenset({"b"})),
            (("a",), e),
            (("a",), frozenset({"a"})),
            (("a",), frozenset({"b"})),
            (("a",), frozenset({"a", "b"})),
        }
    )


def test_ready_pairs_record_exact_menus():
    t = parse("a.b + a.0", A)
    assert ready_pairs(t) == frozenset(
        {
            ((), frozenset({"a"})),
            (("a",), frozenset({"b"})),
            (("a",), e),
            (("a", "b"), e),
        }
    )


def test_ready_traces_of_single_prefix():
    rt = ready_traces(parse("a.0", A))
    assert rt == frozenset(
        {
            (frozenset({"a"}),),
            (frozenset({"a"}), "a", e),
        }
    )


def test_failure_traces_allow_any_refusal_step():
    ft = failure_traces(parse("a.0", A), A)
    # before the a-step only b can be refused, afterwards anything
    assert (frozenset({"b"}), "a", frozenset({"a", "b"})) in ft
    assert (frozenset({"a"}),) not in ft
    assert (e,) in ft


def test_possible_futures_example():
    pf = possible_futures(parse("b.a", A))
    assert pf == frozenset(
        {
            ((), frozenset({(), ("b",), ("b", "a")})),
            (("b",), frozenset({(), ("a",)})),
            (("b", "a"), frozenset({()})),
        }
    )


def test_observation_set_dispatch():
    t = parse("a.0", A)
    for kind in OBSERVATION_KINDS:
        obs = observation_set(t, kind, A)
        assert obs
    with pytest.raises(ValueError):
        observation_set(t, "Z", A)
