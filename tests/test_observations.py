import gc
import itertools
import random
import weakref

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
from bccsp.semantics import TransitionMode, initials, multi_derivatives, traces, transitions
from bccsp.terms import make_alphabet, parse

from conftest import all_terms

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


SYNC = make_alphabet(("a",), sync=True)
MODES = ((A, TransitionMode.INTERLEAVING), (SYNC, TransitionMode.CCS_SYNC))


def test_a_second_query_returns_the_cached_set():
    t = parse("a.(b + a.b) || b.a", A)
    for kind in OBSERVATION_KINDS:
        assert observation_set(t, kind, A) is observation_set(t, kind, A)


def test_a_queried_term_dies_by_reference_count():
    # no observation entry holds its own node, so no cycle keeps it alive
    for alpha, mode in MODES:
        z = alpha.transition_labels()[-1]
        t = parse(f"a.({z} + a.{z}) || {z}.a", alpha)
        gc.disable()
        try:
            for kind in OBSERVATION_KINDS:
                assert observation_set(t, kind, alpha, mode)
            dead = weakref.ref(t)
            del t
            assert dead() is None
        finally:
            gc.enable()


def _multi_derivatives_by_definition(t, mode, alpha):
    return {((), t)} | {
        ((a,) + seq, v)
        for a, u in transitions(t, mode, alpha)
        for seq, v in _multi_derivatives_by_definition(u, mode, alpha)
    }


def test_cached_sets_equal_a_recomputation_on_random_terms():
    rng = random.Random(23)
    for alpha, mode in MODES:
        labels = alpha.transition_labels()
        for t in rng.sample(all_terms(alpha, 8 if mode is TransitionMode.INTERLEAVING else 7), 1000):
            md = multi_derivatives(t, mode, alpha)
            assert md == _multi_derivatives_by_definition(t, mode, alpha)
            failures, readies, futures = set(), set(), set()
            for seq, u in md:
                menu = initials(u, mode, alpha)
                refusable = [a for a in labels if a not in menu]
                for k in range(len(refusable) + 1):
                    failures.update((seq, frozenset(x)) for x in itertools.combinations(refusable, k))
                readies.add((seq, menu))
                futures.add((seq, traces(u, mode, alpha)))
            assert observation_set(t, "F", alpha, mode) == failures
            assert observation_set(t, "R", alpha, mode) == readies
            assert observation_set(t, "PF", alpha, mode) == futures
