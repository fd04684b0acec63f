import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings

from bccsp import equivalences
from bccsp.axioms import build_system
from bccsp.equivalences import (
    FLAT_RELATIONS,
    NotRefuted,
    Refuted,
    SpectrumError,
    SubstitutionScheme,
    bisimilar,
    class_of,
    default_substitution_scheme,
    equivalent,
    nested_sim_eq,
    nested_trace_eq,
    parse_relation,
    refute_open,
    relation_name,
    sim_eq,
    simulation_preorder,
    spectrum_vector,
)
from bccsp.observations import observation_set
from bccsp.semantics import TransitionMode, completed_traces, multi_derivatives, traces
from bccsp.terms import Nil, Par, Prefix, Sum, Term, Var, depth, free_vars, make_alphabet, parse, substitute

from conftest import all_terms, closed_terms

A = make_alphabet(("a", "b"))
A3 = make_alphabet(("a", "b", "c"))


def test_parse_relation():
    assert parse_relation("RS") == "RS"
    assert parse_relation("NT2") == ("NT", 2)
    assert parse_relation(("NS", 1)) == ("NS", 1)
    assert relation_name(("NT", 3)) == "NT3"
    for bad in ("X", "NT", ("NT", -1), ("Q", 2)):
        with pytest.raises(ValueError):
            parse_relation(bad)


def test_distributed_choice_splits_trace_from_failure():
    t = parse("a.(b + c)", A3)
    u = parse("a.b + a.c", A3)
    assert equivalent(t, u, "T")
    assert equivalent(t, u, "CT")
    assert not equivalent(t, u, "F", A3)
    assert not sim_eq(t, u)
    assert simulation_preorder(u, t)
    assert not simulation_preorder(t, u)


def test_refusal_relations_need_alphabet():
    t = parse("a.0", A)
    for rel in ("F", "FT"):
        with pytest.raises(ValueError):
            equivalent(t, t, rel)


def test_completed_simulation_versus_ready_simulation():
    p = parse("a.(b + c)", A3)
    q = parse("a.(b + c) + a.b", A3)
    assert sim_eq(p, q, "CS")
    assert not sim_eq(p, q, "RS")


def test_failure_simulation_coincides_with_ready_simulation():
    terms = all_terms(A, 4)
    for p in terms:
        for q in terms:
            assert sim_eq(p, q, "FS") == sim_eq(p, q, "RS")


def test_spectrum_vector_frozen_example():
    p = parse("a.(b + c)", A3)
    q = parse("a.(b + c) + a.b", A3)
    vec = spectrum_vector(p, q, A3)
    assert vec == {
        "T": True,
        "CT": True,
        "F": False,
        "R": False,
        "FT": False,
        "RT": False,
        "PF": False,
        "S": True,
        "CS": True,
        "RS": False,
        "B": False,
        "NT1": True,
        "NT2": False,
        "NS1": True,
        "NS2": False,
    }


def test_spectrum_vector_on_bisimilar_pair():
    p = parse("a || b", A)
    q = parse("a.b + b.a", A)
    vec = spectrum_vector(p, q, A)
    assert all(vec.values())


def test_spectrum_vector_input_validation():
    with pytest.raises(ValueError):
        spectrum_vector(Var("x"), parse("0", A), A)
    with pytest.raises(ValueError):
        spectrum_vector(parse("0", A), parse("0", A), A, nested_max=0)


def test_nested_level_zero_relates_everything():
    p, q = parse("a.0", A), parse("0", A)
    assert nested_trace_eq(p, q, 0)
    assert nested_sim_eq(p, q, 0)
    with pytest.raises(ValueError):
        nested_trace_eq(p, q, -1)


def test_nested_coincidences_on_small_terms():
    terms = all_terms(A, 4)
    from bccsp.observations import possible_futures
    from bccsp.semantics import traces

    for p in terms:
        for q in terms:
            assert nested_trace_eq(p, q, 1) == (traces(p) == traces(q))
            assert nested_trace_eq(p, q, 2) == (possible_futures(p) == possible_futures(q))
            assert nested_sim_eq(p, q, 1) == sim_eq(p, q)


def test_sync_mode_expansion_is_bisimilar():
    S = make_alphabet(("a",), sync=True)
    lhs = parse("a || a'", S)
    rhs = parse("a.a' + a'.a + tau.0", S)
    assert bisimilar(lhs, rhs, TransitionMode.CCS_SYNC, S)
    assert not bisimilar(lhs, rhs)  # without sync the silent summand is extra


@pytest.mark.parametrize("rel", ["S", "RS", "NS2"])
def test_a_comparison_does_not_pin_the_younger_term(rel):
    # a verdict lives on the younger node of its pair, so comparing a
    # throwaway term with a long-lived one neither keeps it alive nor
    # leaves entries on the long-lived one
    held = parse("a.0", A)
    assert equivalent(held, held, rel, A)
    entries = len(held.cache())
    fresh = Prefix("a", Nil())
    for action in "ab" * 20:
        fresh = Sum(Prefix(action, fresh), Prefix("b", Nil()))
    assert not equivalent(held, fresh, rel, A)
    assert not equivalent(fresh, held, rel, A)
    assert len(held.cache()) == entries
    ref = weakref.ref(fresh)
    del fresh
    gc.collect()
    assert ref() is None


def test_equivalences_keeps_no_module_level_tables():
    tables = [
        name
        for name, value in vars(equivalences).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    ]
    assert tables == []


def test_a_soundness_sweep_leaves_no_term_to_the_cyclic_collector():
    # node caches close no reference cycle, so every throwaway instance and
    # class of a sweep dies by reference count
    sync = make_alphabet(("a",), sync=True)
    systems = (build_system("E_F", A), build_system("E_FT", A), build_system("E^c_R", sync))
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for system in systems:
            scheme = SubstitutionScheme((Prefix(system.alphabet.actions[0], Nil()),))
            for eq in system:
                out = refute_open(eq.lhs, eq.rhs, system.target_relation, system.alphabet, system.mode, scheme)
                assert not out.refuted, eq.id
        gc.collect()
        terms = [x for x in gc.garbage if isinstance(x, Term)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert terms == []


def test_refute_open_holds_the_instances_of_one_first_choice_only(monkeypatch):
    # reference counting alone frees what a sweep held: the instances of a
    # first choice die when that choice changes, and the rest with the call
    seen, alive, real = [], [], equivalences.equivalent

    def spy(p, q, *args):
        alive.append([all(r() is not None for r in refs) for refs in seen])
        seen.append((weakref.ref(p), weakref.ref(q)))
        return real(p, q, *args)

    monkeypatch.setattr(equivalences, "equivalent", spy)
    a0, b0 = Prefix("a", Nil()), Prefix("b", Nil())
    scheme = SubstitutionScheme((a0, b0), deep_tags=False)
    gc.disable()
    try:
        out = refute_open(parse("x || y", A), parse("y || x", A), "B", A, scheme=scheme)
        dead = [all(r() is None for r in refs) for refs in seen]
    finally:
        gc.enable()
    assert (out.refuted, out.checked) == (False, 4)
    # the instances (a0, a0), (a0, b0), (b0, a0) and (b0, b0), in this order
    assert alive == [[], [True], [False, False], [False, False, True]]
    assert dead == [True] * 4


def _refute_by_plain_loop(t, u, rel, alphabet, mode, scheme):
    """refute_open without shared prefixes or held instances: each instance
    substituted at once from the same pools and checked on its own."""
    names = sorted(free_vars(t) | free_vars(u))
    tag_base = 1 + max(depth(t), depth(u))
    pools = []
    for i, _ in enumerate(names):
        tag = Nil()
        for _ in range(tag_base + i):
            tag = Prefix(alphabet.actions[0], tag)
        pools.append(tuple(dict.fromkeys(scheme.pool + (tag,))))
    for checked, cands in enumerate(itertools.product(*pools), 1):
        sigma = dict(zip(names, cands))
        if not equivalent(substitute(t, sigma), substitute(u, sigma), rel, alphabet, mode):
            return (True, checked, sigma)
    return (False, checked, None)


def test_refute_open_agrees_with_a_plain_instance_loop():
    sync = make_alphabet(("a",), sync=True)
    cases = [
        (system, eq, system.target_relation)
        for system in (build_system("E^c_RT", sync), build_system("E_CS", A))
        for eq in system
        if len(eq.vars) <= 4
    ]
    unsound = (("E_T", "T[a]", A), ("E_S", "S[a]", A), ("E_CT", "CTP[a,b]", A), ("E^c_T", "T[tau]", sync))
    cases += [(build_system(n, alpha), build_system(n, alpha).by_id[i], "B") for n, i, alpha in unsound]
    for system, eq, rel in cases:
        scheme = SubstitutionScheme((Prefix(system.alphabet.actions[0], Nil()),))
        out = refute_open(eq.lhs, eq.rhs, rel, system.alphabet, system.mode, scheme)
        got = (out.refuted, out.checked, getattr(out, "substitution", None))
        assert got == _refute_by_plain_loop(eq.lhs, eq.rhs, rel, system.alphabet, system.mode, scheme), eq.id
    assert sum(rel == "B" for _, _, rel in cases) == 4


def test_class_of_decides_what_it_names():
    p, q = parse("a.b.0 + a.0", A), parse("a.(b.0 + 0)", A)
    for rel in ("T", "CT", "F", "R", "FT", "RT", "PF", "B", "NT1", "NT2", ("NT", 3)):
        assert (class_of(p, rel, A) is class_of(q, rel, A)) == equivalent(p, q, rel, A), rel
    assert class_of(p, "PF", A) is class_of(p, "NT2", A)
    assert class_of(p, "NT1", A) is class_of(p, "T", A)
    for rel in ("S", "CS", "RS", "FS", "NS2", "NT0"):
        with pytest.raises(ValueError, match="no class per node"):
            class_of(p, rel, A)


def test_refute_open_closed_terms():
    out = refute_open(parse("a.0", A), parse("b.0", A), "T", A)
    assert isinstance(out, Refuted)
    assert out.substitution == {}
    assert out.checked == 1


def test_refute_open_cannot_refute_commutativity():
    t = parse("x + y", A)
    u = parse("y + x", A)
    out = refute_open(t, u, "B", A)
    assert isinstance(out, NotRefuted)
    # six pool candidates per variable; the deep tags for depth-0 terms are
    # short action chains the pool already contains
    assert out.checked == 36


def test_refute_open_finds_distributivity_failure():
    # a.(x + y) = a.x + a.y fails already for failures
    t = parse("a.(x + y)", A)
    u = parse("a.x + a.y", A)
    out = refute_open(t, u, "F", A)
    assert isinstance(out, Refuted)
    sub = out.substitution
    assert set(sub) == {"x", "y"}
    assert not equivalent(substitute(t, sub), substitute(u, sub), "F", A)


def test_sp2_and_fp_fail_under_ready_simulation():
    es = build_system("E_S", A)
    sp2 = es.by_id["SP2[a]"]
    out = refute_open(sp2.lhs, sp2.rhs, "RS", A)
    assert isinstance(out, Refuted)

    er = build_system("E_R", A)
    fp = er.by_id["FP[a]"]
    out = refute_open(fp.lhs, fp.rhs, "RS", A)
    assert isinstance(out, Refuted)


def test_default_scheme_pool_is_deduplicated():
    scheme = default_substitution_scheme(make_alphabet(("a",)))
    assert len(set(scheme.pool)) == len(scheme.pool)


@settings(max_examples=60, deadline=None)
@given(closed_terms, closed_terms)
def test_bisimilarity_implies_every_flat_relation(p, q):
    if bisimilar(p, q):
        for rel in FLAT_RELATIONS:
            assert equivalent(p, q, rel, A)


@settings(max_examples=60, deadline=None)
@given(closed_terms)
def test_every_relation_is_reflexive(p):
    for rel in FLAT_RELATIONS:
        assert equivalent(p, p, rel, A)


def _random_term(rng, labels, depth):
    r = rng.random()
    if depth == 0 or r < 0.15:
        return Nil()
    if r < 0.55:
        return Prefix(rng.choice(labels), _random_term(rng, labels, depth - 1))
    if r < 0.7:  # a choice between two moves by one action
        a = rng.choice(labels)
        return Sum(*(Prefix(a, _random_term(rng, labels, depth - 1)) for _ in "lr"))
    kind = Sum if r < 0.85 else Par
    return kind(_random_term(rng, labels, depth - 1), _random_term(rng, labels, depth - 1))


def _truncated(rng, t):
    """t with some subterms cut to 0: its traces are traces of t."""
    if rng.random() < 0.3:
        return Nil()
    if isinstance(t, Prefix):
        return Prefix(t.action, _truncated(rng, t.body))
    if isinstance(t, (Sum, Par)):
        return type(t)(_truncated(rng, t.left), _truncated(rng, t.right))
    return t


def _trace_equal_variant(rng, t):
    """A term with the traces of t, by rewrites that keep traces: a prefix
    distributed over a sum, sides of + and || swapped, a summand doubled,
    a 0 summand added, a truncated copy added as a summand, a.(x + y) added
    to a.x + a.y, or the second summands of a.(x + y) + a.(z + w) swapped."""
    if rng.random() < 0.1:
        return Sum(_trace_equal_variant(rng, t), _truncated(rng, t))
    if isinstance(t, Prefix):
        body = t.body
        if isinstance(body, Sum) and rng.random() < 0.5:
            return Sum(
                _trace_equal_variant(rng, Prefix(t.action, body.left)),
                _trace_equal_variant(rng, Prefix(t.action, body.right)),
            )
        return Prefix(t.action, _trace_equal_variant(rng, body))
    if isinstance(t, Sum) and isinstance(t.left, Prefix) and isinstance(t.right, Prefix):
        (a, x), (b, y) = (t.left.action, t.left.body), (t.right.action, t.right.body)
        if a == b and rng.random() < 0.5:
            if isinstance(x, Sum) and isinstance(y, Sum) and rng.random() < 0.5:
                return Sum(Prefix(a, Sum(x.left, y.right)), Prefix(a, Sum(y.left, x.right)))
            return Sum(t, Prefix(a, Sum(x, y)))
    if isinstance(t, (Sum, Par)):
        left, right = (_trace_equal_variant(rng, u) for u in (t.left, t.right))
        if rng.random() < 0.5:
            left, right = right, left
        u = type(t)(left, right)
        r = rng.random()
        if r < 0.15:
            return Sum(u, _trace_equal_variant(rng, t))
        return Sum(u, Nil()) if r < 0.3 else u
    return t


def _nested_trace_eq_by_definition(p, q, k, mode, alphabet):
    """NT_k as defined: the same traces and, for k > 1, every derivative of
    either side by a trace is NT_(k-1) related to one of the other side's."""
    if k == 1:
        return traces(p, mode, alphabet) == traces(q, mode, alphabet)
    gp, gq = ({}, {})
    for g, t in ((gp, p), (gq, q)):
        for seq, u in multi_derivatives(t, mode, alphabet):
            g.setdefault(seq, []).append(u)
    if gp.keys() != gq.keys():
        return False
    return all(
        all(any(_nested_trace_eq_by_definition(u, v, k - 1, mode, alphabet) for v in vs) for u in us)
        for seq in gp
        for us, vs in ((gp[seq], gq[seq]), (gq[seq], gp[seq]))
    )


def _decorated_eq_by_observations(p, q, rel, alpha, mode):
    if rel == "T":
        return traces(p, mode, alpha) == traces(q, mode, alpha)
    if rel == "CT":
        return completed_traces(p, mode, alpha) == completed_traces(q, mode, alpha)
    return observation_set(p, rel, alpha, mode) == observation_set(q, rel, alpha, mode)


DECORATED = ("T", "CT", "F", "R", "FT", "RT", "PF")


def test_classes_agree_with_observation_sets_on_random_pairs():
    # the observation sets are the reference the per-node classes are checked
    # against; half of the pairs are trace equal by construction
    rng = random.Random(7)
    sync = make_alphabet(("a",), sync=True)
    modes = ((A, TransitionMode.INTERLEAVING), (sync, TransitionMode.CCS_SYNC))
    agree = {rel: [0, 0] for rel in DECORATED + ("NT3",)}
    patterns = set()
    for i in range(2000):
        alpha, mode = modes[i % 2]
        labels = alpha.transition_labels()
        p = _random_term(rng, labels, 3)
        q = _trace_equal_variant(rng, p) if i % 4 < 2 else _random_term(rng, labels, 3)
        want = [_decorated_eq_by_observations(p, q, rel, alpha, mode) for rel in DECORATED]
        want.append(_nested_trace_eq_by_definition(p, q, 3, mode, alpha))
        got = [equivalent(p, q, rel, alpha, mode) for rel in DECORATED]
        got.append(nested_trace_eq(p, q, 3, mode, alpha))
        assert got == want, (p, q)
        for rel, verdict in zip(agree, want):
            agree[rel][verdict] += 1
        patterns.add(tuple(want))
    # both verdicts occur often enough, and the relations come apart in
    # enough ways, for the agreement to mean something
    assert all(min(counts) >= 100 for counts in agree.values()), agree
    assert len(patterns) >= 8, patterns

