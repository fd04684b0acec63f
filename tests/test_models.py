import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bccsp import models
from bccsp.axioms import Equation, build_system
from bccsp.models import (
    FiniteModel,
    fixture_model,
    independence_report,
    search_model,
)
from bccsp.terms import Nil, Par, Prefix, Sum, Var, parse, sum_of

from conftest import closed_terms, term_strategy

x, y = Var("x"), Var("y")


def tiny_model():
    """Two elements; + and || are max, prefixes jump to 1."""
    return FiniteModel(
        carrier=2,
        zero=0,
        prefix={"a": (1, 1), "b": (1, 1)},
        plus=((0, 1), (1, 1)),
        par=((0, 1), (1, 1)),
    )


# -- well-formedness ---------------------------------------------------------


def test_rejects_empty_carrier():
    with pytest.raises(ValueError, match="carrier"):
        FiniteModel(carrier=0, zero=0, prefix={}, plus=(), par=())


def test_rejects_zero_out_of_range():
    with pytest.raises(ValueError, match="zero"):
        FiniteModel(carrier=2, zero=2, prefix={"a": (0, 0)}, plus=((0, 0), (0, 0)), par=((0, 0), (0, 0)))


def test_rejects_bad_prefix_row():
    with pytest.raises(ValueError, match="prefix"):
        FiniteModel(carrier=2, zero=0, prefix={"a": (0, 2)}, plus=((0, 0), (0, 0)), par=((0, 0), (0, 0)))


def test_rejects_ragged_table():
    with pytest.raises(ValueError, match="plus"):
        FiniteModel(carrier=2, zero=0, prefix={"a": (0, 0)}, plus=((0, 0),), par=((0, 0), (0, 0)))


def test_tables_are_normalised_to_tuples():
    m = FiniteModel(
        carrier=2,
        zero=0,
        prefix={"a": [1, 0]},
        plus=[[0, 1], [1, 1]],
        par=[[0, 1], [1, 1]],
    )
    assert m.prefix["a"] == (1, 0)
    assert m.plus[1] == (1, 1)


# -- evaluation --------------------------------------------------------------


def test_eval_follows_tables():
    m = tiny_model()
    assert m.eval(Nil(), {}) == 0
    assert m.eval(Prefix("a", Nil()), {}) == 1
    assert m.eval(Sum(Nil(), Nil()), {}) == 0
    assert m.eval(Par(Prefix("a", Nil()), x), {"x": 0}) == 1


def test_eval_reports_missing_variable():
    with pytest.raises(ValueError, match="misses variable"):
        tiny_model().eval(x, {})


def test_eval_reports_unknown_action():
    with pytest.raises(ValueError, match="no table"):
        tiny_model().eval(Prefix("c", Nil()), {})


def test_holds_and_counter_valuation():
    m = tiny_model()
    assert m.holds(Equation("comm", Sum(x, y), Sum(y, x)))
    eq = Equation("pre-drop", Prefix("a", x), x)
    cv = m.counter_valuation(eq)
    assert cv == {"x": 0}
    assert m.eval(eq.lhs, cv) == 1 and m.eval(eq.rhs, cv) == 0


@settings(max_examples=60)
@given(closed_terms, closed_terms)
def test_eval_is_homomorphic_on_sums(s, t):
    m = tiny_model()
    vs, vt = m.eval(s, {}), m.eval(t, {})
    assert m.eval(Sum(s, t), {}) == m.plus[vs][vt]
    assert m.eval(Par(s, t), {}) == m.par[vs][vt]


def reference_eval(m, t, valuation):
    """Evaluation by structural recursion, the definition the node-table
    evaluator must agree with."""
    if isinstance(t, Nil):
        return m.zero
    if isinstance(t, Var):
        return valuation[t.name]
    if isinstance(t, Prefix):
        return m.prefix[t.action][reference_eval(m, t.body, valuation)]
    tab = m.plus if isinstance(t, Sum) else m.par
    return tab[reference_eval(m, t.left, valuation)][reference_eval(m, t.right, valuation)]


def reference_counter_valuation(m, eq):
    for values in itertools.product(range(m.carrier), repeat=len(eq.vars)):
        val = dict(zip(eq.vars, values))
        if reference_eval(m, eq.lhs, val) != reference_eval(m, eq.rhs, val):
            return val
    return None


@st.composite
def random_models(draw):
    n = draw(st.integers(2, 4))
    cell = st.integers(0, n - 1)
    square = st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    row = st.lists(cell, min_size=n, max_size=n)
    return FiniteModel(
        carrier=n,
        zero=draw(cell),
        prefix={"a": draw(row), "b": draw(row)},
        plus=draw(square),
        par=draw(square),
    )


xyz_terms = term_strategy(variables=("x", "y", "z"))


@settings(max_examples=150, deadline=None)
@given(random_models(), xyz_terms, xyz_terms, st.data())
def test_evaluator_agrees_with_structural_recursion(m, s, t, data):
    valuation = {v: data.draw(st.integers(0, m.carrier - 1)) for v in "xyz"}
    assert m.eval(s, valuation) == reference_eval(m, s, valuation)
    eq = Equation("random", s, t)
    assert m.counter_valuation(eq) == reference_counter_valuation(m, eq)


def test_counter_valuation_across_slices():
    # carrier 4 and five variables: 1,024 points, more than one slice; the
    # sides differ only at v = 3 with w, x, y, z below 3, so the first
    # failing valuation lies in the last slice
    m = FiniteModel(
        carrier=4,
        zero=0,
        prefix={"a": (0, 1, 2, 0)},
        plus=[[max(i, j) for j in range(4)] for i in range(4)],
        par=[[0] * 4] * 4,
    )
    assert 4**5 > models._SLICE
    rest = sum_of([Var(v) for v in "wxyz"])
    eq = Equation("slices", Sum(Prefix("a", Var("v")), rest), Sum(Var("v"), rest))
    assert m.counter_valuation(eq) == {"v": 3, "w": 0, "x": 0, "y": 0, "z": 0}
    assert m.counter_valuation(eq) == reference_counter_valuation(m, eq)
    assert m.holds(Equation("comm", Sum(Var("v"), rest), Sum(rest, Var("v"))))


def test_json_round_trip():
    m = fixture_model("table6")
    again = FiniteModel.from_json(m.to_json())
    assert again == m


def test_fixture_model_unknown_name():
    with pytest.raises(FileNotFoundError):
        fixture_model("no_such_table")


# -- the shipped counter-models ---------------------------------------------


def test_table6_separates_el2_from_the_simulation_system(ab):
    m = fixture_model("table6")
    assert m.carrier == 5
    for name in ("E_CS", "E_CT"):
        for eq in build_system(name, ab):
            assert m.holds(eq), eq.id
    el2 = build_system("E_RS", ab).by_id["EL2[{a,b};{a,b}]"]
    cv = m.counter_valuation(el2)
    assert cv == {"x1": 0, "x2": 0, "y1": 1, "y2": 1}
    assert m.eval(el2.lhs, cv) == 4
    assert m.eval(el2.rhs, cv) == 3


def test_table7_separates_rsp2_from_the_ready_trace_system(ab):
    m = fixture_model("table7")
    assert m.carrier == 3
    for name in ("E_RT", "E_CT"):
        for eq in build_system(name, ab):
            assert m.holds(eq), eq.id
    ers = build_system("E_RS", ab)
    for rid in ("RSP2[{a};a]", "RSP2[{a};b]"):
        eq = ers.by_id[rid]
        cv = m.counter_valuation(eq)
        assert cv == {"w": 1, "x1": 0, "y": 0, "z": 0}
        assert m.eval(eq.lhs, cv) == 1 and m.eval(eq.rhs, cv) == 2
    csp2 = build_system("E_CS", ab).by_id["CSP2[a,a,b]"]
    assert not m.holds(csp2)


def test_independence_report_shape(ab):
    m = fixture_model("table6")
    ecs = build_system("E_CS", ab)
    goal = build_system("E_RS", ab).by_id["EL2[{a,b};{a,b}]"]
    rep = independence_report(m, ecs, goal)
    assert rep["independent"] is True
    assert rep["all_axioms_hold"] is True
    assert rep["axiom_failures"] == []
    assert len(rep["axioms"]) == len(ecs)
    assert all(a["holds"] for a in rep["axioms"])
    assert rep["goal"]["refuted"] is True
    assert rep["goal"]["counter_valuation"] == {"x1": 0, "x2": 0, "y1": 1, "y2": 1}


def test_independence_report_flags_broken_axiom(ab):
    m = fixture_model("table7")
    ers = build_system("E_RS", ab)
    goal = ers.by_id["EL2[{a,b};{a,b}]"]
    rep = independence_report(m, ers, goal)
    assert rep["independent"] is False
    assert any(f["id"].startswith("RSP2") for f in rep["axiom_failures"])


# -- search ------------------------------------------------------------------


def test_search_separates_rsp2_from_ready_traces(ab):
    ert = build_system("E_RT", ab)
    goal = build_system("E_RS", ab).by_id["RSP2[{a};b]"]
    res = search_model(ab, 3, ert, goal)
    assert res.status == "found" and bool(res)
    assert res.carrier == 3
    m = res.model
    for eq in ert:
        assert m.holds(eq), eq.id
    assert not m.holds(goal)
    again = search_model(ab, 3, ert, goal)
    assert again.nodes == res.nodes and again.model == m


def test_search_reports_none_for_a_derivable_goal(ab):
    ecs = build_system("E_CS", ab)
    res = search_model(ab, 2, ecs, ecs.by_id["A3"])
    assert res.status == "none"
    assert res.model is None and res.carrier is None
    assert res.nodes == 0
    assert not res


def test_search_respects_the_node_budget(ab):
    ecs = build_system("E_CS", ab)
    goal = build_system("E_RS", ab).by_id["EL2[{a,b};{a,b}]"]
    res = search_model(ab, 5, ecs, goal, budget=50)
    assert res.status == "budget"
    assert res.nodes == 50 and res.model is None
    assert not res


def test_search_validates_carrier_bounds(ab):
    ecs = build_system("E_CS", ab)
    with pytest.raises(ValueError, match="min_carrier"):
        search_model(ab, 3, ecs, ecs.by_id["A3"], min_carrier=4)


def test_search_can_start_above_one(ab):
    ert = build_system("E_RT", ab)
    goal = build_system("E_RS", ab).by_id["RSP2[{a};b]"]
    res = search_model(ab, 3, ert, goal, min_carrier=3)
    assert res.status == "found" and res.carrier == 3
    rep = independence_report(res.model, ert, goal)
    assert rep["independent"] is True


# (system, system holding the goal, goal, carrier): status, nodes, carrier
# and model, as the search gives them; the node count depends on the order
# in which cells and values are tried, which is fixed.
PINNED = [
    (
        ("E_RT", "E_RS", "RSP2[{a};a]", 3),
        ("found", 391, 3),
        {
            "prefix": {"a": [0, 1, 0], "b": [0, 0, 0]},
            "plus": [[0, 1, 2], [1, 1, 1], [2, 1, 2]],
            "par": [[0, 1, 2], [1, 1, 1], [2, 1, 1]],
        },
    ),
    (
        ("E_R", "E_F", "F[b]", 4),
        ("found", 1043, 4),
        {
            "prefix": {"a": [0, 0, 0, 0], "b": [0, 1, 0, 0]},
            "plus": [[0, 1, 2, 3], [1, 1, 1, 1], [2, 1, 2, 1], [3, 1, 1, 3]],
            "par": [[0, 1, 2, 3], [1, 1, 1, 1], [2, 1, 0, 0], [3, 1, 0, 0]],
        },
    ),
    (("E_T", "E_CT", "CTP[a,b]", 3), ("none", 1574, None), None),
    (("E_S", "E_CS", "CSP2[a,a,b]", 3), ("none", 1507, None), None),
]


@pytest.mark.parametrize("problem,outcome,tables", PINNED)
def test_search_results_are_pinned(ab, problem, outcome, tables):
    name, goal_sys, goal_id, carrier = problem
    goal = build_system(goal_sys, ab).by_id[goal_id]
    res = search_model(ab, carrier, build_system(name, ab), goal)
    assert (res.status, res.nodes, res.carrier) == outcome
    if tables is None:
        assert res.model is None
    else:
        assert res.model == FiniteModel(carrier=carrier, zero=0, **tables)


@pytest.mark.parametrize("goal", ["a.x = x", "a.x = 0", "x + a.0 = x"])
def test_goal_instances_are_not_forced_to_hold(ab, goal):
    # a two-element model (+ and || max, every prefix 1) satisfies E_T and
    # refutes each goal; the search must not force goal instances to hold
    lhs, rhs = (parse(side, ab) for side in goal.split("="))
    eq = Equation("goal", lhs, rhs)
    et = build_system("E_T", ab)
    assert independence_report(tiny_model(), et, eq)["independent"]
    res = search_model(ab, 2, et, eq)
    assert (res.status, res.carrier) == ("found", 2)
