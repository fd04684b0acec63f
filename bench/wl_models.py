"""Workload `models`: finite counter-model search and checking.

A fixed set of problems, the same for every seed (the seed only orders
them). One round is one pass: every `search_model` problem, searching
carriers 1..N as `bccsp model search --carrier N` does, and every
`independence_report` check of a shipped fixture. An operation is one
problem or one report. The long ones are E_T against CTP[a,b] at carrier 4
(exhaustive, no model) and the table6 report against E_CS. E_S against
CSP2[a,a,b] is searched at carrier 3: at carrier 4 it alone takes 20 to 30 s,
more than a run can spend.

Checks: a `found` model satisfies every axiom of the system and refutes the
goal under the oracle's evaluator; a `none` goal is derived from the system
by a replayed `derivations.fixture_scripts` proof; a report of a shipped
fixture says independent, and in the first pass the oracle confirms it;
node counts and reports repeat exactly from pass to pass.
"""

from __future__ import annotations

import itertools

import gen
import oracle

# system, system holding the goal, goal id, largest carrier. Besides the
# long exhaustive searches, every action instance of the short problems is
# in the set, so the median latency rests on many similar operations spread
# over the pass rather than on one.
SEARCHES = (
    [("E_RT", "E_RS", f"RSP2[{s};{b}]", 3) for s in ("{a}", "{b}", "{a,b}") for b in "ab"]
    + [("E_R", "E_F", f"F[{a}]", 4) for a in "ab"]
    + [("E_T", "E_CT", "CT[{},{},{}]".format(*x), 3) for x in itertools.product("ab", repeat=3)]
    + [("E_T", "E_CT", "CTP[{},{}]".format(*x), 3) for x in itertools.product("ab", repeat=2)]
    + [("E_S", "E_CS", "CSP2[{},{},{}]".format(*x), 3) for x in itertools.product("ab", repeat=3)]
    + [("E_T", "E_CT", "CTP[a,b]", 4)]
)
# fixture, system, system holding the goal, goal id
REPORTS = (
    ("table6", "E_CS", "E_RS", "EL2[{a,b};{a,b}]"),
    ("table6", "E_CT", "E_RS", "EL2[{a,b};{a,b}]"),
    ("table7", "E_RT", "E_RS", "RSP2[{a};a]"),
)
# host system and schema of the derivations that show the `none` goals
DERIVATIONS = (("E_T", "CTP"), ("E_T", "CT"), ("E_S", "CSP2"))

SYSTEMS = ("E_RT", "E_RS", "E_R", "E_F", "E_T", "E_CT", "E_S", "E_CS")


def setup(pkg, tr):
    ab = pkg.make_alphabet(("a", "b"))
    systems = {n: tr.call("axioms.build_system", pkg.axioms.build_system, n, ab) for n in SYSTEMS}
    fixtures = {name: tr.call("models.fixture_model", pkg.models.fixture_model, name) for name in ("table6", "table7")}
    derived = {}
    for host, schema in DERIVATIONS:
        scripts = tr.call("derivations.fixture_scripts", pkg.derivations.fixture_scripts, host, schema, ab)
        tr.count("derivations.steps", sum(len(s) for _eq, s in scripts))
        for eq, script in scripts:
            derived[(host, eq.id)] = script
    return {"pkg": pkg, "ab": ab, "systems": systems, "fixtures": fixtures, "derived": derived}


def inputs(seed, env):
    items = [("search",) + s for s in SEARCHES] + [("report",) + r for r in REPORTS]
    gen.rng_for(seed, "models-order").shuffle(items)
    return {"items": items, "first": {}}


def search(env, name, goal_sys, goal_id, carrier, tr):
    pkg = env["pkg"]
    goal = env["systems"][goal_sys].by_id[goal_id]
    return tr.call("models.search_model", pkg.models.search_model, env["ab"], carrier, env["systems"][name], goal)


def report(env, fixture, name, goal_sys, goal_id, tr):
    pkg = env["pkg"]
    goal = env["systems"][goal_sys].by_id[goal_id]
    model = env["fixtures"][fixture]
    return tr.call("models.independence_report", pkg.models.independence_report, model, env["systems"][name], goal)


def _equations(system):
    return [(oracle.from_term(e.lhs), oracle.from_term(e.rhs)) for e in system]


def check_search(env, item, res, rec):
    _kind, name, goal_sys, goal_id, carrier = item
    where = f"{name} against {goal_id} at carrier {carrier}"
    pkg = env["pkg"]
    goal = env["systems"][goal_sys].by_id[goal_id]
    if res.status == "found":
        m = res.model.to_json()
        for lhs, rhs in _equations(env["systems"][name]):
            if not oracle.model_satisfies(m, lhs, rhs):
                rec.check(False, f"found model breaks an axiom: {where}")
                break
        rec.check(
            not oracle.model_satisfies(m, oracle.from_term(goal.lhs), oracle.from_term(goal.rhs)),
            f"found model does not refute the goal: {where}",
        )
    elif res.status == "none":
        script = env["derived"].get((name, goal_id))
        rec.check(script is not None, f"search says none but no derivation is known: {where}")
        if script is not None:
            ok = pkg.proofs.check_proof(script, env["systems"][name])
            rec.check(bool(ok) and script.lhs is goal.lhs and script.rhs is goal.rhs, f"derivation does not replay: {where}")
    else:
        rec.check(False, f"search ended {res.status}: {where}")


def check_report(env, item, rep, rec, first_pass):
    _kind, fixture, name, goal_sys, goal_id = item
    where = f"{fixture} against {name} and {goal_id}"
    rec.check(rep["independent"] and rep["all_axioms_hold"], f"report does not show independence: {where}")
    if not first_pass:
        return
    m = env["fixtures"][fixture].to_json()
    goal = env["systems"][goal_sys].by_id[goal_id]
    ok = all(oracle.model_satisfies(m, lhs, rhs) for lhs, rhs in _equations(env["systems"][name]))
    ok = ok and not oracle.model_satisfies(m, oracle.from_term(goal.lhs), oracle.from_term(goal.rhs))
    rec.check(ok, f"oracle does not confirm the report: {where}")


def run_round(env, inp, r, rec):
    first = inp["first"]
    for item in inp["items"]:
        if item[0] == "search":
            res = rec.op(search, env, *item[1:], rec.tracer)
            if res is rec.FAILED:
                continue
            rec.tracer.count("models.search_nodes", res.nodes)
            if rec.tracer.enabled:
                rec.tracer.count("models.traced_search_nodes", res.nodes)
            if item not in first:
                first[item] = (res.status, res.nodes, res.carrier)
                check_search(env, item, res, rec)
            else:
                rec.check(first[item] == (res.status, res.nodes, res.carrier), f"search {item} differs from the first pass")
        else:
            rep = rec.op(report, env, *item[1:], rec.tracer)
            if rep is rec.FAILED:
                continue
            carrier = env["fixtures"][item[1]].carrier
            goal_vars = len(env["systems"][item[3]].by_id[item[4]].vars)
            rec.tracer.count("models.valuations_checked", sum(a["valuations"] for a in rep["axioms"]) + carrier**goal_vars)
            check_report(env, item, rep, rec, item not in first)
            if item not in first:
                first[item] = rep
            else:
                rec.check(first[item] == rep, f"report {item} differs from the first pass")
