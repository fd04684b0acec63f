"""Workload `soundness`: refutation sweeps on cold caches.

Every axiom system E_X over {a, b} and E^c_X over the CCS-sync alphabet {a}
is split into strata, one per schema and number of variables (instances of
one stratum differ only in their actions). One round checks, for every
system, one seeded instance of every stratum with `check_sound` under the
system's target relation, then the known-unsound pairings under B, then
`negative_evidence_report` for both kinds. An operation is one equation
checked or one report.

Each check substitutes from a one-term pool plus the default deep tags, so
an equation with k variables has 2^k closed instances. The term is one of
the three smallest of the default pool (0, a.0, b.0), in rotation. The
default six-term pool (7^k instances) runs for minutes on the wide schemas,
and the larger terms alone make single checks run for seconds; see
CHANGES.md. `refute_open` clears the pair memos for every equation, so the
checkers start cold each time.

Checks: no axiom is refuted under its system's relation; every known-unsound
pairing is refuted and the oracle finds the refuting instance not bisimilar;
both evidence reports pass with one family per N.
"""

from __future__ import annotations

import gen
import oracle

PLAIN_SYSTEMS = ("E_T", "E_CT", "E_F", "E_R", "E_FT", "E_RT", "E_S", "E_CS", "E_RS")
SYNC_SYSTEMS = tuple("E^c_" + n[2:] for n in PLAIN_SYSTEMS)

# Substitution terms: the three smallest of the default scheme's pool,
# written over the first two transition labels of each alphabet.
CANDIDATES = ("0", "{a}.0", "{b}.0")

# (system, (schema, variables)) strata left out because one check runs for
# seconds even with the one-term pool; see CHANGES.md.
EXCLUDED = frozenset(
    [("E_FT", ("EL2", 4)), ("E^c_F", ("ELC2", 6)), ("E^c_R", ("ELC2", 6))]
    + [("E^c_FT", ("FP", 4)), ("E^c_FT", ("RS", 3))]
    + [("E^c_FT", ("ELC2", k)) for k in range(2, 7)]
)

# system, equation, relation: pairings known to be unsound
UNSOUND = (
    ("E_T", "T[a]", "B"),
    ("E_S", "S[a]", "B"),
    ("E_CT", "CTP[a,b]", "B"),
    ("E^c_T", "T[tau]", "B"),
)

WITNESS_N = 6


def _schema(eq_id: str) -> str:
    return eq_id.split("[", 1)[0]


def setup(pkg, tr):
    plain = pkg.make_alphabet(("a", "b"))
    sync = pkg.make_alphabet(("a",), sync=True)
    systems = {}
    for names, alpha in ((PLAIN_SYSTEMS, plain), (SYNC_SYSTEMS, sync)):
        for n in names:
            systems[n] = tr.call("axioms.build_system", pkg.axioms.build_system, n, alpha)
    strata = {}
    for n, system in systems.items():
        groups: dict = {}
        for eq in system:
            key = (_schema(eq.id), len(eq.vars))
            if (n, key) not in EXCLUDED:
                groups.setdefault(key, []).append(eq)
        strata[n] = [groups[k] for k in sorted(groups)]
    candidates = {}
    for alpha in (plain, sync):
        a, b = alpha.transition_labels()[:2]
        candidates[alpha.sync_mode] = [pkg.terms.parse(c.format(a=a, b=b), alpha) for c in CANDIDATES]
    return {"pkg": pkg, "systems": systems, "strata": strata, "candidates": candidates}


def inputs(seed, env):
    return {"seed": seed}


def check_equation(env, system, eq, rel, cand, tr):
    pkg = env["pkg"]
    scheme = pkg.equivalences.SubstitutionScheme((cand,), deep_tags=True)
    return tr.call("axioms.check_sound", pkg.axioms.check_sound, eq, rel, system.alphabet, system.mode, scheme)


def evidence(env, kind, tr):
    return tr.call("witness.negative_evidence_report", env["pkg"].witness.negative_evidence_report, kind, WITNESS_N)


def check_unsound(env, system, eq, res, rec):
    where = f"{eq.id} under B in {system.name}"
    rec.check(res.refuted, f"known-unsound pairing not refuted: {where}")
    if not res.refuted:
        return
    sigma = {n: oracle.from_term(t) for n, t in res.substitution.items()}
    lhs = oracle.substitute(oracle.from_term(eq.lhs), sigma)
    rhs = oracle.substitute(oracle.from_term(eq.rhs), sigma)
    o = oracle.Oracle(sync=system.alphabet.sync_mode)
    rec.check(not o.bisimilar(lhs, rhs), f"oracle finds the refuting instance bisimilar: {where}")


def run_round(env, inp, r, rec):
    rng = gen.rng_for(inp["seed"], "soundness-round", r)
    turn = r
    for name, system in env["systems"].items():
        cands = env["candidates"][system.alphabet.sync_mode]
        for stratum in env["strata"][name]:
            eq = rng.choice(stratum)
            turn += 1
            res = rec.op(check_equation, env, system, eq, system.target_relation, cands[turn % len(cands)], rec.tracer)
            if res is not rec.FAILED:
                rec.tracer.count("axioms.instances_checked", res.checked)
                rec.check(not res.refuted, f"{eq.id} refuted under {system.target_relation} in {name}: {getattr(res, 'substitution', None)}")
    for name, eq_id, rel in UNSOUND:
        system = env["systems"][name]
        eq = system.by_id[eq_id]
        cands = env["candidates"][system.alphabet.sync_mode]
        turn += 1
        res = rec.op(check_equation, env, system, eq, rel, cands[turn % len(cands)], rec.tracer)
        if res is not rec.FAILED:
            rec.tracer.count("axioms.instances_checked", res.checked)
            check_unsound(env, system, eq, res, rec)
    for kind in ("interleaving", "sync"):
        rep = rec.op(evidence, env, kind, rec.tracer)
        if rep is not rec.FAILED:
            rec.tracer.count("witness.families", len(rep["families"]))
            rec.check(
                rep["all_pass"] and [f["n"] for f in rep["families"]] == list(range(1, WITNESS_N + 1)),
                f"{kind} evidence report does not pass",
            )
