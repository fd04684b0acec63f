"""Workload `eliminate`: parallel elimination with replayable proofs.

One round builds one closed term per shape in SHAPES for each of the two
alphabets, and takes every term through every system of its kind: the nine
plain E_X over {a, b} and the nine E^c_X over the CCS-sync alphabet {a}. An
operation is the path of `bccsp eliminate --proof-out` followed by
`bccsp prove-check`: parse the text, `eliminate(..., emit_proof=True)`,
`script_to_json`, JSON text and back, `script_from_json`, `check_proof`.

Checks: the result has no parallel composition (by the benchmark's own
walk); the round-tripped proof is accepted and its goal is input = result;
input and result have the same traces according to the oracle, since every
target relation implies trace equivalence.
"""

from __future__ import annotations

import importlib
import json

import gen
import oracle
from oracle import NIL

PLAIN_SYSTEMS = ("E_T", "E_CT", "E_F", "E_R", "E_FT", "E_RT", "E_S", "E_CS", "E_RS")
SYNC_SYSTEMS = tuple("E^c_" + n[2:] for n in PLAIN_SYSTEMS)


def _chain(actions):
    t = NIL
    for a in reversed(actions):
        t = ("p", a, t)
    return t


def _choice(rng, labels):
    """a.0 + b.0 with two different actions."""
    a, b = rng.sample(labels, 2)
    return ("+", _chain([a]), _chain([b]))


def _two(rng, labels):
    """(a.(b + c) + d) || e.f"""
    x = [rng.choice(labels) for _ in range(6)]
    left = ("+", ("p", x[0], ("+", _chain(x[1:2]), _chain(x[2:3]))), _chain(x[3:4]))
    return ("|", left, _chain(x[4:6]))


def _three(rng, labels):
    """(a + b) || c.d || e, components in a shuffled order. Wider or deeper
    components, or repeated heads in the choice, make the elimination under
    some systems run for seconds to minutes (see CHANGES.md)."""
    comps = [_choice(rng, labels), _chain([rng.choice(labels) for _ in range(2)]), _chain([rng.choice(labels)])]
    rng.shuffle(comps)
    return gen.par_of(comps)


def _recurring(rng, labels):
    """a.(p || q) + (p || q) || r with p = b + c, q = d, r = e: the parallel
    subterm p || q occurs twice."""
    pq = ("|", _choice(rng, labels), _chain([rng.choice(labels)]))
    return ("+", ("p", rng.choice(labels), pq), ("|", pq, _chain([rng.choice(labels)])))


SHAPES = (("two", _two), ("three", _three), ("recurring", _recurring))


def setup(pkg, tr):
    plain = pkg.make_alphabet(("a", "b"))
    sync = pkg.make_alphabet(("a",), sync=True)
    systems = {}
    for names, alpha in ((PLAIN_SYSTEMS, plain), (SYNC_SYSTEMS, sync)):
        for n in names:
            systems[n] = tr.call("axioms.build_system", pkg.axioms.build_system, n, alpha)
    return {
        "pkg": pkg,
        # the package exports the function under the module's name
        "eliminate": importlib.import_module("bccsp.eliminate").eliminate,
        "systems": systems,
    }


def inputs(seed, env):
    return {"seed": seed}


def _dag_stats(t):
    """(tree size, distinct subterms) of a Term, by the benchmark's own walk."""
    sizes: dict = {}

    def walk(u):
        got = sizes.get(id(u))
        if got is not None:
            return got
        kind = type(u).__name__
        if kind in ("Nil", "Var"):
            n = 1
        elif kind == "Prefix":
            n = 1 + walk(u.body)
        else:
            n = 1 + walk(u.left) + walk(u.right)
        sizes[id(u)] = n
        return n

    return walk(t), len(sizes)


def eliminate_and_replay(env, text, system, tr):
    pkg = env["pkg"]
    alpha = system.alphabet
    term = tr.call("terms.parse", pkg.terms.parse, text, alpha)
    result, script = tr.call("eliminate.eliminate", env["eliminate"], term, system, emit_proof=True)
    doc = tr.call("proofs.script_to_json", pkg.proofs.script_to_json, script, system.name)
    blob = json.dumps(doc)
    back = tr.call("proofs.script_from_json", pkg.proofs.script_from_json, json.loads(blob), alpha)
    verdict = tr.call("proofs.check_proof", pkg.proofs.check_proof, back, system)
    return term, result, back, verdict, len(blob)


def count(tr, out):
    _term, result, back, _verdict, blob_len = out
    tree, dag = _dag_stats(result)
    tr.count("terms.parse_calls")
    tr.count("eliminate.calls")
    tr.count("eliminate.result_tree_size", tree)
    tr.count("eliminate.result_dag_nodes", dag)
    tr.count("proofs.json_kb", blob_len / 1024.0)
    tr.count("proofs.steps", len(back.steps))
    tr.count("proofs.axiom_steps", sum(1 for s in back.steps if s.rule == "axiom"))


def check(env, sync, tup, out, rec):
    term, result, back, verdict, _blob_len = out
    where = f"{gen.to_text(tup)} under {'sync' if sync else 'plain'}"
    res = oracle.from_term(result)
    rec.check(not oracle.has_par(res), f"result still has a parallel composition: {where}")
    rec.check(bool(verdict), f"proof rejected ({verdict}): {where}")
    rec.check(back.lhs is term and back.rhs is result, f"proof goal is not input = result: {where}")
    # a fresh oracle per check, so its memo does not grow with the run
    rec.check(oracle.Oracle(sync).trace_eq(tup, res), f"input and result differ in traces: {where}")


def run_round(env, inp, r, rec):
    # Which actions of a term coincide decides most of its cost, so that
    # pattern comes from a stream every seed shares; the seed renames the
    # actions by a symmetry of the alphabet.
    shapes_rng = gen.rng_for(0, "eliminate-shapes", r)
    rng = gen.rng_for(inp["seed"], "eliminate-round", r)
    for _name, shape in SHAPES:
        for sync, names in ((False, PLAIN_SYSTEMS), (True, SYNC_SYSTEMS)):
            tup = gen.rename(shape(shapes_rng, gen.SYNC_LABELS if sync else gen.PLAIN_LABELS), gen.symmetry(rng, sync))
            text = gen.to_text(tup)
            for n in names:
                out = rec.op(eliminate_and_replay, env, text, env["systems"][n], rec.tracer)
                if out is not rec.FAILED:
                    if rec.tracer.counting:
                        count(rec.tracer, out)
                    check(env, sync, tup, out, rec)
