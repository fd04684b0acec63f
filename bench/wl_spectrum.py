"""Workload `spectrum`: equivalence queries on warm caches.

A seeded pool of closed pairs, each side a parallel composition of two or
three components, is queried as a stream with skewed reuse, so the per-node
caches and the pair memos of the checkers are hit. The pool is split into
bands by the number of traces of the pair (counted by the oracle); queries
visit the bands in a fixed rotation and draw a pair inside the band with a
Zipf law, so every seed puts the same share of its queries on small and on
large pairs. One round is
ROUND_SPECTRUM full spectrum queries (`spectrum_vector` with nested_max=2,
plus the transition systems of both sides) and one single-relation query
(`equivalent`) per relation, in a seeded order. A single-relation query
that comes out negative under a decorated-trace relation also returns the
distinguishing observation, computed from the observation sets of both
sides. Every SYNC_EVERY-th query runs over the CCS-sync alphabet {a}; the
others run over the plain alphabet {a, b}. Queries alternate between text
(through `terms.parse`) and built Terms.

Checks: T, CT and B verdicts and state counts against the oracle; every
vector against the spectrum's implication lattice; pairs equal by
construction related by every relation, and pairs built trace equal related
by T; a negative decorated-trace verdict has a distinguishing observation,
and for T and CT the oracle finds it in exactly one side's set.
"""

from __future__ import annotations

import bisect
import itertools

import gen
from oracle import Oracle

RELATIONS = ("T", "CT", "F", "R", "FT", "RT", "PF", "S", "CS", "RS", "B", "NT1", "NT2", "NS1", "NS2")
DECORATED = ("T", "CT", "F", "R", "FT", "RT", "PF")
ORACLE_RELATIONS = ("T", "CT", "B")

ROUND_SPECTRUM = 3
SYNC_EVERY = 6
ZIPF_S = 0.6
BAND_POOL = 30
# Bands of the total number of traces of a pair's two sides. Larger pairs
# are left out: one of them can take longer than the rest of a run.
BANDS = {
    False: ((1, 15), (16, 30), (31, 50), (51, 75), (76, 100)),
    True: ((1, 15), (16, 30), (31, 45), (46, 60)),
}

# Implications between the relations, from the linear time - branching time
# spectrum for finite processes; NT1/NS1 coincide with T/S and NT2 with PF.
IMPLIES = (
    ("B", "NS2"), ("B", "NT2"), ("NS2", "NS1"), ("NS2", "RS"), ("NS2", "PF"),
    ("NT2", "NT1"), ("RS", "RT"), ("RS", "CS"), ("RT", "FT"), ("RT", "R"),
    ("FT", "F"), ("R", "F"), ("PF", "R"), ("F", "CT"), ("CT", "T"),
    ("CS", "S"), ("CS", "CT"), ("S", "T"),
)
COINCIDE = (("NT1", "T"), ("NS1", "S"), ("NT2", "PF"))

KINDS = ("same", "distributed", "independent")


class Entry:
    """A pool pair with the oracle's facts about it. The facts come from an
    oracle used for this pair only and then dropped, so the benchmark's own
    memos add little to the run's peak memory."""

    __slots__ = ("sync", "kind", "p", "q", "p_text", "q_text", "held", "facts")

    def __init__(self, sync, kind, p, q, o: Oracle):
        self.sync = sync
        self.kind = kind
        self.p, self.q = p, q
        self.p_text, self.q_text = gen.to_text(p), gen.to_text(q)
        self.held = None  # built Terms, kept alive so their caches stay warm
        self.facts = {
            "T": o.trace_eq(p, q),
            "CT": o.ct_eq(p, q),
            "B": o.bisimilar(p, q),
            "states": (len(o.reachable((p,))), len(o.reachable((q,)))),
            "T_sets": (o.traces(p), o.traces(q)),
            "CT_sets": (o.completed_traces(p), o.completed_traces(q)),
        }


def setup(pkg, tr):
    return {
        "pkg": pkg,
        "plain": pkg.make_alphabet(("a", "b")),
        "sync": pkg.make_alphabet(("a",), sync=True),
    }


def _pair(rng, sync, kind):
    labels = gen.SYNC_LABELS if sync else gen.PLAIN_LABELS
    n_comp = rng.choice((2, 3))
    depth = 3 if n_comp == 2 else 2
    p = gen.parallel_term(rng, labels, n_comp, depth, 2)
    if kind == "same":
        q = gen.rearrange(rng, p)
    elif kind == "distributed":
        q = gen.rearrange(rng, gen.distribute(rng, p))
    else:
        q = gen.parallel_term(rng, labels, n_comp, depth, 2)
    return p, q


def inputs(seed, env):
    """BAND_POOL pairs per band, a third of each kind, in a seeded order."""
    rng = gen.rng_for(seed, "spectrum-pool")
    pools = {}
    for sync, bands in BANDS.items():
        want = {(b, k): BAND_POOL // len(KINDS) for b in range(len(bands)) for k in KINDS}
        filled = [[] for _ in bands]
        while any(want.values()):
            kind = rng.choice(KINDS)
            p, q = _pair(rng, sync, kind)
            o = Oracle(sync)
            n = len(o.traces(p)) + len(o.traces(q))
            for b, (lo, hi) in enumerate(bands):
                if lo <= n <= hi and want[(b, kind)]:
                    want[(b, kind)] -= 1
                    filled[b].append(Entry(sync, kind, p, q, o))
        for band in filled:
            rng.shuffle(band)
        pools[sync] = filled
    cdf = list(itertools.accumulate(1.0 / (i + 1) ** ZIPF_S for i in range(BAND_POOL)))
    return {"seed": seed, "pools": pools, "cdf": cdf}


def _alphabet_mode(env, sync):
    pkg = env["pkg"]
    if sync:
        return env["sync"], pkg.TransitionMode.CCS_SYNC
    return env["plain"], pkg.TransitionMode.INTERLEAVING


# ---------------------------------------------------------------------------
# Operations


def _terms_of(env, entry, as_text, tr):
    pkg = env["pkg"]
    alpha, _mode = _alphabet_mode(env, entry.sync)
    if as_text:
        p = tr.call("terms.parse", pkg.terms.parse, entry.p_text, alpha)
        q = tr.call("terms.parse", pkg.terms.parse, entry.q_text, alpha)
    else:
        p = tr.call("terms.build", gen.to_term, entry.p, pkg.terms)
        q = tr.call("terms.build", gen.to_term, entry.q, pkg.terms)
    return p, q


def spectrum_query(env, entry, as_text, tr):
    pkg = env["pkg"]
    alpha, mode = _alphabet_mode(env, entry.sync)
    p, q = _terms_of(env, entry, as_text, tr)
    vec = tr.call("equivalences.spectrum_vector", pkg.equivalences.spectrum_vector, p, q, alpha, mode, nested_max=2)
    lp = tr.call("semantics.build_lts", pkg.semantics.build_lts, p, mode, alpha)
    lq = tr.call("semantics.build_lts", pkg.semantics.build_lts, q, mode, alpha)
    return vec, (lp.n_states, lq.n_states)


def relation_query(env, entry, rel, as_text, tr):
    """Decide one relation; a negative decorated-trace verdict comes with a
    distinguishing observation, the number of them and the total size of
    the two observation sets."""
    pkg = env["pkg"]
    alpha, mode = _alphabet_mode(env, entry.sync)
    p, q = _terms_of(env, entry, as_text, tr)
    verdict = tr.call("equivalences." + rel, pkg.equivalences.equivalent, p, q, rel, alpha, mode)
    if verdict or rel not in DECORATED:
        return verdict, None, 0, 0
    if rel in ("T", "CT"):
        fn = pkg.semantics.traces if rel == "T" else pkg.semantics.completed_traces
        op, oq = (tr.call("semantics.traces", fn, t, mode, alpha) for t in (p, q))
    else:
        obs = pkg.observations.observation_set
        op, oq = (tr.call("observations." + rel, obs, t, rel, alpha, mode) for t in (p, q))
    diff = op ^ oq
    return verdict, next(iter(diff), None), len(diff), len(op) + len(oq)


# ---------------------------------------------------------------------------
# Checks


def check_vector(env, entry, result, rec):
    vec, states = result
    rec.tracer.count("semantics.lts_states", sum(states))
    facts = entry.facts
    where = f"{entry.p_text} vs {entry.q_text}"
    rec.check(set(vec) == set(RELATIONS), f"vector has relations {sorted(vec)} on {where}")
    for rel in ORACLE_RELATIONS:
        rec.check(vec[rel] == facts[rel], f"{rel} verdict {vec[rel]} disagrees with the oracle on {where}")
    for fine, coarse in IMPLIES:
        rec.check(not vec[fine] or vec[coarse], f"{fine} holds but {coarse} fails on {where}")
    for x, y in COINCIDE:
        rec.check(vec[x] == vec[y], f"{x} and {y} disagree on {where}")
    if entry.kind == "same":
        rec.check(all(vec.values()), f"pair equal by construction not related by all relations: {where}")
    if entry.kind == "distributed":
        rec.check(vec["T"], f"pair built trace equal is not trace equivalent: {where}")
    rec.check(states == facts["states"], f"state counts {states} vs oracle {facts['states']} on {where}")


def check_relation(env, entry, rel, result, rec):
    verdict, witness, n_diff, obs_size = result
    if not verdict and rel in DECORATED and rel not in ("T", "CT"):
        rec.tracer.count(f"observations.{rel}_size", obs_size)
        rec.tracer.count(f"observations.{rel}_calls", 2)
    where = f"{rel} on {entry.p_text} vs {entry.q_text}"
    facts = entry.facts
    if rel in ORACLE_RELATIONS:
        rec.check(verdict == facts[rel], f"verdict {verdict} disagrees with the oracle: {where}")
    if entry.kind == "same" or (entry.kind == "distributed" and rel == "T"):
        rec.check(verdict, f"pair equal by construction not related: {where}")
    if verdict or rel not in DECORATED:
        return
    rec.check(n_diff > 0, f"negative verdict without a distinguishing observation: {where}")
    if rel in ("T", "CT") and witness is not None:
        in_p, in_q = (witness in s for s in facts[rel + "_sets"])
        rec.check(
            in_p != in_q,
            f"witness {witness} is not in exactly one side: {where}",
        )


# ---------------------------------------------------------------------------
# Called by run.py


def warm(env, inp, rec):
    """Fill the caches: every pool pair is built, kept alive and queried
    once."""
    pkg = env["pkg"]
    for bands in inp["pools"].values():
        for entry in itertools.chain.from_iterable(bands):
            entry.held = (gen.to_term(entry.p, pkg.terms), gen.to_term(entry.q, pkg.terms))
            check_vector(env, entry, spectrum_query(env, entry, False, rec.tracer), rec)


def _draw(rng, inp, sync, turn):
    bands = inp["pools"][sync]
    band = bands[turn % len(bands)]
    cdf = inp["cdf"]
    return band[bisect.bisect_left(cdf, rng.random() * cdf[-1])]


def run_round(env, inp, r, rec):
    rng = gen.rng_for(inp["seed"], "spectrum-round", r)
    queries = [None] * ROUND_SPECTRUM + list(RELATIONS)
    rng.shuffle(queries)
    n_sync = len(queries) // SYNC_EVERY
    # queries made so far in each mode, which picks the band in rotation
    turn = {False: r * (len(queries) - n_sync), True: r * n_sync}
    for i, rel in enumerate(queries):
        sync = i % SYNC_EVERY == SYNC_EVERY - 1
        entry = _draw(rng, inp, sync, turn[sync])
        turn[sync] += 1
        as_text = (i + r) % 2 == 0
        if as_text:
            rec.tracer.count("terms.parse_calls", 2)
        if rel is None:
            out = rec.op(spectrum_query, env, entry, as_text, rec.tracer)
            if out is not rec.FAILED:
                check_vector(env, entry, out, rec)
        else:
            out = rec.op(relation_query, env, entry, rel, as_text, rec.tracer)
            if out is not rec.FAILED:
                check_relation(env, entry, rel, out, rec)
