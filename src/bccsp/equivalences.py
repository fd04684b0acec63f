"""Deciding behavioural equivalences and preorders on closed terms.

Flat relations: trace (T), completed trace (CT), failure (F), ready (R),
failure trace (FT), ready trace (RT), possible futures (PF), simulation (S),
completed simulation (CS), ready simulation (RS), failure simulation (FS,
which coincides with RS), and bisimilarity (B). On top of these sit the two
indexed hierarchies of nested trace and nested simulation equivalences.

All checkers work on the finite acyclic transition systems the term syntax
generates, by memoized recursion on derivative pairs. Pair memos live in
module-level tables that `clear_pair_caches` resets; `refute_open` does this
per equation so long sweeps do not accumulate entries for throwaway terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import observations
from .semantics import TransitionMode, _mode_key, initials, multi_derivatives, transitions
from .terms import (
    Alphabet,
    Nil,
    Prefix,
    Sum,
    Term,
    _show,
    cached,
    depth,
    free_vars,
    substitute,
)

__all__ = [
    "FLAT_RELATIONS",
    "parse_relation",
    "relation_name",
    "decorated_eq",
    "simulation_preorder",
    "sim_eq",
    "bisimilar",
    "nested_trace_eq",
    "nested_sim_preorder",
    "nested_sim_eq",
    "equivalent",
    "SpectrumError",
    "spectrum_vector",
    "SubstitutionScheme",
    "default_substitution_scheme",
    "Refuted",
    "NotRefuted",
    "refute_open",
    "clear_pair_caches",
]

FLAT_RELATIONS = ("T", "CT", "F", "R", "FT", "RT", "PF", "S", "CS", "RS", "FS", "B")

_DECORATED = {"T", "CT", "F", "R", "FT", "RT", "PF"}
_SIM_FLAVOURS = {"S", "CS", "RS", "FS"}

_sim_memo: dict = {}
_bisim_memo: dict = {}
_ntr_memo: dict = {}
_nsim_memo: dict = {}
_PAIR_CACHES = (_sim_memo, _bisim_memo, _ntr_memo, _nsim_memo)


def clear_pair_caches() -> None:
    for c in _PAIR_CACHES:
        c.clear()


def parse_relation(rel):
    """Normalise a relation name. Nested relations are written NT<k> / NS<k>
    and come back as ("NT", k) / ("NS", k); flat ones come back unchanged."""
    if isinstance(rel, tuple):
        kind, k = rel
        if kind in ("NT", "NS") and isinstance(k, int) and k >= 0:
            return rel
        raise ValueError(f"bad relation {rel!r}")
    if rel in FLAT_RELATIONS:
        return rel
    if isinstance(rel, str) and rel[:2] in ("NT", "NS") and rel[2:].isdigit():
        return (rel[:2], int(rel[2:]))
    raise ValueError(f"unknown relation {rel!r}")


def relation_name(rel) -> str:
    rel = parse_relation(rel)
    if isinstance(rel, tuple):
        return f"{rel[0]}{rel[1]}"
    return rel


# ---------------------------------------------------------------------------
# Decorated-trace equivalences


def decorated_eq(p, q, rel, alphabet=None, mode=TransitionMode.INTERLEAVING) -> bool:
    from .semantics import completed_traces, traces

    if rel == "T":
        return traces(p, mode, alphabet) == traces(q, mode, alphabet)
    if rel == "CT":
        return completed_traces(p, mode, alphabet) == completed_traces(q, mode, alphabet)
    if rel in _DECORATED:
        return observations.observation_set(p, rel, alphabet, mode) == observations.observation_set(
            q, rel, alphabet, mode
        )
    raise ValueError(f"not a decorated-trace relation: {rel!r}")


# ---------------------------------------------------------------------------
# Simulations and bisimilarity


def simulation_preorder(p, q, flavour="S", mode=TransitionMode.INTERLEAVING, alphabet=None):
    """Is p simulated by q? The flavour fixes the extra condition imposed at
    every related pair: none (S), joint termination (CS), equal menus (RS),
    or refusal inclusion (FS)."""
    if flavour not in _SIM_FLAVOURS:
        raise ValueError(f"unknown simulation flavour {flavour!r}")
    mk = _mode_key(mode, alphabet)

    def sim(s, t) -> bool:
        key = (flavour, mk, s, t)
        got = _sim_memo.get(key)
        if got is not None:
            return got
        si = initials(s, mode, alphabet)
        ti = initials(t, mode, alphabet)
        if flavour == "CS":
            ok = bool(si) or not ti
        elif flavour == "RS":
            ok = si == ti
        elif flavour == "FS":
            ok = ti <= si
        else:
            ok = True
        if ok:
            for a, s2 in transitions(s, mode, alphabet):
                if not any(sim(s2, t2) for b, t2 in transitions(t, mode, alphabet) if b == a):
                    ok = False
                    break
        _sim_memo[key] = ok
        return ok

    return sim(p, q)


def sim_eq(p, q, flavour="S", mode=TransitionMode.INTERLEAVING, alphabet=None) -> bool:
    return simulation_preorder(p, q, flavour, mode, alphabet) and simulation_preorder(
        q, p, flavour, mode, alphabet
    )


def bisimilar(p, q, mode=TransitionMode.INTERLEAVING, alphabet=None) -> bool:
    mk = _mode_key(mode, alphabet)

    def bis(s, t) -> bool:
        if s is t:
            return True
        key = (mk, s, t) if id(s) <= id(t) else (mk, t, s)
        got = _bisim_memo.get(key)
        if got is not None:
            return got
        st = transitions(s, mode, alphabet)
        tt = transitions(t, mode, alphabet)
        ok = all(
            any(bis(s2, t2) for b, t2 in tt if b == a) for a, s2 in st
        ) and all(any(bis(s2, t2) for a, s2 in st if a == b) for b, t2 in tt)
        _bisim_memo[key] = ok
        return ok

    return bis(p, q)


# ---------------------------------------------------------------------------
# Nested hierarchies


def _grouped_derivatives(t, mode, alphabet):
    key = ("mdg", _mode_key(mode, alphabet))
    return cached(t, key, _group_derivatives, None, mode, alphabet)


def _group_derivatives(t, mode, alphabet):
    acc: dict = {}
    for seq, u in multi_derivatives(t, mode, alphabet):
        acc.setdefault(seq, set()).add(u)
    return {seq: frozenset(us) for seq, us in acc.items()}


def nested_trace_eq(p, q, n, mode=TransitionMode.INTERLEAVING, alphabet=None) -> bool:
    """Level n of the nested trace hierarchy. Level 0 relates everything,
    level 1 is trace equivalence, level 2 possible-futures equivalence."""
    if n < 0:
        raise ValueError("level must be non-negative")
    mk = _mode_key(mode, alphabet)

    def ntr(s, t, k) -> bool:
        if k == 0 or s is t:
            return True
        key = (k, mk, s, t) if id(s) <= id(t) else (k, mk, t, s)
        got = _ntr_memo.get(key)
        if got is not None:
            return got
        gs = _grouped_derivatives(s, mode, alphabet)
        gt = _grouped_derivatives(t, mode, alphabet)
        ok = set(gs) == set(gt)
        if ok:
            for seq, ss in gs.items():
                ts = gt[seq]
                if not all(any(ntr(s2, t2, k - 1) for t2 in ts) for s2 in ss):
                    ok = False
                    break
                if not all(any(ntr(t2, s2, k - 1) for s2 in ss) for t2 in ts):
                    ok = False
                    break
        _ntr_memo[key] = ok
        return ok

    return ntr(p, q, n)


def nested_sim_preorder(p, q, n, mode=TransitionMode.INTERLEAVING, alphabet=None) -> bool:
    """Level n of the nested simulation hierarchy: whether p is n-nested
    simulated by q. Level 0 relates everything, level 1 is plain simulation."""
    if n < 0:
        raise ValueError("level must be non-negative")
    mk = _mode_key(mode, alphabet)

    def nsim(s, t, k) -> bool:
        if k == 0:
            return True
        key = (k, mk, s, t)
        got = _nsim_memo.get(key)
        if got is not None:
            return got
        # A k-nested simulation is a simulation whose inverse is contained in
        # the (k-1)-nested simulation preorder.
        ok = nsim(t, s, k - 1)
        if ok:
            for a, s2 in transitions(s, mode, alphabet):
                if not any(nsim(s2, t2, k) for b, t2 in transitions(t, mode, alphabet) if b == a):
                    ok = False
                    break
        _nsim_memo[key] = ok
        return ok

    return nsim(p, q, n)


def nested_sim_eq(p, q, n, mode=TransitionMode.INTERLEAVING, alphabet=None) -> bool:
    return nested_sim_preorder(p, q, n, mode, alphabet) and nested_sim_preorder(
        q, p, n, mode, alphabet
    )


# ---------------------------------------------------------------------------
# Dispatch


def equivalent(p, q, rel, alphabet=None, mode=TransitionMode.INTERLEAVING) -> bool:
    rel = parse_relation(rel)
    if isinstance(rel, tuple):
        kind, k = rel
        if kind == "NT":
            return nested_trace_eq(p, q, k, mode, alphabet)
        return nested_sim_eq(p, q, k, mode, alphabet)
    if rel == "B":
        return bisimilar(p, q, mode, alphabet)
    if rel in _SIM_FLAVOURS:
        return sim_eq(p, q, rel, mode, alphabet)
    return decorated_eq(p, q, rel, alphabet, mode)


# ---------------------------------------------------------------------------
# Spectrum vectors


class SpectrumError(AssertionError):
    """An implication between relations failed; this indicates a checker bug."""


def _spectrum_edges(nested_max: int):
    edges = [
        ("RS", "RT"),
        ("RT", "FT"),
        ("RT", "R"),
        ("FT", "F"),
        ("R", "F"),
        ("F", "CT"),
        ("CT", "T"),
        ("RS", "CS"),
        ("CS", "S"),
        ("CS", "CT"),
        ("S", "T"),
        ("PF", "R"),
    ]
    for k in range(1, nested_max):
        edges.append((f"NS{k + 1}", f"NS{k}"))
        edges.append((f"NT{k + 1}", f"NT{k}"))
    for k in range(1, nested_max + 1):
        edges.append(("B", f"NS{k}"))
        edges.append(("B", f"NT{k}"))
    edges.append(("B", "RS"))
    edges.append(("B", "PF"))
    if nested_max >= 2:
        edges.append(("NS2", "RS"))
        edges.append(("NS2", "PF"))
    return edges


def _spectrum_coincidences(nested_max: int):
    pairs = []
    if nested_max >= 1:
        pairs.extend((("NT1", "T"), ("NS1", "S")))
    if nested_max >= 2:
        pairs.append(("NT2", "PF"))
    return pairs


def spectrum_vector(p, q, alphabet=None, mode=TransitionMode.INTERLEAVING, nested_max=2) -> dict:
    """Evaluate every relation on the pair and cross-check the lattice: each
    implication arrow must hold in the results, and the nested levels that
    coincide with flat relations must agree with them."""
    if free_vars(p) or free_vars(q):
        raise ValueError("spectrum vectors are for closed terms")
    if nested_max < 1:
        raise ValueError("nested_max must be at least 1")
    vec = {}
    for rel in ("T", "CT", "F", "R", "FT", "RT", "PF", "S", "CS", "RS", "B"):
        vec[rel] = equivalent(p, q, rel, alphabet, mode)
    for k in range(1, nested_max + 1):
        vec[f"NT{k}"] = nested_trace_eq(p, q, k, mode, alphabet)
        vec[f"NS{k}"] = nested_sim_eq(p, q, k, mode, alphabet)
    for fine, coarse in _spectrum_edges(nested_max):
        if vec[fine] and not vec[coarse]:
            raise SpectrumError(
                f"{fine} holds but {coarse} fails on {_show(p)} vs {_show(q)}"
            )
    for x, y in _spectrum_coincidences(nested_max):
        if vec[x] != vec[y]:
            raise SpectrumError(f"{x} and {y} disagree on {_show(p)} vs {_show(q)}")
    return vec


# ---------------------------------------------------------------------------
# Refuting open equations


@dataclass(frozen=True)
class SubstitutionScheme:
    """A pool of closed candidate terms, optionally extended per variable
    with a deep action chain that no candidate or input subterm matches."""

    pool: tuple
    deep_tags: bool = True


def default_substitution_scheme(alphabet: Alphabet) -> SubstitutionScheme:
    a1 = alphabet.actions[0]
    a2 = alphabet.actions[1] if len(alphabet.actions) > 1 else a1
    nil = Nil()
    pa = Prefix(a1, nil)
    pb = Prefix(a2, nil)
    pool = [nil, pa, pb, Prefix(a1, pa), Sum(pa, pb), Prefix(a2, Sum(pa, pb))]
    seen = []
    for t in pool:
        if t not in seen:
            seen.append(t)
    return SubstitutionScheme(tuple(seen))


@dataclass(frozen=True)
class Refuted:
    substitution: dict
    checked: int

    @property
    def refuted(self) -> bool:
        return True


@dataclass(frozen=True)
class NotRefuted:
    checked: int

    @property
    def refuted(self) -> bool:
        return False


def _chain(action: str, n: int) -> Term:
    t: Term = Nil()
    for _ in range(n):
        t = Prefix(action, t)
    return t


def refute_open(
    t,
    u,
    rel,
    alphabet,
    mode=TransitionMode.INTERLEAVING,
    scheme: SubstitutionScheme | None = None,
):
    """Search the closed instances of t ~ u given by the substitution scheme
    for one that the relation distinguishes. Returns the first failing
    substitution in candidate-pool order, or NotRefuted with the number of
    instances checked."""
    rel = parse_relation(rel)
    if scheme is None:
        scheme = default_substitution_scheme(alphabet)
    clear_pair_caches()
    names = sorted(free_vars(t) | free_vars(u))
    if not names:
        checked = 1
        if equivalent(t, u, rel, alphabet, mode):
            return NotRefuted(checked)
        return Refuted({}, checked)

    tag_base = 1 + max(depth(t), depth(u))
    pools = []
    for i, _ in enumerate(names):
        cands = list(scheme.pool)
        if scheme.deep_tags:
            tag = _chain(alphabet.actions[0], tag_base + i)
            if tag not in cands:
                cands.append(tag)
        pools.append(tuple(cands))

    checked = 0
    # One variable is substituted per level, so instances sharing a prefix of
    # choices share the partially instantiated terms.
    stack_t = [t]
    stack_u = [u]
    choice = [0] * len(names)

    def walk(i):
        nonlocal checked
        if i == len(names):
            checked += 1
            if not equivalent(stack_t[-1], stack_u[-1], rel, alphabet, mode):
                return {names[j]: pools[j][choice[j]] for j in range(len(names))}
            return None
        for ci, cand in enumerate(pools[i]):
            choice[i] = ci
            m = {names[i]: cand}
            stack_t.append(substitute(stack_t[-1], m))
            stack_u.append(substitute(stack_u[-1], m))
            hit = walk(i + 1)
            stack_t.pop()
            stack_u.pop()
            if hit is not None:
                return hit
        return None

    hit = walk(0)
    if hit is None:
        return NotRefuted(checked)
    return Refuted(hit, checked)
