"""Deciding behavioural equivalences and preorders on closed terms.

Flat relations: trace (T), completed trace (CT), failure (F), ready (R),
failure trace (FT), ready trace (RT), possible futures (PF), simulation (S),
completed simulation (CS), ready simulation (RS), failure simulation (FS,
which coincides with RS), and bisimilarity (B). On top of these sit the two
indexed hierarchies of nested trace and nested simulation equivalences.

All checkers work on the finite acyclic transition systems the term syntax
generates, with no module state and no call frame per node or pair: B by a
class per node through `terms.cached`, the others by pair rules run by
`terms.cached_pair`, which keeps each verdict on the younger node of its pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import observations
from .semantics import (
    TransitionMode,
    _mode_key,
    initials,
    multi_derivatives,
    successors,
    transitions,
)
from .terms import (
    Alphabet,
    Nil,
    Prefix,
    Sum,
    Term,
    _show,
    cached,
    cached_pair,
    depth,
    free_vars,
    substitute,
    sum_of,
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
]

FLAT_RELATIONS = ("T", "CT", "F", "R", "FT", "RT", "PF", "S", "CS", "RS", "FS", "B")

_DECORATED = frozenset(("T", "CT", "F", "R", "FT", "RT", "PF"))
_SIM_FLAVOURS = frozenset(("S", "CS", "RS", "FS"))

_PAIR_CACHES = ()  # no pair memos; bench/layers.py, its only reader, gauges 0


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


def _sim_rule(key, s, t, mode, alphabet):
    """The pair rule of the simulations: is s simulated by t? Under a key
    (flavour, mode key) the flavour's condition holds at the pair; under
    ("NS", k, mode key) the reverse pair is (k-1)-nested simulated. And every
    move of s is matched by an equally labelled move of t to a pair related
    under the same key, at once if the targets coincide: all are reflexive."""
    if key[0] == "NS":
        k = key[1]
        if k > 1 and not (yield ("NS", k - 1, key[2]), t, s):
            return False
    elif key[0] != "S":
        si = initials(s, mode, alphabet)
        ti = initials(t, mode, alphabet)
        if key[0] == "CS":
            ok = bool(si) or not ti
        elif key[0] == "RS":
            ok = si == ti
        else:  # FS
            ok = ti <= si
        if not ok:
            return False
    tt = transitions(t, mode, alphabet)
    for a, s2 in transitions(s, mode, alphabet):
        for b, t2 in tt:
            if b == a and (t2 is s2 or (yield key, s2, t2)):
                break
        else:
            return False
    return True


def simulation_preorder(p, q, flavour="S", mode=TransitionMode.INTERLEAVING, alphabet=None):
    """Is p simulated by q? The flavour fixes the extra condition imposed at
    every related pair: none (S), joint termination (CS), equal menus (RS),
    or refusal inclusion (FS)."""
    if flavour not in _SIM_FLAVOURS:
        raise ValueError(f"unknown simulation flavour {flavour!r}")
    key = (flavour, _mode_key(mode, alphabet))
    return cached_pair(key, p, q, _sim_rule, mode, alphabet)


def sim_eq(p, q, flavour="S", mode=TransitionMode.INTERLEAVING, alphabet=None) -> bool:
    return simulation_preorder(p, q, flavour, mode, alphabet) and simulation_preorder(
        q, p, flavour, mode, alphabet
    )


def _bisim_class(t, mode, alphabet) -> Term:
    """The class of t under bisimilarity: the parallel-free sum of a.c over
    the moves of t, c the class of the target, each summand once. Bisimilar
    live nodes share one hash-consed class, so the term pool is the table."""
    key = ("B", _mode_key(mode, alphabet))
    return cached(t, key, _class_of, successors, mode, alphabet)


def _class_of(t, mode, alphabet) -> Term:
    moves = {Prefix(a, _bisim_class(u, mode, alphabet)) for a, u in transitions(t, mode, alphabet)}
    # any fixed order of the summands will do: a summand node lives as long
    # as a class built from it, so the same set of them always sorts the same
    return sum_of(sorted(moves, key=id))


def bisimilar(p, q, mode=TransitionMode.INTERLEAVING, alphabet=None) -> bool:
    return _bisim_class(p, mode, alphabet) is _bisim_class(q, mode, alphabet)


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


def _nt_rule(key, s, t, mode, alphabet):
    """The pair rule of ("NT", k, mode key), k >= 1: s and t have the same
    traces and, for k > 1, each derivative of either by a trace is (k-1)-
    nested trace equivalent to some derivative of the other by that trace."""
    gs = _grouped_derivatives(s, mode, alphabet)
    gt = _grouped_derivatives(t, mode, alphabet)
    if gs.keys() != gt.keys():
        return False
    k = key[1]
    if k == 1:
        return True
    lower = ("NT", k - 1, key[2])
    for seq, ss in gs.items():
        ts = gt[seq]
        for us, vs in ((ss, ts), (ts, ss)):
            for u in us:
                for v in vs:
                    if v is u or (yield lower, u, v):
                        break
                else:
                    return False
    return True


def nested_trace_eq(p, q, n, mode=TransitionMode.INTERLEAVING, alphabet=None) -> bool:
    """Level n of the nested trace hierarchy. Level 0 relates everything,
    level 1 is trace equivalence, level 2 possible-futures equivalence."""
    if n < 0:
        raise ValueError("level must be non-negative")
    if n == 0 or p is q:
        return True
    return cached_pair(("NT", n, _mode_key(mode, alphabet)), p, q, _nt_rule, mode, alphabet)


def nested_sim_preorder(p, q, n, mode=TransitionMode.INTERLEAVING, alphabet=None) -> bool:
    """Level n of the nested simulation hierarchy: whether p is n-nested
    simulated by q. Level 0 relates everything, level 1 is plain simulation."""
    if n < 0:
        raise ValueError("level must be non-negative")
    if n == 0:
        return True
    return cached_pair(("NS", n, _mode_key(mode, alphabet)), p, q, _sim_rule, mode, alphabet)


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
    return SubstitutionScheme(tuple(dict.fromkeys(pool)))


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
    names = sorted(free_vars(t) | free_vars(u))
    tag_base = 1 + max(depth(t), depth(u))
    pools = []
    for i, _ in enumerate(names):
        cands = list(scheme.pool)
        if scheme.deep_tags:
            tag = _chain(alphabet.actions[0], tag_base + i)
            if tag not in cands:
                cands.append(tag)
        pools.append(tuple(cands))

    # The instances in candidate-pool order, the last variable varying
    # fastest. sides[i] holds t and u with the first i variables substituted
    # and stays while those choices do, so instances sharing a prefix of
    # choices share the partially instantiated terms.
    sides, last, checked = [(t, u)], (), 0
    for cands in itertools.product(*pools):
        i = 0
        while i < len(last) and cands[i] is last[i]:
            i += 1
        del sides[i + 1 :]
        for j in range(i, len(names)):
            sides.append(tuple(substitute(side, {names[j]: cands[j]}) for side in sides[j]))
        last = cands
        checked += 1
        if not equivalent(*sides[-1], rel, alphabet, mode):
            return Refuted(dict(zip(names, cands)), checked)
    return NotRefuted(checked)
