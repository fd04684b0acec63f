"""Deciding behavioural equivalences and preorders on closed terms.

Flat relations: trace (T), completed trace (CT), failure (F), ready (R),
failure trace (FT), ready trace (RT), possible futures (PF), simulation (S),
completed simulation (CS), ready simulation (RS), failure simulation (FS,
which coincides with RS), and bisimilarity (B). On top of these sit the two
indexed hierarchies of nested trace and nested simulation equivalences.

No checker keeps module state, spends a call frame per node or pair, or
reads an observation set. B, the decorated-trace relations and NT_k are
decided by a hash-consed class per node through `terms.cached`: two live
nodes are related exactly when their classes are one node. S, CS, RS, FS
and NS_k are pair rules run by `terms.cached_pair`, which keeps each
verdict on the younger node of its pair. `refute_open` holds the instances
of one choice for the first variable, so their siblings find shared
derivative sets and classes on the nodes; nothing outlives the call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .semantics import TransitionMode, _mode_key, initials, transitions
from .terms import (
    Alphabet,
    Nil,
    Par,
    Prefix,
    Sum,
    Term,
    Var,
    _intern,
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
    "class_of",
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
    return f"{rel[0]}{rel[1]}" if isinstance(rel, tuple) else rel


# ---------------------------------------------------------------------------
# Classes: B, the decorated-trace relations and the nested trace hierarchy
#
# A node stands for a set of states: a state for itself, a _Set for its
# members. Its class sums the relation's markers of the set and a.c for each
# action a of a member, c the class of the node for the a-derivatives; under
# RT and FT each group x of members, by menu or by each set of labels they
# refuse, adds x || (the sum of its a.c). B takes each move on its own. A set
# x of labels is written as the variable named repr(sorted(x)).


class _Set(Term):
    """The node for a set of states: its member if it has one, else a _Set,
    kept apart from the sum of its members."""

    __slots__ = ("members",)

    def __new__(cls, us):
        if len(us) == 1:
            return next(iter(us))
        ms = frozenset(us)
        return _intern(cls, ("s", ms), lambda t: object.__setattr__(t, "members", ms))


def _members(n):
    return n.members if isinstance(n, _Set) else (n,)


def _moves(n, mv, mode, alphabet):
    """The groups (x, ((a, kid), ...)) of n's members, x None for all of
    them, and kid the node for the group's a-derivatives (B: each one)."""
    if mv[1] == "B":
        return ((None, transitions(n, mode, alphabet)),)
    groups: dict = {}
    for m in _members(n):
        xs = (None,)
        if mv[1] == "RT":
            xs = (initials(m, mode, alphabet),)
        elif mv[1] == "FT":
            rs = [b for b in alphabet.transition_labels() if b not in initials(m, mode, alphabet)]
            xs = [frozenset(c) for k in range(len(rs) + 1) for c in itertools.combinations(rs, k)]
        for x in xs:
            group = groups.setdefault(x, {})
            for a, u in transitions(m, mode, alphabet):
                group.setdefault(a, set()).add(u)
    return tuple((x, tuple((a, _Set(us)) for a, us in g.items())) for x, g in groups.items())


def _kids(n, key, mode, alphabet):
    groups = cached(n, key[1], _moves, None, key[1], mode, alphabet)
    return [kid for _, group in groups for _, kid in group]


def _class(n, key, mode, alphabet) -> Term:
    return cached(n, key, _class_of, _kids, key, mode, alphabet)


def _class_of(n, key, mode, alphabet) -> Term:
    """The markers: under CT whether a member is deadlocked, under R the
    menus, under F the least menus within the alphabet, under NT_k the
    NT_(k-1) classes of the members unless they are all one. Under FT a
    group is left out if refusing one more label leaves its sum unchanged:
    refusals are closed downwards, so the class stays canonical."""
    rel, parts, sums = key[0], set(), {}
    if rel in ("CT", "F", "R"):
        menus = {initials(m, mode, alphabet) for m in _members(n)}
        if rel == "CT":
            menus &= {frozenset()}
        elif rel == "F":
            menus = {x.intersection(alphabet.transition_labels()) for x in menus}
            menus = [x for x in menus if not any(y < x for y in menus)]
        parts = {Var(repr(sorted(x))) for x in menus}
    elif isinstance(rel, int) and isinstance(n, _Set):
        lower = (rel - 1 if rel > 2 else "T",) + key[1:]
        parts = {Par(Nil(), _class(m, lower, mode, alphabet)) for m in _members(n)}
        parts = parts if len(parts) > 1 else set()
    for x, group in cached(n, key[1], _moves, None, key[1], mode, alphabet):
        moves = [Prefix(a, _class(kid, key, mode, alphabet)) for a, kid in group]
        if x is None:
            parts.update(moves)
        else:
            sums[x] = sum_of(sorted(moves, key=id))
    labels = alphabet.transition_labels() if rel == "FT" else ()
    for x, body in sums.items():
        if all(sums.get(x | {b}) is not body for b in labels if b not in x):
            parts.add(Par(Var(repr(sorted(x))), body))
    return sum_of(sorted(parts, key=id))


def class_of(p, rel, alphabet=None, mode=TransitionMode.INTERLEAVING) -> Term:
    """p's class under rel: B, T to RT, PF or NT_k, k >= 1. Two live nodes
    are rel-equivalent exactly when their classes are one node."""
    name = relation_name(rel)
    kind = {"PF": 2, "NT1": "T"}.get(name, int(name[2:]) if name[:2] == "NT" else name)
    if kind == 0 or name[:2] == "NS" or name in _SIM_FLAVOURS:
        raise ValueError(f"no class per node for {name}")
    return _class(p, _class_key(kind, mode, alphabet), mode, alphabet)


def _class_key(rel, mode, alphabet):
    """The cache key of the classes under rel: B, T to RT, or k >= 2 for NT_k."""
    if rel in ("F", "FT") and alphabet is None:
        raise ValueError("refusal sets need an alphabet")
    fam = rel if rel in ("B", "RT", "FT") else None
    mv = ("mv", fam, _mode_key(mode, alphabet), alphabet if fam == "FT" else None)
    return (rel, mv, alphabet if rel in ("F", "FT") else None)


def _same_class(p, q, rel, mode, alphabet) -> bool:
    key = _class_key(rel, mode, alphabet)
    return p is q or _class(p, key, mode, alphabet) is _class(q, key, mode, alphabet)


def decorated_eq(p, q, rel, alphabet=None, mode=TransitionMode.INTERLEAVING) -> bool:
    if rel not in _DECORATED:
        raise ValueError(f"not a decorated-trace relation: {rel!r}")
    return _same_class(p, q, 2 if rel == "PF" else rel, mode, alphabet)


def bisimilar(p, q, mode=TransitionMode.INTERLEAVING, alphabet=None) -> bool:
    return _same_class(p, q, "B", mode, alphabet)


def nested_trace_eq(p, q, n, mode=TransitionMode.INTERLEAVING, alphabet=None) -> bool:
    """Level n of the nested trace hierarchy. Level 0 relates everything,
    level 1 is trace equivalence, level 2 possible-futures equivalence."""
    if n < 0:
        raise ValueError("level must be non-negative")
    if n == 0 or p is q:
        return True
    return _same_class(p, q, "T" if n == 1 else n, mode, alphabet)


# ---------------------------------------------------------------------------
# Simulations and nested simulations


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


# (finer, coarser): each relation implies the next on finite processes
_SPECTRUM_EDGES = (
    ("RS", "RT"), ("RT", "FT"), ("RT", "R"), ("FT", "F"), ("R", "F"), ("F", "CT"),
    ("CT", "T"), ("RS", "CS"), ("CS", "S"), ("CS", "CT"), ("S", "T"), ("PF", "R"),
    ("B", "RS"), ("B", "PF"),
)


def _spectrum_edges(nested_max: int):
    edges = list(_SPECTRUM_EDGES)
    for k in range(1, nested_max + 1):
        edges += [("B", f"NS{k}"), ("B", f"NT{k}")]
        if k > 1:
            edges += [(f"NS{k}", f"NS{k - 1}"), (f"NT{k}", f"NT{k - 1}")]
    if nested_max >= 2:
        edges += [("NS2", "RS"), ("NS2", "PF")]
    return edges


def spectrum_vector(p, q, alphabet=None, mode=TransitionMode.INTERLEAVING, nested_max=2) -> dict:
    """Evaluate every relation on the pair and cross-check the lattice: each
    implication arrow must hold in the results, and NS1 must agree with S.
    (NT1 and NT2 are decided as T and PF.)"""
    if free_vars(p) or free_vars(q):
        raise ValueError("spectrum vectors are for closed terms")
    if nested_max < 1:
        raise ValueError("nested_max must be at least 1")
    vec = {rel: equivalent(p, q, rel, alphabet, mode) for rel in FLAT_RELATIONS if rel != "FS"}
    for k in range(1, nested_max + 1):
        vec[f"NT{k}"] = nested_trace_eq(p, q, k, mode, alphabet)
        vec[f"NS{k}"] = nested_sim_eq(p, q, k, mode, alphabet)
    for fine, coarse in _spectrum_edges(nested_max):
        if vec[fine] and not vec[coarse]:
            raise SpectrumError(
                f"{fine} holds but {coarse} fails on {_show(p)} vs {_show(q)}"
            )
    if vec["NS1"] != vec["S"]:
        raise SpectrumError(f"NS1 and S disagree on {_show(p)} vs {_show(q)}")
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
    refuted = True  # a class attribute, not a field


@dataclass(frozen=True)
class NotRefuted:
    checked: int
    refuted = False  # a class attribute, not a field


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
    instances checked. The instances of one choice for the first variable
    are held until it changes, so their siblings reuse the derivative sets
    and classes on them; nothing outlives the call."""
    rel = parse_relation(rel)
    if scheme is None:
        scheme = default_substitution_scheme(alphabet)
    names = sorted(free_vars(t) | free_vars(u))
    tag_base = 1 + max(depth(t), depth(u))
    tag, pools = Nil(), []
    for i, _ in enumerate(names):
        # the i-th variable's tag: the first action tag_base + i times
        for _ in range(tag_base + i - depth(tag) if scheme.deep_tags else 0):
            tag = Prefix(alphabet.actions[0], tag)
        extra = (tag,) if scheme.deep_tags and tag not in scheme.pool else ()
        pools.append(tuple(scheme.pool) + extra)

    # The instances in candidate-pool order, the last variable varying
    # fastest. sides[i] holds t and u with the first i variables substituted
    # and stays while those choices do, so instances sharing a prefix of
    # choices share the partially instantiated terms.
    sides, last, checked, held = [(t, u)], (), 0, []
    for cands in itertools.product(*pools):
        i = 0
        while i < len(last) and cands[i] is last[i]:
            i += 1
        if i == 0:
            held.clear()
        del sides[i + 1 :]
        for j in range(i, len(names)):
            sides.append(tuple(substitute(side, {names[j]: cands[j]}) for side in sides[j]))
        last = cands
        checked += 1
        held.append(sides[-1])
        if not equivalent(*sides[-1], rel, alphabet, mode):
            return Refuted(dict(zip(names, cands)), checked)
    return NotRefuted(checked)
