"""Observation sets of the decorated-trace semantics, for output: no
relation is decided from them (`equivalences` compares a class per node),
and they grow with the number of paths of a term. Each function maps a term
to the set of observations of one shape:

- failure pairs: (trace, refused set)
- ready pairs: (trace, exact menu after the trace)
- failure traces: alternating refusal sets and actions, X0 a1 X1 ... an Xn
- ready traces: the same shape with exact menus in place of refusal sets
- possible futures: (trace, trace set of the reached state)

Traces are tuples of labels, action sets are frozensets. Alternating
sequences are encoded as odd-length tuples whose even positions hold sets.
Refusal sets range over subsets of the transition labels of the given
alphabet, so failure pairs and failure traces need the alphabet; the others
do not depend on it.

Every set is cached on the queried node through `terms.cached` and dies
with it. FT and RT are built from the sets of the node's derivatives, cached
on those too; F, R and PF from one walk over the node's derivations, in
which all derivatives with the same menu share one tuple of refusal sets.
No entry holds its own node, so none closes a reference cycle.
"""

from __future__ import annotations

from .semantics import TransitionMode, initials, multi_derivatives, successors, traces, transitions
from .terms import Alphabet, Term, cached

__all__ = [
    "OBSERVATION_KINDS",
    "failure_pairs",
    "ready_pairs",
    "failure_traces",
    "ready_traces",
    "possible_futures",
    "observation_set",
]

OBSERVATION_KINDS = ("F", "R", "FT", "RT", "PF")


def _subsets(xs):
    xs = tuple(xs)
    n = len(xs)
    for mask in range(1 << n):
        yield frozenset(x for i, x in enumerate(xs) if mask >> i & 1)


def _labels(alphabet: Alphabet) -> tuple:
    if alphabet is None:
        raise ValueError("refusal sets need an alphabet")
    return alphabet.transition_labels()


def failure_pairs(t, alphabet, mode=TransitionMode.INTERLEAVING):
    return cached(t, ("obsF", alphabet, mode), _failure_pairs, None, mode, alphabet)


def _failure_pairs(t, mode, alphabet):
    labels = _labels(alphabet)
    refusals: dict = {}  # menu -> its refusal sets, one tuple for all derivatives
    out = set()
    for seq, q in multi_derivatives(t, mode, alphabet):
        menu = initials(q, mode, alphabet)
        xs = refusals.get(menu)
        if xs is None:
            xs = refusals[menu] = tuple(_subsets(a for a in labels if a not in menu))
        out.update((seq, x) for x in xs)
    return frozenset(out)


def ready_pairs(t, alphabet=None, mode=TransitionMode.INTERLEAVING):
    return cached(t, ("obsR", alphabet, mode), _ready_pairs, None, mode, alphabet)


def _ready_pairs(t, mode, alphabet):
    md = multi_derivatives(t, mode, alphabet)
    return frozenset((seq, initials(q, mode, alphabet)) for seq, q in md)


def failure_traces(t, alphabet, mode=TransitionMode.INTERLEAVING):
    return cached(t, ("obsFT", alphabet, mode), _failure_traces, successors, mode, alphabet)


def _failure_traces(t, mode, alphabet):
    menu = initials(t, mode, alphabet)
    refusals = tuple(_subsets(a for a in _labels(alphabet) if a not in menu))
    acc = {(x,) for x in refusals}
    for a, u in transitions(t, mode, alphabet):
        for rest in failure_traces(u, alphabet, mode):
            for x in refusals:
                acc.add((x, a) + rest)
    return frozenset(acc)


def ready_traces(t, alphabet=None, mode=TransitionMode.INTERLEAVING):
    return cached(t, ("obsRT", alphabet, mode), _ready_traces, successors, mode, alphabet)


def _ready_traces(t, mode, alphabet):
    menu = initials(t, mode, alphabet)
    acc = {(menu,)}
    for a, u in transitions(t, mode, alphabet):
        for rest in ready_traces(u, alphabet, mode):
            acc.add((menu, a) + rest)
    return frozenset(acc)


def possible_futures(t, alphabet=None, mode=TransitionMode.INTERLEAVING):
    return cached(t, ("obsPF", alphabet, mode), _possible_futures, None, mode, alphabet)


def _possible_futures(t, mode, alphabet):
    md = multi_derivatives(t, mode, alphabet)
    return frozenset((seq, traces(q, mode, alphabet)) for seq, q in md)


def observation_set(t: Term, kind: str, alphabet=None, mode=TransitionMode.INTERLEAVING):
    if kind not in _SETS:
        raise ValueError(f"unknown observation kind {kind!r}")
    return _SETS[kind](t, alphabet, mode)


_SETS = dict(
    zip(OBSERVATION_KINDS, (failure_pairs, ready_pairs, failure_traces, ready_traces, possible_futures))
)
