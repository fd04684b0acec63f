"""Structural operational semantics and labelled transition systems.

Two transition modes. INTERLEAVING is pure interleaving: a parallel
composition performs the moves of its components independently. CCS_SYNC
additionally lets complementary actions of the two components synchronise
into a silent step. The silent action is an ordinary, observable label here;
no weak semantics is involved.

Variables have no transitions in either mode.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

from .terms import Alphabet, Nil, Par, Prefix, Sum, Term, Var, cached, operands, render

__all__ = [
    "TransitionMode",
    "transitions",
    "initials",
    "derivatives",
    "successors",
    "multi_derivatives",
    "traces",
    "completed_traces",
    "Lts",
    "build_lts",
    "lts_json",
    "lts_dot",
]


class TransitionMode(enum.Enum):
    INTERLEAVING = "interleaving"
    CCS_SYNC = "ccs-sync"


def _mode_key(mode: TransitionMode, alphabet: Alphabet | None):
    if mode is TransitionMode.INTERLEAVING:
        return "tr"
    if alphabet is None or not alphabet.sync_mode:
        raise ValueError("CCS_SYNC needs a sync-mode alphabet")
    return ("tr", alphabet)


def transitions(
    t: Term,
    mode: TransitionMode = TransitionMode.INTERLEAVING,
    alphabet: Alphabet | None = None,
) -> frozenset:
    """The set of pairs (label, derivative) the term can perform."""
    return cached(t, _mode_key(mode, alphabet), _transitions, operands, mode, alphabet)


def _transitions(t: Term, mode: TransitionMode, alphabet: Alphabet | None) -> frozenset:
    if isinstance(t, (Nil, Var)):
        return frozenset()
    if isinstance(t, Prefix):
        return frozenset(((t.action, t.body),))
    if isinstance(t, Sum):
        return transitions(t.left, mode, alphabet) | transitions(t.right, mode, alphabet)
    if isinstance(t, Par):
        lt = transitions(t.left, mode, alphabet)
        rt = transitions(t.right, mode, alphabet)
        moves = set()
        for a, l2 in lt:
            moves.add((a, Par(l2, t.right)))
        for a, r2 in rt:
            moves.add((a, Par(t.left, r2)))
        if mode is TransitionMode.CCS_SYNC:
            for a, l2 in lt:
                if a == alphabet.tau:
                    continue
                abar = alphabet.complement(a)
                for b, r2 in rt:
                    if b == abar:
                        moves.add((alphabet.tau, Par(l2, r2)))
        return frozenset(moves)
    raise TypeError(f"not a term: {t!r}")


def successors(t: Term, mode: TransitionMode, alphabet: Alphabet | None) -> list:
    """The derivatives of t under any label: the successors whose entries
    every derivation-based set of t is computed from."""
    return [u for _, u in transitions(t, mode, alphabet)]


def _lts_moves(t, mode, alphabet) -> tuple:
    """t's moves sorted by label and target rendering, as build_lts lists them."""
    return cached(t, ("lts", _mode_key(mode, alphabet)), _sorted_moves, None, mode, alphabet)


def _sorted_moves(t, mode, alphabet) -> tuple:
    return tuple(sorted(transitions(t, mode, alphabet), key=lambda p: (p[0], render(p[1]))))


def initials(
    t: Term,
    mode: TransitionMode = TransitionMode.INTERLEAVING,
    alphabet: Alphabet | None = None,
) -> frozenset:
    return cached(t, ("in", _mode_key(mode, alphabet)), _initials, None, mode, alphabet)


def _initials(t: Term, mode: TransitionMode, alphabet: Alphabet | None) -> frozenset:
    return frozenset(a for a, _ in transitions(t, mode, alphabet))


def derivatives(t, action, mode=TransitionMode.INTERLEAVING, alphabet=None) -> frozenset:
    return frozenset(u for a, u in transitions(t, mode, alphabet) if a == action)


def multi_derivatives(
    t: Term,
    mode: TransitionMode = TransitionMode.INTERLEAVING,
    alphabet: Alphabet | None = None,
) -> frozenset:
    """All pairs (sequence, derivative) with t reachable to the derivative by
    the action sequence. Includes ((), t) itself. Walked by trace length and
    not cached: an entry on t holding t would close a reference cycle."""
    level = {((), t)}
    out = set(level)
    while level:
        level = {(seq + (a,), v) for seq, u in level for a, v in transitions(u, mode, alphabet)}
        out |= level
    return frozenset(out)


def traces(
    t: Term,
    mode: TransitionMode = TransitionMode.INTERLEAVING,
    alphabet: Alphabet | None = None,
) -> frozenset:
    """All action sequences the term can perform, as tuples. Always has ()."""
    return cached(t, ("T", _mode_key(mode, alphabet)), _traces, successors, mode, alphabet)


def _traces(t: Term, mode: TransitionMode, alphabet: Alphabet | None) -> frozenset:
    acc = {()}
    for a, u in transitions(t, mode, alphabet):
        for s in traces(u, mode, alphabet):
            acc.add((a,) + s)
    return frozenset(acc)


def completed_traces(
    t: Term,
    mode: TransitionMode = TransitionMode.INTERLEAVING,
    alphabet: Alphabet | None = None,
) -> frozenset:
    """Action sequences leading to a state with no transitions."""
    key = ("CT", _mode_key(mode, alphabet))
    return cached(t, key, _completed_traces, successors, mode, alphabet)


def _completed_traces(t: Term, mode: TransitionMode, alphabet: Alphabet | None) -> frozenset:
    tr = transitions(t, mode, alphabet)
    if not tr:
        return frozenset(((),))
    acc = set()
    for a, u in tr:
        for s in completed_traces(u, mode, alphabet):
            acc.add((a,) + s)
    return frozenset(acc)


# ---------------------------------------------------------------------------
# Explicit transition systems


@dataclass(frozen=True)
class Lts:
    root: Term
    states: tuple  # Terms, root first, then breadth-first discovery order
    transitions: tuple  # triples (source, label, target)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return len(self.transitions)


def build_lts(
    t: Term,
    mode: TransitionMode = TransitionMode.INTERLEAVING,
    alphabet: Alphabet | None = None,
) -> Lts:
    """Reachable fragment of the transition graph, states identified up to
    syntactic equality."""
    seen = {t}
    order = [t]
    edges = []
    frontier = [t]
    while frontier:
        nxt = []
        for s in frontier:
            for a, u in _lts_moves(s, mode, alphabet):
                edges.append((s, a, u))
                if u not in seen:
                    seen.add(u)
                    order.append(u)
                    nxt.append(u)
        frontier = nxt
    return Lts(t, tuple(order), tuple(edges))


def lts_json(lts: Lts) -> str:
    index = {s: i for i, s in enumerate(lts.states)}
    doc = {
        "root": 0,
        "states": [render(s) for s in lts.states],
        "transitions": [
            {"from": index[s], "label": a, "to": index[u]} for s, a, u in lts.transitions
        ],
    }
    return json.dumps(doc, indent=2)


def lts_dot(lts: Lts) -> str:
    index = {s: i for i, s in enumerate(lts.states)}

    def q(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph lts {", "  rankdir=LR;", "  node [shape=box];"]
    for s, i in index.items():
        lines.append(f"  n{i} [label={q(render(s))}];")
    for s, a, u in lts.transitions:
        lines.append(f"  n{index[s]} -> n{index[u]} [label={q(a)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
