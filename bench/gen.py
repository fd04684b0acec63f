"""Seeded input generators.

Terms are produced in the oracle's tuple form and turned into text (for the
`terms.parse` path) or into built workbench Terms (for the constructor path)
at the boundary, so the program only ever sees generated inputs.
"""

from __future__ import annotations

import random

from oracle import NIL

PLAIN_LABELS = ("a", "b")
SYNC_LABELS = ("a", "a'", "tau")


def rng_for(seed: int, *tags) -> random.Random:
    """An independent stream per (seed, tags), stable across processes."""
    return random.Random(repr((seed,) + tags))


# ---------------------------------------------------------------------------
# Rendering and building


def to_text(t) -> str:
    tag = t[0]
    if tag == "0":
        return "0"
    if tag == "v":
        return t[1]
    if tag == "p":
        body = to_text(t[2])
        if t[2][0] in ("+", "|"):
            body = f"({body})"
        return f"{t[1]}.{body}"
    left, right = to_text(t[1]), to_text(t[2])
    if tag == "+":
        return f"({left} + {right})"
    return f"({left} || {right})"


def to_term(t, terms_mod):
    """Build a workbench Term through its constructors."""
    tag = t[0]
    if tag == "0":
        return terms_mod.Nil()
    if tag == "v":
        return terms_mod.Var(t[1])
    if tag == "p":
        return terms_mod.Prefix(t[1], to_term(t[2], terms_mod))
    cls = terms_mod.Sum if tag == "+" else terms_mod.Par
    return cls(to_term(t[1], terms_mod), to_term(t[2], terms_mod))


def sum_of(parts):
    if not parts:
        return NIL
    acc = parts[0]
    for p in parts[1:]:
        acc = ("+", acc, p)
    return acc


def par_of(parts):
    acc = parts[0]
    for p in parts[1:]:
        acc = ("|", acc, p)
    return acc


def rename(t, mapping: dict):
    """Apply an action renaming throughout t."""
    tag = t[0]
    if tag == "p":
        return ("p", mapping.get(t[1], t[1]), rename(t[2], mapping))
    if tag in ("+", "|"):
        return (tag, rename(t[1], mapping), rename(t[2], mapping))
    return t


def symmetry(rng: random.Random, sync: bool) -> dict:
    """A random renaming that maps the alphabet onto itself and keeps
    complements and the silent action: a <-> b in plain mode, a <-> a' in
    sync mode, or the identity."""
    if rng.random() < 0.5:
        return {}
    return {"a": "a'", "a'": "a"} if sync else {"a": "b", "b": "a"}


# ---------------------------------------------------------------------------
# Random terms


def component(rng: random.Random, labels, depth: int, width: int):
    """A parallel-free term: a sum of 1..width prefixed summands, each body
    a component of smaller depth."""
    if depth <= 0:
        return NIL
    heads = [rng.choice(labels) for _ in range(rng.randint(1, width))]
    parts = []
    for a in heads:
        sub = rng.randint(0, depth - 1)
        parts.append(("p", a, component(rng, labels, sub, max(1, width - 1))))
    return sum_of(parts)


def parallel_term(rng: random.Random, labels, n_comp: int, depth: int, width: int):
    return par_of([component(rng, labels, depth, width) for _ in range(n_comp)])


def _flatten(t, tag):
    if t[0] == tag:
        return _flatten(t[1], tag) + _flatten(t[2], tag)
    return [t]


def _assoc(rng: random.Random, tag, parts):
    """Combine the parts in order under a random bracketing."""
    if len(parts) == 1:
        return parts[0]
    cut = rng.randint(1, len(parts) - 1)
    return (tag, _assoc(rng, tag, parts[:cut]), _assoc(rng, tag, parts[cut:]))


def rearrange(rng: random.Random, t):
    """A term equal to t by commutativity and associativity of + and ||
    and idempotence of +: related to t by every relation in the spectrum."""
    tag = t[0]
    if tag == "p":
        return ("p", t[1], rearrange(rng, t[2]))
    if tag in ("+", "|"):
        parts = [rearrange(rng, u) for u in _flatten(t, tag)]
        rng.shuffle(parts)
        if tag == "+" and rng.random() < 0.3:
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(parts))
        return _assoc(rng, tag, parts)
    return t


def distribute(rng: random.Random, t):
    """Rewrite one prefix over a sum, a.(x + y) -> a.x + a.y, somewhere in
    t. The result has the same traces as t; finer relations may tell them
    apart. Returns t unchanged when it has no such position."""
    spots = []

    def walk(u, path):
        if u[0] == "p":
            if u[2][0] == "+":
                spots.append(path)
            walk(u[2], path + (2,))
        elif u[0] in ("+", "|"):
            walk(u[1], path + (1,))
            walk(u[2], path + (2,))

    walk(t, ())
    if not spots:
        return t
    path = rng.choice(spots)

    def rebuild(u, rest):
        if not rest:
            a, body = u[1], u[2]
            return ("+", ("p", a, body[1]), ("p", a, body[2]))
        i = rest[0]
        parts = list(u)
        parts[i] = rebuild(u[i], rest[1:])
        return tuple(parts)

    return rebuild(t, path)
