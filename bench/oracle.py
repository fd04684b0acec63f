"""Reference oracle for the benchmark's correctness checks.

Everything here is computed apart from `bccsp`'s own checkers: terms are
read into plain tuples, transitions come from this module's own structural
operational semantics, trace and completed-trace sets are collected by
explicit exploration, bisimilarity is decided by partition refinement over
the explicit transition system, and finite models are evaluated by brute
force over all valuations.

Terms are tuples: ("0",), ("v", name), ("p", action, body), ("+", l, r),
("|", l, r). Two modes: plain interleaving, and CCS-style synchronisation
where complementary actions (a and a') of the two sides of a parallel
composition meet in a silent step.
"""

from __future__ import annotations

import itertools

NIL = ("0",)
TAU = "tau"


# ---------------------------------------------------------------------------
# Reading terms


class _Reader:
    def __init__(self, text: str, actions):
        self.s = text
        self.i = 0
        self.actions = frozenset(actions)

    def ws(self):
        while self.i < len(self.s) and self.s[self.i] in " \t\n":
            self.i += 1

    def fail(self, msg):
        raise ValueError(f"oracle parse error: {msg} at {self.i} in {self.s!r}")

    def sum_(self):
        t = self.par()
        while True:
            self.ws()
            if self.s.startswith("+", self.i):
                self.i += 1
                t = ("+", t, self.par())
            else:
                return t

    def par(self):
        t = self.item()
        while True:
            self.ws()
            if self.s.startswith("||", self.i):
                self.i += 2
                t = ("|", t, self.item())
            else:
                return t

    def item(self):
        self.ws()
        if self.i >= len(self.s):
            self.fail("unexpected end")
        c = self.s[self.i]
        if c == "0":
            self.i += 1
            return NIL
        if c == "(":
            self.i += 1
            t = self.sum_()
            self.ws()
            if not self.s.startswith(")", self.i):
                self.fail("expected )")
            self.i += 1
            return t
        start = self.i
        while self.i < len(self.s) and (self.s[self.i].isalnum() or self.s[self.i] in "_'"):
            self.i += 1
        name = self.s[start : self.i]
        if not name:
            self.fail("expected a term")
        if name in self.actions:
            if self.s.startswith(".", self.i):
                self.i += 1
                return ("p", name, self.item())
            return ("p", name, NIL)
        return ("v", name)


def from_text(text: str, actions) -> tuple:
    """Parse the workbench's concrete syntax: 0, variables, a.t, t + u,
    t || u and parentheses; a bare action name is a.0. Identifiers in
    `actions` are actions, every other identifier is a variable."""
    r = _Reader(text, actions)
    t = r.sum_()
    r.ws()
    if r.i != len(r.s):
        r.fail("trailing input")
    return t


def from_term(t) -> tuple:
    """Read a workbench Term by its public node attributes only."""
    memo: dict = {}

    def go(u):
        got = memo.get(id(u))
        if got is not None:
            return got
        kind = type(u).__name__
        if kind == "Nil":
            out = NIL
        elif kind == "Var":
            out = ("v", u.name)
        elif kind == "Prefix":
            out = ("p", u.action, go(u.body))
        elif kind == "Sum":
            out = ("+", go(u.left), go(u.right))
        elif kind == "Par":
            out = ("|", go(u.left), go(u.right))
        else:
            raise TypeError(f"not a term node: {kind}")
        memo[id(u)] = out
        return out

    return go(t)


def has_par(t) -> bool:
    tag = t[0]
    if tag == "|":
        return True
    if tag == "p":
        return has_par(t[2])
    if tag == "+":
        return has_par(t[1]) or has_par(t[2])
    return False


def variables(t) -> frozenset:
    tag = t[0]
    if tag == "v":
        return frozenset((t[1],))
    if tag == "p":
        return variables(t[2])
    if tag in ("+", "|"):
        return variables(t[1]) | variables(t[2])
    return frozenset()


def substitute(t, mapping: dict):
    tag = t[0]
    if tag == "v":
        return mapping.get(t[1], t)
    if tag == "p":
        return ("p", t[1], substitute(t[2], mapping))
    if tag in ("+", "|"):
        return (tag, substitute(t[1], mapping), substitute(t[2], mapping))
    return t


def complement(a: str) -> str | None:
    if a == TAU:
        return None
    return a[:-1] if a.endswith("'") else a + "'"


# ---------------------------------------------------------------------------
# Semantics


class Oracle:
    """Explicit-state semantics in one mode, memoised per oracle."""

    def __init__(self, sync: bool = False):
        self.sync = sync
        self._succ: dict = {}
        self._traces: dict = {}
        self._ctraces: dict = {}

    def succ(self, t) -> frozenset:
        got = self._succ.get(t)
        if got is not None:
            return got
        tag = t[0]
        if tag in ("0", "v"):
            out = frozenset()
        elif tag == "p":
            out = frozenset(((t[1], t[2]),))
        elif tag == "+":
            out = self.succ(t[1]) | self.succ(t[2])
        else:
            left, right = t[1], t[2]
            ls, rs = self.succ(left), self.succ(right)
            moves = {(a, ("|", l2, right)) for a, l2 in ls}
            moves |= {(a, ("|", left, r2)) for a, r2 in rs}
            if self.sync:
                for a, l2 in ls:
                    ca = complement(a)
                    for b, r2 in rs:
                        if b == ca:
                            moves.add((TAU, ("|", l2, r2)))
            out = frozenset(moves)
        self._succ[t] = out
        return out

    def traces(self, t) -> frozenset:
        got = self._traces.get(t)
        if got is None:
            acc = {()}
            for a, u in self.succ(t):
                acc.update((a,) + s for s in self.traces(u))
            got = frozenset(acc)
            self._traces[t] = got
        return got

    def completed_traces(self, t) -> frozenset:
        got = self._ctraces.get(t)
        if got is None:
            moves = self.succ(t)
            if not moves:
                got = frozenset(((),))
            else:
                acc = set()
                for a, u in moves:
                    acc.update((a,) + s for s in self.completed_traces(u))
                got = frozenset(acc)
            self._ctraces[t] = got
        return got

    def reachable(self, roots) -> list:
        seen = set()
        order = []
        stack = list(roots)
        while stack:
            s = stack.pop()
            if s in seen:
                continue
            seen.add(s)
            order.append(s)
            stack.extend(u for _a, u in self.succ(s))
        return order

    def bisimilar(self, p, q) -> bool:
        """Partition refinement: start from one block, split by the set of
        (label, block) moves until no block splits."""
        if p == q:
            return True
        states = self.reachable((p, q))
        block = {s: 0 for s in states}
        n_blocks = 1
        while True:
            sigs: dict = {}
            new = {}
            for s in states:
                sig = (block[s], frozenset((a, block[u]) for a, u in self.succ(s)))
                new[s] = sigs.setdefault(sig, len(sigs))
            if len(sigs) == n_blocks:
                return new[p] == new[q]
            block, n_blocks = new, len(sigs)

    def trace_eq(self, p, q) -> bool:
        return self.traces(p) == self.traces(q)

    def ct_eq(self, p, q) -> bool:
        return self.completed_traces(p) == self.completed_traces(q)


# ---------------------------------------------------------------------------
# Finite models


def model_eval(model: dict, t, valuation: dict) -> int:
    """Evaluate a term in a model given as the workbench's JSON form:
    {"carrier", "zero", "prefix": {a: row}, "plus": rows, "par": rows}."""
    tag = t[0]
    if tag == "0":
        return model["zero"]
    if tag == "v":
        return valuation[t[1]]
    if tag == "p":
        return model["prefix"][t[1]][model_eval(model, t[2], valuation)]
    table = model["plus"] if tag == "+" else model["par"]
    return table[model_eval(model, t[1], valuation)][model_eval(model, t[2], valuation)]


def model_satisfies(model: dict, lhs, rhs) -> bool:
    """Whether lhs = rhs holds under every valuation of its variables."""
    names = sorted(variables(lhs) | variables(rhs))
    for values in itertools.product(range(model["carrier"]), repeat=len(names)):
        v = dict(zip(names, values))
        if model_eval(model, lhs, v) != model_eval(model, rhs, v):
            return False
    return True
