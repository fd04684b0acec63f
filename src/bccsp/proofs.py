"""Equational proof scripts: representation, checking, and construction.

A proof script is a straight-line sequence of steps, each concluding an
equation between terms. Steps refer to earlier steps by index. The rules are
reflexivity, symmetry, transitivity, substitution, congruence for prefix,
choice and parallel, and axiom introduction. An axiom step concludes an
instance of the axiom at the root, under an optional substitution and read
in either direction; rewriting below the root goes through the congruence
rules (`ProofBuilder.embed`).

`check_proof` recomputes every conclusion and accepts only if the last one
is the stated goal, both sides syntactically identical.

`ProofBuilder` grows scripts programmatically. Its `ac` method proves any
two terms equal that have the same normal form `canon` under commutativity,
associativity, idempotence and the 0 unit law of choice (A0-A3), by proving
each side equal to that normal form and chaining the first proof with the
reverse of the second. The proof of t = canon(t) follows t's structure:
one congruence step over the children's proofs, and at a sum a merge of
the two normalised sides that inserts the right side's summands into the
left one at a time, using root instances of A0-A3 and congruence only. It
is memoised per node for the builder's lifetime, so a subterm that recurs
is normalised once. This is the workhorse gluing the shape of a term to the
shape an axiom wants.

In JSON (`script_to_json`, `script_from_json`) a script is an object
{"terms": rows, "goal": {"lhs": i, "rhs": j}, "steps": [...], "system":
name}. Terms are hash-consed DAGs, and each distinct node of the script is
one row of the `terms` table: ["0"], ["v", name], [".", action, body],
["+", left, right] or ["||", left, right], where every child is the index
of an earlier row. The goal sides, a step's `term` and the values of its
`subst` object are row indices, so a term shared by many steps, or
repeated inside one, is written once, and a term whose tree is too large
to print still has a table the size of its DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .axioms import AxiomSystem, Equation
from .terms import (
    Nil,
    Par,
    Prefix,
    Sum,
    Term,
    Var,
    _show,
    cached,
    children,
    postorder,
    render,
    substitute,
    subterm_at,
    sum_leaves,
    sum_of,
)

__all__ = [
    "Step",
    "ProofScript",
    "Accepted",
    "Rejected",
    "ProofError",
    "AcMismatch",
    "check_proof",
    "replay_conclusions",
    "ProofBuilder",
    "TermTrace",
    "canon",
    "script_to_json",
    "script_from_json",
]


class ProofError(ValueError):
    pass


class AcMismatch(ProofError):
    """The two terms differ beyond commutativity, associativity, idempotence
    and units of choice."""


@dataclass(frozen=True)
class Step:
    rule: str
    term: Term | None = None
    of: tuple = ()
    subst: tuple = ()  # sorted pairs (variable name, Term)
    action: str | None = None
    axiom_id: str | None = None
    direction: str = "lr"


@dataclass(frozen=True)
class ProofScript:
    lhs: Term
    rhs: Term
    steps: tuple

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Accepted:
    steps: int

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class Rejected:
    step: int  # index of the offending step, or -1 for a goal mismatch
    reason: str

    def __bool__(self) -> bool:
        return False


def _subst_map(pairs) -> dict:
    return {n: t for n, t in pairs}


def _step_conclusion(step: Step, conclusions, system: AxiomSystem) -> tuple:
    """The equation (lhs, rhs) a step concludes, or a ProofError."""

    def premise(i):
        if not isinstance(i, int) or not 0 <= i < len(conclusions):
            raise ProofError(f"premise index {i!r} out of range")
        return conclusions[i]

    r = step.rule
    if r == "refl":
        if step.term is None:
            raise ProofError("refl needs a term")
        return (step.term, step.term)
    if r == "sym":
        (l, rr) = premise(step.of[0])
        return (rr, l)
    if r == "trans":
        if len(step.of) < 2:
            raise ProofError("trans needs at least two premises")
        l0, cur = premise(step.of[0])
        for i in step.of[1:]:
            l, rr = premise(i)
            if l is not cur:
                raise ProofError(
                    f"trans chain broken: {_show(cur)} is not {_show(l)}"
                )
            cur = rr
        return (l0, cur)
    if r == "subst":
        l, rr = premise(step.of[0])
        m = _subst_map(step.subst)
        return (substitute(l, m), substitute(rr, m))
    if r == "cong_prefix":
        if not step.action:
            raise ProofError("cong_prefix needs an action")
        l, rr = premise(step.of[0])
        return (Prefix(step.action, l), Prefix(step.action, rr))
    if r == "cong_sum":
        l1, r1 = premise(step.of[0])
        l2, r2 = premise(step.of[1])
        return (Sum(l1, l2), Sum(r1, r2))
    if r == "cong_par":
        l1, r1 = premise(step.of[0])
        l2, r2 = premise(step.of[1])
        return (Par(l1, l2), Par(r1, r2))
    if r == "axiom":
        ax = system.by_id.get(step.axiom_id)
        if ax is None:
            raise ProofError(f"axiom {step.axiom_id!r} is not in system {system.name}")
        m = _subst_map(step.subst)
        src, dst = substitute(ax.lhs, m), substitute(ax.rhs, m)
        if step.direction == "rl":
            src, dst = dst, src
        elif step.direction != "lr":
            raise ProofError(f"direction must be lr or rl, got {step.direction!r}")
        return (src, dst)
    raise ProofError(f"unknown rule {r!r}")


def check_proof(script: ProofScript, system: AxiomSystem):
    """Replay a script against an axiom system. Every step must check and the
    last conclusion must be the script's goal equation, syntactically."""
    conclusions = []
    for i, step in enumerate(script.steps):
        try:
            conclusions.append(_step_conclusion(step, conclusions, system))
        except (ValueError, TypeError, KeyError, IndexError) as e:
            return Rejected(i, str(e))
    if not conclusions:
        if script.lhs is script.rhs:
            return Accepted(0)
        return Rejected(-1, "empty script for a non-trivial goal")
    l, r = conclusions[-1]
    if l is not script.lhs or r is not script.rhs:
        return Rejected(
            -1,
            f"final conclusion {_show(l)} = {_show(r)} is not the goal "
            f"{_show(script.lhs)} = {_show(script.rhs)}",
        )
    return Accepted(len(script.steps))


def replay_conclusions(script: ProofScript, system: AxiomSystem) -> list:
    """The (lhs, rhs) pair concluded by every step, in order. Raises
    ProofError at the first step that does not check."""
    conclusions: list = []
    for step in script.steps:
        conclusions.append(_step_conclusion(step, conclusions, system))
    return conclusions


# ---------------------------------------------------------------------------
# Normal form under the choice laws


def _summand_key(t: Term) -> str:
    """The order in which a normal form lists its summands; `canon` and the
    merge in `ProofBuilder` both sort by it."""
    return render(t)


def canon(t: Term) -> Term:
    """Normal form modulo A0, A1, A2, A3: sums are flattened, the summands
    normalised, 0 summands dropped, duplicates removed, and the rest sorted
    and re-associated to the left. No laws of parallel are used. Cached per
    node; a sum's entry is computed from the normal forms of its leaves
    (`sum_leaves`), not from those of the sums between them, which would
    rebuild a comb of n summands once per level."""
    return cached(t, "canon", _canon, _canon_successors)


def _canon_successors(t: Term):
    return sum_leaves(t) if isinstance(t, Sum) else children(t)


def _canon(t: Term) -> Term:
    if isinstance(t, Prefix):
        return Prefix(t.action, canon(t.body))
    if isinstance(t, Par):
        return Par(canon(t.left), canon(t.right))
    if isinstance(t, Sum):
        keep = []
        for u in sorted((canon(u) for u in sum_leaves(t)), key=_summand_key):
            if not isinstance(u, Nil) and (not keep or keep[-1] is not u):
                keep.append(u)
        return sum_of(keep)
    return t


# ---------------------------------------------------------------------------
# Script construction


class ProofBuilder:
    """Accumulates proof steps against a fixed axiom system.

    `derive` is an optional hook called as derive(builder, axiom_id) for
    axiom ids that are *not* in the system; it must return the index of a
    step proving that schema equation from what the system has (or None if
    it cannot). `axiom` falls back to it, so case analyses written against
    a larger axiom vocabulary run unchanged over a smaller system. Rewriting
    below the root goes through `embed`, congruence steps over a root
    equation.
    """

    def __init__(self, system: AxiomSystem, derive=None):
        self.system = system
        self.steps: list = []
        self.conclusions: list = []
        self._memo: dict = {}
        self.derive = derive
        self._derived: dict = {}
        self._canon: dict = {}  # node -> index proving node = canon(node)

    def _add(self, step: Step) -> int:
        got = self._memo.get(step)
        if got is not None:
            return got
        concl = _step_conclusion(step, self.conclusions, self.system)
        self.steps.append(step)
        self.conclusions.append(concl)
        idx = len(self.steps) - 1
        self._memo[step] = idx
        return idx

    def conclusion(self, idx: int) -> tuple:
        return self.conclusions[idx]

    def refl(self, t: Term) -> int:
        return self._add(Step("refl", term=t))

    def sym(self, idx: int) -> int:
        l, r = self.conclusions[idx]
        if l is r:
            return idx
        return self._add(Step("sym", of=(idx,)))

    def trans(self, indexes) -> int:
        useful = [i for i in indexes if self.conclusions[i][0] is not self.conclusions[i][1]]
        if not useful:
            return self.refl(self.conclusions[indexes[0]][0])
        if len(useful) == 1:
            return useful[0]
        return self._add(Step("trans", of=tuple(useful)))

    def subst(self, idx: int, sigma: dict) -> int:
        if not sigma:
            return idx
        return self._add(Step("subst", of=(idx,), subst=tuple(sorted(sigma.items()))))

    def axiom(self, axiom_id: str, sigma: dict | None = None, direction: str = "lr") -> int:
        """The axiom instance as a root equation (no context)."""
        sigma = sigma or {}
        if axiom_id in self.system.by_id:
            return self._add(
                Step(
                    "axiom",
                    axiom_id=axiom_id,
                    subst=tuple(sorted(sigma.items())),
                    direction=direction,
                )
            )
        idx = self._derive(axiom_id)
        idx = self.subst(idx, sigma)
        if direction == "rl":
            idx = self.sym(idx)
        return idx

    def _derive(self, axiom_id: str) -> int:
        got = self._derived.get(axiom_id)
        if got is not None:
            return got
        idx = self.derive(self, axiom_id) if self.derive is not None else None
        if idx is None:
            raise ProofError(
                f"axiom {axiom_id!r} is neither in {self.system.name} nor derivable here"
            )
        self._derived[axiom_id] = idx
        return idx

    def embed(self, host: Term, path: tuple, idx: int) -> int:
        """From a proof of l = r with host@path being l, conclude
        host = host[path -> r] through congruence steps."""
        l, _r = self.conclusions[idx]
        if subterm_at(host, path) is not l:
            raise ProofError("embed: the equation's left side is not at the path")
        cur = idx
        for k in range(len(path) - 1, -1, -1):
            parent = subterm_at(host, path[:k])
            i = path[k]
            if isinstance(parent, Prefix):
                cur = self._add(Step("cong_prefix", of=(cur,), action=parent.action))
            elif isinstance(parent, Sum):
                sib = self.refl(parent.right if i == 0 else parent.left)
                of = (cur, sib) if i == 0 else (sib, cur)
                cur = self._add(Step("cong_sum", of=of))
            elif isinstance(parent, Par):
                sib = self.refl(parent.right if i == 0 else parent.left)
                of = (cur, sib) if i == 0 else (sib, cur)
                cur = self._add(Step("cong_par", of=of))
            else:
                raise ProofError("embed: path walks through a leaf")
        return cur

    def cong(self, host: Term, idxs) -> int:
        """From proofs of l_i = r_i with l_i the children of host (None for
        a child kept as it is), conclude host = host with every l_i replaced
        by r_i, in one congruence step."""
        kids = children(host)
        of = tuple(self.refl(k) if i is None else i for k, i in zip(kids, idxs, strict=True))
        if tuple(self.conclusions[i][0] for i in of) != kids:
            raise ProofError("cong: an equation's left side is not the child")
        if isinstance(host, Prefix):
            return self._add(Step("cong_prefix", of=of, action=host.action))
        return self._add(Step("cong_sum" if isinstance(host, Sum) else "cong_par", of=of))

    def ac(self, t: Term, u: Term) -> int:
        """Prove t = u using only A0-A3, at any positions: t = canon(t) =
        canon(u) = u."""
        if t is u:
            return self.refl(t)
        if canon(t) is not canon(u):
            raise AcMismatch(f"{_show(t)} and {_show(u)} differ beyond the choice laws")
        up = self._to_canon(u)
        return self._join([self._to_canon(t), None if up is None else self.sym(up)])

    def _join(self, idxs):
        """trans over the proofs given, None standing for a trivial one;
        None when every one is trivial."""
        idxs = [i for i in idxs if i is not None]
        return self.trans(idxs) if idxs else None

    def _to_canon(self, t: Term):
        """Index of a step proving t = canon(t), or None when t is canon(t):
        one congruence step over the children's proofs, then, at a sum, the
        merge of its two normalised sides. Memoised per node."""
        if canon(t) is t:
            return None
        if t in self._canon:
            return self._canon[t]
        subs = list(map(self._to_canon, children(t)))  # no comprehension frame per level
        chain = [self.cong(t, subs)] if any(i is not None for i in subs) else []
        if isinstance(t, Sum):
            chain += self._merge(canon(t.left), canon(t.right))
        idx = self._canon[t] = self._join(chain)
        return idx

    def _merge(self, left: Term, right: Term) -> list:
        """A chain of steps proving left + right = canon(left + right) for
        normal forms left and right, empty when left + right is one already:
        the summands of right are inserted into left one at a time, the
        first one first."""
        if isinstance(right, Nil):
            return [self.axiom("A0", {"x": left})]
        if isinstance(left, Nil):
            return [self.axiom("A1", {"x": left, "y": right}), self.axiom("A0", {"x": right})]
        later = []
        while isinstance(right, Sum):
            later.append(right.right)
            right = right.left
        chain = self._insert(left, right)
        for leaf in reversed(later):
            # left + (right + leaf) = (left + right) + leaf, normalise the
            # inner sum, then insert leaf into it
            inner, idx = Sum(left, right), self._join(chain)
            chain = [self.axiom("A2", {"x": left, "y": right, "z": leaf}, "rl")]
            if idx is not None:
                chain.append(self.cong(Sum(inner, leaf), [idx, None]))
                inner = self.conclusions[idx][1]
            chain += self._insert(inner, leaf)
            right = Sum(right, leaf)
        return chain

    def _insert(self, comb: Term, leaf: Term) -> list:
        """A chain of steps proving comb + leaf = canon(comb + leaf) for a
        normal form comb other than 0 and a summand leaf of a normal form,
        empty when comb + leaf is a normal form already. Walks down the comb
        past every summand ordered after leaf, moving leaf below each with
        A2, A1 and A2 backwards, and at the bottom drops leaf as a duplicate
        (A3), swaps it with a single summand (A1) or leaves it in place."""
        key = _summand_key(leaf)
        passed = []  # (summand, chain proving (rest + summand) + leaf = (rest + leaf) + summand)
        while isinstance(comb, Sum) and key < _summand_key(comb.right):
            rest, last = comb.left, comb.right
            swap = [
                self.axiom("A2", {"x": rest, "y": last, "z": leaf}),
                self.cong(Sum(rest, Sum(last, leaf)), [None, self.axiom("A1", {"x": last, "y": leaf})]),
                self.axiom("A2", {"x": rest, "y": leaf, "z": last}, "rl"),
            ]
            passed.append((last, swap))
            comb = rest
        chain = []
        if isinstance(comb, Sum):
            if comb.right is leaf:
                rest = comb.left
                chain = [
                    self.axiom("A2", {"x": rest, "y": leaf, "z": leaf}),
                    self.cong(Sum(rest, Sum(leaf, leaf)), [None, self.axiom("A3", {"x": leaf})]),
                ]
        elif comb is leaf:
            chain = [self.axiom("A3", {"x": leaf})]
        elif key < _summand_key(comb):
            chain = [self.axiom("A1", {"x": comb, "y": leaf})]
        for last, swap in reversed(passed):
            idx = self._join(chain)
            chain = swap if idx is None else swap + [self.cong(Sum(Sum(comb, leaf), last), [idx, None])]
            comb = Sum(comb, last)
        return chain

    def script(self, lhs: Term, rhs: Term, final_idx: int) -> ProofScript:
        """The steps up to final_idx, which must prove lhs = rhs. Later steps
        are left out: check_proof judges the last step, and premises only
        point backwards."""
        l, r = self.conclusions[final_idx]
        if l is not lhs or r is not rhs:
            raise ProofError("script goal does not match the final conclusion")
        return ProofScript(lhs, rhs, tuple(self.steps[: final_idx + 1]))


class TermTrace:
    """A term being rewritten at its root, with an optional running proof
    that the original equals the current form. With no builder attached the
    same API just applies the rewrites, which keeps one code path for plain
    and proof-emitting callers: `rewrite_axiom` applies an equation instance
    at the root, `ac_to` moves to a term equal under the choice laws,
    `splice_children` takes the traces of the root's children and `extend`
    continues with a trace that starts where this one ends."""

    def __init__(self, start: Term, builder: ProofBuilder | None):
        self.start = start
        self.term = start
        self.builder = builder
        self._chain: list = []

    def rewrite_axiom(self, equation: Equation, sigma, direction="lr"):
        """Apply an instance of an equation at the root; with a builder, the
        equation's id names an axiom of its system or one it can derive."""
        if self.builder is not None:
            idx = self.builder.axiom(equation.id, sigma, direction)
            src, dst = self.builder.conclusion(idx)
        else:
            src, dst = substitute(equation.lhs, sigma), substitute(equation.rhs, sigma)
            if direction == "rl":
                src, dst = dst, src
        if src is not self.term:
            raise ProofError(
                f"{equation.id} does not match: have {_show(self.term)}, want {_show(src)}"
            )
        if self.builder is not None:
            self._chain.append(idx)
        self.term = dst

    def ac_to(self, target: Term):
        if self.term is target:
            return
        if self.builder is not None:
            idx = self.builder.ac(self.term, target)
            self._chain.append(idx)
        else:
            if canon(self.term) is not canon(target):
                raise AcMismatch(
                    f"{_show(self.term)} vs {_show(target)}: not equal under choice laws"
                )
        self.term = target

    def extend(self, other: "TermTrace"):
        """Continue with other, a trace that starts at this one's current
        term, absorbing its proof."""
        if other.start is not self.term:
            raise ProofError("extend: the trace does not start at the current term")
        idx = other.proof_index()
        if idx is not None:
            self._chain.append(idx)
        self.term = other.term

    def splice_children(self, subs):
        """Replace each child of the root, known to be the start of the
        matching trace in subs (None for a child kept as it is), by that
        trace's end, absorbing the traces' proofs in one congruence step."""
        t = self.term
        kids = children(t)
        new = []
        for k, sub in zip(kids, subs, strict=True):
            if sub is not None and sub.start is not k:
                raise ProofError("splice target mismatch")
            new.append(k if sub is None else sub.term)
        if new == list(kids):
            return
        if self.builder is not None:
            idx = self.builder.cong(t, [None if s is None else s.proof_index() for s in subs])
            self._chain.append(idx)
        self.term = Prefix(t.action, *new) if isinstance(t, Prefix) else type(t)(*new)

    def proof_index(self):
        if self.builder is None or not self._chain:
            return None
        return self.builder.trans(self._chain)


# ---------------------------------------------------------------------------
# JSON round-tripping


def _row(t: Term, index: dict) -> list:
    if isinstance(t, Nil):
        return ["0"]
    if isinstance(t, Var):
        return ["v", t.name]
    if isinstance(t, Prefix):
        return [".", t.action, index[t.body]]
    return ["+" if isinstance(t, Sum) else "||", index[t.left], index[t.right]]


def _step_to_json(step: Step, ref) -> dict:
    d: dict = {"rule": step.rule}
    if step.term is not None:
        d["term"] = ref(step.term)
    if step.of:
        d["of"] = list(step.of)
    if step.subst:
        d["subst"] = {n: ref(t) for n, t in step.subst}
    if step.action is not None:
        d["action"] = step.action
    if step.axiom_id is not None:
        d["axiom"] = step.axiom_id
        d["dir"] = step.direction
    return d


def script_to_json(script: ProofScript, system_name: str | None = None) -> dict:
    """Encode a script, every distinct node of its terms as one row of the
    terms table (see the module docstring)."""
    rows: list = []
    index: dict = {}  # node -> its row

    def ref(t: Term) -> int:
        got = index.get(t)
        if got is None:
            for u in postorder(t, index.__contains__):
                index[u] = len(rows)
                rows.append(_row(u, index))
            got = index[t]
        return got

    goal = {"lhs": ref(script.lhs), "rhs": ref(script.rhs)}
    steps = [_step_to_json(s, ref) for s in script.steps]
    d = {"terms": rows, "goal": goal, "steps": steps}
    if system_name:
        d["system"] = system_name
    return d


def _terms_from_rows(rows, alphabet) -> list:
    """The term of every row of a terms table, built in one forward pass."""
    if not isinstance(rows, list):
        raise ProofError(f"terms must be a list of rows, not {type(rows).__name__}")
    out: list = []
    for k, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise ProofError(f"row {k} must be a non-empty list")
        tag, n = row[0], len(row)
        if tag == "0" and n == 1:
            t = Nil()
        elif tag == "v" and n == 2:
            name = row[1]
            if not isinstance(name, str) or not name or alphabet.has_action(name):
                raise ProofError(f"row {k}: {name!r} is not a variable name")
            t = Var(name)
        elif tag in (".", "+", "||") and n == 3:
            kids = row[2:] if tag == "." else row[1:]
            for i in kids:
                if type(i) is not int or not 0 <= i < k:
                    raise ProofError(f"row {k}: child {i!r} is not an earlier row")
            if tag == ".":
                if not isinstance(row[1], str) or not alphabet.has_action(row[1]):
                    raise ProofError(f"row {k}: {row[1]!r} is not an action")
                t = Prefix(row[1], out[row[2]])
            else:
                t = (Sum if tag == "+" else Par)(out[row[1]], out[row[2]])
        else:
            raise ProofError(f"row {k} is not a term row of a known tag and length")
        out.append(t)
    return out


def _int_list(v, what: str) -> tuple:
    if not isinstance(v, list) or any(type(i) is not int for i in v):
        raise ProofError(f"{what} must be a list of integers")
    return tuple(v)


def _step_from_json(d, term) -> Step:
    if not isinstance(d, dict):
        raise ProofError(f"a step must be an object, not {type(d).__name__}")
    subst = d.get("subst", {})
    if not isinstance(subst, dict):
        raise ProofError(f"subst must be an object, not {type(subst).__name__}")
    return Step(
        rule=d["rule"],
        term=term(d["term"]) if "term" in d else None,
        of=_int_list(d.get("of", []), "of"),
        subst=tuple(sorted((n, term(s)) for n, s in subst.items())),
        action=d.get("action"),
        axiom_id=d.get("axiom"),
        direction=d.get("dir", "lr"),
    )


def script_from_json(d, alphabet) -> ProofScript:
    """Decode a script written by `script_to_json`. The terms table is
    built row by row with the hash-consing constructors, so every term of
    the script is the very object the encoder wrote. A document of the
    wrong shape, a row that is not a term over the alphabet or a term index
    out of range raises ProofError."""
    if not isinstance(d, dict):
        raise ProofError(f"a proof script must be an object, not {type(d).__name__}")
    goal, steps = d.get("goal"), d.get("steps")
    if not isinstance(goal, dict):
        raise ProofError(f"goal must be an object with lhs and rhs, not {type(goal).__name__}")
    if not isinstance(steps, list):
        raise ProofError(f"steps must be a list, not {type(steps).__name__}")
    terms = _terms_from_rows(d.get("terms"), alphabet)

    def term(i) -> Term:
        if type(i) is not int or not 0 <= i < len(terms):
            raise ProofError(f"a term must be the index of a row, not {i!r}")
        return terms[i]

    return ProofScript(
        lhs=term(goal["lhs"]),
        rhs=term(goal["rhs"]),
        steps=tuple(_step_from_json(s, term) for s in steps),
    )
