"""Constructive elimination of the parallel operator.

Every closed term is provably equal, in each axiom system that carries an
expansion law, to a term built without parallel composition. The rewriting
here performs that elimination in one bottom-up pass over the term DAG:
the children of a node are freed first, a parallel node over freed children
gets one case split, and the smaller parallel nodes the split leaves behind
are freed in turn. Terms are hash-consed, so the pass is memoised by node
for the length of one call: a subterm that occurs many times is split once,
and its proof is built once and reused wherever the subterm recurs. With
`emit_proof` the same pass records a proof script that replays under the
chosen system, deriving on the fly whatever case law the system does not
carry natively.

Each case analysis is tied to the most discriminating system of its family
and reused by the coarser ones:

  RS family (E_RS):              RSP1 / RSP2 / EL2 by duplicate heads
  CS family (E_CS, E_S):         EL1 / CSP2 / CSP1 by summand counts
  RT family (E_RT, E_FT, E_R, E_F): FP on a duplicate head, else EL2
  CT family (E_CT, E_T):         EL1 / CTP by summand counts

The synchronising systems run the same analyses with ELC1/ELC1t in place of
EL1 and ELC2 in place of EL2.
"""

from __future__ import annotations

from functools import lru_cache

from .axioms import AxiomSystem, Equation, build_system, canonical_system_name
from .derivations import derivation_hook
from .proofs import ProofBuilder, TermTrace
from .semantics import TransitionMode
from .terms import (
    Nil,
    Par,
    Prefix,
    Sum,
    Term,
    cached,
    children,
    free_vars,
    render,
    size,
    strip_nil,
    substitute,
    sum_of,
    summands,
)

__all__ = ["eliminate", "par_free", "family_of"]

_FAMILY = {
    "RS": "RS",
    "CS": "CS",
    "S": "CS",
    "RT": "RT",
    "FT": "RT",
    "R": "RT",
    "F": "RT",
    "CT": "CT",
    "T": "CT",
}


def family_of(system_name: str) -> str:
    """The case-analysis family a system's elimination runs on."""
    name = canonical_system_name(system_name)
    kind = name[4:] if name.startswith("E^c_") else name[2:]
    fam = _FAMILY.get(kind)
    if fam is None:
        raise ValueError(
            f"{name} has no expansion law; elimination needs one of the E_X systems"
        )
    return fam


def par_free(t: Term) -> bool:
    """True when t has no parallel composition. The answer is cached on the
    node, so a subterm shared across the DAG is looked at once."""
    return cached(t, "par_free", _par_free, children)


def _par_free(t: Term) -> bool:
    if isinstance(t, Par):
        return False
    if isinstance(t, Prefix):
        return par_free(t.body)
    if isinstance(t, Sum):
        return par_free(t.left) and par_free(t.right)
    return True


class _Context:
    def __init__(self, system: AxiomSystem, shapes: AxiomSystem, builder, family: str):
        self.system = system
        self.shapes = shapes
        self.builder = builder
        self.family = family
        self.alphabet = system.alphabet
        self.sync = system.mode is TransitionMode.CCS_SYNC
        labels = (
            system.alphabet.transition_labels() if self.sync else system.alphabet.actions
        )
        self._order = {a: i for i, a in enumerate(labels)}

    def eq(self, axiom_id: str) -> Equation:
        got = self.system.by_id.get(axiom_id)
        if got is not None:
            return got
        return self.shapes.by_id[axiom_id]

    def head_order(self, action: str) -> int:
        return self._order[action]


@lru_cache(maxsize=64)
def _reference_system(name: str, alphabet) -> AxiomSystem:
    """The built system whose axiom ids a family's case analyses name, one
    per (name, alphabet): building a system costs about a millisecond."""
    return build_system(name, alphabet)


def eliminate(term: Term, system, alphabet=None, emit_proof: bool = False):
    """Rewrite a closed term into one without the parallel operator.

    `system` is an axiom system name or a built AxiomSystem; giving a name
    requires `alphabet`. Returns (result, script); the script is None unless
    `emit_proof` is set, and otherwise proves term = result with steps that
    replay under the given system.
    """
    if isinstance(system, AxiomSystem):
        sys_ = system
    else:
        if alphabet is None:
            raise ValueError("an alphabet is needed when the system is given by name")
        sys_ = build_system(system, alphabet)
    if free_vars(term):
        raise ValueError("only closed terms can be freed of the parallel operator")
    fam = family_of(sys_.name)
    ref = ("E^c_" if sys_.mode is TransitionMode.CCS_SYNC else "E_") + fam
    shapes = sys_ if sys_.name == ref else _reference_system(ref, sys_.alphabet)
    builder = (
        ProofBuilder(sys_, derive=derivation_hook(sys_.name)) if emit_proof else None
    )
    ctx = _Context(sys_, shapes, builder, fam)
    freed = _drive(ctx, term)
    result = term if freed is None else freed.trace.term
    if not emit_proof:
        return result, None
    idx = None if freed is None else freed.trace.proof_index()
    if idx is None:
        idx = builder.refl(term)
    return result, builder.script(term, result, idx)


class _Freed:
    """The elimination of one node: a trace from the node to a parallel-free
    term, and the largest measure among the parallel nodes split at the
    node's own level (not inside the recursion on a split's result), with
    the node that has it."""

    __slots__ = ("trace", "top", "at")

    def __init__(self, trace: TermTrace, top: int, at):
        self.trace = trace
        self.top = top
        self.at = at

    def check_below(self, bound: int):
        if self.top >= bound:
            raise AssertionError(
                f"elimination failed to shrink at {render(self.at)} (measure "
                f"{self.top}, parent {bound})"
            )


def _drive(ctx: _Context, t: Term):
    """Eliminate every parallel node of t in one bottom-up pass over the
    term DAG, memoised by node: each distinct node is freed once, into one
    trace, and a node that recurs reuses that trace, spliced in by its proof
    index. Returns the node's _Freed record, or None if t is already free of
    parallel composition.

    Each node's elimination is a `_free` generator, suspended on an explicit
    stack while it waits for the record of another node, so the depth of a
    term costs heap, not Python call frames."""
    if par_free(t):
        return None
    memo: dict = {}  # node -> _Freed
    stack = [(t, _free(ctx, t))]
    active = {t}
    sent = None
    while stack:
        node, gen = stack[-1]
        try:
            need = gen.send(sent)
        except StopIteration as done:
            stack.pop()
            active.discard(node)
            sent = memo[node] = done.value
            continue
        if par_free(need):
            sent = None
        elif need in memo:
            sent = memo[need]
        elif need in active:
            raise AssertionError(f"elimination of {render(need)} needs itself")
        else:
            stack.append((need, _free(ctx, need)))
            active.add(need)
            sent = None
    return memo[t]


def _free(ctx: _Context, t: Term):
    """Free the children first, then split a parallel node whose children
    are free, and free what the split leaves behind. A generator: it yields
    each node whose elimination it needs and is sent that node's record
    (None for a node free of parallel composition); it returns t's record.
    Every parallel node a split produces must be strictly smaller (0
    factors and summands aside) than the node split; the check runs on
    every use of a memoised record."""
    tr = TermTrace(t, ctx.builder)
    top, at = -1, None
    subs = []
    for kid in (t.body,) if isinstance(t, Prefix) else (t.left, t.right):
        sub = yield kid
        subs.append(sub)
        if sub is not None and sub.top > top:
            top, at = sub.top, sub.at
    tr.splice_children([None if sub is None else sub.trace for sub in subs])
    if isinstance(t, Par):
        node = tr.term
        if node is not t:
            # the children changed: the parallel node over the freed
            # children is a DAG node of its own, shared with its other uses
            sub = yield node
            tr.extend(sub.trace)
            if sub.top > top:
                top, at = sub.top, sub.at
        else:
            measure = size(strip_nil(node))
            _case(ctx, tr)
            sub = yield tr.term
            if sub is not None:
                sub.check_below(measure)
                tr.extend(sub.trace)
            if measure > top:
                top, at = measure, node
    return _Freed(tr, top, at)


def _case(ctx: _Context, tr: TermTrace):
    """One case split at the root of the trace, a parallel node whose two
    children are free of parallel composition."""
    node = tr.term
    ps, qs = summands(node.left), summands(node.right)
    for s in ps + qs:
        if not isinstance(s, Prefix):
            raise AssertionError(f"unexpected summand {render(s)} in {render(node)}")
    if not qs:
        left = sum_of(ps)
        tr.ac_to(Par(left, Nil()))
        tr.rewrite_axiom(ctx.eq("P0"), {"x": left})
        return
    if not ps:
        right = sum_of(qs)
        tr.ac_to(Par(Nil(), right))
        tr.rewrite_axiom(ctx.eq("P1"), {"x": Nil(), "y": right})
        tr.rewrite_axiom(ctx.eq("P0"), {"x": right})
        return
    _CASES[ctx.family](ctx, tr, ps, qs)


def _flip(ctx: _Context, tr: TermTrace, ps: list, qs: list) -> tuple:
    left, right = sum_of(ps), sum_of(qs)
    tr.ac_to(Par(left, right))
    tr.rewrite_axiom(ctx.eq("P1"), {"x": left, "y": right})
    return qs, ps


def _first_dup(ss: list):
    """Index of the first adjacent pair of summands with the same initial
    action; sorting by rendered text keeps equal actions adjacent."""
    for i in range(len(ss) - 1):
        if ss[i].action == ss[i + 1].action:
            return i
    return None


def _rest(ss: list, i: int) -> Term:
    return sum_of(ss[:i] + ss[i + 2 :])


def _row_id(heads) -> str:
    return "{" + ",".join(heads) + "}"


def _apply(ctx: _Context, tr: TermTrace, axiom_id: str, sigma: dict):
    eq = ctx.eq(axiom_id)
    tr.ac_to(substitute(eq.lhs, sigma))
    tr.rewrite_axiom(eq, sigma)


def _distinct_row(ctx: _Context, ss: list, stem: str) -> tuple:
    """Heads and substitution for a side whose initial actions are pairwise
    distinct, in the order the expansion law lists them."""
    ordered = sorted(ss, key=lambda s: ctx.head_order(s.action))
    heads = tuple(s.action for s in ordered)
    sigma = {f"{stem}{i + 1}": s.body for i, s in enumerate(ordered)}
    return heads, sigma


def _apply_expansion(ctx: _Context, tr: TermTrace, ps: list, qs: list):
    hl, sigma = _distinct_row(ctx, ps, "x")
    hr, sr = _distinct_row(ctx, qs, "y")
    sigma.update(sr)
    stem = "ELC2" if ctx.sync else "EL2"
    _apply(ctx, tr, f"{stem}[{_row_id(hl)};{_row_id(hr)}]", sigma)


def _apply_pair(ctx: _Context, tr: TermTrace, sp: Prefix, sq: Prefix):
    a, b = sp.action, sq.action
    sigma = {"x": sp.body, "y": sq.body}
    if not ctx.sync:
        _apply(ctx, tr, f"EL1[{a},{b}]", sigma)
        return
    alph = ctx.alphabet
    compl = a != alph.tau and b != alph.tau and alph.complement(a) == b
    _apply(ctx, tr, f"{'ELC1t' if compl else 'ELC1'}[{a},{b}]", sigma)


def _case_rs(ctx: _Context, tr: TermTrace, ps: list, qs: list):
    if len(ps) > 1 and (
        len(qs) == 1 or (_first_dup(ps) is not None and _first_dup(qs) is None)
    ):
        ps, qs = _flip(ctx, tr, ps, qs)
    dp, dq = _first_dup(ps), _first_dup(qs)
    if dp is not None and dq is not None:
        sigma = {
            "x": ps[dp].body,
            "y": ps[dp + 1].body,
            "u": _rest(ps, dp),
            "z": qs[dq].body,
            "w": qs[dq + 1].body,
            "v": _rest(qs, dq),
        }
        _apply(ctx, tr, f"RSP1[{ps[dp].action},{qs[dq].action}]", sigma)
    elif dq is not None:
        heads, sigma = _distinct_row(ctx, ps, "x")
        sigma.update({"y": qs[dq].body, "z": qs[dq + 1].body, "w": _rest(qs, dq)})
        _apply(ctx, tr, f"RSP2[{_row_id(heads)};{qs[dq].action}]", sigma)
    else:
        _apply_expansion(ctx, tr, ps, qs)


def _case_cs(ctx: _Context, tr: TermTrace, ps: list, qs: list):
    if len(ps) > 1 and len(qs) == 1:
        ps, qs = _flip(ctx, tr, ps, qs)
    if len(ps) == 1 and len(qs) == 1:
        _apply_pair(ctx, tr, ps[0], qs[0])
    elif len(ps) == 1:
        sigma = {
            "x": ps[0].body,
            "y": qs[0].body,
            "z": qs[1].body,
            "w": sum_of(qs[2:]),
        }
        _apply(
            ctx, tr, f"CSP2[{ps[0].action},{qs[0].action},{qs[1].action}]", sigma
        )
    else:
        sigma = {
            "x": ps[0].body,
            "y": ps[1].body,
            "u": sum_of(ps[2:]),
            "z": qs[0].body,
            "w": qs[1].body,
            "v": sum_of(qs[2:]),
        }
        _apply(
            ctx,
            tr,
            f"CSP1[{ps[0].action},{ps[1].action},{qs[0].action},{qs[1].action}]",
            sigma,
        )


def _case_rt(ctx: _Context, tr: TermTrace, ps: list, qs: list):
    if _first_dup(ps) is None and _first_dup(qs) is not None:
        ps, qs = _flip(ctx, tr, ps, qs)
    dp = _first_dup(ps)
    if dp is not None:
        sigma = {
            "x": ps[dp].body,
            "y": ps[dp + 1].body,
            "w": _rest(ps, dp),
            "z": sum_of(qs),
        }
        _apply(ctx, tr, f"FP[{ps[dp].action}]", sigma)
    else:
        _apply_expansion(ctx, tr, ps, qs)


def _case_ct(ctx: _Context, tr: TermTrace, ps: list, qs: list):
    if len(ps) == 1 and len(qs) > 1:
        ps, qs = _flip(ctx, tr, ps, qs)
    if len(ps) == 1:
        _apply_pair(ctx, tr, ps[0], qs[0])
    else:
        sigma = {
            "x": ps[0].body,
            "y": ps[1].body,
            "w": sum_of(ps[2:]),
            "z": sum_of(qs),
        }
        _apply(ctx, tr, f"CTP[{ps[0].action},{ps[1].action}]", sigma)


_CASES = {"RS": _case_rs, "CS": _case_cs, "RT": _case_rt, "CT": _case_ct}
