"""Equational axiom systems over the term syntax.

An axiom system is a finite list of equations between open terms, closed
under nothing: schemas with action metavariables are instantiated over the
whole alphabet when the system is built, so every member is a concrete
equation. Ids name the schema and the chosen actions, e.g. "CSP1[a,b,a,b]"
or "EL2[{a};{a,b}]".

The interleaving systems are E0 and E1 (the choice laws, plus the two unit
laws for parallel) and, for each supported semantics X, a system E_X. The
communication variants E^c_X replace the two-party expansion laws by their
synchronising forms and instantiate action metavariables over the alphabet
extended with the silent action.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .equivalences import SubstitutionScheme, refute_open
from .semantics import TransitionMode
from .terms import (
    Alphabet,
    Nil,
    Par,
    Prefix,
    Sum,
    Term,
    Var,
    free_vars,
    render,
    strip_nil,
    substitute,
    sum_of,
)

__all__ = [
    "Equation",
    "AxiomSystem",
    "SYSTEM_NAMES",
    "canonical_system_name",
    "build_system",
    "check_sound",
    "saturate",
]


@dataclass(frozen=True)
class Equation:
    id: str
    lhs: Term
    rhs: Term

    @property
    def vars(self) -> tuple:
        return tuple(sorted(free_vars(self.lhs) | free_vars(self.rhs)))

    def __str__(self) -> str:
        return f"{self.id}: {render(self.lhs)} = {render(self.rhs)}"


def _pfx(a: str, t: Term) -> Term:
    return Prefix(a, t)


_X, _Y, _Z, _W, _U, _V = (Var(n) for n in "xyzwuv")


def _set_id(s) -> str:
    return "{" + ",".join(s) + "}"


# ---------------------------------------------------------------------------
# Schema builders. Each returns one Equation per choice of actions.


def _ax_core() -> list:
    return [
        Equation("A0", Sum(_X, Nil()), _X),
        Equation("A1", Sum(_X, _Y), Sum(_Y, _X)),
        Equation("A2", Sum(Sum(_X, _Y), _Z), Sum(_X, Sum(_Y, _Z))),
        Equation("A3", Sum(_X, _X), _X),
    ]


def _ax_par_unit() -> list:
    return [
        Equation("P0", Par(_X, Nil()), _X),
        Equation("P1", Par(_X, _Y), Par(_Y, _X)),
    ]


def _ax_s(acts) -> list:
    out = []
    for a in acts:
        lhs = _pfx(a, Sum(_X, _Y))
        out.append(Equation(f"S[{a}]", lhs, Sum(lhs, _pfx(a, _X))))
    return out


def _ax_sp1() -> list:
    lhs = Par(Sum(_X, _Y), Sum(_Z, _W))
    rhs = sum_of(
        [
            Par(_X, Sum(_Z, _W)),
            Par(_Y, Sum(_Z, _W)),
            Par(Sum(_X, _Y), _Z),
            Par(Sum(_X, _Y), _W),
        ]
    )
    return [Equation("SP1", lhs, rhs)]


def _ax_sp2(acts) -> list:
    out = []
    for a in acts:
        ax = _pfx(a, _X)
        lhs = Par(ax, Sum(_Y, _Z))
        rhs = sum_of([_pfx(a, Par(_X, Sum(_Y, _Z))), Par(ax, _Y), Par(ax, _Z)])
        out.append(Equation(f"SP2[{a}]", lhs, rhs))
    return out


def _ax_cs(acts) -> list:
    out = []
    for a, b in itertools.product(acts, repeat=2):
        lhs = _pfx(a, sum_of([_pfx(b, _X), _Y, _Z]))
        rhs = Sum(lhs, _pfx(a, Sum(_pfx(b, _X), _Z)))
        out.append(Equation(f"CS[{a},{b}]", lhs, rhs))
    return out


def _ax_csp1(acts) -> list:
    out = []
    for a, b, c, d in itertools.product(acts, repeat=4):
        ax, by = _pfx(a, _X), _pfx(b, _Y)
        cz, dw = _pfx(c, _Z), _pfx(d, _W)
        left = sum_of([ax, by, _U])
        right = sum_of([cz, dw, _V])
        rhs = sum_of(
            [
                Par(Sum(ax, _U), right),
                Par(Sum(by, _U), right),
                Par(left, Sum(cz, _V)),
                Par(left, Sum(dw, _V)),
            ]
        )
        out.append(Equation(f"CSP1[{a},{b},{c},{d}]", Par(left, right), rhs))
    return out


def _ax_csp2(acts) -> list:
    out = []
    for a, b, c in itertools.product(acts, repeat=3):
        ax = _pfx(a, _X)
        by, cz = _pfx(b, _Y), _pfx(c, _Z)
        menu = sum_of([by, cz, _W])
        rhs = sum_of(
            [
                _pfx(a, Par(_X, menu)),
                Par(ax, Sum(by, _W)),
                Par(ax, Sum(cz, _W)),
            ]
        )
        out.append(Equation(f"CSP2[{a},{b},{c}]", Par(ax, menu), rhs))
    return out


def _ax_rs(acts) -> list:
    out = []
    for a, b in itertools.product(acts, repeat=2):
        lhs = _pfx(a, sum_of([_pfx(b, _X), _pfx(b, _Y), _Z]))
        rhs = Sum(lhs, _pfx(a, Sum(_pfx(b, _X), _Z)))
        out.append(Equation(f"RS[{a},{b}]", lhs, rhs))
    return out


def _ax_rsp1(acts) -> list:
    out = []
    for a, b in itertools.product(acts, repeat=2):
        ax, ay = _pfx(a, _X), _pfx(a, _Y)
        bz, bw = _pfx(b, _Z), _pfx(b, _W)
        left = sum_of([ax, ay, _U])
        right = sum_of([bz, bw, _V])
        rhs = sum_of(
            [
                Par(Sum(ax, _U), right),
                Par(Sum(ay, _U), right),
                Par(left, Sum(bz, _V)),
                Par(left, Sum(bw, _V)),
            ]
        )
        out.append(Equation(f"RSP1[{a},{b}]", Par(left, right), rhs))
    return out


def _subsets(acts):
    acts = tuple(acts)
    for r in range(len(acts) + 1):
        yield from itertools.combinations(acts, r)


def _indexed(sub, stem: str) -> list:
    return [_pfx(a, Var(f"{stem}{i + 1}")) for i, a in enumerate(sub)]


def _ax_rsp2(acts) -> list:
    out = []
    for sub in _subsets(acts):
        for b in acts:
            menu_terms = _indexed(sub, "x")
            left = sum_of(menu_terms)
            by, bz = _pfx(b, _Y), _pfx(b, _Z)
            right = sum_of([by, bz, _W])
            rhs_terms = [Par(left, Sum(by, _W)), Par(left, Sum(bz, _W))]
            for a, xt in zip(sub, menu_terms):
                rhs_terms.append(_pfx(a, Par(xt.body, right)))
            out.append(
                Equation(
                    f"RSP2[{_set_id(sub)};{b}]",
                    Par(left, right),
                    sum_of(rhs_terms),
                )
            )
    return out


def _ax_el1(acts) -> list:
    out = []
    for a, b in itertools.product(acts, repeat=2):
        ax, by = _pfx(a, _X), _pfx(b, _Y)
        rhs = Sum(_pfx(a, Par(_X, by)), _pfx(b, Par(ax, _Y)))
        out.append(Equation(f"EL1[{a},{b}]", Par(ax, by), rhs))
    return out


def _el2_shape(sub_l, sub_t, tau_pairs=None) -> tuple:
    """Build (lhs, rhs) of the expansion law for the given distinct action
    rows; tau_pairs optionally adds a synchronisation summand per
    complementary pair (i, j) with the given silent action."""
    ls = _indexed(sub_l, "x")
    rs = _indexed(sub_t, "y")
    left = sum_of(ls)
    right = sum_of(rs)
    rhs_terms = [_pfx(p.action, Par(p.body, right)) for p in ls]
    rhs_terms += [_pfx(q.action, Par(left, q.body)) for q in rs]
    if tau_pairs is not None:
        tau, pairs = tau_pairs
        for p, q in pairs:
            rhs_terms.append(_pfx(tau, Par(p.body, q.body)))
    return Par(left, right), sum_of(rhs_terms)


def _ax_el2(acts) -> list:
    out = []
    for sub_l in _subsets(acts):
        for sub_r in _subsets(acts):
            lhs, rhs = _el2_shape(sub_l, sub_r)
            out.append(Equation(f"EL2[{_set_id(sub_l)};{_set_id(sub_r)}]", lhs, rhs))
    return out


def _ax_fp(acts) -> list:
    out = []
    for a in acts:
        ax, ay = _pfx(a, _X), _pfx(a, _Y)
        lhs = Par(sum_of([ax, ay, _W]), _Z)
        rhs = Sum(Par(Sum(ax, _W), _Z), Par(Sum(ay, _W), _Z))
        out.append(Equation(f"FP[{a}]", lhs, rhs))
    return out


def _ax_rt(acts) -> list:
    out = []
    n = len(acts)
    for a in acts:
        for bs in itertools.product(acts, repeat=n):
            pairs = []
            xs = []
            ys = []
            for i, b in enumerate(bs):
                bx = _pfx(b, Var(f"x{i + 1}"))
                by = _pfx(b, Var(f"y{i + 1}"))
                pairs.extend((bx, by))
                xs.append(bx)
                ys.append(by)
            lhs = _pfx(a, sum_of(pairs + [_Z]))
            rhs = Sum(_pfx(a, sum_of(xs + [_Z])), _pfx(a, sum_of(ys + [_Z])))
            out.append(Equation(f"RT[{a};{','.join(bs)}]", lhs, rhs))
    return out


def _ax_ft(acts) -> list:
    out = []
    for a in acts:
        ax, ay = _pfx(a, _X), _pfx(a, _Y)
        lhs = Sum(ax, ay)
        out.append(Equation(f"FT[{a}]", lhs, Sum(lhs, _pfx(a, Sum(_X, _Y)))))
    return out


def _ax_r(acts) -> list:
    out = []
    for a, b in itertools.product(acts, repeat=2):
        first = _pfx(a, Sum(_pfx(b, _X), _Z))
        second = _pfx(a, Sum(_pfx(b, _Y), _W))
        merged = _pfx(a, sum_of([_pfx(b, _X), _pfx(b, _Y), _Z]))
        out.append(Equation(f"R[{a},{b}]", Sum(first, second), Sum(merged, second)))
    return out


def _ax_f(acts) -> list:
    out = []
    for a in acts:
        ax = _pfx(a, _X)
        lhs = Sum(ax, _pfx(a, Sum(_Y, _Z)))
        rhs = sum_of([ax, _pfx(a, Sum(_X, _Y)), _pfx(a, Sum(_Y, _Z))])
        out.append(Equation(f"F[{a}]", lhs, rhs))
    return out


def _ax_ct(acts) -> list:
    out = []
    for a, b, c in itertools.product(acts, repeat=3):
        first = _pfx(a, Sum(_pfx(b, _X), _Z))
        second = _pfx(a, Sum(_pfx(c, _Y), _W))
        merged = _pfx(a, sum_of([_pfx(b, _X), _pfx(c, _Y), _Z, _W]))
        out.append(Equation(f"CT[{a},{b},{c}]", Sum(first, second), merged))
    return out


def _ax_ctp(acts) -> list:
    out = []
    for a, b in itertools.product(acts, repeat=2):
        ax, by = _pfx(a, _X), _pfx(b, _Y)
        lhs = Par(sum_of([ax, by, _W]), _Z)
        rhs = Sum(Par(Sum(ax, _W), _Z), Par(Sum(by, _W), _Z))
        out.append(Equation(f"CTP[{a},{b}]", lhs, rhs))
    return out


def _ax_t(acts) -> list:
    return [
        Equation(f"T[{a}]", Sum(_pfx(a, _X), _pfx(a, _Y)), _pfx(a, Sum(_X, _Y)))
        for a in acts
    ]


def _ax_tp() -> list:
    lhs = Par(Sum(_X, _Y), _Z)
    return [Equation("TP", lhs, Sum(Par(_X, _Z), Par(_Y, _Z)))]


# Synchronising expansion laws


def _is_compl(alphabet: Alphabet, a: str, b: str) -> bool:
    return a != alphabet.tau and b != alphabet.tau and alphabet.complement(a) == b


def _ax_elc1(alphabet: Alphabet) -> list:
    out = []
    labels = alphabet.transition_labels()
    for a, b in itertools.product(labels, repeat=2):
        ax, by = _pfx(a, _X), _pfx(b, _Y)
        rhs_terms = [_pfx(a, Par(_X, by)), _pfx(b, Par(ax, _Y))]
        if _is_compl(alphabet, a, b):
            rhs_terms.append(_pfx(alphabet.tau, Par(_X, _Y)))
            eid = f"ELC1t[{a},{b}]"
        else:
            eid = f"ELC1[{a},{b}]"
        out.append(Equation(eid, Par(ax, by), sum_of(rhs_terms)))
    return out


def _ax_elc2(alphabet: Alphabet) -> list:
    out = []
    labels = alphabet.transition_labels()
    for sub_l in _subsets(labels):
        for sub_r in _subsets(labels):
            ls = _indexed(sub_l, "x")
            rs = _indexed(sub_r, "y")
            pairs = [
                (p, q)
                for p in ls
                for q in rs
                if _is_compl(alphabet, p.action, q.action)
            ]
            lhs, rhs = _el2_shape(sub_l, sub_r, (alphabet.tau, pairs))
            out.append(Equation(f"ELC2[{_set_id(sub_l)};{_set_id(sub_r)}]", lhs, rhs))
    return out


# ---------------------------------------------------------------------------
# Systems


@dataclass(frozen=True)
class AxiomSystem:
    name: str
    alphabet: Alphabet
    mode: TransitionMode
    equations: tuple
    target_relation: str
    by_id: dict = field(compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self.by_id.update({e.id: e for e in self.equations})

    def __iter__(self):
        return iter(self.equations)

    def __len__(self):
        return len(self.equations)


PLAIN_SYSTEM_NAMES = ("E0", "E1", "E_T", "E_CT", "E_F", "E_R", "E_FT", "E_RT", "E_S", "E_CS", "E_RS")
SYNC_SYSTEM_NAMES = tuple(
    f"E^c_{x}" for x in ("T", "CT", "F", "R", "FT", "RT", "S", "CS", "RS")
)
SYSTEM_NAMES = PLAIN_SYSTEM_NAMES + SYNC_SYSTEM_NAMES


def canonical_system_name(name: str) -> str:
    if name in SYSTEM_NAMES:
        return name
    if name.startswith("Ec_"):
        cand = "E^c_" + name[3:]
        if cand in SYSTEM_NAMES:
            return cand
    raise ValueError(f"unknown axiom system {name!r}")


def build_system(name: str, alphabet: Alphabet, mode: TransitionMode | None = None) -> AxiomSystem:
    name = canonical_system_name(name)
    sync = name.startswith("E^c_")
    wanted = TransitionMode.CCS_SYNC if sync else TransitionMode.INTERLEAVING
    if mode is not None and mode is not wanted:
        raise ValueError(f"system {name} runs in {wanted.value} mode, not {mode.value}")
    if sync and not alphabet.sync_mode:
        raise ValueError(f"system {name} needs an alphabet in sync mode")
    if not sync and alphabet.sync_mode:
        raise ValueError(f"system {name} needs a plain alphabet")

    eqs = list(_ax_core())
    if name == "E0":
        return AxiomSystem(name, alphabet, wanted, tuple(eqs), "B")
    eqs += _ax_par_unit()
    if name == "E1":
        return AxiomSystem(name, alphabet, wanted, tuple(eqs), "B")

    acts = alphabet.transition_labels() if sync else alphabet.actions
    kind = name[4:] if sync else name[2:]
    if kind == "T":
        eqs += _ax_t(acts) + _ax_tp()
    elif kind == "CT":
        eqs += _ax_ct(acts) + _ax_ctp(acts)
    elif kind == "F":
        eqs += _ax_f(acts) + _ax_r(acts) + _ax_fp(acts)
    elif kind == "R":
        eqs += _ax_r(acts) + _ax_fp(acts)
    elif kind == "FT":
        eqs += _ax_ft(acts) + _ax_rs(acts) + _ax_fp(acts)
    elif kind == "RT":
        eqs += _ax_rt(acts) + _ax_fp(acts)
    elif kind == "S":
        eqs += _ax_s(acts) + _ax_sp1() + _ax_sp2(acts)
    elif kind == "CS":
        eqs += _ax_cs(acts) + _ax_csp1(acts) + _ax_csp2(acts)
    elif kind == "RS":
        eqs += _ax_rs(acts) + _ax_rsp1(acts) + _ax_rsp2(acts)
    else:
        raise AssertionError(kind)

    uses_el1 = kind in ("T", "CT", "S", "CS")
    if sync:
        eqs += _ax_elc1(alphabet) if uses_el1 else _ax_elc2(alphabet)
    else:
        eqs += _ax_el1(acts) if uses_el1 else _ax_el2(acts)
    return AxiomSystem(name, alphabet, wanted, tuple(eqs), kind)


# ---------------------------------------------------------------------------
# Soundness


def check_sound(
    eq: Equation,
    rel,
    alphabet: Alphabet,
    mode: TransitionMode = TransitionMode.INTERLEAVING,
    scheme: SubstitutionScheme | None = None,
):
    """Search for a closed instance of the equation that the relation tells
    apart. NotRefuted is evidence of soundness over the scheme's pool, not a
    proof of soundness."""
    return refute_open(eq.lhs, eq.rhs, rel, alphabet, mode, scheme)


# ---------------------------------------------------------------------------
# Saturation under 0-substitutions


def _zeroed(eq: Equation, names) -> tuple:
    m = {n: Nil() for n in names}
    return strip_nil(substitute(eq.lhs, m)), strip_nil(substitute(eq.rhs, m))


def saturate(system: AxiomSystem) -> AxiomSystem:
    """Close the system under mapping subsets of variables to 0 and removing
    the redundant 0 summands and factors this leaves behind. Instances whose
    two sides become identical are omitted; they are derivable outright."""
    eqs = list(system.equations)
    seen = {(e.lhs, e.rhs) for e in eqs}
    for eq in system.equations:
        for r in range(len(eq.vars) + 1):
            for names in itertools.combinations(eq.vars, r):
                l2, r2 = _zeroed(eq, names)
                if l2 is r2 or (l2, r2) in seen:
                    continue
                seen.add((l2, r2))
                suffix = ",".join(names) + "=0" if names else "strip"
                eqs.append(Equation(f"{eq.id}/{suffix}", l2, r2))
    return AxiomSystem(
        f"cl({system.name})",
        system.alphabet,
        system.mode,
        tuple(eqs),
        system.target_relation,
    )

