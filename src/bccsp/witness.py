"""Executable evidence that no finite equation set eliminates parallel
composition uniformly across all sum widths.

The evidence is a family of sound closed equations e_N indexed by N: the
left side a || p_N keeps the parallel operator, the right side expands it.
For every N the left side has a summand possible-futures equivalent to
a || p_N (namely itself) while no summand of the right side is, and this
asymmetry is the property a finite sound axiom system would have to preserve
but cannot once N outgrows the system. The module builds the families,
checks each one with the behavioural checkers, and audits concrete proof
scripts for the preservation property.

Two kinds are built: "interleaving" uses two distinct visible actions, the
other takes communication into account and replaces the second action by the
silent one throughout ("sync"). Over a single visible action without
communication the construction needs a second action and is refused; nothing
in this module settles what happens there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import AxiomSystem, Equation, build_system
from .equivalences import bisimilar, class_of, equivalent
from .proofs import ProofScript, replay_conclusions
from .semantics import TransitionMode, build_lts
from .terms import (
    Alphabet,
    Nil,
    Par,
    Prefix,
    Sum,
    Term,
    depth,
    free_vars,
    make_alphabet,
    norm,
    render,
    strip_nil,
    summands,
)

__all__ = [
    "KIND_INTERLEAVING",
    "KIND_SYNC",
    "WitnessFamily",
    "WitnessCheckError",
    "make_family",
    "has_summand_equiv",
    "negative_evidence_report",
    "script_summand_audit",
]

KIND_INTERLEAVING = "interleaving"
KIND_SYNC = "sync"


class WitnessCheckError(ValueError):
    """A family check that should hold does not; carries which N and which
    sub-check."""


@dataclass(frozen=True)
class WitnessFamily:
    """One member of the evidence family.

    `p` is the width-N sum (b.a + b.b.a + ... for the interleaving kind, with
    the silent action in place of b for the sync kind) and `equation` is the
    sound expansion a || p ≈ a.p + Σ_i b.(a || b^(i-1).a).
    """

    kind: str
    n: int
    alphabet: Alphabet
    p: Term
    equation: Equation

    @property
    def mode(self) -> TransitionMode:
        return (
            TransitionMode.CCS_SYNC
            if self.kind == KIND_SYNC
            else TransitionMode.INTERLEAVING
        )


def _canon_kind(kind: str) -> str:
    k = str(kind).strip().lower()
    if k in (KIND_INTERLEAVING, KIND_SYNC):
        return k
    raise ValueError(f"unknown witness kind {kind!r}")


def make_family(kind: str, n: int, alphabet: Alphabet | None = None) -> WitnessFamily:
    """Build the N-th family member.

    The interleaving kind needs two distinct visible actions; single-action
    alphabets are refused because the construction has no second action to
    stack, and this module offers no evidence either way for that case. The
    sync kind needs a sync-mode alphabet and stacks the silent action.
    """
    kind = _canon_kind(kind)
    if n < 1:
        raise ValueError("the family starts at N = 1")
    if kind == KIND_SYNC:
        if alphabet is None:
            alphabet = make_alphabet(("a",), sync=True)
        if not alphabet.sync_mode:
            raise ValueError("the sync kind needs a sync-mode alphabet")
        a, head = alphabet.actions[0], alphabet.tau
    else:
        if alphabet is None:
            alphabet = make_alphabet(("a", "b"))
        if alphabet.sync_mode:
            raise ValueError("the interleaving kind needs a plain alphabet")
        if len(alphabet.actions) < 2:
            raise ValueError(
                "the interleaving kind needs two distinct actions; over one "
                "action this construction does not exist"
            )
        a, head = alphabet.actions[0], alphabet.actions[1]
    a0 = Prefix(a, Nil())
    towers = [a0]  # towers[i] is head^i applied to a.0
    for _ in range(n):
        towers.append(Prefix(head, towers[-1]))
    p = towers[1]
    for t in towers[2:]:
        p = Sum(p, t)
    lhs = Par(a0, p)
    rhs: Term = Prefix(a, p)
    for i in range(1, n + 1):
        rhs = Sum(rhs, Prefix(head, Par(a0, towers[i - 1])))
    eid = f"e_{n}" if kind == KIND_INTERLEAVING else f"ec_{n}"
    return WitnessFamily(kind, n, alphabet, p, Equation(eid, lhs, rhs))


def has_summand_equiv(
    p: Term,
    target: Term,
    rel: str,
    alphabet: Alphabet | None = None,
    mode: TransitionMode = TransitionMode.INTERLEAVING,
) -> bool:
    """Whether some summand of p (after dropping redundant 0s) is
    rel-equivalent to the target. A term that is not a sum counts as its own
    single summand."""
    if free_vars(p) or free_vars(target):
        raise ValueError("summand checks are for closed terms")
    return any(
        equivalent(s, target, rel, alphabet=alphabet, mode=mode)
        for s in summands(strip_nil(p))
    )


def _family_checks(fam: WitnessFamily) -> dict:
    lhs, rhs = fam.equation.lhs, fam.equation.rhs
    alpha, mode = fam.alphabet, fam.mode
    checks = {
        "sound_modulo_bisimilarity": bisimilar(lhs, rhs, mode=mode, alphabet=alpha),
        "lhs_has_witness_summand": has_summand_equiv(lhs, lhs, "PF", alpha, mode),
        "rhs_lacks_witness_summand": not has_summand_equiv(rhs, lhs, "PF", alpha, mode),
        "norm_of_lhs_is_3": norm(lhs) == 3,
        "depth_of_lhs_is_n_plus_2": depth(lhs) == fam.n + 2,
    }
    # The sum p_N must decompose into exactly N pairwise inequivalent
    # single-exit towers, that is N summands with N distinct PF classes;
    # this is the summand structure the underivability argument leans on.
    parts = summands(fam.p)
    classes = {class_of(s, "PF", alpha, mode) for s in parts}
    checks["p_summands_pairwise_distinct"] = len(parts) == len(classes) == fam.n
    if fam.kind == KIND_SYNC:
        tau = alpha.tau
        checks["tau_steps_on_both_sides"] = all(
            any(label == tau for _s, label, _t in build_lts(t, mode, alpha).transitions)
            for t in (lhs, rhs)
        )
    return checks


def negative_evidence_report(
    kind: str, n_max: int, alphabet: Alphabet | None = None
) -> dict:
    """Check the whole family up to n_max and report every sub-check.

    Every check is expected to pass; the first failure raises
    WitnessCheckError naming the family index and the check, since a failure
    would mean the evidence is broken, not merely incomplete.
    """
    kind = _canon_kind(kind)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    first = make_family(kind, 1, alphabet)
    alpha = first.alphabet
    families, held = [], []  # held: every family, whose classes later families share
    for n in range(1, n_max + 1):
        fam = first if n == 1 else make_family(kind, n, alpha)
        held.append(fam)
        checks = _family_checks(fam)
        for name, ok in checks.items():
            if not ok:
                raise WitnessCheckError(f"family N={n}: check {name!r} failed")
        families.append(
            {
                "n": n,
                "lhs": render(fam.equation.lhs),
                "rhs": render(fam.equation.rhs),
                "checks": checks,
            }
        )
    return {
        "kind": kind,
        "n_max": n_max,
        "alphabet": list(alpha.transition_labels()),
        "families": families,
        "all_pass": True,
    }


def script_summand_audit(
    script: ProofScript,
    system,
    target: Term,
    rel: str = "PF",
    alphabet: Alphabet | None = None,
    mode: TransitionMode = TransitionMode.INTERLEAVING,
) -> dict:
    """Walk a checked proof line by line and test that having a summand
    rel-equivalent to the target is preserved across every concluded closed
    equation (after dropping redundant 0s on both sides).

    This is the proof-walking form of the preservation argument: it applies
    to the scripts actually given to it, not to all derivations, and is
    reported as evidence accordingly.
    """
    if not isinstance(system, AxiomSystem):
        if alphabet is None:
            raise ValueError("an alphabet is needed when the system is given by name")
        system = build_system(system, alphabet)
    conclusions = replay_conclusions(script, system)
    closed = 0
    violations = []
    for i, (l, r) in enumerate(conclusions):
        if free_vars(l) or free_vars(r):
            continue
        closed += 1
        pl = has_summand_equiv(l, target, rel, alphabet, mode)
        pr = has_summand_equiv(r, target, rel, alphabet, mode)
        if pl != pr:
            violations.append(i)
    return {
        "steps": len(conclusions),
        "closed_steps": closed,
        "preserved": not violations,
        "violations": violations,
    }
