import itertools

import pytest
from hypothesis import strategies as st

from bccsp.terms import Nil, Par, Prefix, Sum, Var, make_alphabet, render, strip_nil, substitute

VARS = ("x", "y", "z", "u", "v", "w")


@pytest.fixture(scope="session")
def ab():
    return make_alphabet(("a", "b"))


@pytest.fixture(scope="session")
def abc():
    return make_alphabet(("a", "b", "c"))


@pytest.fixture(scope="session")
def sync_ab():
    return make_alphabet(("a", "b"), sync=True)


def term_strategy(actions=("a", "b"), variables=(), max_leaves=6):
    """Random terms; leaves are 0 and variables, inner nodes prefix/+/||."""
    leaves = [st.just(Nil())]
    if variables:
        leaves.append(st.sampled_from([Var(v) for v in variables]))
    base = st.one_of(*leaves)

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(actions), children).map(lambda p: Prefix(*p)),
            st.tuples(children, children).map(lambda p: Sum(*p)),
            st.tuples(children, children).map(lambda p: Par(*p)),
        )

    return st.recursive(base, extend, max_leaves=max_leaves)


closed_terms = term_strategy()
open_terms = term_strategy(variables=VARS)


def all_terms(alphabet, max_size: int, variables=()) -> tuple:
    """Every term of size at most max_size over the alphabet's transition
    labels and the given variable names, ordered by size then rendering.

    Size counts every operator occurrence including 0, so the smallest terms
    have size 1. Interning guarantees the result has no structural repeats.
    """
    labels = alphabet.transition_labels() if alphabet.sync_mode else alphabet.actions
    by_size: list = [[] for _ in range(max_size + 1)]
    if max_size >= 1:
        by_size[1].append(Nil())
        by_size[1].extend(Var(v) for v in variables)
    for s in range(2, max_size + 1):
        layer = by_size[s]
        for body in by_size[s - 1]:
            layer.extend(Prefix(a, body) for a in labels)
        for ls in range(1, s - 1):
            for left in by_size[ls]:
                for right in by_size[s - 1 - ls]:
                    layer.append(Sum(left, right))
                    layer.append(Par(left, right))
    out = []
    for s in range(1, max_size + 1):
        out.extend(sorted(by_size[s], key=render))
    return tuple(out)


def is_saturated(system) -> bool:
    """Whether every non-trivial 0-substitution instance of every axiom, with
    the redundant 0 summands and factors stripped, is already present (as a
    pair of sides, ids aside)."""
    have = {(e.lhs, e.rhs) for e in system.equations}
    for eq in system.equations:
        for r in range(len(eq.vars) + 1):
            for names in itertools.combinations(eq.vars, r):
                zero = {n: Nil() for n in names}
                l2 = strip_nil(substitute(eq.lhs, zero))
                r2 = strip_nil(substitute(eq.rhs, zero))
                if l2 is not r2 and (l2, r2) not in have:
                    return False
    return True
