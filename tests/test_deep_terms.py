"""Per-node analyses on terms far deeper than the call stack allows.

Each case runs with the recursion limit set to the caller's depth plus 300
frames, so an analysis that recurses once per level of a 1,000-level term,
or once per step of a 300-step derivation, fails here with RecursionError.
"""

import ast
import inspect
import sys
from pathlib import Path

import pytest

from bccsp.axioms import Equation, build_system
from bccsp.eliminate import par_free
from bccsp.equivalences import SubstitutionScheme, equivalent, refute_open
from bccsp.models import fixture_model, independence_report, search_model
from bccsp.proofs import canon
from bccsp.semantics import initials
from bccsp.terms import (
    Nil,
    Par,
    Prefix,
    Sum,
    Var,
    actions_of,
    free_vars,
    is_nil_term,
    make_alphabet,
    strip_nil,
    substitute,
    sum_of,
    summands,
)

A = make_alphabet(("a", "b"))
NIL = Nil()
A0, B0 = Prefix("a", NIL), Prefix("b", NIL)


def chain(n, inner):
    """a.a. ... .a.inner with n prefixes, built without the parser."""
    for _ in range(n):
        inner = Prefix("a", inner)
    return inner


@pytest.fixture
def shallow_stack():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 300)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_syntactic_analyses_of_a_deep_chain(shallow_stack):
    assert free_vars(chain(1000, Var("x"))) == {"x"}
    assert actions_of(chain(1000, B0)) == {"a", "b"}
    assert strip_nil(chain(1000, Sum(NIL, Var("x")))) is chain(1000, Var("x"))
    assert canon(chain(1000, Sum(B0, A0))) is chain(1000, Sum(A0, B0))
    assert par_free(chain(1000, NIL))


def test_analyses_of_a_long_sum(shallow_stack):
    # summands a.x0999 ... a.x0000, in the reverse of their sorted order
    leaves = [Prefix("a", Var(f"x{i:04d}")) for i in reversed(range(1000))]
    t = sum_of(leaves)
    assert summands(t) == leaves[::-1]
    assert canon(Sum(t, t)) is sum_of(leaves[::-1])
    assert initials(sum_of([A0, B0] * 500)) == {"a", "b"}
    assert is_nil_term(sum_of([NIL] * 1000))


def test_substitution_into_a_deep_chain(shallow_stack):
    t = chain(2000, Sum(Var("x"), Prefix("b", Var("y"))))
    assert substitute(t, {"x": A0, "y": NIL}) is chain(2000, Sum(A0, B0))
    assert substitute(t, {"x": Var("y")}) is chain(2000, Sum(Var("y"), Prefix("b", Var("y"))))
    assert substitute(t, {"z": A0}) is t
    assert substitute(Var("x"), {"x": A0}) is A0


def test_refuting_equations_over_a_deep_chain(shallow_stack):
    scheme = SubstitutionScheme((A0,))
    x, y = Var("x"), Var("y")
    out = refute_open(chain(2000, Sum(x, y)), chain(2000, Sum(y, x)), "B", A, scheme=scheme)
    assert (out.refuted, out.checked) == (False, 4)
    out = refute_open(chain(2000, Prefix("a", x)), chain(2000, x), "T", A, scheme=scheme)
    assert (out.refuted, out.substitution, out.checked) == (True, {"x": A0}, 1)


@pytest.mark.parametrize("rel", ["T", "CT", "F", "R", "FT", "RT", "PF"])
def test_decorated_trace_equivalences_of_deep_chains(shallow_stack, rel):
    p, q = chain(2000, Sum(A0, B0)), chain(2000, Sum(B0, A0))
    assert equivalent(p, q, rel, A)
    assert not equivalent(p, chain(2000, A0), rel, A)


@pytest.mark.parametrize("rel", ["B", "S", "CS", "RS", "NS2", "NT2"])
def test_branching_relations_of_deep_chains(shallow_stack, rel):
    assert not equivalent(chain(2000, NIL), chain(2000, B0), rel, A)
    assert equivalent(chain(2000, Sum(A0, B0)), chain(2000, Sum(B0, A0)), rel, A)


def test_finite_models_of_a_deep_goal(shallow_stack):
    goal = Equation("deep", chain(1000, NIL), NIL)
    m = fixture_model("table6")
    assert m.eval(goal.lhs, {}) == 4
    assert m.counter_valuation(goal) == {}
    assert m.counter_valuation(Equation("open", chain(1000, Var("x")), Var("x"))) == {"x": 0}
    res = search_model(A, 2, build_system("E_T", A), goal)
    assert (res.status, res.carrier) == ("found", 2)


def test_search_against_a_goal_of_shared_subterms(shallow_stack):
    # t_0 = a.x and t_(k+1) = t_k || t_k: t_200 has 201 distinct nodes but
    # 3 * 2^200 - 1 as a tree, so neither the search nor its report may
    # read it as a tree
    t = Prefix("a", Var("x"))
    for _ in range(200):
        t = Par(t, t)
    goal = Equation("shared", t, Var("x"))
    e0 = build_system("E0", A)
    res = search_model(A, 3, e0, goal)
    assert (res.status, res.nodes) == ("found", 11)
    report = independence_report(res.model, e0, goal)
    assert report["independent"]
    shown = f"<term of size {3 * 2**200 - 1}>"
    assert (report["goal"]["lhs"], report["goal"]["rhs"]) == (shown, "x")
    assert repr(t) == shown


def test_only_terms_touches_the_node_caches():
    # every per-node result goes through terms.cached, so no other module
    # may keep a memo of its own on the nodes
    src = Path(__file__).resolve().parent.parent / "src" / "bccsp"
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        if path.name != "terms.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if ".cache()" in line or "._cache" in line
    ]
    assert offenders == []


def _self_calling(source: str, module: str) -> set:
    """Qualified names (module.outer.inner) of the functions in the source
    that call themselves by name, or as self.name / cls.name in a method."""
    found = set()

    def calls_itself(fn) -> bool:
        todo = list(fn.body)
        while todo:
            n = todo.pop()
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue  # a nested scope's calls are its own
            if isinstance(n, ast.Call):
                f = n.func
                if isinstance(f, ast.Name) and f.id == fn.name:
                    return True
                if (
                    isinstance(f, ast.Attribute)
                    and f.attr == fn.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")
                ):
                    return True
            todo.extend(ast.iter_child_nodes(n))
        return False

    todo = [(ast.parse(source), module)]
    while todo:
        node, name = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{name}.{child.name}"
                if not isinstance(child, ast.ClassDef) and calls_itself(child):
                    found.add(qual)
                todo.append((child, qual))
            else:
                todo.append((child, name))
    return found


def test_recursion_is_pinned():
    """The functions in src/bccsp that call themselves directly, pinned so
    that a new one fails here: recursion costs a call frame per level, which
    deep terms do not leave. The check sees only direct self-calls, not
    mutual recursion through other functions."""
    sample = (
        "def f(n):\n    def g():\n        return g()\n    return f(n - 1)\n"
        "class C:\n    def h(self):\n        return self.h()\n"
    )
    assert _self_calling(sample, "m") == {"m.f", "m.f.g", "m.C.h"}
    src = Path(__file__).resolve().parent.parent / "src" / "bccsp"
    found = set().union(*(_self_calling(p.read_text(), p.stem) for p in src.glob("*.py")))
    assert not any(name.startswith(("models.", "equivalences.")) for name in found)
    assert found <= {
        "derivations._derive_absorb",
        "derivations._derive_merge",
    }
