"""Tests of the benchmark's reference oracle and input generators on cases
worked out by hand.

    python3 -m pytest -q bench/test_oracle.py
"""

import json
from pathlib import Path

import gen
import layers
import oracle
from oracle import NIL, Oracle

ABC = ("a", "b", "c")
SYNC = ("a", "a'", "tau")


def t(text, actions=ABC):
    return oracle.from_text(text, actions)


def test_reader_handles_the_concrete_syntax():
    assert t("0") == NIL
    assert t("a") == ("p", "a", NIL)
    assert t("a.(b + c)") == ("p", "a", ("+", ("p", "b", NIL), ("p", "c", NIL)))
    assert t("a || b || c") == ("|", ("|", ("p", "a", NIL), ("p", "b", NIL)), ("p", "c", NIL))
    assert t("a.x + y") == ("+", ("p", "a", ("v", "x")), ("v", "y"))
    assert t("a'.tau.0", SYNC) == ("p", "a'", ("p", "tau", NIL))


def test_prefix_over_choice_is_trace_and_completed_trace_equal_but_not_bisimilar():
    o = Oracle()
    p, q = t("a.(b + c)"), t("a.b + a.c")
    assert o.traces(p) == o.traces(q) == {(), ("a",), ("a", "b"), ("a", "c")}
    assert o.completed_traces(p) == o.completed_traces(q) == {("a", "b"), ("a", "c")}
    assert not o.bisimilar(p, q)


def test_completed_traces_see_the_deadlock():
    o = Oracle()
    p, q = t("a.b + a"), t("a.b")
    assert o.trace_eq(p, q)
    assert o.completed_traces(p) == {("a", "b"), ("a",)}
    assert not o.ct_eq(p, q)


def test_interleaving_is_the_expansion():
    o = Oracle()
    assert o.bisimilar(t("a || b"), t("a.b + b.a"))
    assert o.bisimilar(t("a.(b + b)"), t("a.b"))
    assert o.traces(t("a || b")) == {(), ("a",), ("b",), ("a", "b"), ("b", "a")}


def test_sync_mode_adds_the_communication():
    p = t("a || a'", SYNC)
    assert Oracle(sync=True).succ(p) == {
        ("a", ("|", NIL, ("p", "a'", NIL))),
        ("a'", ("|", ("p", "a", NIL), NIL)),
        ("tau", ("|", NIL, NIL)),
    }
    q = t("a.a' + a'.a + tau", SYNC)
    assert Oracle(sync=True).bisimilar(p, q)
    assert not Oracle(sync=False).bisimilar(p, q)
    assert not Oracle(sync=False).trace_eq(p, q)


def test_bisimilarity_separates_branching():
    o = Oracle()
    assert not o.bisimilar(t("a.(b + c) + a.b"), t("a.(b + c)"))
    assert o.bisimilar(t("a.(b + c) + a.(c + b)"), t("a.(b + c)"))


def test_model_evaluation_over_all_valuations():
    # two elements; + and || are max, every prefix jumps to 1
    m = {"carrier": 2, "zero": 0, "prefix": {"a": [1, 1]}, "plus": [[0, 1], [1, 1]], "par": [[0, 1], [1, 1]]}
    x, y = ("v", "x"), ("v", "y")
    assert oracle.model_eval(m, t("a.0 + 0"), {}) == 1
    assert oracle.model_satisfies(m, ("+", x, y), ("+", y, x))
    assert oracle.model_satisfies(m, ("|", x, NIL), x)
    assert not oracle.model_satisfies(m, ("p", "a", x), x)


def test_substitution_and_variables():
    e = t("a.x + (y || x)")
    assert oracle.variables(e) == {"x", "y"}
    assert oracle.substitute(e, {"x": NIL}) == t("a.0 + (y || 0)")


def test_generated_variants_keep_their_promises():
    for seed in range(20):
        rng = gen.rng_for(seed, "test")
        p = gen.parallel_term(rng, gen.PLAIN_LABELS, 3, 2, 2)
        assert Oracle().bisimilar(p, gen.rearrange(rng, p))
        assert Oracle().trace_eq(p, gen.distribute(rng, p))
        assert oracle.from_text(gen.to_text(p), gen.PLAIN_LABELS) == p


def test_benchmark_file_lists_every_per_layer_metric():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert listed == [(n, u, b) for n, u, b, _how in layers.PER_LAYER]
