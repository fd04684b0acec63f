import json
from pathlib import Path

import pytest
from hypothesis import given

from bccsp.terms import (
    Alphabet,
    Nil,
    Par,
    ParseError,
    Prefix,
    Sum,
    Var,
    depth,
    free_vars,
    is_nil_term,
    make_alphabet,
    norm,
    parse,
    render,
    size,
    strip_nil,
    substitute,
    subterm_at,
    sum_of,
    summands,
)

from conftest import all_terms, closed_terms, open_terms

A = make_alphabet(("a", "b"))
A3 = make_alphabet(("a", "b", "c"))


def test_interning_gives_identity():
    assert Prefix("a", Nil()) is Prefix("a", Nil())
    assert Sum(Var("x"), Nil()) is Sum(Var("x"), Nil())
    assert Par(Nil(), Nil()) is not Sum(Nil(), Nil())


@pytest.mark.parametrize(
    "cls, args, error, message",
    [
        (Prefix, ("a", []), TypeError, "prefix body must be a Term"),
        (Prefix, ("a", None), TypeError, "prefix body must be a Term"),
        (Prefix, ("a", "0"), TypeError, "prefix body must be a Term"),
        (Prefix, ("a", {}), TypeError, "prefix body must be a Term"),
        (Prefix, ("", Nil()), ValueError, "action must be a non-empty string"),
        (Prefix, (1, Nil()), ValueError, "action must be a non-empty string"),
        (Prefix, ([], Nil()), ValueError, "action must be a non-empty string"),
        (Prefix, (["a"], Nil()), ValueError, "action must be a non-empty string"),
        (Prefix, (b"a", Nil()), ValueError, "action must be a non-empty string"),
        (Prefix, ("", []), ValueError, "action must be a non-empty string"),
        (Sum, (1, Nil()), TypeError, "sum arguments must be Terms"),
        (Sum, (Nil(), []), TypeError, "sum arguments must be Terms"),
        (Sum, ("a", Nil()), TypeError, "sum arguments must be Terms"),
        (Par, (Nil(), 1), TypeError, "par arguments must be Terms"),
        (Par, ([], Nil()), TypeError, "par arguments must be Terms"),
        (Par, (Nil(), {}), TypeError, "par arguments must be Terms"),
        (Var, ("",), ValueError, "variable name must be a non-empty string"),
        (Var, (None,), ValueError, "variable name must be a non-empty string"),
        (Var, (1,), ValueError, "variable name must be a non-empty string"),
        (Var, ([],), ValueError, "variable name must be a non-empty string"),
        (Var, (["x"],), ValueError, "variable name must be a non-empty string"),
        (Var, (b"x",), ValueError, "variable name must be a non-empty string"),
    ],
)
def test_constructors_reject_invalid_arguments(cls, args, error, message):
    # unhashable arguments too: they miss the pool and reach the checks
    with pytest.raises(error) as info:
        cls(*args)
    assert type(info.value) is error and str(info.value) == message


# Texts with the node each denotes (as its rendering) or the error each
# raises, recorded with the character-level parser that the token loop
# replaced: the texts the test suite parses, the goals of the derivation
# fixtures, the benchmark's spectrum pool at seed 1, 2,000 random terms
# rendered with random whitespace where it is allowed, one random
# single-character edit of each, and hand-picked malformed texts.
CORPUS = json.loads((Path(__file__).parent / "data" / "parse_corpus.json").read_text())
CORPUS_ALPHABETS = [
    Alphabet(tuple(actions), sync, tuple(map(tuple, complements)), tau)
    for actions, sync, complements, tau in CORPUS["alphabets"]
]


def test_parse_gives_the_recorded_node_on_the_corpus():
    assert len(CORPUS["accepted"]) > 3000
    for i, text, rendering in CORPUS["accepted"]:
        alpha = CORPUS_ALPHABETS[i]
        t = parse(text, alpha)
        assert render(t) == rendering, text
        assert parse(rendering, alpha) is t


def test_parse_raises_the_recorded_error_on_the_corpus():
    assert len(CORPUS["rejected"]) > 1000
    for i, text, message, position in CORPUS["rejected"]:
        with pytest.raises(ParseError) as info:
            parse(text, CORPUS_ALPHABETS[i])
        assert (str(info.value), info.value.position) == (message, position), text


def test_parse_takes_deep_chains_and_nesting():
    t = parse("a." * 2000 + "0", A)
    assert depth(t) == 2000 and size(t) == 2001
    assert parse("(" * 2000 + "a.(b" + ")" * 2001, A) is Prefix("a", Prefix("b", Nil()))
    with pytest.raises(ParseError) as info:
        parse("(" * 2000 + "a" + ")" * 1999, A)
    assert info.value.position == 4000 and "expected ')'" in str(info.value)


def test_parse_precedence():
    t = parse("a.b + c || a", A3)
    assert isinstance(t, Sum)
    assert isinstance(t.right, Par)
    assert render(t) == "a.b.0 + c.0 || a.0"


def test_parse_prefix_right_nested():
    t = parse("a.b.c", A3)
    assert t is Prefix("a", Prefix("b", Prefix("c", Nil())))


def test_parse_bare_action_is_prefix_of_nil():
    assert parse("a", A) is Prefix("a", Nil())


def test_parse_rejects_unknown_action():
    with pytest.raises(ParseError):
        parse("d.0", A)


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse("a.0 )", A)


@given(open_terms)
def test_render_parse_round_trip(t):
    assert parse(render(t), A) is t


def test_size_counts_every_operator():
    assert size(parse("0", A)) == 1
    assert size(parse("a.0", A)) == 2
    assert size(parse("a.0 + 0", A)) == 4
    assert size(parse("(a + b) || 0", A)) == 7


def test_depth_and_norm():
    t = parse("b.a + b.b.a", A)
    assert depth(t) == 3
    assert norm(t) == 2
    assert norm(parse("0", A)) == 0
    assert norm(Var("x")) == 0
    # parallel adds norms and depths
    u = parse("a.a || b", A)
    assert norm(u) == 3
    assert depth(u) == 3
    assert depth(Par(t, t)) == 6


def test_free_vars_and_substitute():
    t = parse("a.x + y || x", A)
    assert free_vars(t) == {"x", "y"}
    s = substitute(t, {"x": parse("b.0", A)})
    assert render(s) == "a.b.0 + y || b.0"
    assert free_vars(s) == {"y"}


def test_summands_sorted_and_keep_duplicates():
    t = parse("b.0 + a.0 + a.0 + 0", A)
    ss = summands(t)
    assert [render(s) for s in ss] == ["a.0", "a.0", "b.0"]
    assert summands(parse("a.0", A)) == [parse("a.0", A)]


def test_sum_of_left_assoc_and_empty():
    assert sum_of([]) is Nil()
    t = sum_of([parse("a", A), parse("b", A), Nil()])
    assert render(t) == "a.0 + b.0 + 0"
    assert isinstance(t, Sum) and isinstance(t.left, Sum)


def test_is_nil_term():
    assert is_nil_term(parse("0 + 0 || 0", A))
    assert not is_nil_term(parse("a.0", A))
    assert not is_nil_term(Var("x"))


def test_strip_nil_examples():
    assert strip_nil(parse("a.0 + 0", A)) is parse("a.0", A)
    assert strip_nil(parse("(0 + 0) || b.0", A)) is parse("b.0", A)
    assert strip_nil(parse("a.(0 + b.0)", A)) is parse("a.b.0", A)
    assert strip_nil(parse("0 || 0", A)) is Nil()


@given(open_terms)
def test_strip_nil_idempotent(t):
    assert strip_nil(strip_nil(t)) is strip_nil(t)


@given(open_terms)
def test_strip_nil_clean(t):
    # no redundant 0 summand or factor survives except a lone 0
    def clean(u):
        if isinstance(u, (Sum, Par)):
            return (
                not is_nil_term(u.left)
                and not is_nil_term(u.right)
                and clean(u.left)
                and clean(u.right)
            )
        if isinstance(u, Prefix):
            return clean(u.body)
        return True

    assert clean(strip_nil(t))


def test_subterm_at():
    t = parse("a.(b + c) || a", A3)
    assert subterm_at(t, (0, 0, 1)) is parse("c", A3)
    assert subterm_at(t, ()) is t
    with pytest.raises(IndexError):
        subterm_at(t, (2,))


def test_all_terms_counts():
    assert len(all_terms(A, 5)) == 101
    assert len(all_terms(A, 7)) == 1437


def test_all_terms_distinct_and_bounded():
    ts = all_terms(A, 5, variables=("x",))
    assert len(set(map(id, ts))) == len(ts)
    assert all(size(t) <= 5 for t in ts)
    assert Var("x") in ts
