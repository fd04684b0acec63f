"""Term syntax for finite processes: 0, variables, action prefix, choice, parallel.

Terms are immutable and hash-consed. Building the same shape twice yields the
same object, so syntactic equality is identity and terms can be used as dict
keys at no cost. Every per-node analysis result (metrics, free variables,
rendered text, transition sets, observation sets, normal forms) is cached
on the node itself and dies with it, and every one goes through `cached`:
a miss fills the entries of the node's missing successors from an explicit
stack, successors first, so a deep term or a long derivation costs heap,
not Python call frames. A verdict on a pair of nodes goes through the pair
form `cached_pair` and lives on the younger node, the one interned later,
so no node holds alive a node interned after it. The pool holds nodes
weakly, so a node and its entries live while a caller holds the node: a
sweep that reuses entries across steps holds those nodes in a local list.
Each constructor looks its shape up in the pool first and returns a live
node as it is; only a miss checks the arguments and makes the node. `parse`
reads the tokens of one regular expression in one loop.
"""

from __future__ import annotations

import itertools
import re
import weakref
from dataclasses import dataclass

__all__ = [
    "Term",
    "Nil",
    "Var",
    "Prefix",
    "Sum",
    "Par",
    "Alphabet",
    "make_alphabet",
    "ParseError",
    "parse",
    "render",
    "children",
    "operands",
    "postorder",
    "cached",
    "cached_pair",
    "size",
    "depth",
    "norm",
    "free_vars",
    "actions_of",
    "substitute",
    "summands",
    "sum_leaves",
    "sum_of",
    "is_nil_term",
    "strip_nil",
    "subterm_at",
]

_pool: "dict[tuple, weakref.KeyedRef]" = {}  # live nodes by shape, as weak references
_serials = itertools.count()
_SELF = object()  # the cache entry of a node that is its own result


class Term:
    """Base class. Do not instantiate directly."""

    __slots__ = ("__weakref__", "_cache", "_serial")

    def cache(self) -> dict:
        """The node's per-node results by key; `cached` fills it."""
        return self._cache

    def __repr__(self) -> str:
        return _show(self)

    # Identity equality and hash, inherited from object: hash-consing makes
    # structural equality coincide with identity.


def _intern(cls, key):
    """A new node of cls pooled under key, where no node lives; the caller sets its fields."""
    t = object.__new__(cls)
    t._cache = {}
    t._serial = next(_serials)
    _pool[key] = weakref.KeyedRef(t, _unpool, key)
    return t


def _pooled(key):
    """The live node pooled under key, or None."""
    ref = _pool.get(key)
    return None if ref is None else ref()


def _unpool(ref, pool=_pool):
    if pool.get(ref.key) is ref:
        del pool[ref.key]


class Nil(Term):
    """The deadlocked process 0."""

    __slots__ = ()

    def __new__(cls):
        ref = _pool.get((cls,))
        t = None if ref is None else ref()
        return _intern(cls, (cls,)) if t is None else t


class Var(Term):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        try:
            ref = _pool.get(key)
        except TypeError:  # an unhashable argument, never pooled: checked below
            ref = None
        t = None if ref is None else ref()
        if t is None:
            if not name or not isinstance(name, str):
                raise ValueError("variable name must be a non-empty string")
            t = _intern(cls, key)
            t.name = name
        return t


class Prefix(Term):
    __slots__ = ("action", "body")

    def __new__(cls, action: str, body: Term):
        key = (cls, action, body)
        try:
            ref = _pool.get(key)
        except TypeError:  # an unhashable argument, never pooled: checked below
            ref = None
        t = None if ref is None else ref()
        if t is None:
            if not action or not isinstance(action, str):
                raise ValueError("action must be a non-empty string")
            if not isinstance(body, Term):
                raise TypeError("prefix body must be a Term")
            t = _intern(cls, key)
            t.action, t.body = action, body
        return t


class _Binary(Term):
    """A sum or a parallel composition."""

    __slots__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        key = (cls, left, right)
        try:
            ref = _pool.get(key)
        except TypeError:  # an unhashable argument, never pooled: checked below
            ref = None
        t = None if ref is None else ref()
        if t is None:
            if not isinstance(left, Term) or not isinstance(right, Term):
                raise TypeError(f"{cls.__name__.lower()} arguments must be Terms")
            t = _intern(cls, key)
            t.left, t.right = left, right
        return t


class Sum(_Binary):
    __slots__ = ()


class Par(_Binary):
    __slots__ = ()


def children(t: Term) -> tuple:
    """The immediate subterms: a prefix's body, both sides of a sum or a
    parallel composition, none for 0 and variables."""
    if isinstance(t, Prefix):
        return (t.body,)
    if isinstance(t, (Sum, Par)):
        return (t.left, t.right)
    return ()


def postorder(t: Term, known=lambda u: False) -> list:
    """The distinct nodes of t, each listed after its children, leaving out
    every node for which known(node) holds and, unless reached another way,
    the nodes below it. The walk keeps its own stack, so the depth of t
    costs no call frames."""
    order, seen, stack = [], set(), [(t, False)]
    while stack:
        u, expanded = stack.pop()
        if expanded:
            order.append(u)
        elif u not in seen and not known(u):
            seen.add(u)
            stack.append((u, True))
            stack.extend((k, False) for k in reversed(children(u)))
    return order


def operands(t: Term, *_args) -> tuple:
    """Both sides of a sum or a parallel composition, none for other nodes;
    the further arguments of a `cached` analysis are ignored."""
    if isinstance(t, (Sum, Par)):
        return (t.left, t.right)
    return ()


def cached(t: Term, key, compute, succ, *args):
    """The entry of t under key: looked up on the node, or else computed as
    compute(t, *args) and stored there. compute may read the entries of the
    nodes succ(t, *args) lists and of no other node; succ is None when it
    reads none. On a miss the missing entries below t are filled first, each
    node after its successors, from an explicit stack, so any depth of term
    or derivation costs a constant number of call frames. compute never
    returns None, which marks a miss. An entry that is its node is stored
    as _SELF, so no node in normal form closes a reference cycle."""
    got = t._cache.get(key)
    if got is not None:
        return t if got is _SELF else got
    kids = () if succ is None else succ(t, *args)
    path = [(t, iter(kids))]
    while path:
        u, todo = path[-1]
        for v in todo:
            if key not in v._cache:
                path.append((v, iter(succ(v, *args))))
                break
        else:
            path.pop()
            got = compute(u, *args)
            u._cache[key] = _SELF if got is u else got
    return got


def cached_pair(key, s: Term, t: Term, rule, *args):
    """The verdict under key on the ordered pair (s, t): looked up, or else
    decided by the generator rule(key, s, t, *args), which yields each
    (key2, u, v) whose verdict it needs, is sent it, and returns its own,
    never None. Needs must be well founded. Waiting rules sit on an explicit
    stack, and a verdict is stored on the younger node of its pair, keyed by
    key, the older node and the direction."""
    stack, need, sent = [], (key, s, t), None
    while True:
        if need is not None:
            rel, u, v = need
            if u._serial > v._serial:
                c, k = u._cache, (rel, v, False)
            else:
                c, k = v._cache, (rel, u, True)
            sent = c.get(k)
            if sent is None:
                stack.append((c, k, rule(*need, *args)))
        if not stack:
            return sent
        c, k, gen = stack[-1]
        try:
            need = gen.send(sent)
        except StopIteration as done:
            stack.pop()
            sent = c[k] = done.value
            need = None


# ---------------------------------------------------------------------------
# Alphabets


@dataclass(frozen=True)
class Alphabet:
    """A finite, non-empty action set.

    In sync mode the set is closed under a complementation bijection and a
    distinguished silent action (outside the set proper) is available for
    communication results. The hash is computed once: alphabets sit in the
    keys of cache lookups. Equality stays field-wise.
    """

    actions: tuple[str, ...]
    sync_mode: bool = False
    complements: tuple[tuple[str, str], ...] = ()
    tau: str | None = None

    def __post_init__(self):
        if not self.actions:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.actions)) != len(self.actions):
            raise ValueError("alphabet has duplicate actions")
        if self.sync_mode:
            if self.tau is None:
                raise ValueError("sync alphabet needs a silent action name")
            if self.tau in self.actions:
                raise ValueError("the silent action cannot be an alphabet member")
            comp = dict(self.complements)
            if set(comp) != set(self.actions):
                raise ValueError("complement map must cover the whole alphabet")
            for a, b in comp.items():
                if a == b:
                    raise ValueError("an action cannot be its own complement")
                if comp.get(b) != a:
                    raise ValueError("complement map must be an involution")
        else:
            if self.complements or self.tau is not None:
                raise ValueError("complements and tau require sync mode")
        object.__setattr__(
            self, "_hash", hash((self.actions, self.sync_mode, self.complements, self.tau))
        )

    def __hash__(self) -> int:
        return self._hash

    def complement(self, a: str) -> str:
        for x, y in self.complements:
            if x == a:
                return y
        raise KeyError(a)

    def transition_labels(self) -> tuple[str, ...]:
        """All labels a transition can carry: the actions, plus tau in sync mode."""
        if self.sync_mode:
            return self.actions + (self.tau,)
        return self.actions

    def has_action(self, a: str) -> bool:
        return a in self.actions or (self.sync_mode and a == self.tau)


def make_alphabet(names, sync: bool = False) -> Alphabet:
    """Build an alphabet from base action names.

    Plain mode: the actions are the names as given. Sync mode: every base name
    n contributes the pair n, n' with each the complement of the other, and
    "tau" is the silent action.
    """
    names = tuple(names)
    if sync:
        actions = []
        comp = []
        for n in names:
            if n.endswith("'"):
                raise ValueError("base names must not carry a complement mark")
            if n == "tau":
                raise ValueError("'tau' is reserved for the silent action")
            actions.extend((n, n + "'"))
            comp.extend(((n, n + "'"), (n + "'", n)))
        return Alphabet(tuple(actions), True, tuple(comp), "tau")
    return Alphabet(names)


# ---------------------------------------------------------------------------
# Parsing

# A token after optional whitespace: an identifier with the '.' right after
# it, if any, or '||', or any other single character.
_TOKEN = re.compile(r"[ \t\n]*(([A-Za-z_][A-Za-z0-9_]*'*)(\.?)|\|\||[^ \t\n])")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _fail(text: str, k: int, message: str):
    """Raise ParseError at token k of text, or at its end if it has fewer."""
    m = next(itertools.islice(_TOKEN.finditer(text), k, None), None)
    raise ParseError(message, len(text) if m is None else m.start(1))


def parse(text: str, alphabet: Alphabet) -> Term:
    """The term text writes: a sum of parallel compositions of prefixed
    items, + binding loosest and both operators associating to the left.
    An item is 0, an action (a prefix of 0), a variable or a parenthesised
    term. Whitespace is ' ', tab and newline, allowed between tokens but not
    before a prefix's '.'. One loop reads the tokens; a parenthesised group
    keeps its enclosing group's partial sum, partial composition and pending
    prefixes on an explicit stack, so nesting costs heap, not call frames."""
    labels, sync = alphabet.transition_labels(), alphabet.sync_mode
    groups = []  # (sum, composition, prefixes) of each enclosing group
    total = par = None
    actions = []
    item = True  # whether an item comes next, else an operator or ')'
    tokens = _TOKEN.findall(text)
    for k, (tok, name, dot) in enumerate(tokens):
        if item:
            if name:
                if name == "tau" and not sync:
                    _fail(text, k, "'tau' is only an action in sync mode")
                if name in labels:
                    if dot:
                        actions.append(name)
                        continue
                    t = Prefix(name, Nil())  # bare action shorthand
                elif dot or "'" in name:
                    _fail(text, k, f"unknown action {name!r}")
                else:
                    t = Var(name)
            elif tok == "0":
                t = Nil()
            elif tok == "(":
                groups.append((total, par, actions))
                total = par = None
                actions = []
                continue
            else:
                _fail(text, k, "expected a term")
        elif tok == "||":
            item = True
            continue
        elif tok == "+":
            total = par if total is None else Sum(total, par)
            par = None
            item = True
            continue
        elif tok == ")" and groups:
            t = par if total is None else Sum(total, par)
            total, par, actions = groups.pop()
        elif tok == "|":
            _fail(text, k, "parallel composition is written '||'")
        else:
            _fail(text, k, "expected ')'" if groups else "trailing input")
        for a in reversed(actions):
            t = Prefix(a, t)
        actions.clear()
        par = t if par is None else Par(par, t)
        item = False
    if item or groups:
        _fail(text, len(tokens), "expected a term" if item else "expected ')'")
    return par if total is None else Sum(total, par)


# ---------------------------------------------------------------------------
# Rendering

# precedence: prefix body needs parens around + and ||; || needs parens
# around +; + never needs parens


def render(t: Term) -> str:
    return cached(t, "render", _render, children)


def _render(t: Term) -> str:
    if isinstance(t, Nil):
        return "0"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Prefix):
        body = render(t.body)
        if isinstance(t.body, (Sum, Par)):
            body = f"({body})"
        return f"{t.action}.{body}"
    if isinstance(t, Sum):
        left = render(t.left)
        right = render(t.right)
        if isinstance(t.right, Sum):
            right = f"({right})"
        return f"{left} + {right}"
    if isinstance(t, Par):
        left = render(t.left)
        right = render(t.right)
        if isinstance(t.left, Sum):
            left = f"({left})"
        if isinstance(t.right, (Sum, Par)):
            right = f"({right})"
        return f"{left} || {right}"
    raise TypeError(f"not a term: {t!r}")


_SHOWN_SIZE = 60  # largest term a message or report writes out


def _show(t: Term) -> str:
    """t's text for a message or a report, or its size when the text would
    be too long: a term's tree can be exponentially larger than its DAG."""
    n = size(t)
    return render(t) if n <= _SHOWN_SIZE else f"<term of size {n}>"


# ---------------------------------------------------------------------------
# Metrics


def _metrics(t: Term) -> tuple[int, int, int]:
    """(size, depth, norm) computed once per node."""
    return cached(t, "metrics", _metrics_of, children)


def _metrics_of(t: Term) -> tuple[int, int, int]:
    if isinstance(t, (Nil, Var)):
        return (1, 0, 0)
    if isinstance(t, Prefix):
        s, d, n = _metrics(t.body)
        return (s + 1, d + 1, n + 1)
    ls, ld, ln = _metrics(t.left)
    rs, rd, rn = _metrics(t.right)
    if isinstance(t, Sum):
        return (ls + rs + 1, max(ld, rd), min(ln, rn))
    return (ls + rs + 1, ld + rd, ln + rn)


def size(t: Term) -> int:
    """Number of operator occurrences, counting 0 and variables."""
    return _metrics(t)[0]


def depth(t: Term) -> int:
    """Length of a longest action sequence the term can perform."""
    return _metrics(t)[1]


def norm(t: Term) -> int:
    """Length of a shortest complete action sequence."""
    return _metrics(t)[2]


def free_vars(t: Term) -> frozenset:
    return cached(t, "fv", _free_vars, children)


def _free_vars(t: Term) -> frozenset:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Nil):
        return frozenset()
    if isinstance(t, Prefix):
        return free_vars(t.body)
    return free_vars(t.left) | free_vars(t.right)


def actions_of(t: Term) -> frozenset:
    """All action names occurring in prefixes of t."""
    return cached(t, "acts", _actions_of, children)


def _actions_of(t: Term) -> frozenset:
    if isinstance(t, (Nil, Var)):
        return frozenset()
    if isinstance(t, Prefix):
        return actions_of(t.body) | {t.action}
    return actions_of(t.left) | actions_of(t.right)


# ---------------------------------------------------------------------------
# Substitution


def substitute(t: Term, mapping: dict) -> Term:
    """Simultaneously replace variables by terms. Keys are variable names.
    Each distinct node with a replaced variable below it is rebuilt once,
    after its children, from an explicit stack, so depth costs heap, not
    call frames. free_vars(t) fills the entry of every node below t."""
    keys = frozenset(mapping)
    if keys.isdisjoint(free_vars(t)):
        return t
    memo, stack = {}, [t]
    while stack:
        u = stack.pop()
        if u is None:  # the children of the node below are done
            u = stack.pop()
            if type(u) is Prefix:
                memo[u] = Prefix(u.action, memo.get(u.body, u.body))
            else:
                memo[u] = type(u)(memo.get(u.left, u.left), memo.get(u.right, u.right))
        elif type(u) is Var:
            memo[u] = mapping[u.name]
        elif u not in memo:
            stack.append(u)
            stack.append(None)
            if type(u) is Prefix:
                if not keys.isdisjoint(u.body._cache["fv"]):
                    stack.append(u.body)
            else:
                if not keys.isdisjoint(u.right._cache["fv"]):
                    stack.append(u.right)
                if not keys.isdisjoint(u.left._cache["fv"]):
                    stack.append(u.left)
    r = memo[t]
    if not isinstance(r, Term):  # the constructors check the values below t
        raise TypeError("substitution values must be Terms")
    return r


# ---------------------------------------------------------------------------
# Sum-of-summands views


def summands(t: Term) -> list:
    """The summand list of t, read modulo associativity and commutativity of
    + with syntactic 0 summands dropped.

    Nested sums are flattened, leaves sorted by their rendered text, and
    duplicates kept. No returned term has Sum at the head. The list is empty
    exactly when t is a 0, or a sum tree all of whose leaves are 0.
    """
    leaves = [u for u in sum_leaves(t) if not isinstance(u, Nil)]
    leaves.sort(key=render)
    return leaves


def sum_leaves(t: Term) -> list:
    """The maximal subterms of t that are not sums, left to right, with
    repeats: [t] itself unless t is a sum. The walk keeps its own stack, so
    a long chain of sums costs no call frames."""
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Sum):
            stack += (u.right, u.left)
        else:
            out.append(u)
    return out


def sum_of(ts) -> Term:
    """Left-associated sum of the given terms; 0 for the empty list."""
    ts = list(ts)
    if not ts:
        return Nil()
    acc = ts[0]
    for u in ts[1:]:
        acc = Sum(acc, u)
    return acc


# ---------------------------------------------------------------------------
# 0 factors and summands


def is_nil_term(t: Term) -> bool:
    """True for terms built from 0 with + and || only (no prefix, no variable).

    These are exactly the terms with no transitions and no variables, and they
    are all equal to 0 in every semantics considered here. Cached per node
    over the operands of + and ||; a prefix's body is never looked at.
    """
    return cached(t, "nil", _is_nil_term, operands)


def _is_nil_term(t: Term) -> bool:
    if isinstance(t, (Sum, Par)):
        return is_nil_term(t.left) and is_nil_term(t.right)
    return isinstance(t, Nil)


def strip_nil(t: Term) -> Term:
    """Remove redundant 0 summands and 0 factors, recursively.

    The result has no subterm u + v or u || v with u or v a pure 0 term,
    unless the whole term collapses to 0. Prefix bodies are rewritten too.
    """
    return cached(t, "strip", _strip_nil, children)


def _strip_nil(t: Term) -> Term:
    if isinstance(t, (Nil, Var)):
        return t
    if isinstance(t, Prefix):
        return Prefix(t.action, strip_nil(t.body))
    if is_nil_term(t.left):
        return strip_nil(t.right)
    if is_nil_term(t.right):
        return strip_nil(t.left)
    return type(t)(strip_nil(t.left), strip_nil(t.right))


# ---------------------------------------------------------------------------
# Positions


def subterm_at(t: Term, path) -> Term:
    """The subterm at a root-relative path of child indices.

    Prefix has one child (index 0, the body); Sum and Par have children 0
    and 1.
    """
    for i in path:
        if isinstance(t, Prefix):
            if i != 0:
                raise IndexError(f"prefix has only child 0, got {i}")
            t = t.body
        elif isinstance(t, (Sum, Par)):
            if i == 0:
                t = t.left
            elif i == 1:
                t = t.right
            else:
                raise IndexError(f"binary node has children 0 and 1, got {i}")
        else:
            raise IndexError("path descends below a leaf")
    return t

