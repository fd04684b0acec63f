"""Deriving one system's axioms inside another.

Each function here builds, step by step, a proof that some axiom schema
instance follows from a smaller or different axiom system: the completed
simulation laws from the plain simulation ones, the completed trace laws
from the trace ones, the failure trace and ready simulation laws from the
failure law, and the ready trace schema from either the failure trace or the
readiness system (the latter two by induction on the width of the schema).

`derivation_hook` packages these as a ProofBuilder fallback, so rewriting
with, say, CSP1 inside the plain simulation system silently expands into the
SP1 derivation. `fixture_scripts` instantiates every family over a concrete
alphabet; the shipped data files are exactly its output. After a change to
how proofs are built or written, regenerate them from the root of a
checkout with

    PYTHONPATH=src python -c "from bccsp.derivations import main; main()"

(`python -m bccsp.derivations` runs this module a second time, after the
package import has loaded it, and Python warns about that.)
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .axioms import build_system
from .proofs import ProofBuilder, ProofScript, script_to_json
from .terms import Nil, Par, Prefix, Sum, Var, make_alphabet, sum_of

__all__ = [
    "derivation_hook",
    "derivable_ids",
    "fixture_scripts",
    "fixture_path",
    "write_fixtures",
    "FIXTURE_LEMMAS",
]

_X, _Y, _Z, _W, _U, _V = (Var(n) for n in "xyzwuv")


def _pfx(a, t):
    return Prefix(a, t)


class _Chain:
    """A left-to-right equational chain: ac glue and axiom applications,
    folded into one trans step at the end."""

    def __init__(self, b: ProofBuilder, start):
        self.b = b
        self.cur = start
        self.idxs = []

    def ac(self, target):
        if target is self.cur:
            return
        self.idxs.append(self.b.ac(self.cur, target))
        self.cur = target

    def eq_at(self, path, idx, direction="lr"):
        """Rewrite the subterm at path of the current term with a proven
        equation."""
        if direction == "rl":
            idx = self.b.sym(idx)
        idx = self.b.embed(self.cur, tuple(path), idx)
        self.idxs.append(idx)
        self.cur = self.b.conclusion(idx)[1]

    def axiom_at(self, path, axiom_id, sigma=None, direction="lr"):
        self.eq_at(path, self.b.axiom(axiom_id, sigma or {}, direction))

    def done(self) -> int:
        if not self.idxs:
            return self.b.refl(self.cur)
        return self.b.trans(self.idxs)


# ---------------------------------------------------------------------------
# From the simulation system


def derive_cs(b: ProofBuilder, a: str, c: str) -> int:
    """CS[a,c] from S: group the distinguished summand with the tail, apply
    the simulation law, and reorder."""
    bx = _pfx(c, _X)
    lhs = _pfx(a, sum_of([bx, _Y, _Z]))
    ch = _Chain(b, lhs)
    ch.ac(_pfx(a, Sum(Sum(bx, _Z), _Y)))
    ch.axiom_at((), f"S[{a}]", {"x": Sum(bx, _Z), "y": _Y})
    ch.ac(Sum(lhs, _pfx(a, Sum(bx, _Z))))
    return ch.done()


def derive_csp1(b: ProofBuilder, a: str, c: str, d: str, e: str) -> int:
    ax, by = _pfx(a, _X), _pfx(c, _Y)
    cz, dw = _pfx(d, _Z), _pfx(e, _W)
    left = sum_of([ax, by, _U])
    right = sum_of([cz, dw, _V])
    ch = _Chain(b, Par(left, right))
    gl = (Sum(ax, _U), Sum(by, _U))
    gr = (Sum(cz, _V), Sum(dw, _V))
    ch.ac(Par(Sum(*gl), Sum(*gr)))
    ch.axiom_at((), "SP1", {"x": gl[0], "y": gl[1], "z": gr[0], "w": gr[1]})
    ch.ac(
        sum_of(
            [
                Par(gl[0], right),
                Par(gl[1], right),
                Par(left, gr[0]),
                Par(left, gr[1]),
            ]
        )
    )
    return ch.done()


def derive_csp2(b: ProofBuilder, a: str, c: str, d: str) -> int:
    ax = _pfx(a, _X)
    by, cz = _pfx(c, _Y), _pfx(d, _Z)
    menu = sum_of([by, cz, _W])
    ch = _Chain(b, Par(ax, menu))
    yy, zz = Sum(by, _W), Sum(cz, _W)
    ch.ac(Par(ax, Sum(yy, zz)))
    ch.axiom_at((), f"SP2[{a}]", {"x": _X, "y": yy, "z": zz})
    ch.ac(sum_of([_pfx(a, Par(_X, menu)), Par(ax, yy), Par(ax, zz)]))
    return ch.done()


# ---------------------------------------------------------------------------
# From the trace system


def derive_ct(b: ProofBuilder, a: str, c: str, d: str) -> int:
    bx, cy = _pfx(c, _X), _pfx(d, _Y)
    lhs = Sum(_pfx(a, Sum(bx, _Z)), _pfx(a, Sum(cy, _W)))
    ch = _Chain(b, lhs)
    ch.axiom_at((), f"T[{a}]", {"x": Sum(bx, _Z), "y": Sum(cy, _W)})
    ch.ac(_pfx(a, sum_of([bx, cy, _Z, _W])))
    return ch.done()


def derive_ctp(b: ProofBuilder, a: str, c: str) -> int:
    ax, by = _pfx(a, _X), _pfx(c, _Y)
    lhs = Par(sum_of([ax, by, _W]), _Z)
    ch = _Chain(b, lhs)
    xx, yy = Sum(ax, _W), Sum(by, _W)
    ch.ac(Par(Sum(xx, yy), _Z))
    ch.axiom_at((), "TP", {"x": xx, "y": yy, "z": _Z})
    ch.ac(Sum(Par(xx, _Z), Par(yy, _Z)))
    return ch.done()


# ---------------------------------------------------------------------------
# From the failure system


def derive_ft(b: ProofBuilder, a: str) -> int:
    ax, ay = _pfx(a, _X), _pfx(a, _Y)
    lhs = Sum(ax, ay)
    ch = _Chain(b, lhs)
    ch.axiom_at((1, 0), "A0", {"x": _Y}, "rl")
    ch.axiom_at((), f"F[{a}]", {"x": _X, "y": _Y, "z": Nil()})
    ch.ac(Sum(lhs, _pfx(a, Sum(_X, _Y))))
    return ch.done()


def derive_rs_from_f(b: ProofBuilder, a: str, c: str) -> int:
    """RS[a,c] from the readiness law (present in the failure system): run
    the merge backwards from the padded right side."""
    bx, by = _pfx(c, _X), _pfx(c, _Y)
    lhs = _pfx(a, sum_of([bx, by, _Z]))
    rhs = Sum(lhs, _pfx(a, Sum(bx, _Z)))
    ch = _Chain(b, rhs)
    ch.ac(Sum(_pfx(a, Sum(bx, _Z)), _pfx(a, Sum(by, Sum(bx, _Z)))))
    ch.axiom_at((), f"R[{a},{c}]", {"x": _X, "y": _Y, "z": _Z, "w": Sum(bx, _Z)})
    ch.ac(lhs)
    return b.sym(ch.done())


# ---------------------------------------------------------------------------
# The ready trace schema, by induction on its width

# Sub-derivation: splitting one action pair under a prefix,
#   a(cx + cy + z) = a(cx + z) + a(cy + z),
# provable once both the failure trace law and RS are at hand.


def _derive_split(b: ProofBuilder, a: str, c: str) -> int:
    cx, cy = _pfx(c, _X), _pfx(c, _Y)
    l3 = _pfx(a, sum_of([cx, cy, _Z]))
    e1 = b.axiom(f"RS[{a},{c}]", {})
    # the mirror image, absorbing a(cy + z) instead
    l3s = _pfx(a, sum_of([cy, cx, _Z]))
    swap = _Chain(b, l3)
    swap.ac(l3s)
    swap.axiom_at((), f"RS[{a},{c}]", {"x": _Y, "y": _X})
    swap.ac(Sum(l3, _pfx(a, Sum(cy, _Z))))
    e2 = swap.done()

    s = Sum(_pfx(a, Sum(cx, _Z)), _pfx(a, Sum(cy, _Z)))
    ch = _Chain(b, s)
    ch.axiom_at((), f"FT[{a}]", {"x": Sum(cx, _Z), "y": Sum(cy, _Z)})
    ch.ac(Sum(Sum(l3, _pfx(a, Sum(cx, _Z))), _pfx(a, Sum(cy, _Z))))
    ch.eq_at((0,), e1, "rl")
    ch.eq_at((), e2, "rl")
    return b.sym(ch.done())


def _rt_shapes(a, bs, xs, ys, z):
    pairs = []
    for c, xv, yv in zip(bs, xs, ys):
        pairs.extend((_pfx(c, xv), _pfx(c, yv)))
    lhs = _pfx(a, sum_of(pairs + [z]))
    cx = _pfx(a, sum_of([_pfx(c, xv) for c, xv in zip(bs, xs)] + [z]))
    cy = _pfx(a, sum_of([_pfx(c, yv) for c, yv in zip(bs, ys)] + [z]))
    return lhs, cx, cy


def _derive_absorb(b: ProofBuilder, a: str, bs, xs, ys, splits: dict) -> int:
    """a(Σ(b_i x_i + b_i y_i) + z) = itself + a(Σ b_i x_i + z), by induction
    on the number of pairs. The base case is the RS axiom itself."""
    n = len(bs)
    if n == 1:
        return b.axiom(f"RS[{a},{bs[0]}]", {"x": xs[0], "y": ys[0], "z": _Z})
    head_bs, c = bs[:-1], bs[-1]
    head_xs, xv = xs[:-1], xs[-1]
    head_ys, yv = ys[:-1], ys[-1]
    lhs, proj_x, _ = _rt_shapes(a, bs, xs, ys, _Z)

    pairs_head = []
    for ci, xi, yi in zip(head_bs, head_xs, head_ys):
        pairs_head.extend((_pfx(ci, xi), _pfx(ci, yi)))
    big_z = sum_of(pairs_head + [_Z])

    split = splits[(a, c)]
    ch = _Chain(b, lhs)
    ch.ac(_pfx(a, sum_of([_pfx(c, xv), _pfx(c, yv), big_z])))
    sigma = {"x": xv, "y": yv, "z": big_z}
    ch.eq_at((), b.subst(split, sigma))
    a_part = _pfx(a, Sum(_pfx(c, xv), big_z))
    b_part = _pfx(a, Sum(_pfx(c, yv), big_z))
    # recurse on the first disjunct with the tail enlarged by c.x
    sub = _derive_absorb(b, a, head_bs, head_xs, head_ys, splits)
    sub_lhs, _, _ = _rt_shapes(a, head_bs, head_xs, head_ys, Sum(_pfx(c, xv), _Z))
    sub = b.subst(sub, {"z": Sum(_pfx(c, xv), _Z)})
    shaped = Sum(sub_lhs, b_part)
    ch.ac(shaped)
    ch.eq_at((0,), sub)
    grown = b.conclusion(sub)[1].right  # the absorbed x projection
    ch.ac(Sum(Sum(a_part, b_part), grown))
    # fold the two disjuncts back together
    refold = b.subst(split, sigma)
    ch.eq_at((0,), refold, "rl")
    ch.ac(Sum(lhs, proj_x))
    return ch.done()


def derive_rt_from_ft(b: ProofBuilder, a: str, bs) -> int:
    n = len(bs)
    xs = [Var(f"x{i + 1}") for i in range(n)]
    ys = [Var(f"y{i + 1}") for i in range(n)]
    splits = {(a, c): _derive_split(b, a, c) for c in dict.fromkeys(bs)}
    lhs, cx, cy = _rt_shapes(a, bs, xs, ys, _Z)

    absorb_x = _derive_absorb(b, a, bs, xs, ys, splits)
    absorb_y = _derive_absorb(b, a, bs, ys, xs, splits)
    lhs_yx = b.conclusion(absorb_y)[0]

    ch = _Chain(b, lhs)
    ch.eq_at((), absorb_x)
    ch.ac(Sum(lhs_yx, cx))
    ch.eq_at((0,), absorb_y)
    # absorb the original term into the two projections
    body_x = sum_of([_pfx(c, xv) for c, xv in zip(bs, xs)] + [_Z])
    body_y = sum_of([_pfx(c, yv) for c, yv in zip(bs, ys)] + [_Z])
    folded = _pfx(a, Sum(body_x, body_y))
    ch.ac(Sum(Sum(cx, cy), folded))
    ft = b.axiom(f"FT[{a}]", {"x": body_x, "y": body_y})
    ch.eq_at((), ft, "rl")
    ch.ac(Sum(cx, cy))
    return ch.done()


def _derive_merge(b: ProofBuilder, a: str, bs, xs, ys) -> int:
    """a(Σ b_i x_i + z) + a(Σ b_i y_i + w) = a(Σ(b_i x_i + b_i y_i) + z) +
    a(Σ b_i y_i + w), by induction on the width. Base case is the readiness
    law itself."""
    n = len(bs)
    if n == 1:
        return b.axiom(f"R[{a},{bs[0]}]", {"x": xs[0], "y": ys[0]})
    head_bs, c = bs[:-1], bs[-1]
    head_xs, xv = xs[:-1], xs[-1]
    head_ys, yv = ys[:-1], ys[-1]

    x_body = sum_of([_pfx(ci, xi) for ci, xi in zip(bs, xs)] + [_Z])
    y_body = sum_of([_pfx(ci, yi) for ci, yi in zip(bs, ys)] + [_W])
    start = Sum(_pfx(a, x_body), _pfx(a, y_body))

    xn = sum_of([_pfx(ci, xi) for ci, xi in zip(head_bs, head_xs)] + [_Z])
    yn = sum_of([_pfx(ci, yi) for ci, yi in zip(head_bs, head_ys)] + [_W])

    ch = _Chain(b, start)
    ch.ac(Sum(_pfx(a, Sum(_pfx(c, xv), xn)), _pfx(a, Sum(_pfx(c, yv), yn))))
    ch.axiom_at((), f"R[{a},{c}]", {"x": xv, "y": yv, "z": xn, "w": yn})

    sub = _derive_merge(b, a, head_bs, head_xs, head_ys)
    sigma = {"z": sum_of([_pfx(c, xv), _pfx(c, yv), _Z]), "w": Sum(_pfx(c, yv), _W)}
    sub = b.subst(sub, sigma)
    ch.ac(b.conclusion(sub)[0])
    ch.eq_at((), sub)

    pairs = []
    for ci, xi, yi in zip(bs, xs, ys):
        pairs.extend((_pfx(ci, xi), _pfx(ci, yi)))
    ch.ac(Sum(_pfx(a, sum_of(pairs + [_Z])), _pfx(a, y_body)))
    return ch.done()


def derive_rt_from_r(b: ProofBuilder, a: str, bs) -> int:
    n = len(bs)
    xs = [Var(f"x{i + 1}") for i in range(n)]
    ys = [Var(f"y{i + 1}") for i in range(n)]
    lhs, cx, cy = _rt_shapes(a, bs, xs, ys, _Z)

    merge_yx = _derive_merge(b, a, bs, ys, xs)
    merge_xy = _derive_merge(b, a, bs, xs, ys)

    ch = _Chain(b, lhs)
    ch.axiom_at((), "A3", {"x": lhs}, "rl")
    # duplicate, run the mirrored merge backwards to shed the y pairs from
    # one copy, then the plain merge backwards to shed them from the other
    inst_yx = b.subst(merge_yx, {"w": sum_of([_pfx(c, yv) for c, yv in zip(bs, ys)] + [_Z])})
    ch.ac(b.conclusion(inst_yx)[1])
    ch.eq_at((), inst_yx, "rl")
    inst_xy = b.subst(merge_xy, {"w": _Z})
    ch.ac(b.conclusion(inst_xy)[1])
    ch.eq_at((), inst_xy, "rl")
    ch.ac(Sum(cx, cy))
    return ch.done()


# ---------------------------------------------------------------------------
# Hook and fixtures

_ID_RE = re.compile(r"^([A-Za-z0-9]+)\[([^\]]*)\]$")


def derivable_ids(system_name: str) -> tuple:
    base = system_name[4:] if system_name.startswith("E^c_") else system_name[2:]
    return {
        "S": ("CS", "CSP1", "CSP2"),
        "T": ("CT", "CTP"),
        "F": ("FT", "RS"),
        "FT": ("RT",),
        "R": ("RT",),
    }.get(base, ())


def derivation_hook(system_name: str):
    """A ProofBuilder `derive` hook for the given system, or None if the
    system has nothing to derive."""
    allowed = derivable_ids(system_name)
    if not allowed:
        return None
    base = system_name[4:] if system_name.startswith("E^c_") else system_name[2:]

    def hook(builder: ProofBuilder, axiom_id: str):
        m = _ID_RE.match(axiom_id)
        if not m:
            return None
        schema, raw = m.groups()
        if schema not in allowed:
            return None
        if schema == "RT":
            head, tail = raw.split(";")
            args = [head] + [tail.split(",")]
        else:
            args = raw.split(",")
        if base == "S":
            fn = {"CS": derive_cs, "CSP1": derive_csp1, "CSP2": derive_csp2}[schema]
        elif base == "T":
            fn = {"CT": derive_ct, "CTP": derive_ctp}[schema]
        elif base == "F":
            fn = {"FT": derive_ft, "RS": derive_rs_from_f}[schema]
        elif base == "FT":
            fn = derive_rt_from_ft
        else:
            fn = derive_rt_from_r
        return fn(builder, *args)

    return hook


FIXTURE_LEMMAS = (
    ("E_S", "CS"),
    ("E_S", "CSP1"),
    ("E_S", "CSP2"),
    ("E_T", "CT"),
    ("E_T", "CTP"),
    ("E_F", "FT"),
    ("E_F", "RS"),
    ("E_FT", "RT"),
    ("E_R", "RT"),
)

_REFERENCE_SYSTEM = {
    "CS": "E_CS",
    "CSP1": "E_CS",
    "CSP2": "E_CS",
    "CT": "E_CT",
    "CTP": "E_CT",
    "FT": "E_FT",
    "RS": "E_RS",
    "RT": "E_RT",
}


def fixture_scripts(host_name: str, schema: str, alphabet=None) -> list:
    """All instances of one derived family over the alphabet, as
    (goal equation, ProofScript) pairs. Scripts are standalone: each proves
    its instance from the host system alone."""
    if alphabet is None:
        alphabet = make_alphabet(("a", "b"))
    host = build_system(host_name, alphabet)
    reference = build_system(_REFERENCE_SYSTEM[schema], alphabet)
    hook = derivation_hook(host_name)
    out = []
    for eq in reference.equations:
        if not eq.id.startswith(schema + "["):
            continue
        builder = ProofBuilder(host, derive=hook)
        idx = builder.axiom(eq.id)
        out.append((eq, builder.script(eq.lhs, eq.rhs, idx)))
    return out


def fixture_path(data_dir: Path, host_name: str, schema: str) -> Path:
    return Path(data_dir) / f"derived_{host_name}_{schema}.json"


def fixture_payload(host_name: str, schema: str) -> dict:
    scripts = fixture_scripts(host_name, schema)
    return {
        "system": host_name,
        "schema": schema,
        "alphabet": ["a", "b"],
        "scripts": [
            {"id": eq.id, **script_to_json(s, host_name)} for eq, s in scripts
        ],
    }


def write_fixtures(data_dir) -> list:
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for host, schema in FIXTURE_LEMMAS:
        payload = fixture_payload(host, schema)
        path = fixture_path(data_dir, host, schema)
        path.write_text(json.dumps(payload, indent=1) + "\n")
        written.append(path)
    return written


def main(argv=None):
    import sys

    args = sys.argv[1:] if argv is None else argv
    target = Path(args[0]) if args else Path(__file__).parent / "data"
    for p in write_fixtures(target):
        print(p)


if __name__ == "__main__":
    main()
