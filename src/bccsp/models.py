"""Finite algebras over the term signature.

A finite model interprets 0, the unary action prefixes, + and || as tables
over a carrier {0..n-1}. Equations are checked by brute quantification over
valuations, which is what makes the models usable as independence proofs: a
model satisfying every axiom of a system while refuting a goal equation shows
the goal is not derivable from the system.

Terms are read in one format, the node table (`_compile`): each distinct node
of an equation's sides is one row, and a row refers only to earlier rows. One
evaluator (`_evaluate`) runs a table over a slice of the row-major valuation
grid, a list of values per row: `FiniteModel.eval` runs a slice of one point,
`counter_valuation` walks the grid in slices of at most `_SLICE` points, and
the search grounds each block of variables as one slice. Neither the compiler
nor the evaluator uses a call frame per level of a term.

`search_model` looks for such a model by backtracking over table cells in
three layers: the + cells, then the prefix cells, then the || cells. On
entering a layer, the equations whose deepest operator lives there are ground
over all valuations and partially evaluated against the tables already fixed:
the node table of such an equation has the layer's atoms as leaves, the
maximal subterms free of the layer's operator, whose values the finished
layers fix. What a side still needs of the open cells is a residue: a row of
the layer's own node table, with rows (2, action, e), (3, l, r) and
(4, l, r) as above, whose operands are carrier values or earlier residues.
Identical residues share one row, so identical residual constraints are
merged, which collapses the n^k raw instances of the wide schemas into a few
hundred distinct constraints. A constraint is the pair of its sides' residue
ids, and one walk over the residue DAG (`_LayeredSearch._value`) reads a side
over the current tables; the residue values it learns are kept until the
search backtracks past the cells they read, so a residue shared by many
constraints, or by itself, is evaluated once. Within a layer the constraints
are watched: each suspends on the first unassigned cell its evaluation needs
and is re-run when that cell is filled. An axiom constraint whose one side is
a single free cell and whose other side has become a value forces that cell,
so the expansion laws propagate most of the || table instead of leaving it
to enumeration; a goal constraint forces nothing, since only one goal
instance needs to fail. Symmetry is broken by fixing the zero element and
introducing carrier elements in first-use order.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from importlib import resources

from .axioms import Equation
from .terms import (
    Nil,
    Par,
    Prefix,
    Sum,
    Term,
    Var,
    _show,
    actions_of,
    cached,
    children,
    free_vars,
    postorder,
)

__all__ = [
    "FiniteModel",
    "SearchResult",
    "fixture_model",
    "independence_report",
    "search_model",
]


@dataclass(frozen=True)
class FiniteModel:
    """Operation tables over the carrier {0..carrier-1}. Well-formedness is
    validated here; whether any algebraic law holds is always checked, never
    assumed."""

    carrier: int
    zero: int
    prefix: dict
    plus: tuple
    par: tuple

    def __post_init__(self):
        n = self.carrier
        if n <= 0:
            raise ValueError("carrier must be positive")
        if not 0 <= self.zero < n:
            raise ValueError("zero element out of range")
        object.__setattr__(self, "prefix", {a: tuple(t) for a, t in self.prefix.items()})
        object.__setattr__(self, "plus", tuple(tuple(r) for r in self.plus))
        object.__setattr__(self, "par", tuple(tuple(r) for r in self.par))
        for a, t in self.prefix.items():
            if len(t) != n or any(not 0 <= v < n for v in t):
                raise ValueError(f"bad prefix table for {a!r}")
        for name, tab in (("plus", self.plus), ("par", self.par)):
            if len(tab) != n or any(
                len(row) != n or any(not 0 <= v < n for v in row) for row in tab
            ):
                raise ValueError(f"bad {name} table")

    def eval(self, t: Term, valuation: dict) -> int:
        """Homomorphic evaluation of a term under a variable valuation: its
        node table run over a slice of one point."""
        names = sorted(free_vars(t))
        for name in names:
            if name not in valuation:
                raise ValueError(f"valuation misses variable {name}")
        rows, (root,), _ = self._table((t,), names)
        cols = [[valuation[name]] for name in names]
        return _evaluate(rows, cols, 1, self.zero, self.prefix, self.plus, self.par)[root][0]

    def holds(self, eq: Equation) -> bool:
        """Whether the equation holds under every valuation."""
        return self.counter_valuation(eq) is None

    def counter_valuation(self, eq: Equation):
        """The first valuation, in lexicographic order over the sorted
        variables, where the two sides evaluate differently. None if the
        equation holds. The last variables span a slice of at most _SLICE
        points; the first ones take each of their values in turn."""
        names = eq.vars
        rows, (l, r), _ = self._table((eq.lhs, eq.rhs), names)
        n, k = self.carrier, len(names)
        inner = k
        while n**inner > _SLICE:
            inner -= 1
        cols, size = _grid(n, inner), n**inner
        for outer in itertools.product(range(n), repeat=k - inner):
            slice_cols = [[v] * size for v in outer] + cols
            vals = _evaluate(rows, slice_cols, size, self.zero, self.prefix, self.plus, self.par)
            lv, rv = vals[l], vals[r]
            if lv != rv:
                i = next(i for i, (x, y) in enumerate(zip(lv, rv)) if x != y)
                return dict(zip(names, outer + tuple(c[i] for c in cols)))
        return None

    def _table(self, sides, names):
        """The node table of the sides, whose variables `names` lists, once
        every action in them is known to have a table."""
        for t in sides:
            missing = actions_of(t).difference(self.prefix)
            if missing:
                raise ValueError(f"model has no table for action {min(missing)!r}")
        return _compile(sides, {name: i for i, name in enumerate(names)})

    def to_json(self) -> dict:
        return {
            "carrier": self.carrier,
            "zero": self.zero,
            "prefix": {a: list(t) for a, t in sorted(self.prefix.items())},
            "plus": [list(r) for r in self.plus],
            "par": [list(r) for r in self.par],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FiniteModel":
        return cls(
            carrier=data["carrier"],
            zero=data["zero"],
            prefix=data["prefix"],
            plus=data["plus"],
            par=data["par"],
        )


def fixture_model(name: str) -> FiniteModel:
    """A model shipped with the package, by file stem (e.g. "table6")."""
    path = resources.files(__package__) / "data" / f"{name}.json"
    return FiniteModel.from_json(json.loads(path.read_text()))


# ---------------------------------------------------------------------------
# Node tables
#
# A node table lists the distinct nodes of some terms, each after the nodes
# it reads, so one forward pass evaluates them all. Rows: (0, k) a leaf read
# from column k, (1,) zero, (2, action, i) a prefix, (3, i, j) + and
# (4, i, j) ||, where i and j are earlier rows. For evaluation the leaves are
# the variables; for the search at one layer they are the layer's atoms.
#
# The evaluator runs a table over a slice of the row-major valuation grid and
# keeps a value list per row, so it holds slice size x rows values. The slice
# bound keeps that small whatever the carrier and the number of variables,
# and costs no speed. The table6 report against E_CS, whose widest equations
# span 15,625 points, took (CPython 3.11, one core of a 2-vCPU VM): 6.1 s in
# slices of one point, 0.26 s and 0.26 MB traced peak in slices of at most
# 625 points, 0.28 s and 1.4 MB at 3,125, and 0.36-0.48 s and 3.7 MB over
# whole grids. Each slice pays a fixed cost per row, so much smaller slices
# are slower, and larger ones only hold more memory.

_SLICE = 625

_OP_LAYER = {Sum: 0, Prefix: 1, Par: 2}


def _layer(t: Term) -> int:
    """The last table, in the search's fill order, that t reads: 0 for +, 1
    for the prefixes, 2 for ||, and -1 for a term of 0 and variables."""
    return cached(t, "model_layer", _layer_of, children)


def _layer_of(t: Term) -> int:
    return max([_OP_LAYER.get(type(t), -1)] + [_layer(k) for k in children(t)])


def _compile(sides, slots: dict, layer: int = -1):
    """The node table of the sides: (rows, the row of each side, atoms). A
    variable reads column slots[name]. A maximal subterm whose `_layer` is
    below `layer` is an atom instead: one leaf row reading column k for
    atoms[k], numbered in the order a left-to-right walk first meets them,
    and nothing below it is listed."""
    rows: list = []
    index: dict = {}  # node -> its row
    atoms: list = []

    def known(u: Term) -> bool:
        if u in index:
            return True
        if _layer(u) >= layer:
            return False
        index[u] = len(rows)
        rows.append((0, len(atoms)))
        atoms.append(u)
        return True

    for t in sides:
        for u in postorder(t, known):
            index[u] = len(rows)
            if isinstance(u, Var):
                rows.append((0, slots[u.name]))
            elif isinstance(u, Nil):
                rows.append((1,))
            elif isinstance(u, Prefix):
                rows.append((2, u.action, index[u.body]))
            else:
                rows.append((3 if isinstance(u, Sum) else 4, index[u.left], index[u.right]))
    return rows, [index[t] for t in sides], atoms


def _grid(n: int, k: int) -> list:
    """The k columns of the row-major grid of all valuations of k variables
    over n values, the first variable slowest."""
    return [list(c) for c in zip(*itertools.product(range(n), repeat=k))]


def _evaluate(rows, cols, size: int, zero: int, prefix, plus, par) -> list:
    """The values of every row of a node table at each of the `size` points
    of a slice, where leaf column k takes the values cols[k]. Each prefix
    row's action must have a table."""
    vals: list = []
    for row in rows:
        tag = row[0]
        if tag == 0:
            v = cols[row[1]]
        elif tag == 1:
            v = [zero] * size
        elif tag == 2:
            tab = prefix[row[1]]
            v = [tab[x] for x in vals[row[2]]]
        else:
            tab = plus if tag == 3 else par
            v = [tab[x][y] for x, y in zip(vals[row[1]], vals[row[2]])]
        vals.append(v)
    return vals


# ---------------------------------------------------------------------------
# Reports


def independence_report(m: FiniteModel, system, goal: Equation) -> dict:
    """Exhaustively check every equation of the system against the model and
    the goal against the model. The interesting outcome is all_axioms_hold
    with refuted goal: the goal is then underivable from the system. The
    goal's sides are written out when they are small, else as their size."""
    axioms = []
    failures = []
    for eq in system:
        cv = m.counter_valuation(eq)
        axioms.append(
            {
                "id": eq.id,
                "valuations": m.carrier ** len(eq.vars),
                "holds": cv is None,
            }
        )
        if cv is not None:
            failures.append({"id": eq.id, "valuation": cv})
    gv = m.counter_valuation(goal)
    goal_entry = {
        "id": goal.id,
        "lhs": _show(goal.lhs),
        "rhs": _show(goal.rhs),
        "refuted": gv is not None,
    }
    if gv is not None:
        goal_entry["counter_valuation"] = gv
        goal_entry["lhs_value"] = m.eval(goal.lhs, gv)
        goal_entry["rhs_value"] = m.eval(goal.rhs, gv)
    name = getattr(system, "name", None)
    return {
        "carrier": m.carrier,
        "system": name if name is not None else f"{len(axioms)} equations",
        "all_axioms_hold": not failures,
        "axiom_failures": failures,
        "axioms": axioms,
        "goal": goal_entry,
        "independent": not failures and gv is not None,
    }


# ---------------------------------------------------------------------------
# Search


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "none" | "budget"
    model: FiniteModel | None
    nodes: int
    carrier: int | None = None

    def __bool__(self) -> bool:
        return self.status == "found"


class _Budget(Exception):
    pass


def _structural_laws(equations) -> tuple:
    """Split off the unit, commutativity and idempotence laws that the search
    builds into the tables instead of checking instance by instance."""
    flags = {
        "plus_unit": False,
        "plus_comm": False,
        "plus_idem": False,
        "par_unit": False,
        "par_comm": False,
    }
    kept = []
    for eq in equations:
        got = None
        for u, v in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
            if isinstance(u, Sum) and isinstance(u.left, Var):
                if isinstance(u.right, Nil) and v is u.left:
                    got = "plus_unit"
                elif u.right is u.left and v is u.left:
                    got = "plus_idem"
                elif (
                    isinstance(u.right, Var)
                    and u.right is not u.left
                    and isinstance(v, Sum)
                    and v.left is u.right
                    and v.right is u.left
                ):
                    got = "plus_comm"
            elif isinstance(u, Par) and isinstance(u.left, Var):
                if isinstance(u.right, Nil) and v is u.left:
                    got = "par_unit"
                elif (
                    isinstance(u.right, Var)
                    and u.right is not u.left
                    and isinstance(v, Par)
                    and v.left is u.right
                    and v.right is u.left
                ):
                    got = "par_comm"
            if got:
                break
        if got:
            flags[got] = True
        else:
            kept.append(eq)
    return flags, kept


def _equation_layer(eq: Equation) -> int:
    """Index of the deepest table an equation reads: 0 for +, 1 for the
    prefixes, 2 for ||. The search fills tables in that order, so an equation
    becomes ground exactly when its layer is entered."""
    return max(_layer(eq.lhs), _layer(eq.rhs), 0)


class _EqPlan:
    """Grounding plan for one equation: the node table of both sides with
    the layer's atoms as leaves, and the variables grouped into blocks that
    share no atom, each with the node table of its atoms, so each block is
    enumerated once instead of jointly."""

    __slots__ = ("vars", "rows", "lhs", "rhs", "skey", "comps", "is_goal")

    def __init__(self, eq: Equation, layer: int, is_goal: bool):
        self.vars = eq.vars
        self.is_goal = is_goal
        pos = {name: i for i, name in enumerate(self.vars)}
        self.rows, (self.lhs, self.rhs), atoms = _compile((eq.lhs, eq.rhs), {}, layer)
        self.skey = (tuple(self.rows), self.lhs, self.rhs)
        atom_vars = [sorted(pos[v] for v in free_vars(t)) for t in atoms]

        parent = list(range(len(self.vars)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for vs in atom_vars:
            for other in vs[1:]:
                parent[find(other)] = find(vs[0])
        groups: dict = {}
        for k, vs in enumerate(atom_vars):
            root = find(vs[0]) if vs else -1
            groups.setdefault(root, []).append(k)
        # (block size, atom ids, node table of those atoms over the block)
        self.comps = []
        for root in sorted(groups):
            names = [] if root < 0 else [v for i, v in enumerate(self.vars) if find(i) == root]
            ids = tuple(groups[root])
            rows, roots, _ = _compile([atoms[i] for i in ids], {v: s for s, v in enumerate(names)})
            self.comps.append((len(names), ids, rows, roots))


class _Frame:
    """The residual constraints of one layer and their watch state.

    `cons` is the layer's node table of residues: rows (2, action, e),
    (3, l, r) and (4, l, r), where an operand is a carrier value v, written
    -(v+1), or the id (row index) of an earlier residue. Constraint ci is
    sides[ci] = (lhs, rhs, bare_l, bare_r): it asks that residues lhs and
    rhs be equal, a carrier value standing for either, and bare_l/bare_r
    hold the cell a side is exactly, or -1. `known` holds the residue values
    learned on the current branch, written -(v+1) like the operands."""

    __slots__ = (
        "cons",
        "known",
        "sides",
        "is_goal",
        "state",
        "watch",
        "watchlists",
        "watching",
        "violated",
        "static_violated",
    )

    def __init__(self):
        self.cons: list = []
        self.known: dict = {}
        self.sides: list = []
        self.is_goal: list = []
        self.state: list = []
        self.watch: list = []
        self.watchlists: dict = {}
        self.watching = 0
        self.violated = 0
        self.static_violated = 0


class _LayeredSearch:
    """One carrier size worth of layered backtracking over table cells.

    Cells are assigned in layer order: free + cells, prefix cells, free ||
    cells. Entering a layer grounds that layer's equations against the tables
    already fixed into rows of the layer's residue table, so duplicate
    residual constraints merge; a constraint then waits on the first
    unassigned cell that `_value`, the one walk over that table, hits. An
    axiom constraint whose one side is a single free cell doubles as a
    propagator: when its other side completes, the cell is forced instead of
    enumerated. Each level of the trail records the cells it wrote, the
    constraints it re-watched and the residue values it learned, and undoing
    the level takes all three back.
    """

    WATCHING, HOLDS, VIOLATED = 0, 1, 2

    def __init__(self, n: int, actions, axioms, goal: Equation, flags: dict):
        self.n = n
        self.actions = tuple(actions)
        self.flags = flags

        self.plus_m = [[None] * n for _ in range(n)]
        self.par_m = [[None] * n for _ in range(n)]
        self.pre_m = {a: [None] * n for a in self.actions}
        if flags["plus_idem"]:
            for i in range(n):
                self.plus_m[i][i] = i
        if flags["plus_unit"]:
            for i in range(n):
                self.plus_m[i][0] = i
            if flags["plus_comm"]:
                for j in range(n):
                    self.plus_m[0][j] = j
        if flags["par_unit"]:
            for i in range(n):
                self.par_m[i][0] = i
            if flags["par_comm"]:
                for j in range(n):
                    self.par_m[0][j] = j

        cells = []
        self.layer_start = [0, 0, 0]
        self.cell_plus = [[-1] * n for _ in range(n)]
        self.cell_par = [[-1] * n for _ in range(n)]
        self.cell_pre = {a: [-1] * n for a in self.actions}
        for i in range(n):
            for j in range(i, n) if flags["plus_comm"] else range(n):
                if self.plus_m[i][j] is None:
                    idx = len(cells)
                    cells.append((3, i, j))
                    self.cell_plus[i][j] = idx
                    if flags["plus_comm"]:
                        self.cell_plus[j][i] = idx
        self.layer_start[1] = len(cells)
        for a in self.actions:
            for e in range(n):
                idx = len(cells)
                cells.append((2, a, e))
                self.cell_pre[a][e] = idx
        self.layer_start[2] = len(cells)
        for i in range(n):
            for j in range(i, n) if flags["par_comm"] else range(n):
                if self.par_m[i][j] is None:
                    idx = len(cells)
                    cells.append((4, i, j))
                    self.cell_par[i][j] = idx
                    if flags["par_comm"]:
                        self.cell_par[j][i] = idx
        self.cells = cells
        self.total_cells = len(cells)
        # Flat mirror of the open cells, so propagation reads skip the
        # table decode.
        self.val = [None] * len(cells)

        # Cumulative max element index mentioned by cell coordinates, for
        # first-use value ordering.
        self.static_max = []
        cur = 0
        for cell in cells:
            coords = (cell[2],) if cell[0] == 2 else (cell[1], cell[2])
            cur = max(cur, *coords)
            self.static_max.append(cur)

        self.layer_eqs: tuple = ([], [], [])
        for eq in axioms:
            layer = _equation_layer(eq)
            self.layer_eqs[layer].append(_EqPlan(eq, layer, False))
        self.goal_layer = _equation_layer(goal)
        self.layer_eqs[self.goal_layer].append(
            _EqPlan(goal, self.goal_layer, True)
        )
        skeys: dict = {}
        for plans in self.layer_eqs:
            # Narrow equations first: when a layer is contradictory, the
            # cheap ones usually expose it before the wide schemas are
            # ground at all.
            plans.sort(key=lambda p: len(p.vars))
            for plan in plans:
                plan.skey = skeys.setdefault(plan.skey, len(skeys))

        self.frames: list = []
        self.goal_frame = None
        self.next_layer = 0
        # one level per entered layer or tried value: ([cells written],
        # [(frame, ci, state, cell) re-watched], [residues learned], dyn)
        self.trail: list = []
        self.dyn_cur = 0
        self.nodes = 0
        self._grids: dict = {}  # block size -> columns of its valuation grid

    # -- tables --------------------------------------------------------

    def _write(self, cell_idx: int, v):
        self.val[cell_idx] = v
        kind, x, y = self.cells[cell_idx]
        if kind == 2:
            self.pre_m[x][y] = v
        elif kind == 3:
            self.plus_m[x][y] = v
            if self.flags["plus_comm"]:
                self.plus_m[y][x] = v
        else:
            self.par_m[x][y] = v
            if self.flags["par_comm"]:
                self.par_m[y][x] = v

    # -- grounding -----------------------------------------------------

    def _block_grid(self, k: int) -> list:
        got = self._grids.get(k)
        if got is None:
            got = self._grids[k] = _grid(self.n, k)
        return got

    def _fold(self, plan, atom_vals, residue_id, cons) -> tuple:
        """Partially evaluate the plan's node table; returns the results of
        its two sides. Carrier values come back as -(v+1); anything still
        touching a free cell becomes a row of the residue table `cons`, and
        `residue_id` maps each row to its id, so identical residues are
        shared and compared by id."""
        f = self.flags
        plus_idem = f["plus_idem"]
        plus_unit = f["plus_unit"]
        plus_comm = f["plus_comm"]
        par_unit = f["par_unit"]
        par_comm = f["par_comm"]
        pre_m, plus_m, par_m = self.pre_m, self.plus_m, self.par_m
        out: list = []
        push = out.append
        for row in plan.rows:
            tag = row[0]
            if tag == 0:
                push(-atom_vals[row[1]] - 1)
                continue
            if tag == 2:
                e = out[row[2]]
                if e < 0:
                    v = pre_m[row[1]][-e - 1]
                    if v is not None:
                        push(-v - 1)
                        continue
                node = (2, row[1], e)
            elif tag == 3:
                l, r = out[row[1]], out[row[2]]
                if l < 0 and r < 0:
                    v = plus_m[-l - 1][-r - 1]
                    if v is not None:
                        push(-v - 1)
                        continue
                if plus_idem and l == r:
                    push(l)
                    continue
                if plus_unit:
                    if r == -1:
                        push(l)
                        continue
                    if l == -1 and plus_comm:
                        push(r)
                        continue
                if plus_comm and r < l:
                    l, r = r, l
                node = (3, l, r)
            else:
                l, r = out[row[1]], out[row[2]]
                if l < 0 and r < 0:
                    v = par_m[-l - 1][-r - 1]
                    if v is not None:
                        push(-v - 1)
                        continue
                if par_unit:
                    if r == -1:
                        push(l)
                        continue
                    if l == -1 and par_comm:
                        push(r)
                        continue
                if par_comm and r < l:
                    l, r = r, l
                node = (4, l, r)
            got = residue_id.get(node)
            if got is None:
                residue_id[node] = got = len(cons)
                cons.append(node)
            push(got)
        return out[plan.lhs], out[plan.rhs]

    def _bare_cell(self, e: int, cons) -> int:
        """Cell index when the residue is exactly one free cell, else -1."""
        if e < 0:
            return -1
        node = cons[e]
        if node[0] == 2:
            if node[2] < 0:
                return self.cell_pre[node[1]][-node[2] - 1]
            return -1
        if node[1] < 0 and node[2] < 0:
            x, y = -node[1] - 1, -node[2] - 1
            table = self.cell_plus if node[0] == 3 else self.cell_par
            return table[x][y]
        return -1

    def _arm(self, frame, lid, rid, is_goal, queue) -> bool:
        """Store one residual constraint unless it is already decided.
        False means a statically violated axiom: the layer is contradictory.
        Only axiom constraints force cells: a goal instance may fail, so a
        goal constraint has no bare side and just waits on its cells."""
        if is_goal:
            sides = (lid, rid, -1, -1)
        else:
            sides = (lid, rid, self._bare_cell(lid, frame.cons), self._bare_cell(rid, frame.cons))
        st, wcell = self._eval_constraint(frame, sides, queue)
        if st == self.HOLDS:
            return True
        if st == self.VIOLATED:
            if not is_goal:
                return False
            frame.static_violated += 1
            return True
        ci = len(frame.sides)
        frame.sides.append(sides)
        frame.is_goal.append(is_goal)
        frame.state.append(self.WATCHING)
        frame.watch.append(wcell)
        lst = frame.watchlists.get(wcell)
        if lst is None:
            frame.watchlists[wcell] = [ci]
        else:
            lst.append(ci)
        if is_goal:
            frame.watching += 1
        return True

    def _ground(self, layer: int):
        """Ground this layer's equations against the tables fixed so far,
        merge duplicate residual constraints, and run the initial round of
        forced assignments. None when the layer is already contradictory."""
        frame = _Frame()
        self.frames.append(frame)
        if layer == self.goal_layer:
            self.goal_frame = frame
        residue_id: dict = {}  # row of frame.cons -> its index
        cache: dict = {}
        seen = set()
        entry_cells: list = []
        touched: list = []
        self.trail.append((entry_cells, touched, [], self.dyn_cur))
        dead = False
        for plan in self.layer_eqs[layer]:
            comp_sets = []
            for k, atom_ids, rows, roots in plan.comps:
                vals = _evaluate(
                    rows, self._block_grid(k), self.n**k, 0, self.pre_m, self.plus_m, self.par_m
                )
                comp_sets.append((atom_ids, sorted(set(zip(*(vals[i] for i in roots))))))
            atom_vals = [0] * sum(len(ids) for _, ids, _, _ in plan.comps)
            queue: list = []
            for cross in itertools.product(*(s for _, s in comp_sets)):
                for (atom_ids, _), tup in zip(comp_sets, cross):
                    for ai, v in zip(atom_ids, tup):
                        atom_vals[ai] = v
                key = (plan.skey, tuple(atom_vals))
                pair = cache.get(key)
                if pair is None:
                    cache[key] = pair = self._fold(plan, atom_vals, residue_id, frame.cons)
                lid, rid = pair
                if lid == rid:
                    continue
                if lid < 0 and rid < 0:
                    if plan.is_goal:
                        frame.static_violated += 1
                        continue
                    dead = True
                    break
                ck = (lid, rid, plan.is_goal) if lid <= rid else (rid, lid, plan.is_goal)
                if ck in seen:
                    continue
                seen.add(ck)
                if not self._arm(frame, lid, rid, plan.is_goal, queue):
                    dead = True
                    break
            # Propagate between plans: a contradiction among the narrow
            # equations kills the frame before the wide ones are ground.
            # Cells assigned here stay until the frame is popped, so folds
            # of later plans may safely read them.
            if dead or not self._propagate(queue, entry_cells, touched):
                dead = True
                break
        if dead or not self._goal_alive():
            self._undo()
            self.frames.pop()
            if frame is self.goal_frame:
                self.goal_frame = None
            return None
        return frame

    # -- propagation ---------------------------------------------------

    def _value(self, frame, e: int) -> int:
        """The value of residue e of the frame over the current tables, or
        -(cell+1) for the first unassigned cell its evaluation needs, left
        operand before right. One walk over the residue's DAG from an
        explicit stack, which skips every residue whose value is known. A
        value learned here is kept in frame.known and listed on the current
        trail level, and `_undo` drops it with that level: every cell it
        read was written at that level or an earlier one, so it holds for as
        long as it is kept."""
        if e < 0:
            return -e - 1
        known = frame.known
        v = known.get(e, e)
        if v < 0:
            return -v - 1
        cons = frame.cons
        learned = self.trail[-1][2]
        todo = [e]
        while todo:
            x = todo[-1]
            tag, p, q = cons[x]
            if tag != 2 and p >= 0:
                p = known.get(p, p)
                if p >= 0:
                    todo.append(p)
                    continue
            if q >= 0:
                q = known.get(q, q)
                if q >= 0:
                    todo.append(q)
                    continue
            q = -q - 1
            if tag == 2:
                v = self.pre_m[p][q]
                if v is None:
                    return -self.cell_pre[p][q] - 1
            else:
                p = -p - 1
                v = (self.plus_m if tag == 3 else self.par_m)[p][q]
                if v is None:
                    return -(self.cell_plus if tag == 3 else self.cell_par)[p][q] - 1
            known[x] = -v - 1
            learned.append(x)
            todo.pop()
        return v

    def _eval_constraint(self, frame, sides: tuple, queue: list):
        """Evaluate one constraint: (HOLDS or VIOLATED, -1), or (WATCHING,
        the cell to wait on). When one side is a value and the other is
        exactly the free cell it waits on, queues that cell's forced value.
        The right side is not read while the left one waits on a cell of its
        own."""
        lid, rid, bare_l, bare_r = sides
        rl = self._value(frame, lid)
        if rl < 0 and bare_l != -rl - 1:
            return self.WATCHING, -rl - 1
        rr = self._value(frame, rid)
        if rr < 0:
            if rl >= 0 and bare_r == -rr - 1:
                queue.append((-rr - 1, rl))
            return self.WATCHING, -rr - 1
        if rl < 0:
            queue.append((-rl - 1, rr))
            return self.WATCHING, -rl - 1
        return (self.HOLDS if rl == rr else self.VIOLATED), -1

    def _propagate(self, queue: list, entry_cells: list, touched: list) -> bool:
        """Write queued cells and re-run their watchers until the queue is
        empty. False on a conflicting force or a violated axiom constraint."""
        W, V = self.WATCHING, self.VIOLATED
        while queue:
            cell, v = queue.pop()
            cur = self.val[cell]
            if cur is not None:
                if cur != v:
                    return False
                continue
            self._write(cell, v)
            entry_cells.append(cell)
            if v > self.dyn_cur:
                self.dyn_cur = v
            frame = self.frames[-1]
            wl = frame.watchlists.pop(cell, None)
            if not wl:
                continue
            done = set()
            for pos, ci in enumerate(wl):
                if frame.watch[ci] != cell or ci in done:
                    continue
                done.add(ci)
                old_state = frame.state[ci]
                st, wcell = self._eval_constraint(frame, frame.sides[ci], queue)
                goal = frame.is_goal[ci]
                if goal:
                    if old_state == W:
                        frame.watching -= 1
                    elif old_state == V:
                        frame.violated -= 1
                    if st == W:
                        frame.watching += 1
                    elif st == V:
                        frame.violated += 1
                frame.state[ci] = st
                tgt = wcell if st == W else cell
                frame.watch[ci] = tgt
                lst = frame.watchlists.get(tgt)
                if lst is None:
                    frame.watchlists[tgt] = [ci]
                else:
                    lst.append(ci)
                touched.append((frame, ci, old_state, cell))
                if st == V and not goal:
                    rest = [cj for cj in wl[pos + 1 :] if cj not in done]
                    if rest:
                        lst = frame.watchlists.get(cell)
                        if lst is None:
                            frame.watchlists[cell] = rest
                        else:
                            lst.extend(rest)
                    return False
        return True

    def _goal_alive(self) -> bool:
        gf = self.goal_frame
        if gf is None:
            return True
        return gf.static_violated > 0 or gf.violated > 0 or gf.watching > 0

    def _assign_entry(self, cell: int, v: int) -> bool:
        entry_cells: list = []
        touched: list = []
        self.trail.append((entry_cells, touched, [], self.dyn_cur))
        if not self._propagate([(cell, v)], entry_cells, touched):
            return False
        return self._goal_alive()

    def _undo(self):
        entry_cells, touched, learned, prev_dyn = self.trail.pop()
        # a level learns values only in the frame that is newest while it lasts
        known = self.frames[-1].known
        for x in learned:
            del known[x]
        W, V = self.WATCHING, self.VIOLATED
        for frame, ci, old_state, cell in reversed(touched):
            st = frame.state[ci]
            if frame.is_goal[ci]:
                if st == W:
                    frame.watching -= 1
                elif st == V:
                    frame.violated -= 1
                if old_state == W:
                    frame.watching += 1
                elif old_state == V:
                    frame.violated += 1
            frame.state[ci] = old_state
            frame.watch[ci] = cell
            lst = frame.watchlists.get(cell)
            if lst is None:
                frame.watchlists[cell] = [ci]
            else:
                lst.append(ci)
        for cell in reversed(entry_cells):
            self._write(cell, None)
        self.dyn_cur = prev_dyn

    # -- driver --------------------------------------------------------

    def run(self, budget, node_offset: int):
        """Depth-first over the cells, in order, with every value up to the
        first unused one, entering each layer when its first cell is reached.
        The open choices are kept on an explicit stack: [cell, value tried,
        largest value] for a cell, (layer, frame) for an entered layer.
        Returns the model or None; raises _Budget when the decision cap is
        hit."""
        points: list = []
        k = 0
        while True:
            layer = self.next_layer
            if layer < 3 and self.layer_start[layer] == k:
                frame = self._ground(layer)
                if frame is not None:
                    self.next_layer = layer + 1
                    points.append((layer, frame))
                    continue
            elif k == self.total_cells:
                gf = self.goal_frame
                if gf.static_violated + gf.violated > 0:
                    return self._to_model()
            elif self.val[k] is not None:
                k += 1
                continue
            else:
                vmax = min(self.n - 1, max(self.static_max[k], self.dyn_cur) + 1)
                points.append([k, -1, vmax])
            # Backtrack to the innermost choice with a value left, and try it.
            while points:
                top = points[-1]
                if type(top) is tuple:
                    points.pop()
                    self.next_layer, frame = top
                    self._undo()
                    self.frames.pop()
                    if frame is self.goal_frame:
                        self.goal_frame = None
                    continue
                cell, v, vmax = top
                if v >= 0:
                    self._undo()
                if v == vmax:
                    points.pop()
                    continue
                top[1] = v = v + 1
                self.nodes += 1
                if budget is not None and node_offset + self.nodes > budget:
                    raise _Budget
                if self._assign_entry(cell, v):
                    k = cell + 1
                    break
            else:
                return None

    def _to_model(self) -> FiniteModel:
        return FiniteModel(
            carrier=self.n,
            zero=0,
            prefix={a: tuple(t) for a, t in self.pre_m.items()},
            plus=tuple(tuple(r) for r in self.plus_m),
            par=tuple(tuple(r) for r in self.par_m),
        )


def search_model(
    alphabet,
    max_carrier: int,
    system,
    goal: Equation,
    budget: int | None = 5_000_000,
    min_carrier: int = 1,
) -> SearchResult:
    """Search carrier sizes min_carrier..max_carrier for a model of every
    equation in the system that refutes the goal. The budget caps the total
    number of decision points tried, for reproducibility; running out of it
    is reported as "budget", exhausting all sizes as "none"."""
    if not 1 <= min_carrier <= max_carrier:
        raise ValueError("need 1 <= min_carrier <= max_carrier")
    equations = list(system)
    actions = (
        alphabet.transition_labels() if alphabet.sync_mode else alphabet.actions
    )
    flags, kept = _structural_laws(equations)
    nodes = 0
    for n in range(min_carrier, max_carrier + 1):
        search = _LayeredSearch(n, actions, kept, goal, flags)
        try:
            got = search.run(budget, nodes)
        except _Budget:
            return SearchResult("budget", None, budget, None)
        nodes += search.nodes
        if got is not None:
            report = independence_report(got, equations, goal)
            if not report["independent"]:
                raise AssertionError("search returned a model its own check rejects")
            return SearchResult("found", got, nodes, n)
    return SearchResult("none", None, nodes, None)
