"""Seeded constraint propagation for pentagon systems at desk scale.

The solver seeds the theorem-forced entries (unit-label entries are 1; for
h3 additionally the all-rho diagonal entry -B), then repeats three exact
steps until nothing moves:

  1. equations with a single unknown appearing linearly are solved;
  2. univariate equations of degree <= 2 are solved over the tower (two
     roots become a branch point, none a contradiction);
  3. small equations are row-reduced treating each unknown monomial as a
     formal variable, which turns pairs like {X - M, X^2 + M - 1} into
     univariate conclusions without any Groebner machinery.

Equations come from the pentagon instances, from the orthogonality of every
block (its row dot products, F Ft = I), and for h3 from the two square-pop
relations (valid in the data-set gauge only).  Branches are explored
depth-first; any equation with no unknowns and a nonzero constant kills its
branch.  Every completed table is re-verified with the independent pentagon
and orthogonality checkers before it is returned.

The pentagon and orthogonality equations and the square-pop relations of
a ring are compiled once per ring object, on first use, into one plan
(:class:`_Plan`) in the pentagon check's shape, a left pair and triples of
positions: a key's position in ``enumerate_fkeys`` order is also its id as
an unknown, a constant sits at a position past the keys, and a relation is
stated as a multiple of itself.  A round reads only the plan and the
current knowns.  A fold (:class:`_Fold`) keeps the outcome of every
equation over one assignment in plan order: dropped, an equation over the
unknowns, or a contradiction.  Each propagation round moves the fold to the
current knowns, re-folding only the equations that read a key whose value
changed, and a branch child of :func:`solve` starts from its parent's fold.
The round's system is then read off in plan order, so it has exactly the
equations and the first contradiction of a fold from scratch.  A fold
multiplies known values as the pentagon kernel does, in packed integer
tower coordinates compiled once for its lineage and extended by each
update.  The first fold, from the empty assignment, folds only the block
rows, the relations and the pentagon equations that read a known key (over
no knowns every other one has too many unknowns to keep), and no fold
folds an identical-rule equation while the unit-label keys are 1.
"""

from __future__ import annotations

import copy
import time
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement, compress
from math import lcm
from operator import sub

from .exactnum import (FieldScalar, ParamScalar, add_scaled, field_sqrt,
                       gauss_jordan, named_constant)
from .fsymbols import FSymbolTable
from .fusionring import (FKey, FusionRing, builtin_ring, enumerate_fkeys,
                         f_blocks, is_h3)
from .pentagon import (_Directions, _Memo, _pentagon_plan, _per_ring,
                       _readers, _square_pop_relations, _unpack, verify_all)

Poly = dict[tuple[int, ...], FieldScalar]  # monomial (sorted unknown ids) -> coeff


@dataclass
class PartialTable:
    ring: FusionRing
    known: dict[FKey, FieldScalar]
    # the equations folded over an earlier state of ``known`` (set by
    # propagate), from which the next propagate re-folds only what changed
    _fold: "_Fold | None" = field(default=None, init=False, repr=False,
                                  compare=False)

    def copy(self) -> "PartialTable":
        out = PartialTable(self.ring, dict(self.known))
        out._fold = self._fold
        return out

    def as_table(self) -> FSymbolTable:
        entries = {k: ParamScalar.from_field(v) for k, v in self.known.items()}
        return FSymbolTable(self.ring, entries)


@dataclass
class SolveReport:
    ring: str
    seeds: int
    rounds: list[int] = field(default_factory=list)
    branch_decisions: list[str] = field(default_factory=list)
    branch_options: list = field(default_factory=list)
    remaining: int = 0
    contradiction: str | None = None
    duration: float = 0.0
    # a search's leaves with unknowns and no branch option, and its nodes
    # left unbranched for want of budget: complete when both are 0
    stalled: int = 0
    budget_cut: int = 0

    @property
    def resolved(self) -> int:
        return sum(self.rounds)

    @property
    def complete(self) -> bool:
        return self.stalled == self.budget_cut == 0

    def render(self) -> str:
        lines = [f"ring={self.ring} seeds={self.seeds}"]
        for i, n in enumerate(self.rounds, start=1):
            lines.append(f"round {i}: resolved {n}")
        for d in self.branch_decisions:
            lines.append(f"branch: {d}")
        lines.append(f"resolved={self.resolved} remaining={self.remaining}")
        if self.contradiction:
            lines.append(f"contradiction: {self.contradiction}")
        return "\n".join(lines)


def seed(ring: FusionRing) -> PartialTable:
    """Theorem-forced initial assignments in the data-set gauge: every entry
    of a pointed ring (the trivial cocycle gauge) and every unit-label entry
    of another is 1; the all-rho diagonal entry of h3 is -B (the skein
    triangle value)."""
    one, pointed = ring.tower.one(), ring.is_pointed()
    known = {k: one for k in enumerate_fkeys(ring)
             if pointed or ring.unit in (k.a, k.b, k.c)}
    if is_h3(ring):
        r = ring.label("r")
        known[FKey(r, r, r, r, r, r)] = -named_constant("B")
    return PartialTable(ring, known)


_PENTAGON_CONTRADICTION = "nonzero residual on a fully-known pentagon instance"
_KNOWN_CONTRADICTION = "fully-known equation has nonzero residual"
# an equation with more distinct unknowns than this is left out of a round,
# and a pentagon equation is left out before folding when it reads more
# unknown key slots than this (a key read twice counts twice)
_MAX_UNKNOWNS = 4
# the most branch nodes :func:`solve` explores; for h3 it explores none
_MAX_BRANCH_NODES = 4096


class _Plan:
    """Every equation of one ring in the pentagon check's shape, as positions.

    Equation ``i`` reads ``slots[starts[i]:starts[i + 1]]``, a left pair and
    then triples, and states the pair's product minus each triple's.  A
    position below ``len(keys)`` is a key's index in ``enumerate_fkeys``
    order, which is also its id as an unknown; position ``len(keys) + j``
    holds ``constants[j]`` (1, -1, then the relations' constants).  The
    pentagon equations come first, a copy of the pentagon sweep's own plan.
    Then, block by block, the row equations of F Ft = I (sum_f F[e_i, f]
    F[e_j, f] - delta_ij for i <= j): the pair (F[e_i, f_0], F[e_j, f_0]),
    the triple (-1, F[e_i, f], F[e_j, f]) for each further column f and, for
    i = j, the triple (1, 1, 1).  Rows suffice: F Ft = I gives det F * det Ft
    = 1, so Ft is F's inverse and Ft F = I follows.  Last, each square-pop
    relation (:func:`_square_pop_relations`) as a multiple of itself,
    c1 K3 + c2 K4 - sqrt(d) K1 K2: the pair (c1, K3), then the triples
    (-c2, K4, 1) and (sqrt(d), K1, K2).  No conclusion of a round depends on
    an equation's scale.
    """

    def __init__(self, ring: FusionRing):
        self.keys = tuple(enumerate_fkeys(ring))
        pos = {k: i for i, k in enumerate(self.keys)}
        one = ring.tower.one()
        constants = {one: 0, -one: 1}

        def constant(v: FieldScalar) -> int:
            return len(pos) + constants.setdefault(v, len(constants))

        pentagon = _pentagon_plan(ring)
        slots = array("H", pentagon.slots)
        starts = array("I", pentagon.starts)
        self.n_pentagon = len(starts) - 1
        for blk in f_blocks(ring):
            rows = [[pos[blk.a, blk.b, blk.c, blk.u, e, f] for f in blk.f_labels]
                    for e in blk.e_labels]
            for i, j in combinations_with_replacement(range(blk.dim), 2):
                (p, *ps), (q, *qs) = rows[i], rows[j]
                slots.extend((p, q))
                for p, q in zip(ps, qs):
                    slots.extend((constant(-one), p, q))
                if i == j:
                    slots.extend((constant(one),) * 3)
                starts.append(len(slots))
        for (sqrt_d, k1, k2), ((c1, k3), (c2, k4)) in (
                _square_pop_relations(ring).values()):
            slots.extend((constant(c1), pos[k3], constant(-c2), pos[k4],
                          constant(one), constant(sqrt_d), pos[k1], pos[k2]))
            starts.append(len(slots))
        self.slots, self.starts = slots, starts
        self.constants = list(constants)
        self.n_equations = len(starts) - 1
        # flags the pentagon equations a fold over no knowns may keep (on a
        # built-in ring, none): every other equation reads a constant
        self.unkeyed = bytearray(
            i < self.n_pentagon and starts[i + 1] - starts[i] <= _MAX_UNKNOWNS
            for i in range(self.n_equations))
        self.most_terms = 1 + max(map(sub, starts[1:], starts)) // 3
        self.tower = ring.tower
        # the unit-label keys, and the pentagon equations' triviality bits
        # (see classify): with those keys 1, both sides of an equation the
        # identical rule marks (bit 2) are one product
        self.unit_keys = [p for p, k in enumerate(self.keys)
                          if ring.unit in (k.a, k.b, k.c)]
        self.trivial = pentagon.trivial

    @cached_property
    def _by_key(self) -> list[array]:
        """For each key and constant position, the equations that read it,
        in 16 bits when they fit (h3: 0.8 MB, 1.5 MB in 32 bits)."""
        return _readers(self.slots, self.starts,
                        len(self.keys) + len(self.constants),
                        "H" if self.n_equations <= 1 << 16 else "I")


_plan = _per_ring(_Plan)


class _Fold:
    """The outcome of every equation of a plan over one assignment, kept in
    plan order.

    An outcome is None (no equation: it cancels, has more than
    ``_MAX_UNKNOWNS`` distinct unknowns, or is a pentagon equation with more
    than that many unknown key slots), an equation (Poly) or a contradiction
    message.  :meth:`updated` re-folds only the equations that read a
    position whose value changed, so the outcomes always equal those of a
    fold from scratch.  A first fold is an update from the empty assignment
    with no constants either: it folds every equation that reads a known key
    or a constant, and of the others only the ``plan.unkeyed`` ones.  While
    every unit-label key is 1, no identical-rule equation is folded: it
    would cancel.  Each unknown monomial sums, as one packed integer, the
    products of its terms' known factors scaled to ``L**3 * B``, in a width
    proven from the compiled values; as 1 is among them, a term of fewer
    than three known factors is bounded as one padded with ones.  A moved
    fold inherits its compile state: the interned ``dirs`` and the values
    ``met`` only grow along the lineage, and a new value recompiles
    ``splits`` (each value as ``(n, pid)``), ``L`` and the width, the
    product memos kept while ``L`` and the width stay.
    """

    __slots__ = ("plan", "values", "outcomes", "known", "dirs", "met",
                 "splits", "den_l", "width", "products", "coefficients")

    def __init__(self, plan: _Plan):
        self.plan, self.outcomes = plan, None
        # each position's value and its (n, pid), None while unknown
        self.values = self.known = [None] * (len(plan.keys)
                                             + len(plan.constants))
        self.dirs, self.den_l, self.width = _Directions(plan.tower), 0, 0
        self.met, self.splits = {}, {}

    def _compile(self) -> None:
        dirs = self.dirs
        den_l, self.splits = dirs.compile(self.met.values())
        n_max = max(abs(n) for n, _ in self.splits.values())
        width = dirs.width(den_l, 0, self.plan.most_terms * n_max ** 3)
        if (den_l, width) != (self.den_l, self.width):
            self.den_l, self.width = den_l, width
            scale, tower = den_l ** 3 * dirs.den_b, dirs.tower
            # the packed products of sorted direction ids, scaled to
            # L**3 * B, and one coefficient object per packed sum
            self.products = _Memo(lambda pids: dirs.product(
                pids, den_l ** (3 - len(pids)), width) if pids else scale)
            self.coefficients = _Memo(lambda packed: FieldScalar(
                tower, _unpack(packed, width, tower.degree), scale))

    def updated(self, known: dict[FKey, FieldScalar]) -> "_Fold":
        """This fold moved to ``known``; self is left as it is."""
        plan = self.plan
        values = [known.get(k) for k in plan.keys] + plan.constants
        n = plan.n_equations
        changed = [p for p, (v, w) in enumerate(zip(values, self.values))
                   if v is not w]
        # flags of the equations to re-fold: a set would take 0.5 MB on h3
        if self.outcomes is None:
            outcomes, touched = [None] * n, bytearray(plan.unkeyed)
        elif not changed:
            return self
        else:
            outcomes, touched = list(self.outcomes), bytearray(n)
        for p in changed:
            for i in plan._by_key[p]:
                touched[i] = 1
        new = copy.copy(self)
        new.values, new.outcomes, new.known = values, outcomes, list(self.known)
        fresh = {v.integer_coords(): v for v in map(values.__getitem__, changed)
                 if v is not None and not v.is_zero()}
        if any(c not in self.splits for c in fresh):
            new.met.update(fresh)
            new._compile()
        for p in changed if new.den_l == self.den_l else range(len(values)):
            v = values[p]
            new.known[p] = None if v is None else new.splits.get(
                v.integer_coords(), (0, 0))
        fold = new._folder()
        one = new.splits[plan.tower.one().integer_coords()]
        cancel = plan.trivial if all(
            new.known[p] == one for p in plan.unit_keys) else b""
        for i in compress(range(n), touched):
            outcomes[i] = None if i < len(cancel) and cancel[i] & 2 else fold(i)
        return new

    def _folder(self):
        """The fold of one equation over ``self.values``, by number."""
        plan, known = self.plan, self.known
        slots, starts = plan.slots, plan.starts
        products, coefficients = self.products, self.coefficients

        def fold(i: int):
            sl = slots[starts[i]:starts[i + 1]]
            n_unknown = None
            if i < plan.n_pentagon:
                n_unknown = [known[p] is None for p in sl].count(True)
                if n_unknown > _MAX_UNKNOWNS:
                    return None
            sums: dict[tuple[int, ...], int] = {}
            # the left pair sl[0:2], then each triple, subtracted
            for k in range(-1, len(sl), 3):
                c, pids, mono = 1, [], []
                for p in sl[max(k, 0):k + 3]:
                    v = known[p]
                    if v is None:
                        mono.append(p)
                    else:
                        c *= v[0]
                        pids.append(v[1])
                if c:
                    mono = tuple(sorted(mono))
                    c *= products[tuple(sorted(pids))]
                    sums[mono] = sums.get(mono, 0) + (c if k < 0 else -c)
            poly: Poly = {m: coefficients[s] for m, s in sums.items() if s}
            if not poly:
                return None
            unknowns = {p for m in poly for p in m}
            if not unknowns:
                return (_PENTAGON_CONTRADICTION if n_unknown == 0
                        else _KNOWN_CONTRADICTION)
            if len(unknowns) > _MAX_UNKNOWNS:
                return None
            return poly
        return fold


class _System:
    """Equations of one propagation round, folded over the current knowns.

    The equations are the outcomes of ``fold`` (a :class:`_Fold` of the
    ring's plan over an earlier assignment, or a fold from scratch when it
    is None) moved to the partial table's knowns; the moved fold is
    ``self.fold``.
    """

    def __init__(self, partial: PartialTable, fold: _Fold | None = None):
        self.ring = partial.ring
        if fold is None:
            fold = _Fold(_plan(self.ring))
        self.fold = fold.updated(partial.known)
        self.unknown_keys = self.fold.plan.keys
        outcomes = self.fold.outcomes
        self.equations: list[Poly] = [o for o in outcomes if o.__class__ is dict]
        self.contradiction: str | None = next(
            (o for o in outcomes if o.__class__ is str), None)

    # -- conclusions ---------------------------------------------------------

    def linear_assignments(self, equations) -> dict[int, FieldScalar]:
        """Each unknown's value from the first equation that fixes it
        linearly; a later one it does not solve sets the contradiction."""
        out: dict[int, FieldScalar] = {}
        zero = self.ring.tower.zero()
        for poly in equations:
            monos = [m for m in poly if m]
            if len(monos) != 1 or len(monos[0]) != 1:
                continue
            (uid,) = monos[0]
            c0, c1 = poly.get((), zero), poly[monos[0]]
            if uid not in out:
                out[uid] = -c0 / c1
            elif not (c1 * out[uid] + c0).is_zero() and self.contradiction is None:
                self.contradiction = "inconsistent linear conclusions"
        return out

    def rewritten(self) -> list[Poly]:
        """Equations with two-term aliases X_i = lam * X_j substituted away.

        Aliases are collected with a union-find whose edges carry the exact
        field factor, so chains and sign flips compose correctly; ``find``
        compresses paths, and an equation with no alias passes as it is.
        """
        parent: dict[int, tuple[int, FieldScalar]] = {}
        one = self.ring.tower.one()

        def times(x, y):  # x * y, None for 1, with no product by exactly 1
            return (x if y is None or y == one else
                    y if x is None or x == one else x * y)

        def find(i: int) -> tuple[int, FieldScalar | None]:
            # the root r of i and f in X_i = f * X_r, None if i is a root
            path = []
            while i in parent:
                path.append(i)
                i = parent[i][0]
            factor = None
            for j in reversed(path):
                factor = times(parent[j][1], factor)
                parent[j] = (i, factor)
            return i, factor

        for poly in self.equations:
            if () in poly or len(poly) != 2:
                continue
            (m1, c1), (m2, c2) = sorted(poly.items())
            if len(m1) != 1 or len(m2) != 1:
                continue
            ri, fi = find(m1[0])
            rj, fj = find(m2[0])
            if ri == rj:
                continue
            # c1 * fi * X_ri + c2 * fj * X_rj = 0
            lam = -times(c2, fj) / times(c1, fi)
            if ri < rj:
                parent[rj] = (ri, lam.inverse())
            else:
                parent[ri] = (rj, lam)
        if not parent:
            return self.equations
        out = []
        for poly in self.equations:
            if not any(i in parent for m in poly for i in m):
                out.append(poly)
                continue
            new: Poly = {}
            for mono, coeff in poly.items():
                ids = []
                for i in mono:
                    r, f = find(i)
                    ids.append(r)
                    coeff = times(coeff, f)
                add_scaled(new, {tuple(sorted(ids)): coeff})
            if new:
                if all(m == () for m in new):
                    if self.contradiction is None:
                        self.contradiction = (
                            "alias substitution exposed a nonzero residual")
                    continue
                out.append(new)
        return out

    def univariate_roots(self, equations) -> list[tuple[int, list[FieldScalar]]]:
        """Solutions of equations involving a single unknown, degree <= 2,
        from the first such equation of each unknown, by unknown id."""
        out: dict[int, list[FieldScalar]] = {}
        for poly in equations:
            ids = {i for m in poly for i in m}
            if len(ids) != 1:
                continue
            (uid,) = ids
            if uid in out or max(map(len, poly)) > 2:
                continue
            zero = self.ring.tower.zero()
            c0 = poly.get((), zero)
            c1 = poly.get((uid,), zero)
            c2 = poly.get((uid, uid), zero)
            if c2.is_zero():
                roots = [-c0 / c1]
            elif (s := field_sqrt(c1 * c1 - 4 * c2 * c0)) is None:
                roots = []
            else:
                # one root when s is zero, since then s == -s
                inv = (2 * c2).inverse()
                roots = [(-c1 + r) * inv for r in {s, -s}]
            # by coordinates, as integers over a common denominator
            den = lcm(*(v.integer_coords()[1] for v in roots))
            out[uid] = sorted(roots, reverse=True, key=lambda v: [
                x * (den // v.integer_coords()[1]) for x in v.integer_coords()[0]])
        return sorted(out.items())

    def eliminated(self, equations) -> list[Poly]:
        """Row-reduce over unknown monomials; returns the reduced rows."""
        rows = [dict(p) for p in equations]
        gauss_jordan(rows, sorted({m for p in rows for m in p if m},
                                  key=lambda m: (-len(m), m)))
        return [r for r in rows if r]


def _is_one_dim(ring: FusionRing, key: FKey) -> bool:
    return len(ring.e_labels(key.a, key.b, key.c, key.u)) == 1


def propagate(partial: PartialTable) -> tuple[PartialTable, SolveReport]:
    """Deterministic fixpoint of the three propagation steps (no branching).

    The returned report carries the per-round resolution counts; branch
    candidates discovered at the fixpoint are stored on the report as
    ``branch_options`` for :func:`solve` to explore.
    """
    partial = partial.copy()
    ring = partial.ring
    fold = partial._fold
    report = SolveReport(ring=ring.name, seeds=len(partial.known))
    start = time.monotonic()
    while True:
        system = _System(partial, fold)
        fold = system.fold
        if system.contradiction:
            report.contradiction = system.contradiction
            break
        assignments = system.linear_assignments(system.equations)
        rewritten = None
        if not assignments:
            rewritten = system.rewritten()
            if rewritten is not system.equations:
                assignments = system.linear_assignments(rewritten)
        if system.contradiction:
            report.contradiction = system.contradiction
            break
        branch_options: list[tuple[FKey, list[FieldScalar]]] = []
        if not assignments:
            candidates = system.univariate_roots(system.equations)
            if not candidates and rewritten is not system.equations:
                candidates = system.univariate_roots(rewritten)
            if not candidates:
                candidates = system.univariate_roots(system.eliminated(rewritten))
            for uid, roots in candidates:
                key = system.unknown_keys[uid]
                if _is_one_dim(ring, key):
                    roots = [v for v in roots if not v.is_zero()]
                if not roots:
                    report.contradiction = (
                        f"no admissible root for {ring.describe(key)}")
                    break
                if len(roots) == 1:
                    assignments[uid] = roots[0]
                else:
                    branch_options.append((key, roots))
            if report.contradiction:
                break
        if assignments:
            for uid, value in sorted(assignments.items()):
                partial.known[system.unknown_keys[uid]] = value
            report.rounds.append(len(assignments))
            continue
        report.branch_options = branch_options
        break
    partial._fold = fold
    report.remaining = sum(
        1 for k in enumerate_fkeys(ring) if k not in partial.known)
    report.duration = time.monotonic() - start
    return partial, report


def _verified(table: FSymbolTable) -> bool:
    return (verify_all(table, rule="vacuous").passed
            and table.check_orthogonality().passed)


def solve(ring, with_report: bool = False):
    """Seed, propagate and branch until every surviving assignment is total.

    Returns the fully solved, independently re-verified tables, each once, as
    branch children differ in the branched key and propagation assigns only
    unknown keys (``with_report=True`` adds the SolveReport of the first
    path, counting the search's stalled leaves and budget-cut nodes).  For
    h3 it only propagates (far beyond desk scale), so it is never complete.
    With no table and no report it raises a RuntimeError naming the cause.
    """
    if isinstance(ring, str):
        ring = builtin_ring(ring)
    max_branch_nodes = 0 if is_h3(ring) else _MAX_BRANCH_NODES
    t0 = time.monotonic()
    tables: list[FSymbolTable] = []
    first_report: SolveReport | None = None
    nodes = 0

    stack = [seed(ring)]
    while stack:
        state = stack.pop()
        state, report = propagate(state)
        if first_report is None:
            first_report = report
        if report.contradiction:
            continue
        if report.remaining == 0:
            table = state.as_table()
            if _verified(table):
                tables.append(table)
            continue
        options = report.branch_options
        if not options or nodes >= max_branch_nodes:
            first_report.budget_cut += bool(options)
            first_report.stalled += not options
            continue
        nodes += 1
        key, roots = options[0]
        for value in reversed(roots):
            branch = state.copy()
            branch.known[key] = value
            stack.append(branch)

    first_report.duration = time.monotonic() - t0
    first_report.branch_decisions = [f"explored {nodes} branch nodes"]
    if not is_h3(ring) and not tables and not with_report:
        raise RuntimeError("no table found: " + (
            "the branch-node budget ran out" if first_report.budget_cut else
            "a leaf stalled" if first_report.stalled else
            "none passed re-verification"))
    if with_report:
        return tables, first_report
    return tables


@dataclass
class ComparisonReport:
    compared: int = 0
    exact: int = 0
    up_to_sign: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def all_exact(self) -> bool:
        return self.compared == self.exact

    def render(self) -> str:
        out = (f"compared={self.compared} exact={self.exact} "
               f"up_to_sign={self.up_to_sign}")
        for m in self.mismatches[:20]:
            out += f"\nmismatch: {m}"
        return out


def compare_to_dataset(partial: PartialTable, table: FSymbolTable) -> ComparisonReport:
    """Exact-match report of a partial assignment against a reference table."""
    rep = ComparisonReport()
    for key in sorted(partial.known, key=lambda k: k.sort_key):
        value = ParamScalar.from_field(partial.known[key])
        want = table.entries[key]
        rep.compared += 1
        if value == want:
            rep.exact += 1
            rep.up_to_sign += 1
        elif value * value == want * want:
            rep.up_to_sign += 1
            rep.mismatches.append(
                f"{table.ring.describe(key)} (sign only)")
        else:
            rep.mismatches.append(table.ring.describe(key))
    return rep
