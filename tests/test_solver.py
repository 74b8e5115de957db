"""Seeded propagation solver against independently brute-forced oracles."""

import gc
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from test_pentagon import _field_valued_gauge

from fusioncat import solver
from fusioncat.exactnum import FieldScalar, add_scaled
from fusioncat.fsymbols import all_ones_table, build_h3_table
from fusioncat.fusionring import FKey, builtin_ring, enumerate_fkeys, f_blocks
from fusioncat.pentagon import (_raw_instances, _square_pop_relations,
                                verify_all)
from fusioncat.solver import (PartialTable, _System, compare_to_dataset,
                              propagate, seed, solve)


def _pentagon_keys(ring):
    """Every pentagon instance as its two left-hand keys and the three keys
    of each summand, enumerated once for all fillings (oracle path)."""
    return [((FKey(x, y, c, u, d, a), FKey(a, z, w, u, c, b)),
             [(FKey(y, z, w, d, c, t), FKey(x, t, w, u, d, b),
               FKey(x, y, z, b, t, a)) for t in esum])
            for x, y, z, w, u, a, b, c, d, esum in _raw_instances(ring)]


def _pentagon_holds(instances, values: dict[FKey, FieldScalar]) -> bool:
    """Direct dict-based residual check with early exit (oracle path)."""
    for (k1, k2), summands in instances:
        lhs = values[k1] * values[k2]
        for k3, k4, k5 in summands:
            lhs = lhs - (values[k3] * values[k4] * values[k5])
        if not lhs.is_zero():
            return False
    return True


def _orthogonal_blocks(ring, block_keys, atoms):
    """All orthogonal fillings of a 2x2 block from the candidate atoms."""
    out = []
    one = ring.tower.one()
    for cells in product(atoms, repeat=4):
        a, b, c, d = cells
        if ((a * a + b * b) == one and (c * c + d * d) == one
                and (a * c + b * d).is_zero()
                and (a * a + c * c) == one and (b * b + d * d) == one
                and (a * b + c * d).is_zero()):
            out.append(dict(zip(block_keys, cells)))
    return out


def _oracle_tables(name, atoms_for_block):
    """Brute-force solutions: unit entries 1, one-dim entries +-1, the 2x2
    block orthogonal over the candidate atoms, filtered by the pentagon.

    The one-dim entries are assigned one at a time, and each pentagon
    instance is checked as soon as the last of them that it reads is set
    (an instance reading none, with the block), so a failing partial
    assignment is dropped with every completion of it."""
    ring = builtin_ring(name)
    one = ring.tower.one()
    keys = enumerate_fkeys(ring)
    unit_keys = [k for k in keys if ring.unit in (k.a, k.b, k.c)]
    rest = [k for k in keys if k not in unit_keys]
    blocks = {}
    singles = []
    for k in rest:
        if len(ring.e_labels(k.a, k.b, k.c, k.u)) == 2:
            blocks.setdefault((k.a, k.b, k.c, k.u), []).append(k)
        else:
            singles.append(k)
    assert len(blocks) == 1
    block_keys = sorted(next(iter(blocks.values())), key=lambda k: k.sort_key)
    # checks[i]: the instances whose last one-dim entry is singles[i - 1]
    depth = {k: i for i, k in enumerate(singles, start=1)}
    checks = [[] for _ in range(len(singles) + 1)]
    for inst in _pentagon_keys(ring):
        (k1, k2), summands = inst
        read = [k1, k2, *(k for summand in summands for k in summand)]
        checks[max(depth.get(k, 0) for k in read)].append(inst)
    solutions = []

    def extend(values, i):
        if not _pentagon_holds(checks[i], values):
            return
        if i == len(singles):
            solutions.append(dict(values))
            return
        for sign in (one, -one):
            values[singles[i]] = sign
            extend(values, i + 1)

    for block in _orthogonal_blocks(ring, block_keys, atoms_for_block):
        values = {k: one for k in unit_keys}
        values.update(block)
        extend(values, 0)
    return ring, solutions


def _fingerprint(values):
    return tuple(values[k].coords for k in sorted(values, key=lambda k: k.sort_key))


def test_seed_counts():
    z3 = builtin_ring("z3_pointed")
    assert len(seed(z3).known) == 27
    fib = builtin_ring("fibonacci")
    assert len(seed(fib).known) == 10
    h3 = builtin_ring("h3")
    assert len(seed(h3).known) == 173


def test_z3_seeding_is_complete():
    z3 = builtin_ring("z3_pointed")
    state, report = propagate(seed(z3))
    assert report.remaining == 0
    assert report.rounds == []
    tables = solve("z3_pointed")
    assert any(t == all_ones_table(z3) for t in tables)


def test_propagation_is_monotone_and_deterministic():
    fib = builtin_ring("fibonacci")
    first_state, first = propagate(seed(fib))
    second_state, second = propagate(seed(fib))
    assert first.render() == second.render()
    assert set(seed(fib).known) <= set(first_state.known)
    assert first_state.known == second_state.known


def test_fibonacci_matches_oracle():
    fib = builtin_ring("fibonacci")
    phi = (fib.tower.gen(0) + 1) / 2
    sqrt_phi = fib.tower.gen(1)
    atoms = [fib.tower.zero(), fib.tower.one(), -fib.tower.one(),
             phi.inverse(), -phi.inverse(),
             sqrt_phi.inverse(), -sqrt_phi.inverse()]
    ring, oracle = _oracle_tables("fibonacci", atoms)
    assert len(oracle) == 2  # the golden block, up to the gauge sign
    solved = solve("fibonacci")
    assert len(solved) == 2
    oracle_prints = {_fingerprint(v) for v in oracle}
    solved_prints = {
        _fingerprint({k: v.as_field() for k, v in t.entries.items()})
        for t in solved}
    assert solved_prints == oracle_prints
    # the canonical representative: [[1/phi, 1/sqrt(phi)], [.., -1/phi]]
    canonical = next(t for t in solved
                     if t.get(("t", "t", "t", "t", "1", "t")).as_field().sign() > 0)
    m = canonical.f_matrix("t", "t", "t", "t")
    assert m[0][0].as_field() == phi.inverse()
    assert m[0][1].as_field() == sqrt_phi.inverse()
    assert m[1][0].as_field() == sqrt_phi.inverse()
    assert m[1][1].as_field() == -phi.inverse()


def test_ising_matches_oracle():
    ising = builtin_ring("ising")
    half_r2 = ising.tower.gen(0) / 2
    atoms = [ising.tower.zero(), ising.tower.one(), -ising.tower.one(),
             half_r2, -half_r2]
    ring, oracle = _oracle_tables("ising", atoms)
    solved = solve("ising")
    assert len(oracle) == len(solved) == 16
    oracle_prints = {_fingerprint(v) for v in oracle}
    solved_prints = {
        _fingerprint({k: v.as_field() for k, v in t.entries.items()})
        for t in solved}
    assert solved_prints == oracle_prints
    canonical = next(
        t for t in solved
        if all(v.as_field().sign() > 0 for v in
               [t.get(("s", "s", "s", "s", "1", "1")),
                t.get(("s", "s", "s", "s", "1", "p")),
                t.get(("s", "s", "s", "s", "p", "1"))]))
    m = canonical.f_matrix("s", "s", "s", "s")
    assert m[0][0].as_field() == half_r2
    assert m[1][1].as_field() == -half_r2
    assert canonical.get(("p", "s", "p", "s", "s", "s")).as_field() == -1
    assert canonical.get(("s", "p", "s", "p", "s", "s")).as_field() == -1


def test_solver_outputs_verify():
    for name in ("z3_pointed", "fibonacci", "ising"):
        for table in solve(name):
            assert verify_all(table, rule="vacuous").passed
            assert table.check_orthogonality().passed


def test_h3_seeds_agree_with_dataset():
    h3 = builtin_ring("h3")
    table = build_h3_table()
    state = seed(h3)
    report = compare_to_dataset(state, table)
    assert report.compared == 173
    assert report.all_exact
    # no pentagon instance over seeded entries alone may have a residual
    state2, prop = propagate(state)
    assert prop.contradiction is None


def test_compare_empty_partial_is_vacuous():
    h3 = builtin_ring("h3")
    report = compare_to_dataset(PartialTable(h3, {}), build_h3_table())
    assert report.compared == 0 and report.all_exact


def test_h3_propagation_report():
    h3 = builtin_ring("h3")
    state, report = propagate(seed(h3))
    assert report.contradiction is None
    assert report.seeds == 173
    assert report.remaining == 1431 - len(state.known)
    assert compare_to_dataset(state, build_h3_table()).all_exact


def test_elimination_uses_each_pivot_row_once():
    # x0 + x1 + 1 = 0, x0 + x2 + 2 = 0, x1 + 3*x2 = 0 reduce to
    # x0 = -7/4, x1 = 3/4, x2 = -1/4; reusing a pivot row would bring a
    # cleared unknown back into the other rows
    z3 = builtin_ring("z3_pointed")
    system = _System(seed(z3))
    q = z3.tower.from_rational
    equations = [{(0,): q(1), (1,): q(1), (): q(1)},
                 {(0,): q(1), (2,): q(1), (): q(2)},
                 {(1,): q(1), (2,): q(3)}]
    rows = system.eliminated(equations)
    for pivot in ((0,), (1,), (2,)):
        assert sum(pivot in row for row in rows) == 1
    assert {tuple(sorted(r.items())) for r in rows} == {
        (((), q(Fraction(7, 4))), ((0,), q(1))),
        (((), q(Fraction(-3, 4))), ((1,), q(1))),
        (((), q(Fraction(1, 4))), ((2,), q(1)))}


def _system_rows(system):
    """A system's equations with their term order, and its contradiction."""
    return [list(poly.items()) for poly in system.equations], system.contradiction


def _checked_systems(monkeypatch):
    """Make every system the solver builds from an earlier fold also build
    itself from scratch, and assert that both agree; returns the log of
    checked systems (one bool per system: whether it was incremental)."""
    built = []
    original = solver._System

    class Checked(original):
        def __init__(self, partial, fold=None):
            super().__init__(partial, fold)
            fresh = original(PartialTable(partial.ring, dict(partial.known)))
            assert _system_rows(self) == _system_rows(fresh)
            assert self.fold.outcomes == fresh.fold.outcomes
            assert self.unknown_keys == fresh.unknown_keys
            built.append(fold is not None)

    monkeypatch.setattr(solver, "_System", Checked)
    return built


def test_incremental_fold_matches_fold_from_scratch(monkeypatch):
    built = _checked_systems(monkeypatch)
    # only the seed's first round folds from scratch: every later round,
    # and the first round of every branch child, starts from an earlier fold
    for name, count, systems in (("fibonacci", 2, 11), ("ising", 16, 239)):
        del built[:]
        assert len(solve(name)) == count
        assert built == [False] + [True] * (systems - 1)
    h3 = builtin_ring("h3")
    del built[:]
    state, report = propagate(seed(h3))
    assert built == [False] and report.contradiction is None
    # h3 from the empty assignment to the seeds: 173 keys change at once
    empty = _System(PartialTable(h3, {}))
    moved = _System(seed(h3), empty.fold)
    fresh = _System(seed(h3))
    assert _system_rows(moved) == _system_rows(fresh)
    assert moved.fold.outcomes == fresh.fold.outcomes
    assert empty.fold.outcomes != moved.fold.outcomes


def test_solver_search_is_pinned():
    for name, nodes, count in (("fibonacci", 3, 2), ("ising", 47, 16)):
        tables, report = solve(name, with_report=True)
        assert report.branch_decisions == [f"explored {nodes} branch nodes"]
        assert len(tables) == count
    state, report = propagate(seed(builtin_ring("h3")))
    assert (report.resolved, report.remaining) == (0, 1258)


def test_plan_states_each_block_row_equation_once():
    # F Ft = I as sum_f F[e_i, f] F[e_j, f] - delta_ij for i <= j: d(d+1)/2
    # equations per block of dimension d, each a left pair and triples
    # (-1, F[e_i, f], F[e_j, f]) that pair keys of one column f; a diagonal
    # one ends in the triple (1, 1, 1)
    for name, count in (("z3_pointed", 27), ("fibonacci", 14), ("ising", 35),
                        ("h3", 1107)):
        ring = builtin_ring(name)
        plan = solver._plan(ring)
        one, minus = len(plan.keys), len(plan.keys) + 1
        assert plan.constants[:2] == [ring.tower.one(), -ring.tower.one()]
        rows = range(plan.n_pentagon,
                     plan.n_equations - len(_square_pop_relations(ring)))
        assert len(rows) == count == sum(
            b.dim * (b.dim + 1) // 2 for b in f_blocks(ring))
        diagonal = 0
        for i in rows:
            sl = list(plan.slots[plan.starts[i]:plan.starts[i + 1]])
            if sl[-3:] == [one] * 3:
                diagonal += 1
                del sl[-3:]
            assert set(sl[2::3]) <= {minus}
            pairs = [sl[:2]] + [sl[k:k + 2] for k in range(3, len(sl), 3)]
            assert all(plan.keys[p].f == plan.keys[q].f for p, q in pairs)
        assert diagonal == sum(b.dim for b in f_blocks(ring))


def _solved_and_data_set_tables():
    """Every table solve finds for fibonacci and ising, and the h3 data set
    at (+1, +1) and at (-1, -1), as (ring, values)."""
    for name in ("fibonacci", "ising"):
        for table in solve(name):
            yield table.ring, {k: v.as_field() for k, v in table.entries.items()}
    data = build_h3_table()
    for p in (1, -1):
        yield data.ring, {k: v.substitute(p, p) for k, v in data.entries.items()}


def test_solved_tables_are_column_orthogonal_and_fold_away():
    # the plan states no column equations, yet every solved table has
    # Ft F = I, and no equation of the plan is left over it: over the h3
    # data set, no block row, relation or pentagon equation either
    for ring, values in _solved_and_data_set_tables():
        zero, one = ring.tower.zero(), ring.tower.one()
        for b in f_blocks(ring):
            m = [[values[FKey(b.a, b.b, b.c, b.u, e, f)] for f in b.f_labels]
                 for e in b.e_labels]
            for i in range(b.dim):
                for j in range(b.dim):
                    dot = sum((row[i] * row[j] for row in m), start=zero)
                    assert dot == (one if i == j else zero)
        system = _System(PartialTable(ring, values))
        assert system.equations == [] and system.contradiction is None


def test_solve_returns_pairwise_distinct_tables():
    # the search reaches no table twice: branch children differ in the
    # branched key, and propagation assigns only unknown keys
    for name, count in (("fibonacci", 2), ("ising", 16)):
        tables = solve(name)
        assert len(tables) == count
        assert all(s != t for i, s in enumerate(tables) for t in tables[:i])


def test_system_conclusions_on_hand_built_equations():
    z3 = builtin_ring("z3_pointed")
    q = z3.tower.from_rational
    system = _System(seed(z3))
    # a linear univariate equation has one root
    assert system.univariate_roots([{(): q(-2), (5,): q(4)}]) == [
        (5, [q(Fraction(1, 2))])]
    # X1 = 2 X3 puts X3 under X1; then X2 = X3 merges X2 toward the lower
    # root X1, so X2 + X3 - 1 becomes X1 - 1 and the aliases cancel
    system.equations = [{(1,): q(1), (3,): q(-2)}, {(2,): q(1), (3,): q(-1)},
                        {(2,): q(1), (3,): q(1), (): q(-1)}]
    assert system.rewritten() == [{(1,): q(1), (): q(-1)}]
    assert system.contradiction is None
    # X1 = X2 and X1 - X2 + 1 = 0 leave the constant 1
    system.equations = [{(1,): q(1), (2,): q(-1)},
                        {(1,): q(1), (2,): q(-1), (): q(1)}]
    assert system.rewritten() == []
    assert system.contradiction == (
        "alias substitution exposed a nonzero residual")
    # a fold moved to the very values it holds is returned as it is
    partial = seed(z3)
    fold = _System(partial).fold
    assert fold.updated(dict(partial.known)) is fold


def test_system_builds_from_a_partial_table_alone():
    z3 = builtin_ring("z3_pointed")
    system = _System(seed(z3))
    assert system.equations == [] and system.contradiction is None
    assert list(system.unknown_keys) == enumerate_fkeys(z3)


def test_square_pop_relations_in_the_plan_hold_and_catch_a_sign():
    # the 8 keys of the two relations at their data-set values (+1, +1):
    # both relations fold away, and negating any one key's value makes that
    # key's own relation a contradiction and leaves the other one holding
    h3 = builtin_ring("h3")
    entries = build_h3_table().entries
    relations = [[k for _, *ks in (lhs, *rhs) for k in ks]
                 for lhs, rhs in _square_pop_relations(h3).values()]
    values = {k: entries[k].substitute(1, 1) for keys in relations for k in keys}
    assert len(values) == 8
    system = _System(PartialTable(h3, values))
    n = system.fold.plan.n_equations - 2  # the relations come last
    assert system.fold.outcomes[n:] == [None, None]
    for own, keys in enumerate(relations):
        for k in keys:
            flipped = _System(PartialTable(h3, {**values, k: -values[k]}),
                              system.fold)
            outcomes = flipped.fold.outcomes[n:]
            assert isinstance(outcomes[own], str)
            assert outcomes[1 - own] is None


def _reference_fold(plan, values, i):
    """Equation ``i`` of a plan folded over the key values ``values`` with
    FieldScalar products, one term at a time, its left pair added and each
    triple subtracted (reference path for the packed fold)."""
    keys = len(plan.keys)
    sl = plan.slots[plan.starts[i]:plan.starts[i + 1]]
    n_unknown = None
    if i < plan.n_pentagon:
        n_unknown = [values[p] is None for p in sl].count(True)
        if n_unknown > solver._MAX_UNKNOWNS:
            return None
    poly = {}
    for k in range(-1, len(sl), 3):
        coeff, mono = plan.tower.one(), []
        for p in sl[max(k, 0):k + 3]:
            v = values[p] if p < keys else plan.constants[p - keys]
            if v is None:
                mono.append(p)
            else:
                coeff = coeff * v
        if not coeff.is_zero():
            add_scaled(poly, {tuple(sorted(mono)): coeff if k < 0 else -coeff})
    if not poly:
        return None
    unknowns = {p for m in poly for p in m}
    if not unknowns:
        return (solver._PENTAGON_CONTRADICTION if n_unknown == 0
                else solver._KNOWN_CONTRADICTION)
    if len(unknowns) > solver._MAX_UNKNOWNS:
        return None
    return poly


def _assert_fold_matches_reference(fold):
    plan = fold.plan
    assert fold.outcomes == [_reference_fold(plan, fold.values, i)
                             for i in range(plan.n_equations)]
    return fold.outcomes


def test_packed_fold_matches_the_reference_fold(monkeypatch):
    for name in ("z3_pointed", "fibonacci", "ising", "h3"):
        _assert_fold_matches_reference(_System(seed(builtin_ring(name))).fold)
    # every system the ising search builds, fresh or moved
    original = solver._System

    class Checked(original):
        def __init__(self, partial, fold=None):
            super().__init__(partial, fold)
            _assert_fold_matches_reference(self.fold)
            built.append(fold is not None)

    built = []
    monkeypatch.setattr(solver, "_System", Checked)
    assert len(solve("ising")) == 16 and len(built) == 239
    monkeypatch.undo()
    # wide coefficients: the h3 data set under a field-valued gauge at
    # (+1, +1), one key in four unknown and one known key negated, so that
    # many equations keep at most four unknowns and some none; the fold
    # from scratch and the fold moved from the seeds' agree
    h3 = builtin_ring("h3")
    rng = random.Random(28)
    gauged = build_h3_table().apply_gauge(_field_valued_gauge(h3, rng))
    keys = sorted(gauged.entries, key=lambda k: k.sort_key)
    known = {k: gauged.entries[k].substitute(1, 1)
             for k in rng.sample(keys, len(keys) - len(keys) // 4)}
    key = rng.choice(sorted(known, key=lambda k: k.sort_key))
    known[key] = -known[key]
    outcomes = _assert_fold_matches_reference(
        _System(PartialTable(h3, known)).fold)
    assert _System(PartialTable(h3, known), _System(seed(h3)).fold
                   ).fold.outcomes == outcomes
    polys = [o for o in outcomes if o.__class__ is dict]
    assert len(polys) > 30000 and outcomes.count(solver._KNOWN_CONTRADICTION)


def test_a_fold_from_no_knowns_folds_only_what_a_known_key_reaches():
    # every pentagon equation reads more than _MAX_UNKNOWNS slots, so none
    # is flagged unkeyed; over no knowns only the block rows and the
    # relations are left to fold, each reached through a constant it reads
    for name in ("z3_pointed", "fibonacci", "ising", "h3"):
        ring = builtin_ring(name)
        plan = solver._plan(ring)
        assert all(plan.starts[i + 1] - plan.starts[i] > solver._MAX_UNKNOWNS
                   for i in range(plan.n_pentagon))
        assert plan.unkeyed == bytes(plan.n_equations)
        assert all(max(plan.slots[plan.starts[i]:plan.starts[i + 1]])
                   >= len(plan.keys)
                   for i in range(plan.n_pentagon, plan.n_equations))
        _assert_fold_matches_reference(_System(PartialTable(ring, {})).fold)
    # the h3 seeds reach 7954 of the 41391 pentagon equations
    positions = {k: p for p, k in enumerate(plan.keys)}
    assert len({i for k in seed(ring).known for i in plan._by_key[positions[k]]
                if i < plan.n_pentagon}) == 7954


def test_fold_memory_stays_small():
    """What the h3 per-key equation lists hold, and what propagating the h3
    seeds keeps and takes at most."""
    h3 = builtin_ring("h3")
    plan = solver._plan(h3)
    assert plan._by_key  # built before tracing, as the propagation reads it
    gc.collect()
    tracemalloc.start()
    try:
        by_key = solver._Plan._by_key.func(plan)
        held, peak = tracemalloc.get_traced_memory()
        del by_key
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        state, report = propagate(seed(h3))
        kept, fold_peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert report.remaining == 1258
    assert held < 1_000_000 and peak < 1_000_000
    assert kept < 1_600_000 and fold_peak < 1_600_000


def _counted_folds(monkeypatch):
    """Record the number of every equation a fold folds (its skipped ones
    are never passed to the folder)."""
    folded = []
    original = solver._Fold._folder

    def counting(self):
        fold = original(self)

        def counted(i):
            folded.append(i)
            return fold(i)
        return counted

    monkeypatch.setattr(solver._Fold, "_folder", counting)
    return folded


def test_identical_rule_skip_is_exact_on_both_sides_of_its_condition(
        monkeypatch):
    h3 = builtin_ring("h3")
    plan = solver._plan(h3)
    positions = {k: p for p, k in enumerate(plan.keys)}
    folded = _counted_folds(monkeypatch)
    # the seeds' one round re-folds 9063 equations, those that read a seed
    # or a constant; the 5369 the identical rule marks (all of h3's) are
    # skipped, as the unit-label keys are 1
    state, report = propagate(seed(h3))
    assert report.remaining == 1258 and len(folded) == 3694
    reached = [positions[k] for k in seed(h3).known]
    reached += range(len(plan.keys), len(plan._by_key))
    touched = {i for p in reached for i in plan._by_key[p]}
    skipped = touched - set(folded)
    identical = {i for i, bits in enumerate(plan.trivial) if bits & 2}
    assert len(touched) == 9063 and skipped == identical and len(skipped) == 5369
    # one lineage: the seeds, one unit-label key set to 2 (no skip, and some
    # identical-rule equations no longer cancel), then back to 1
    known = dict(seed(h3).known)
    key = FKey(*(h3.unit,) * 6)
    first = solver._Fold(plan).updated(known)
    moved = first.updated({**known, key: h3.tower.from_rational(2)})
    back = moved.updated(known)
    del folded[:]
    for fold in (first, moved, back):
        _assert_fold_matches_reference(fold)
    reopened = [i for i in plan._by_key[positions[key]]
                if i in identical and moved.outcomes[i] is not None]
    assert len(reopened) == 26
    assert back.outcomes == first.outcomes
    # moving back meets no new value, so the products memo is inherited
    assert back.products is moved.products and back.dirs is first.dirs


def _reference_rewritten(system):
    """``_System.rewritten`` with the union-find that walks every path and
    multiplies every factor, 1 included (reference path)."""
    parent = {}
    one = system.ring.tower.one()

    def find(i):
        factor = one
        while i in parent:
            i, f = parent[i]
            factor = factor * f
        return i, factor

    for poly in system.equations:
        if () in poly or len(poly) != 2:
            continue
        (m1, c1), (m2, c2) = sorted(poly.items())
        if len(m1) != 1 or len(m2) != 1:
            continue
        (ri, fi), (rj, fj) = find(m1[0]), find(m2[0])
        if ri == rj:
            continue
        lam = -(c2 * fj) / (c1 * fi)
        if ri < rj:
            parent[rj] = (ri, one / lam)
        else:
            parent[ri] = (rj, lam)
    out = []
    for poly in system.equations:
        new = {}
        for mono, coeff in poly.items():
            ids = []
            for i in mono:
                r, f = find(i)
                ids.append(r)
                coeff = coeff * f
            add_scaled(new, {tuple(sorted(ids)): coeff})
        if new and not all(m == () for m in new):
            out.append(new)
    return out


def test_path_compressed_aliases_match_the_reference_union_find():
    # a 200-link alias chain X_k = lam_k X_(k+1) with mixed signs and
    # factors, its links in descending order first (so that the union-find
    # builds one deep path) and then shuffled, among equations that read
    # the chain and unknowns outside it
    z3 = builtin_ring("z3_pointed")
    q = z3.tower.from_rational
    rng = random.Random(29)
    factors = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 5),
                        rng.randint(1, 4)) for _ in range(200)]
    links = [{(k,): q(1), (k + 1,): q(-lam)} for k, lam in enumerate(factors)]
    others = [{(0,): q(1), (200,): q(3), (): q(-1)},
              {(5, 150): q(2), (201,): q(1)},
              {(7,): q(1), (7, 7): q(-1), (202,): q(4)},
              {(203,): q(1), (204, 204): q(-2), (): q(5)}]
    for order in (links[::-1], rng.sample(links, len(links))):
        system = _System(seed(z3))
        system.equations = order + others
        expected = _reference_rewritten(system)
        rewritten = system.rewritten()
        assert rewritten == expected and system.contradiction is None
        # the links cancel, every chain unknown is rewritten onto X_0, and
        # the equation with no alias passes as it is
        assert len(rewritten) == len(others) and rewritten[-1] is others[-1]
        assert {i for p in rewritten for m in p for i in m} == {
            0, 201, 202, 203, 204}


def test_rewriting_multiplies_nothing_by_exactly_one(monkeypatch):
    # over solve("ising"): products made by the alias code itself (not by a
    # division inside it), none with an operand of exactly 1
    one = builtin_ring("ising").tower.one()
    products, by_one, active = [0], [0], []
    multiply, rewritten = FieldScalar.__mul__, solver._System.rewritten

    def counted_mul(self, other):
        if active and sys._getframe(1).f_code.co_filename == solver.__file__:
            products[0] += 1
            by_one[0] += self == one or other == one
        return multiply(self, other)

    def counted_rewritten(self):
        active.append(True)
        try:
            return rewritten(self)
        finally:
            active.pop()

    monkeypatch.setattr(FieldScalar, "__mul__", counted_mul)
    monkeypatch.setattr(solver._System, "rewritten", counted_rewritten)
    assert len(solve("ising")) == 16
    assert products[0] > 500 and by_one[0] == 0


def test_linear_conclusions_divide_once_and_check_the_rest(monkeypatch):
    z3 = builtin_ring("z3_pointed")
    q = z3.tower.from_rational
    divisions = []
    divide = FieldScalar.__truediv__
    monkeypatch.setattr(FieldScalar, "__truediv__",
                        lambda a, b: divisions.append(1) or divide(a, b))
    # 2 X3 - 1 = 0 and 6 X3 - 3 = 0 agree: one value, one division
    system = _System(seed(z3))
    agree = [{(): q(-1), (3,): q(2)}, {(3,): q(6), (): q(-3)}]
    assert system.linear_assignments(agree) == {3: q(Fraction(1, 2))}
    assert system.contradiction is None and len(divisions) == 1
    # 2 X3 + 1 = 0 disagrees with the first
    disagree = agree[:1] + [{(): q(1), (3,): q(2)}]
    assert system.linear_assignments(disagree) == {3: q(Fraction(1, 2))}
    assert system.contradiction == "inconsistent linear conclusions"


def test_solve_reports_whether_its_search_is_complete(monkeypatch):
    tables, report = solve("ising", with_report=True)
    assert len(tables) == 16 and report.complete
    assert (report.stalled, report.budget_cut) == (0, 0)
    monkeypatch.setattr(solver, "_MAX_BRANCH_NODES", 10)
    tables, report = solve("ising", with_report=True)
    assert len(tables) == 2 and not report.complete
    assert report.stalled == 0 and report.budget_cut > 0
    assert report.branch_decisions == ["explored 10 branch nodes"]
    monkeypatch.setattr(solver, "_MAX_BRANCH_NODES", 1)
    with pytest.raises(RuntimeError, match="budget"):
        solve("ising")
    monkeypatch.undo()
    # h3 only propagates, so its one node is cut by its budget of 0
    tables, report = solve("h3", with_report=True)
    assert tables == [] and (report.stalled, report.budget_cut) == (0, 1)
    # a leaf with unknowns left and no branch option: with no unknown
    # allowed in an equation, the fib seeds' round keeps no equation
    monkeypatch.setattr(solver, "_MAX_UNKNOWNS", 0)
    tables, report = solve("fibonacci", with_report=True)
    assert tables == [] and report.remaining > 0 and not report.complete
    assert (report.stalled, report.budget_cut) == (1, 0)
    with pytest.raises(RuntimeError, match="stalled"):
        solve("fibonacci")
    monkeypatch.undo()
    # a complete search whose every total table fails re-verification
    monkeypatch.setattr(solver, "_verified", lambda table: False)
    tables, report = solve("fibonacci", with_report=True)
    assert tables == [] and report.complete
    with pytest.raises(RuntimeError, match="none passed re-verification"):
        solve("fibonacci")
