"""Pentagon enumeration and the exact verification sweeps."""

import gc
import multiprocessing
import random
import tracemalloc
import weakref
from array import array
from fractions import Fraction
from functools import cache, reduce
from itertools import (chain, combinations_with_replacement, islice,
                       permutations, product, starmap)
from math import lcm
from operator import mul

import pytest

from fusioncat.exactnum import (ParamScalar, named_constant,
                                render_scalar, tower_preset)
from fusioncat import fsymbols, fusionring, pentagon, solver
from fusioncat.fsymbols import (FSymbolTable, GaugeAssignment,
                                _field_matrix_inverse, _invert_param_matrix,
                                _sign_factors, all_ones_table, build_h3_table)
from fusioncat.fusionring import (FKey, _group_ring, builtin_ring,
                                  enumerate_fkeys, f_blocks)
from fusioncat.pentagon import (PentagonInstance, VerifyReport,
                                check_additional, check_addtriv, check_seeds,
                                check_triangle, classify, count_instances,
                                enumerate_instances, find_failing_instance,
                                key_instance_index, negate_entry, residual,
                                starred_entries, verify_all)
from fusioncat.pentagon import (TRIVIALITY_RULES, _additional_plan,
                                _Directions, _Kernel, _instance_keys,
                                _is_identical, _orthogonality_plan,
                                _pentagon_plan, _raw_instances,
                                _sweep, _trivial_bits, _unpack)
from fusioncat.solver import solve

RING_NAMES = ("z3_pointed", "fibonacci", "ising", "h3")


@pytest.fixture(scope="module")
def table():
    return build_h3_table()


@pytest.fixture(scope="module")
def h3(table):
    return table.ring


def test_counts_per_ring():
    assert count_instances(builtin_ring("z3_pointed"))["total"] == 81
    assert count_instances(builtin_ring("fibonacci"))["total"] == 47
    h3_counts = count_instances(builtin_ring("h3"))
    assert h3_counts["total"] == 41391
    assert h3_counts["unit"] == 5369


def test_z3_internals_are_forced():
    z3 = builtin_ring("z3_pointed")
    for inst in enumerate_instances(z3):
        assert len(inst.e_sum) == 1
        # with invertible labels every internal label is the forced product
        assert z3.n(inst.x, inst.y, inst.a) == 1
        assert z3.n(inst.z, inst.w, inst.c) == 1


def test_enumeration_determinism(h3):
    first = list(islice(enumerate_instances(h3), 500))
    second = list(islice(enumerate_instances(h3), 500))
    assert first == second


def test_classification(h3):
    insts = enumerate_instances(h3)
    unit_inst = next(i for i in insts if i.x == h3.unit)
    assert classify(h3, unit_inst, "unit")
    assert not classify(h3, unit_inst, "vacuous")
    r = h3.label("r")
    rho_inst = next(i for i in enumerate_instances(h3)
                    if (i.x, i.y, i.z, i.w) == (r, r, r, r))
    assert not classify(h3, rho_inst, "unit")
    with pytest.raises(ValueError):
        classify(h3, rho_inst, "bogus")


def test_residual_examples(table, h3):
    rng = random.Random(3)
    insts = list(enumerate_instances(h3))
    for inst in rng.sample(insts, 40):
        assert residual(inst, table).is_zero()
    z3 = builtin_ring("z3_pointed")
    ones = all_ones_table(z3)
    for inst in enumerate_instances(z3):
        assert residual(inst, ones).is_zero()


def _by_labels(kernel, ring):
    """The pentagon accumulator of a raw instance tuple, its values read by
    labels from a key -> compiled value map built once per kernel."""
    V = dict(zip(enumerate_fkeys(ring), kernel.values))

    def accumulate(tup):
        x, y, z, w, u, a, b, c, d, esum = tup
        return kernel.accumulate(
            V[(x, y, c, u, d, a)], V[(a, z, w, u, c, b)],
            [(V[(y, z, w, d, c, t)], V[(x, t, w, u, d, b)], V[(x, y, z, b, t, a)])
             for t in esum])
    return accumulate


def test_kernel_matches_reference_residual(table, h3):
    rng = random.Random(17)
    kernel = _Kernel(table)
    by_labels = _by_labels(kernel, h3)
    for inst in rng.sample(list(enumerate_instances(h3)), 40):
        tup = inst.labels + (inst.e_sum,)
        assert kernel.scalar(by_labels(tup)) == residual(inst, table)


def test_verify_all_h3(table):
    report = verify_all(table)
    assert report.passed
    assert report.total == 41391
    assert report.trivial == 5369
    assert report.summary() == ("instances=41391 trivial=5369 "
                                "nontrivial=36022 failures=0")


def test_verify_parallel_matches_serial(table):
    serial = verify_all(table, jobs=1)
    parallel = verify_all(table, jobs=2)
    assert parallel.passed
    assert (parallel.total, parallel.trivial) == (serial.total, serial.trivial)


def test_mutation_produces_failures(table, h3):
    key = h3.key("r", "r", "r", "r", "ar", "r")
    mutated = negate_entry(table, key)
    inst = find_failing_instance(mutated, key)
    assert inst is not None
    bad = residual(inst, mutated)
    assert not bad.is_zero()
    report = verify_all(mutated)
    assert not report.passed
    assert "FAIL" in report.render()


def test_triangle(table):
    report = check_triangle(table)
    assert report.passed, str(report)
    z3 = builtin_ring("z3_pointed")
    assert check_triangle(all_ones_table(z3)).passed


def test_z3_all_ones_passes_every_check():
    ones = all_ones_table(builtin_ring("z3_pointed"))
    assert verify_all(ones, rule="vacuous").passed
    assert check_triangle(ones).passed
    assert check_additional(ones).passed
    assert ones.check_orthogonality().passed


def test_triangle_specific_products(table, h3):
    one = table.ring.tower.one()
    # F[r; 1 r r] * F[r; 1 r r] = 1  (x = z = r)
    v = table.get(("1", "r", "r", "r", "r", "r"))
    assert (v * v).as_field() == one
    # F[asr; 1 r ar] * F[r; 1 asr ar] = 1
    v1 = table.get(("1", "r", "ar", "asr", "asr", "r"))
    v2 = table.get(("1", "asr", "ar", "r", "r", "asr"))
    assert (v1 * v2).as_field() == one


def test_additional(table):
    report = check_additional(table)
    assert report.passed, str(report)
    assert report.checked == 41391


def test_addtriv(table, h3):
    report = check_addtriv(table)
    assert report.passed, str(report)
    # the identity is gauge dependent: re-gauging (r, r; r) must break it
    gauge = GaugeAssignment(h3).set("r", "r", "r", 2)
    assert not check_addtriv(table.apply_gauge(gauge)).passed
    with pytest.raises(ValueError):
        check_addtriv(all_ones_table(builtin_ring("z3_pointed")))


def test_seeds(table):
    report = check_seeds(table)
    assert report.passed, str(report)


def test_seed_values_examples(table, h3):
    one = table.ring.tower.one()
    assert table.get(("r", "r", "1", "r", "r", "r")).as_field() == one
    assert table.get(("r", "1", "r", "ar", "r", "r")).as_field() == one
    assert table.get(("r", "r", "r", "r", "r", "r")).as_field() == -named_constant("B")


def _random_gauge(ring, rng):
    gauge = GaugeAssignment(ring)
    for a in range(len(ring)):
        for b in range(len(ring)):
            for c in ring.fusion(a, b):
                gauge.set(a, b, c, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    return gauge


def test_gauge_invariance_spot(table, h3):
    """A couple of random gauges here; the acceptance suite runs all 20."""
    rng = random.Random(2024)
    for _ in range(2):
        gauged = table.apply_gauge(_random_gauge(h3, rng))
        assert verify_all(gauged).passed
        assert check_triangle(gauged).passed
        assert check_additional(gauged).passed


def _assert_kernel_agrees(table, tuples):
    """Kernel verdict and rebuilt residual equal the reference residual."""
    kernel = _Kernel(table)
    by_labels = _by_labels(kernel, table.ring)
    nonzero = 0
    for tup in tuples:
        ref = residual(PentagonInstance(*tup[:9], e_sum=tup[9]), table)
        acc = by_labels(tup)
        assert (not any(acc)) == ref.is_zero()
        assert kernel.scalar(acc) == ref
        nonzero += not ref.is_zero()
    return nonzero


def test_kernel_differential_gauge_and_negations(table, h3):
    rng = random.Random(4242)
    instances, index = key_instance_index(h3)
    gauged = table.apply_gauge(_random_gauge(h3, rng))
    assert _assert_kernel_agrees(gauged, rng.sample(instances, 60)) == 0
    nonzero = 0
    keys = sorted(index)
    for key in rng.sample(keys, 4):
        mutated = negate_entry(table, key)
        touching = [instances[pos] for pos in index[key]]
        sample = rng.sample(touching, min(20, len(touching)))
        nonzero += _assert_kernel_agrees(mutated, sample)
    assert nonzero > 0


def test_field_valued_gauge(table, h3):
    """Irrational gauge values bring new field directions into the table;
    the kernel forms their products on demand and stays exact."""
    rng = random.Random(77)
    tower = h3.tower
    values = [tower.one() + tower.gen(0), tower.gen(1) - 2, tower.gen(2)]
    gauge = GaugeAssignment(h3)
    vertices = [(a, b, c) for a in range(1, len(h3)) for b in range(1, len(h3))
                for c in h3.fusion(a, b) if c != h3.unit]
    for vertex in rng.sample(vertices, 8):
        gauge.set(*vertex, rng.choice(values))
    gauged = table.apply_gauge(gauge)
    assert (len(_Kernel(gauged).dirs.prims)
            > len(_Kernel(table).dirs.prims))
    assert verify_all(gauged).passed
    assert check_additional(gauged).passed
    instances, index = key_instance_index(h3)
    assert _assert_kernel_agrees(gauged, rng.sample(instances, 40)) == 0
    key = rng.choice(sorted(index))
    mutated = negate_entry(gauged, key)
    touching = [instances[pos] for pos in index[key]]
    assert _assert_kernel_agrees(mutated, touching[:20]) > 0


def test_packed_decoding_of_negative_coordinates(table, h3):
    """A negated entry of a field-valued gauge leaves residuals with large
    negative coordinates; the balanced decode still returns them exactly."""
    rng = random.Random(9)
    gauged = table.apply_gauge(_field_valued_gauge(h3, random.Random(77)))
    instances, index = key_instance_index(h3)
    key = rng.choice(sorted(index))
    mutated = negate_entry(gauged, key)
    kernel = _Kernel(mutated)
    by_labels = _by_labels(kernel, h3)
    lowest = 0
    for pos in rng.sample(index[key], 30):
        tup = instances[pos]
        want = residual(PentagonInstance(*tup[:9], e_sum=tup[9]), mutated)
        acc = by_labels(tup)
        assert kernel.scalar(acc) == want
        for packed in acc:
            lowest = min(lowest, *_unpack(packed, kernel.width, h3.tower.degree))
    assert lowest < -2 ** 30


def _plan_checks(plan):
    """The value positions of each check of a plan, in sweep order."""
    at = 0
    for n in plan.counts:
        yield plan.slots[at:at + 2 + 3 * n]
        at += 2 + 3 * n


def _assert_width_covers(kernel, scalars, slots):
    """The accumulator of one check holds the reference residual's scaled
    coordinates, and the kernel's field width exceeds even the sum of the
    absolute values of the terms, coordinate by coordinate."""
    tower = kernel.tower
    width, half = kernel.width, 2 ** (kernel.width - 1)
    scale_b = kernel.dirs.den_b
    vals = [kernel.values[p] for p in slots]
    acc = kernel.accumulate(vals[0], vals[1], zip(*[iter(vals[2:])] * 3))
    sc = [scalars[p] for p in slots]
    want = sc[0] * sc[1] - sum(
        (sc[i] * sc[i + 1] * sc[i + 2] for i in range(2, len(sc), 3)),
        start=ParamScalar.from_field(tower.zero()))
    for m, packed in enumerate(acc):
        coeff = want.terms.get(m, tower.zero())
        coords, den = (coeff * (kernel.den_l ** 3 * scale_b)).integer_coords()
        assert den == 1
        assert all(abs(c) < half for c in coords)
        assert sum(c << (k * width) for k, c in enumerate(coords)) == packed
    prims = [tower.from_coords(p) for p in kernel.dirs.prims]
    total = [0] * tower.degree

    def add(n, factors, scale):
        num, den = reduce(mul, (prims[d] for d in factors)).integer_coords()
        for k, c in enumerate(num):
            total[k] += abs(n * c * scale // den)
    for _, n1, d1 in vals[0]:
        for _, n2, d2 in vals[1]:
            add(n1 * n2, (d1, d2), kernel.den_l * scale_b)
    for g1, g2, g3 in zip(*[iter(vals[2:])] * 3):
        for (_, n1, d1), (_, n2, d2), (_, n3, d3) in product(g1, g2, g3):
            add(n1 * n2 * n3, (d1, d2, d3), scale_b)
    assert max(total) < half


def test_field_width_bounds_every_coordinate(table, h3):
    rng = random.Random(31)
    pentagon_checks = list(_plan_checks(_pentagon_plan(h3)))
    additional_checks = list(_plan_checks(_additional_plan(h3)))
    keys = enumerate_fkeys(h3)
    for tab in (table,
                table.apply_gauge(_random_gauge(h3, random.Random(2024))),
                table.apply_gauge(_field_valued_gauge(h3, random.Random(77)))):
        kernel = _Kernel(tab)
        scalars = [tab.entries[k] for k in keys]
        for slots in rng.sample(pentagon_checks, 60):
            _assert_width_covers(kernel, scalars, slots)
        starred = starred_entries(tab)
        kernel = _Kernel(tab, starred=starred)
        scalars += [starred[k] for k in keys]
        for slots in rng.sample(additional_checks, 60):
            _assert_width_covers(kernel, scalars, slots)


def test_invert_param_matrix_mixed_monomials(table, h3):
    tower = h3.tower
    p1 = ParamScalar.param(tower, 1)
    p2 = ParamScalar.param(tower, 2)
    r13 = ParamScalar.from_field(tower.gen(0))
    one = ParamScalar.from_field(tower.one())
    zero = ParamScalar.from_field(tower.zero())
    m = [[one + p1, r13 * p2], [p1 * p2 + 2, r13 - p1]]
    inv = _invert_param_matrix(tower, m)
    for i in range(2):
        for j in range(2):
            got = sum((m[i][k] * inv[k][j] for k in range(2)), start=zero)
            assert got == (one if i == j else zero)
    # p-free blocks need one inversion and stay p-free
    blk = next(b for b in f_blocks(h3) if b.dim == 4)
    m = table.substitute_params(1, -1).f_matrix(blk.a, blk.b, blk.c, blk.u)
    inv = _invert_param_matrix(tower, m)
    assert all(v.is_field() for row in inv for v in row)
    for i in range(4):
        for j in range(4):
            got = sum((m[i][k] * inv[k][j] for k in range(4)), start=zero)
            assert got == (one if i == j else zero)


def _reference_invert_param_matrix(tower, m):
    """The four-point inverse: invert the matrix at each sign point and
    reassemble the coefficient of p1^i p2^j as (1/4) * sum over the sign
    points of s1^i s2^j times the pointwise inverse."""
    n = len(m)
    points = {}
    for s1 in (1, -1):
        for s2 in (1, -1):
            mm = tuple(tuple(v.substitute(s1, s2) for v in row) for row in m)
            points.setdefault(mm, []).append((s1, s2))
    parts = []
    for mm, signs in points.items():
        weights = {i | j << 1:
                   Fraction(sum(s1 ** i * s2 ** j for s1, s2 in signs), 4)
                   for i in (0, 1) for j in (0, 1)}
        parts.append((_field_matrix_inverse(tower, mm),
                      [(mono, w) for mono, w in weights.items() if w]))
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            terms = {}
            for inv, weights in parts:
                for mono, w in weights:
                    val = inv[r][c] * w
                    terms[mono] = terms[mono] + val if mono in terms else val
            row.append(ParamScalar(tower, terms))
        out.append(row)
    return out


def _field_valued_gauge(ring, rng):
    """Eight non-unit vertices set to irrational values, as in
    test_field_valued_gauge."""
    tower = ring.tower
    values = [tower.one() + tower.gen(0), tower.gen(1) - 2, tower.gen(2)]
    gauge = GaugeAssignment(ring)
    vertices = [(a, b, c) for a in range(1, len(ring)) for b in range(1, len(ring))
                for c in ring.fusion(a, b) if c != ring.unit]
    for vertex in rng.sample(vertices, 8):
        gauge.set(*vertex, rng.choice(values))
    return gauge


def test_starred_inverse_matches_four_point_reference(table, h3):
    tower = h3.tower
    tables = [table,
              table.apply_gauge(_random_gauge(h3, random.Random(2024))),
              table.apply_gauge(_field_valued_gauge(h3, random.Random(77)))]
    tables += [table.substitute_params(p1, p2)
               for p1 in (1, -1) for p2 in (1, -1)]
    for tab in tables:
        for blk in f_blocks(h3):
            m = tab.f_matrix(blk.a, blk.b, blk.c, blk.u)
            # every block factors, so none silently takes the four-point path
            assert _sign_factors(m) is not None, blk
            assert (_invert_param_matrix(tower, m)
                    == _reference_invert_param_matrix(tower, m)), blk


def _assert_inverts(m, inv):
    tower = m[0][0].tower
    n = len(m)
    for i in range(n):
        for j in range(n):
            got = sum((m[i][k] * inv[k][j] for k in range(n)),
                      start=ParamScalar.from_field(tower.zero()))
            assert got == (1 if i == j else 0)


def test_sign_factors_and_the_four_point_fallback(h3):
    tower = h3.tower
    p1 = ParamScalar.param(tower, 1)
    p2 = ParamScalar.param(tower, 2)
    one = ParamScalar.from_field(tower.one())
    zero = ParamScalar.from_field(tower.zero())
    r13 = ParamScalar.from_field(tower.gen(0))
    # row signs times column signs, as 2-bit ints i | j << 1 for p1^i p2^j
    m = [[r13 * p1, p2], [one, p1 * p2 * 3]]
    assert _sign_factors(m) == ([0, 1], [1, 2])
    inv = _invert_param_matrix(tower, m)
    assert inv == _reference_invert_param_matrix(tower, m)
    _assert_inverts(m, inv)
    assert _sign_factors([[p1 * p2 * 2]]) == ([0], [3])
    assert _invert_param_matrix(tower, [[p1 * p2 * 2]]) == [[p1 * p2 * Fraction(1, 2)]]
    # invertible (det 1 + 2 p1) but the monomials do not factor
    m = [[one, one, zero], [zero, one, one], [p1 * 2, zero, one]]
    assert _sign_factors(m) is None
    inv = _invert_param_matrix(tower, m)
    assert inv == _reference_invert_param_matrix(tower, m)
    _assert_inverts(m, inv)
    # a factorable singular block is still reported as singular
    m = [[one, p1], [r13, r13 * p1]]
    assert _sign_factors(m) == ([0, 0], [0, 1])
    with pytest.raises(ValueError, match="block matrix is singular"):
        _invert_param_matrix(tower, m)


def _reference_classify(ring, inst, rule):
    """The triviality rules on FKeys and sorted key lists."""
    if rule == "vacuous":
        return False
    is_unit = ring.unit in (inst.x, inst.y, inst.z, inst.w)
    if rule == "unit":
        return is_unit
    x, y, z, w, u, a, b, c, d = inst.labels
    ident = False
    if len(inst.e_sum) == 1:
        t = inst.e_sum[0]
        lhs = [k for k in (FKey(x, y, c, u, d, a), FKey(a, z, w, u, c, b))
               if ring.unit not in (k.a, k.b, k.c)]
        rhs = [k for k in (FKey(y, z, w, d, c, t), FKey(x, t, w, u, d, b),
                           FKey(x, y, z, b, t, a))
               if ring.unit not in (k.a, k.b, k.c)]
        ident = sorted(lhs) == sorted(rhs)
    return ident if rule == "identical" else is_unit or ident


def test_identical_rule_matches_reference():
    for name in RING_NAMES:
        ring = builtin_ring(name)
        for inst in enumerate_instances(ring):
            for rule in TRIVIALITY_RULES:
                assert (classify(ring, inst, rule)
                        == _reference_classify(ring, inst, rule)), (inst, rule)
    # on the built-in rings the identical rule marks exactly the unit
    # instances, so every label tuple over three h3 labels, instance or
    # not, exercises the comparison of the surviving keys as well
    h3 = builtin_ring("h3")
    hits = 0
    for labels in product((0, 1, 3), repeat=9):
        for esum in ((0,), (1,), (3,), (1, 3)):
            inst = PentagonInstance(*labels, e_sum=esum)
            want = _reference_classify(h3, inst, "identical")
            assert _is_identical(h3.unit, labels + (esum,)) == want, inst
            hits += want and not _reference_classify(h3, inst, "unit")
    assert hits == 16


def test_count_instances_pinned():
    assert {name: count_instances(builtin_ring(name)) for name in RING_NAMES} == {
        "z3_pointed": {"total": 81, "unit": 65, "identical": 65, "both": 65,
                       "vacuous": 0},
        "fibonacci": {"total": 47, "unit": 37, "identical": 37, "both": 37,
                      "vacuous": 0},
        "ising": {"total": 132, "unit": 95, "identical": 95, "both": 95,
                  "vacuous": 0},
        "h3": {"total": 41391, "unit": 5369, "identical": 5369, "both": 5369,
               "vacuous": 0},
    }


def test_key_instance_index_matches_reference():
    for name in ("fibonacci", "ising", "h3"):
        ring = builtin_ring(name)
        ref_instances, ref_index = [], {}
        for pos, inst in enumerate(enumerate_instances(ring)):
            ref_instances.append(inst.labels + (inst.e_sum,))
            x, y, z, w, u, a, b, c, d = inst.labels
            keys = [FKey(x, y, c, u, d, a), FKey(a, z, w, u, c, b)]
            for t in inst.e_sum:
                keys += [FKey(y, z, w, d, c, t), FKey(x, t, w, u, d, b),
                         FKey(x, y, z, b, t, a)]
            assert inst.keys() == keys
            for k in set(keys):
                ref_index.setdefault(k, []).append(pos)
        instances, index = key_instance_index(ring)
        assert list(instances) == ref_instances
        # same keys in the same order, with the same positions
        assert ([(k, list(v)) for k, v in index.items()]
                == list(ref_index.items()))
        assert all(type(k) is FKey for k in index)


def test_index_cache_is_per_ring_object():
    key_instance_index(builtin_ring("h3"))
    impostor = _group_ring("h3", [("1", "1"), ("α", "a"), ("α*", "as")],
                           [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                           tower_preset("rationals"))
    instances, index = key_instance_index(impostor)
    assert list(instances) == [inst.labels + (inst.e_sum,)
                               for inst in enumerate_instances(impostor)]
    assert len(instances) == 81
    key = FKey(1, 1, 1, 0, 2, 2)
    assert key in enumerate_fkeys(impostor)
    inst = find_failing_instance(
        negate_entry(all_ones_table(impostor), key), key)
    assert inst is not None and key in inst.keys()
    assert len(key_instance_index(builtin_ring("h3"))[0]) == 41391


@pytest.mark.parametrize("name,count", [("fibonacci", 47), ("ising", 132),
                                        ("h3", 41391)])
def test_instance_view_reads_the_stream(name, count):
    ring = builtin_ring(name)
    stream = list(_raw_instances(ring))
    instances, index = key_instance_index(ring)
    assert len(instances) == len(stream) == count
    assert all(instances[i] == tup for i, tup in enumerate(stream))
    assert instances[-1] == stream[-1]
    with pytest.raises(IndexError):
        instances[len(instances)]
    assert list(iter(instances)) == stream
    for positions in index.values():
        assert type(positions) is array and positions.typecode == "I"
        assert all(p < q for p, q in zip(positions, positions[1:]))


def test_index_build_never_builds_the_pentagon_plan(monkeypatch):
    """Building the index builds no pentagon plan; its instance view
    builds the plan only when first read."""
    ring = fusionring._build_builtin.__wrapped__("h3")

    def refuse(ring):
        raise AssertionError("the index built the pentagon plan")

    monkeypatch.setattr(pentagon, "_pentagon_plan", refuse)
    instances, index = key_instance_index(ring)
    monkeypatch.undo()
    assert len(instances) == 41391 and len(index) == len(enumerate_fkeys(ring))
    assert instances[7] == next(islice(_raw_instances(ring), 7, None))


@pytest.mark.parametrize("name", RING_NAMES)
def test_index_lists_each_check_once(name):
    """Each array is strictly increasing and holds every instance that reads
    its key; on h3, 16405 instances read one key twice."""
    ring = builtin_ring(name)
    index = key_instance_index(ring)[1]
    for positions in index.values():
        assert all(p < q for p, q in zip(positions, positions[1:]))
    per_instance = [_instance_keys(tup) for tup in _raw_instances(ring)]
    assert (sum(map(len, index.values()))
            == sum(len(set(keys)) for keys in per_instance))
    if name == "h3":
        assert sum(len(set(keys)) < len(keys) for keys in per_instance) == 16405


@pytest.mark.parametrize("name", ("fibonacci", "ising", "h3"))
def test_index_agrees_with_the_solver_plan(name):
    """The solver's per-key equation lists, read off the pentagon plan,
    restricted to the pentagon equations, are the index by key position."""
    ring = builtin_ring(name)
    plan = solver._plan(ring)
    index = key_instance_index(ring)[1]
    for key, equations in zip(plan.keys, plan._by_key):
        checks = [i for i in equations if i < plan.n_pentagon]
        assert list(index.get(key, ())) == checks


def test_key_check_map_memory_stays_small(h3):
    """What inverting the built h3 pentagon plan holds and takes at most."""
    _pentagon_plan(h3)
    gc.collect()
    tracemalloc.start()
    try:
        held = pentagon._key_checks.__wrapped__(h3)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(held) == len(enumerate_fkeys(h3))
    assert size < 3_000_000
    assert peak < 3_000_000


def _impostor():
    return _group_ring("h3", [("1", "1"), ("α", "a"), ("α*", "as")],
                       [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                       tower_preset("rationals"))


def test_index_call_builds_nothing(monkeypatch):
    def refuse(ring):
        raise AssertionError("the index call built per-ring data")

    ring = _impostor()
    monkeypatch.setattr(pentagon, "_pentagon_plan", refuse)
    monkeypatch.setattr(pentagon, "_key_checks", refuse)
    instances, index = key_instance_index(ring)
    monkeypatch.undo()
    assert len(instances) == 81 and len(index) == len(enumerate_fkeys(ring))


def test_first_index_read_builds_the_map_once(monkeypatch):
    ring = _impostor()
    calls = []
    readers = pentagon._readers

    def counted(*args):
        calls.append(args)
        return readers(*args)

    monkeypatch.setattr(pentagon, "_readers", counted)
    instances, index = key_instance_index(ring)
    instances[0]
    assert not calls
    key = FKey(1, 1, 1, 0, 2, 2)
    first = index[key]
    assert len(calls) == 1
    assert index[key] is first and dict(index.items())[key] is first
    assert find_failing_instance(
        negate_entry(all_ones_table(ring), key), key) is not None
    assert len(calls) == 1


def _read_index(ring):
    instances, index = key_instance_index(ring)
    return instances[0], len(instances), list(index.items())


@pytest.mark.parametrize("build", [
    _pentagon_plan, _additional_plan, pentagon._key_checks, _read_index,
    lambda ring: solver._plan(ring)._by_key,
], ids=["pentagon_plan", "additional_plan", "key_checks", "index",
        "solver_by_key"])
def test_every_per_ring_cache_lets_its_ring_go(build):
    ring = _impostor()
    ring_ref = weakref.ref(ring)
    assert build(ring)
    del ring
    gc.collect()
    assert ring_ref() is None


def test_a_ring_named_h3_is_not_treated_as_h3():
    impostor = _group_ring("h3", [("1", "1"), ("α", "a"), ("α*", "as")],
                           [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                           tower_preset("rationals"))
    tables = solve(impostor)
    assert len(tables) == 1 and tables[0].entries == solve("z3")[0].entries
    with pytest.raises(ValueError, match="seed values are specific to the h3"):
        check_seeds(all_ones_table(impostor))


@pytest.mark.parametrize("name", RING_NAMES)
def test_instances_are_the_enumerated_tuples(name):
    ring = builtin_ring(name)
    instances = list(enumerate_instances(ring))
    assert instances == list(_raw_instances(ring))
    assert all(isinstance(inst, tuple) for inst in instances)


def test_instance_repr_is_unchanged():
    inst = next(iter(enumerate_instances(builtin_ring("h3"))))
    assert repr(inst) == ("PentagonInstance(x=0, y=0, z=0, w=0, u=0, "
                          "a=0, b=0, c=0, d=0, e_sum=(0,))")


def test_failing_instance_is_the_indexed_tuple(table, h3):
    instances, index = key_instance_index(h3)
    for key in random.Random(15).sample(_four_dim_keys(h3), 3):
        mutated = negate_entry(table, key)
        pos = next(p for p in index[key] if not residual(PentagonInstance(
            *instances[p][:9], e_sum=instances[p][9]), mutated).is_zero())
        assert find_failing_instance(mutated, key) == instances[pos]


def test_trivial_counts_match_census(table):
    z3 = builtin_ring("z3_pointed")
    ones = all_ones_table(z3)
    counts = count_instances(z3)
    for rule in TRIVIALITY_RULES:
        assert verify_all(ones, rule=rule).trivial == counts[rule]
    assert (verify_all(table, rule="both").trivial
            == count_instances(table.ring)["both"])


def _reference_verify(table, rule):
    """The pentagon sweep by labels: enumerate the instances, skip the
    trivial ones and evaluate the rest from their label tuples."""
    ring = table.ring
    unit = ring.unit
    kernel = _Kernel(table)
    by_labels = _by_labels(kernel, ring)
    rep = VerifyReport(rule=rule)
    use_unit = rule in ("unit", "both")
    use_ident = rule in ("identical", "both")
    for tup in _raw_instances(ring):
        rep.total += 1
        if ((use_unit and unit in tup[:4])
                or (use_ident and _is_identical(unit, tup))):
            rep.trivial += 1
            continue
        acc = by_labels(tup)
        if any(acc):
            rep.failures.append((tup[:9], render_scalar(kernel.scalar(acc))))
    return rep


def _reference_additional(table):
    """The mixed associativity sweep by labels, nine loops deep: the number
    of checks and the failure strings in sweep order."""
    ring = table.ring
    N = ring._n
    fus = ring._fusion
    n = len(ring)
    keys = enumerate_fkeys(ring)
    kernel = _Kernel(table, starred=starred_entries(table))
    V = dict(zip(keys, kernel.values))
    S = dict(zip(keys, kernel.values[len(keys):]))
    checked = 0
    failures = []
    for a in range(n):
        for x1 in range(n):
            for x3 in fus[(a, x1)]:
                for x2 in range(n):
                    for b in fus[(x1, x2)]:
                        for c in range(n):
                            for x4 in fus[(x2, c)]:
                                for u in fus[(x3, x4)]:
                                    for y in fus[(a, b)]:
                                        if not (N[x3][x2][y] and N[y][c][u]):
                                            continue
                                        acc = kernel.accumulate(
                                            S[(x3, x2, c, u, x4, y)],
                                            V[(a, x1, x2, y, b, x3)],
                                            [(V[(a, x1, x4, u, s, x3)],
                                              S[(x1, x2, c, s, x4, b)],
                                              S[(a, b, c, u, s, y)])
                                             for s in fus[(x1, x4)]
                                             if N[a][s][u] and N[b][c][s]])
                                        checked += 1
                                        if any(acc):
                                            failures.append(
                                                f"a={a} x1={x1} x2={x2} x3={x3} "
                                                f"x4={x4} c={c} u={u} b={b} y={y}")
    return checked, failures


def _four_dim_keys(ring):
    return [k for blk in f_blocks(ring) if blk.dim == 4 for k in blk.keys()]


def _assert_sweeps_match_reference(tab, rules):
    got_failures = 0
    for rule in rules:
        got = verify_all(tab, rule=rule)
        want = _reference_verify(tab, rule)
        assert (got.total, got.trivial) == (want.total, want.trivial), rule
        assert got.render() == want.render(), rule
        got_failures += len(got.failures)
    add = check_additional(tab)
    assert (add.checked, add.failures) == _reference_additional(tab)
    return got_failures + len(add.failures)


def test_plan_starts_open_each_check(table, h3):
    """``starts`` opens every check of both plans, and a one-check sweep from
    it gives the full sweep's verdict on that check, nonzero or absent."""
    mutated = table
    for key in random.Random(5150).sample(_four_dim_keys(h3), 4):
        mutated = negate_entry(mutated, key)
    rng = random.Random(2718)
    for plan, kernel in (
            (_pentagon_plan(h3), _Kernel(mutated)),
            (_additional_plan(h3),
             _Kernel(mutated, starred=starred_entries(mutated)))):
        starts, counts = plan.starts, plan.counts
        assert starts[0] == 0 and starts[-1] == len(plan.slots)
        assert [b - a for a, b in zip(starts, starts[1:])] == [
            2 + 3 * n for n in counts]
        full = dict(_sweep(kernel, plan, 0, len(counts)))
        assert full
        sample = (rng.sample(range(len(counts)), 200)
                  + rng.sample(sorted(full), 20) + [0, len(counts) - 1])
        for i in sample:
            assert _sweep(kernel, plan, i, i + 1) == (
                [(i, full[i])] if i in full else []), i


def test_plan_sweeps_match_reference_loops_small_rings():
    for name in ("z3_pointed", "fibonacci", "ising"):
        ring = builtin_ring(name)
        base = all_ones_table(ring) if name == "z3_pointed" else solve(name)[0]
        assert _assert_sweeps_match_reference(base, TRIVIALITY_RULES) == 0
        # a key with no unit label, so that some residual becomes nonzero
        key = next(k for k in reversed(enumerate_fkeys(ring))
                   if ring.unit not in k[:4])
        mutated = negate_entry(base, key)
        assert _assert_sweeps_match_reference(mutated, TRIVIALITY_RULES) > 0


def test_plan_sweeps_match_reference_loops_h3(table, h3):
    mutated = table
    for key in random.Random(5150).sample(_four_dim_keys(h3), 4):
        mutated = negate_entry(mutated, key)
    tables = [table,
              table.apply_gauge(_random_gauge(h3, random.Random(2024))),
              table.apply_gauge(_field_valued_gauge(h3, random.Random(77))),
              table.substitute_params(1, -1),
              mutated]
    failures = [_assert_sweeps_match_reference(tab, [TRIVIALITY_RULES[i % 4]])
                for i, tab in enumerate(tables)]
    assert failures[:4] == [0, 0, 0, 0] and failures[4] > 0


def test_verify_parallel_matches_serial_on_failing_tables(table, h3):
    rng = random.Random(606)
    keys = rng.sample(_four_dim_keys(h3), 3)
    negated = negate_entry(negate_entry(table, keys[0]), keys[1])
    gauged = negate_entry(table.apply_gauge(_random_gauge(h3, rng)), keys[2])
    for tab in (negated, gauged, _galois_conjugate(table, 1)):
        serial = verify_all(tab)
        assert not serial.passed
        assert verify_all(tab, jobs=2).render() == serial.render()


# a negated entry (u; a b c; e f) of the data set -> the failures of
# (check_triangle, check_seeds) on the negated table
_NEGATED_CHECKER_FAILURES = {
    ("ar", "1", "a", "r", "ar", "a"): (
        ["F[ar;1 a r] product != 1", "F[a;1 ar r] product != 1"], []),
    ("ar", "r", "r", "1", "r", "ar"): (
        ["F[ar;r r 1] product != 1", "F[r;r ar 1] product != 1"], []),
    ("r", "r", "r", "r", "r", "r"): ([], ["(F[r; r r r])_{rr} != -B"]),
    ("ar", "r", "1", "r", "r", "r"): ([], ["F[ar; r 1 r; e=r f=r] != 1"]),
    ("r", "1", "1", "r", "r", "1"): (
        ["F[r;1 1 r] product != 1", "F[1;1 r r] product != 1"],
        ["F[r; 1 1 r; e=r f=1] != 1"]),
}


@pytest.mark.parametrize("negated", sorted(_NEGATED_CHECKER_FAILURES),
                         ids="-".join)
def test_checkers_name_each_negated_entry(table, h3, negated):
    u, a, b, c, e, f = negated
    mutated = negate_entry(table, h3.key(a, b, c, u, e, f))
    triangle, seeds = check_triangle(mutated), check_seeds(mutated)
    assert (triangle.failures, seeds.failures) == (
        _NEGATED_CHECKER_FAILURES[negated])
    assert (triangle.checked, seeds.checked) == (102, 21)


def test_verify_all_rejects_an_unknown_rule_and_probes_find_nothing(table, h3):
    with pytest.raises(ValueError, match="unknown triviality rule 'bogus'"):
        verify_all(table, rule="bogus")
    r = h3.label("r")
    assert find_failing_instance(table, FKey(r, r, r, r, r, r)) is None
    for key in random.Random(23).sample(_four_dim_keys(h3), 2):
        assert find_failing_instance(table, key) is None


@pytest.mark.parametrize("name", RING_NAMES)
def test_additional_plan_regroups_the_pentagon_plan(name):
    """The mixed-associativity plan rebuilt from the pentagon plan, as
    :func:`_additional_plan` states: each check gathers the pentagon checks
    of one (R3, L2), summed over d for their t.  This checks the pentagon
    stream against the plan's separately written loop nest."""
    ring = builtin_ring(name)
    keys = enumerate_fkeys(ring)
    star = len(keys)
    pentagon = _pentagon_plan(ring)
    groups: dict[tuple[int, int], list[int]] = {}
    for start, stop in zip(pentagon.starts, pentagon.starts[1:]):
        l1, l2, *rest = pentagon.slots[start:stop]
        for r1, r2, r3 in zip(*[iter(rest)] * 3):
            groups.setdefault((r3, l2), [star + l2, r3]).extend(
                [l1, star + r1, star + r2])

    def label_order(group):
        (x, y, z, b, t, a), (_, _, w, u, c, _) = (keys[p] for p in group)
        return (x, y, a, z, t, w, c, u, b)

    slots, counts, starts = array("H"), array("B"), array("I", [0])
    for group in sorted(groups, key=label_order):
        slots.extend(groups[group])
        counts.append((len(groups[group]) - 2) // 3)
        starts.append(len(slots))
    plan = _additional_plan(ring)
    assert (plan.slots, plan.counts, plan.starts) == (slots, counts, starts)


def test_verify_all_rejects_jobs_below_one():
    ones = all_ones_table(builtin_ring("z3_pointed"))
    for jobs in (0, -2):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            verify_all(ones, jobs=jobs)


def test_verify_pool_is_capped_at_the_label_count(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            return list(starmap(fn, args))

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    ones = negate_entry(all_ones_table(builtin_ring("z3_pointed")),
                        FKey(1, 1, 1, 0, 2, 2))
    serial = verify_all(ones)
    assert not serial.passed and sizes == []
    for jobs, procs in ((10 ** 6, 3), (2, 2)):
        assert verify_all(ones, jobs=jobs).render() == serial.render()
        assert sizes.pop() == procs


def _galois_conjugate(table, bit):
    """Every entry with the h3 coordinates on generator ``bit`` negated."""
    def conj(x):
        num, den = x.integer_coords()
        return type(x)(x.tower, tuple(-v if i & bit else v
                                      for i, v in enumerate(num)), den)
    return table.map_entries(lambda k, v: ParamScalar(
        v.tower, {m: conj(c) for m, c in v.terms.items()}))


def test_galois_conjugates_pass_every_check(table, h3):
    # rA -> -rA (bit 2) and rE -> -rE (bit 4) are field automorphisms, so
    # they carry a solution to a solution; r13 -> -r13 (bit 1) is not one
    key = random.Random(1906).choice(_four_dim_keys(h3))
    for bit in (2, 4):
        conjugate = _galois_conjugate(table, bit)
        assert conjugate.entries != table.entries
        assert verify_all(conjugate).passed
        assert conjugate.check_orthogonality().passed
        assert check_additional(conjugate).passed
        assert find_failing_instance(negate_entry(conjugate, key), key) is not None
    assert not verify_all(_galois_conjugate(table, 1)).passed


def _reference_compile(table, starred=None):
    """The per-entry compile: every entry of every map split on its own, in
    entry order, then the constants 1 and -1; returns (values, den_l, prims,
    width)."""
    dirs = _Directions(table.ring.tower)
    maps = [table.entries] + ([starred] if starred is not None else [])
    one = ParamScalar.from_field(table.ring.tower.one())
    splits = {}
    for entries in maps + [{0: one, 1: -one}]:
        for v in entries.values():
            for coeff in v.terms.values():
                num, den = coords = coeff.integer_coords()
                if coords not in splits:
                    splits[coords] = dirs.intern(num) + (den,)
    den_l = lcm(*(den for _, _, den in splits.values()))
    keys = enumerate_fkeys(table.ring)
    values = []
    for v in chain(*([entries[k] for k in keys] for entries in maps),
                   (one, -one)):
        terms = []
        for m, c in v.terms.items():
            g, pid, den = splits[c.integer_coords()]
            terms.append((m, g * (den_l // den), pid))
        values.append(tuple(terms))
    kernel = _Kernel(table, starred=starred)
    summands = max(map(len, table.ring._fusion.values()))
    # the width from the maxima over every entry's compiled value
    return values, den_l, dirs.prims, kernel._width(summands, values)


def test_kernel_compiles_each_distinct_value_once(table, h3):
    unshared = table.map_entries(
        lambda k, v: ParamScalar(v.tower, dict(v.terms)))
    assert len({id(v) for v in unshared.entries.values()}) == len(unshared.entries)
    cases = [
        (table, None),
        (table.substitute_params(1, -1), None),
        (table.apply_gauge(_random_gauge(h3, random.Random(2024))), None),
        (table.apply_gauge(_field_valued_gauge(h3, random.Random(77))), None),
        (table, starred_entries(table)),
        (unshared, None),
    ]
    for tab, starred in cases:
        kernel = _Kernel(tab, starred=starred)
        values, den_l, prims, width = _reference_compile(tab, starred)
        assert kernel.values == values
        assert kernel.den_l == den_l
        assert kernel.dirs.prims == prims
        assert kernel.width == width
    assert _Kernel(unshared).values == _Kernel(table).values


def _reference_first_failing(mutated, key):
    instances, index = key_instance_index(mutated.ring)
    for pos in index.get(key, ()):
        inst = PentagonInstance(*instances[pos][:9], e_sum=instances[pos][9])
        if not residual(inst, mutated).is_zero():
            return inst
    return None


def _assert_negated_copy(base, before, mutated, key):
    assert base.entries == before  # the base table is left as it was
    assert mutated.entries.keys() == base.entries.keys()
    assert mutated.entries[key] == -base.entries[key]
    assert all(v is base.entries[k]
               for k, v in mutated.entries.items() if k != key)


def test_probes_match_the_reference_scan(table, h3):
    gauged = table.apply_gauge(_random_gauge(h3, random.Random(7)))
    keys = _four_dim_keys(h3)
    cases = [(table, keys),
             (gauged, random.Random(8).sample(keys, 16))]
    for base, probe_keys in cases:
        before = dict(base.entries)
        for key in probe_keys:
            mutated = negate_entry(base, key)
            _assert_negated_copy(base, before, mutated, key)
            got = find_failing_instance(mutated, key)
            assert got is not None
            assert got == _reference_first_failing(mutated, key), key


def test_negate_entry_rejects_a_key_the_table_lacks(table):
    key = FKey(0, 0, 0, 0, 1, 1)
    assert key not in table.entries
    for call in (negate_entry, find_failing_instance):
        with pytest.raises(KeyError, match=r"inadmissible key FKey\(a=0, b=0"):
            call(table, key)


def _reference_starred(tab):
    out = {}
    ring = tab.ring
    for blk in f_blocks(ring):
        inv = _invert_param_matrix(
            ring.tower, tab.f_matrix(blk.a, blk.b, blk.c, blk.u))
        for ei, e in enumerate(blk.e_labels):
            for fi, f in enumerate(blk.f_labels):
                out[FKey(blk.a, blk.b, blk.c, blk.u, e, f)] = inv[fi][ei]
    return out


def test_starred_entries_invert_each_distinct_matrix_once(table, h3):
    for tab in (table, table.substitute_params(1, -1),
                table.apply_gauge(_random_gauge(h3, random.Random(2024)))):
        assert starred_entries(tab) == _reference_starred(tab)
    # two 1x1 blocks of one matrix share their inverse entry
    starred = starred_entries(table)
    by_matrix = {}
    for blk in f_blocks(h3):
        if blk.dim == 1:
            (k,) = blk.keys()
            by_matrix.setdefault(table.entries[k], []).append(k)
    first, second = next(ks for ks in by_matrix.values() if len(ks) > 1)[:2]
    assert starred[first] is starred[second]


def test_shared_singular_block_names_the_first_in_block_order(table, h3):
    one = ParamScalar.from_field(h3.tower.one())
    blocks = [blk for blk in f_blocks(h3) if blk.dim == 3]
    # the same rank-one matrix in two blocks, the later one listed first
    singular = {k for blk in (blocks[-1], blocks[2]) for k in blk.keys()}
    broken = table.map_entries(lambda k, v: one if k in singular else v)
    t = h3.token
    blk = blocks[2]
    name = f"({t(blk.a)},{t(blk.b)},{t(blk.c)};{t(blk.u)})"
    with pytest.raises(ValueError) as err:
        starred_entries(broken)
    assert str(err.value) == f"block matrix is singular: {name}"
    assert check_additional(broken).failures == [str(err.value)]


def _planted_table(table, h3):
    """The data set with four blocks replaced by the kinds of matrix the
    four-point tests above use: a 3x3 whose monomials do not factor, an
    orthogonal 3x3 with two-term entries, a 3x3 with unit rows that is not
    orthogonal, and the factoring mixed-monomial 2x2 of
    test_sign_factors_and_the_four_point_fallback next to a 2x2 identity in
    a 4x4."""
    tower = h3.tower
    p1 = ParamScalar.param(tower, 1)
    p2 = ParamScalar.param(tower, 2)
    one = ParamScalar.from_field(tower.one())
    zero = ParamScalar.from_field(tower.zero())
    r13 = ParamScalar.from_field(tower.gen(0))
    e, f = (one + p1) * Fraction(1, 2), (one - p1) * Fraction(1, 2)
    c, s = one * Fraction(3, 5), one * Fraction(4, 5)
    matrices = [[[one, one, zero], [zero, one, one], [p1 * 2, zero, one]],
                [[e, f, zero], [f, e, zero], [zero, zero, one]],
                [[one, zero, zero], [c, s, zero], [zero, zero, one]],
                [[r13 * p1, p2, zero, zero], [one, p1 * p2 * 3, zero, zero],
                 [zero, zero, one, zero], [zero, zero, zero, one]]]
    blocks = [b for b in f_blocks(h3) if b.dim == 3][:3]
    blocks.append(next(b for b in f_blocks(h3) if b.dim == 4))
    planted = {k: v for blk, m in zip(blocks, matrices)
               for k, v in zip(blk.keys(), chain.from_iterable(m))}
    return table.map_entries(lambda k, v: planted.get(k, v))


def _reference_orthogonal(m) -> bool:
    """F Ft = I, every entry formed over the sign polynomials."""
    d = len(m)
    zero = ParamScalar.from_field(m[0][0].tower.zero())
    return all(sum((m[i][k] * m[j][k] for k in range(d)), start=zero)
               == (1 if i == j else 0) for i in range(d) for j in range(d))


def _singular_tables(table, h3):
    """The data set with every entry zero, and with its all-rho block zero."""
    zero = ParamScalar.from_field(h3.tower.zero())
    r = h3.label("r")
    return [table.map_entries(lambda k, v: zero),
            table.map_entries(lambda k, v: zero if k[:4] == (r, r, r, r) else v)]


def test_block_inverse_matches_the_four_point_reference(table, h3):
    tower = h3.tower

    @cache
    def reference(m):
        try:
            return _reference_invert_param_matrix(tower, m)
        except ValueError:
            return None

    planted = _planted_table(table, h3)
    tables = [table, table.substitute_params(1, -1),
              table.apply_gauge(_random_gauge(h3, random.Random(2024))),
              planted] + _singular_tables(table, h3)
    kinds = set()
    singular = 0
    for tab in tables:
        tab = tab.map_entries(lambda k, v: v)  # no per-block results yet
        for blk in f_blocks(h3):
            m = tab.f_matrix(blk.a, blk.b, blk.c, blk.u)
            if reference(m) is None:
                singular += 1
                with pytest.raises(ValueError, match="block matrix is singular"):
                    tab.block_inverse(m)
            else:
                assert tab.block_inverse(m) == reference(m), blk
            orthogonal = (blk.a, blk.b, blk.c, blk.u) not in (
                tab.non_orthogonal_blocks)
            assert orthogonal == _reference_orthogonal(m), blk
            kinds.add((_sign_factors(m) is not None, orthogonal))
    # every block of the all-zero table and the one all-rho block
    assert singular == len(f_blocks(h3)) + 1
    # factoring and not, orthogonal and not, all met
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    # the orthogonality report is the reference per-block loop
    t = h3.token
    twos = table.map_entries(lambda k, v: v * 2)
    for tab in tables[2:] + [twos]:
        assert tab.check_orthogonality().failures == [
            f"block ({t(blk.a)},{t(blk.b)},{t(blk.c)};{t(blk.u)})"
            for blk in f_blocks(h3)
            if not _reference_orthogonal(tab.f_matrix(blk.a, blk.b, blk.c, blk.u))]


def test_block_checks_do_not_depend_on_call_order(table, h3):
    checks = (FSymbolTable.check_orthogonality, check_addtriv, check_additional)
    gauged = table.apply_gauge(_random_gauge(h3, random.Random(2024)))
    for base in (table, gauged, _planted_table(table, h3)):
        runs = []
        for order in (checks, checks[::-1]):
            tab = base.map_entries(lambda k, v: v)
            runs.append({check: check(tab) for check in order})
        assert runs[0] == runs[1]
    # singular blocks are reported alike whichever check inverts them first
    for base, first in zip(_singular_tables(table, h3),
                           ("(1,1,1;1)", "(r,r,r;r)")):
        for order in permutations((check_addtriv, check_additional)):
            tab = base.map_entries(lambda k, v: v)
            got = {check: check(tab).failures for check in order}
            assert got == {check_addtriv: ["block matrix is singular: (r,r,r;r)"],
                           check_additional: [f"block matrix is singular: {first}"]}


def test_data_set_blocks_need_no_elimination_and_results_die_with_the_table(
        table, h3, monkeypatch):
    calls, split = [], []
    eliminate, factors = fsymbols._field_matrix_inverse, fsymbols._sign_factors
    monkeypatch.setattr(fsymbols, "_field_matrix_inverse",
                        lambda *args: calls.append(args) or eliminate(*args))
    monkeypatch.setattr(fsymbols, "_sign_factors",
                        lambda m: split.append(m) or factors(m))
    checks = (FSymbolTable.check_orthogonality, check_triangle, check_seeds,
              check_addtriv, check_additional)
    for tab in [table] + [table.substitute_params(p1, p2)
                          for p1 in (1, -1) for p2 in (1, -1)]:
        tab = tab.map_entries(lambda k, v: v)
        assert all(check(tab).passed for check in checks)
    assert calls == []
    # the orthogonality check of a gauged table eliminates nothing; then
    # check_additional inverts each distinct matrix of the blocks that fail
    # it once, each split into signs and field part once
    del split[:]
    gauged = table.apply_gauge(_random_gauge(h3, random.Random(2024)))
    assert not gauged.check_orthogonality().passed
    assert calls == [] and split == []
    assert check_additional(gauged).passed
    matrices = {gauged.f_matrix(blk.a, blk.b, blk.c, blk.u)
                for blk in f_blocks(h3)
                if (blk.a, blk.b, blk.c, blk.u) in gauged.non_orthogonal_blocks}
    assert len(matrices) < len(f_blocks(h3))
    assert len(split) == len(matrices) and set(split) == matrices
    assert len(calls) == len(matrices)
    # the inverses are kept on the table only: a weak reference to it dies
    # with it
    dead = weakref.ref(gauged)
    del gauged
    gc.collect()
    assert dead() is None


def _reference_rows(tab):
    """Every block's F Ft - I at i <= j, block by block, over the sign
    polynomials."""
    zero = ParamScalar.from_field(tab.ring.tower.zero())
    one = ParamScalar.from_field(tab.ring.tower.one())
    for blk in f_blocks(tab.ring):
        m = tab.f_matrix(blk.a, blk.b, blk.c, blk.u)
        for i, j in combinations_with_replacement(range(blk.dim), 2):
            yield (sum((m[i][k] * m[j][k] for k in range(blk.dim)), start=zero)
                   - (one if i == j else zero))


def test_orthogonality_sweep_matches_the_reference_blocks(table, h3,
                                                          monkeypatch):
    inverted = []
    invert = fsymbols._invert_param_matrix
    monkeypatch.setattr(fsymbols, "_invert_param_matrix",
                        lambda *args: inverted.append(args) or invert(*args))
    signs = [table.substitute_params(p1, p2)
             for p1 in (1, -1) for p2 in (1, -1)]
    negated = [negate_entry(table, next(blk.keys()))
               for blk in (next(b for b in f_blocks(h3) if b.dim == d)
                           for d in (1, 3, 4))]
    # the all-ones table takes a row's coordinates within a bit of the
    # kernel's width, so a short width misreads its residuals
    singular = _singular_tables(table, h3) + [all_ones_table(h3)]
    tables = ([table] + signs
              + [table.apply_gauge(_random_gauge(h3, random.Random(2024))),
                 _planted_table(table, h3)] + singular
              + [table.map_entries(lambda k, v: v * 2)] + negated)
    plan, numbers = _orthogonality_plan(h3)
    zero = ParamScalar.from_field(h3.tower.zero())
    raised = 0
    for n, tab in enumerate(tables):
        tab = tab.map_entries(lambda k, v: v)  # no per-block results yet
        if n < 1 + len(signs):
            checks = (FSymbolTable.check_orthogonality, check_addtriv,
                      check_additional)
            assert all(check(tab).passed for check in checks)
            assert inverted == []
        # the blocks the sweep flags, in block order, are the reference's
        assert list(tab.non_orthogonal_blocks) == [
            (blk.a, blk.b, blk.c, blk.u) for blk in f_blocks(h3)
            if not _reference_orthogonal(
                tab.f_matrix(blk.a, blk.b, blk.c, blk.u))]
        # and so is every residual the sweep reads
        kernel = _Kernel(tab)
        got = dict(_sweep(kernel, plan, 0, len(numbers)))
        assert [kernel.scalar(got[i]) if i in got else zero
                for i in range(len(numbers))] == list(_reference_rows(tab))
        try:
            want = _reference_starred(tab)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError, match="block matrix is singular"):
                starred_entries(tab)
        else:
            assert starred_entries(tab) == want
    assert raised == len(singular)


def test_orthogonality_checks_fit_the_kernel_width():
    """The kernel's width covers as many triples per check as the largest
    fusion product has labels; a block row i <= j has one triple per column
    past the first and one more on the diagonal, at most d triples for a
    d-dimensional block (a, b, c; u), and d <= |b x c|."""
    for ring in [builtin_ring(name) for name in RING_NAMES] + [_klein_four()]:
        plan, numbers = _orthogonality_plan(ring)
        blocks = f_blocks(ring)
        summands = max(map(len, ring._fusion.values()))
        assert len(plan.counts) == len(numbers) == sum(
            blk.dim * (blk.dim + 1) // 2 for blk in blocks)
        for count, n in zip(plan.counts, numbers):
            blk = blocks[n]
            assert count <= blk.dim <= len(ring.fusion(blk.b, blk.c))
            assert count <= summands


def test_raw_instances_share_each_distinct_e_sum(h3):
    esums = [tup[9] for tup in _raw_instances(h3)]
    assert len(esums) == 41391
    assert len({id(e) for e in esums}) == len(set(esums)) == 10


def _reference_raw_instances(ring):
    """The instance stream by its label loops, the labels t of each
    instance filtered one by one."""
    N, fus, rng = ring._n, ring._fusion, range(len(ring))
    for x, y, z, w, u in product(rng, repeat=5):
        for a in fus[(x, y)]:
            cs = [c for c in fus[(z, w)] if N[a][c][u]]
            bs = [b for b in fus[(a, z)] if N[b][w][u]]
            for b, c in product(bs, cs):
                for d in fus[(y, c)]:
                    if N[x][d][u]:
                        yield (x, y, z, w, u, a, b, c, d,
                               tuple(t for t in fus[(y, z)]
                                     if N[t][w][d] and N[x][t][b]))


def _brute_force_instances(ring):
    """Every label tuple whose two left-hand keys are admissible, in
    lexicographic order, with the t that make all three right-hand keys
    admissible."""
    ok, rng = ring.admissible, range(len(ring))
    for x, y, z, w, u, a, b, c, d in product(rng, repeat=9):
        if ok(FKey(x, y, c, u, d, a)) and ok(FKey(a, z, w, u, c, b)):
            yield (x, y, z, w, u, a, b, c, d,
                   tuple(t for t in rng if ok(FKey(y, z, w, d, c, t))
                         and ok(FKey(x, t, w, u, d, b))
                         and ok(FKey(x, y, z, b, t, a))))


def _klein_four():
    return _group_ring("z2xz2", [("1", "1"), ("a", "a"), ("b", "b"),
                                 ("c", "c")],
                       [[i ^ j for j in range(4)] for i in range(4)],
                       tower_preset("rationals"))


def test_raw_instances_match_the_reference_loops():
    rings = [builtin_ring(name) for name in RING_NAMES] + [_klein_four()]
    for ring in rings:
        got = list(_raw_instances(ring))
        assert got == list(_reference_raw_instances(ring)), ring.name
        if ring.name in ("z3_pointed", "fibonacci", "ising"):
            assert got == list(_brute_force_instances(ring)), ring.name
    assert [len(list(_raw_instances(r))) for r in rings] == [81, 47, 132,
                                                             41391, 256]


def _reference_bits(ring, tup):
    inst = PentagonInstance._make(tup)
    return (_reference_classify(ring, inst, "unit")
            | _reference_classify(ring, inst, "identical") << 1)


def test_trivial_bits_match_the_reference_rules():
    for name in RING_NAMES:
        ring = builtin_ring(name)
        for tup in _raw_instances(ring):
            assert _trivial_bits(ring.unit, tup) == _reference_bits(ring, tup)
    # every tuple over three h3 labels, instance or not; among them the 16
    # that only the identical rule marks have the unit as their single t
    h3 = builtin_ring("h3")
    only_t = 0
    for labels in product((0, 1, 3), repeat=9):
        for esum in ((0,), (1,), (3,), (1, 3)):
            tup = labels + (esum,)
            bits = _trivial_bits(h3.unit, tup)
            assert bits == _reference_bits(h3, tup), tup
            if bits == 2:
                assert esum == (h3.unit,)
                only_t += 1
    assert only_t == 16


def _reference_pentagon_plan(ring):
    pos = {k: i for i, k in enumerate(enumerate_fkeys(ring))}
    slots, counts, starts, trivial = (array("H"), array("B"), array("I", [0]),
                                      bytearray())
    for tup in _reference_raw_instances(ring):
        slots.extend(pos[k] for k in PentagonInstance._make(tup).keys())
        counts.append(len(tup[9]))
        starts.append(len(slots))
        trivial.append(_reference_bits(ring, tup))
    return slots, counts, starts, trivial


def _reference_additional_plan(ring):
    """The mixed-associativity plan by its label loops, the labels s of each
    check filtered one by one."""
    pos = {k: i for i, k in enumerate(enumerate_fkeys(ring))}
    star = len(pos)
    N, fus, rng = ring._n, ring._fusion, range(len(ring))
    slots, counts, starts = array("H"), array("B"), array("I", [0])
    for a, x1 in product(rng, repeat=2):
        for x3, x2 in product(fus[(a, x1)], rng):
            for b, c in product(fus[(x1, x2)], rng):
                for x4 in fus[(x2, c)]:
                    for u, y in product(fus[(x3, x4)], fus[(a, b)]):
                        if not (N[x3][x2][y] and N[y][c][u]):
                            continue
                        ss = [s for s in fus[(x1, x4)]
                              if N[a][s][u] and N[b][c][s]]
                        slots.extend([star + pos[x3, x2, c, u, x4, y],
                                      pos[a, x1, x2, y, b, x3]])
                        for s in ss:
                            slots.extend([pos[a, x1, x4, u, s, x3],
                                          star + pos[x1, x2, c, s, x4, b],
                                          star + pos[a, b, c, u, s, y]])
                        counts.append(len(ss))
                        starts.append(len(slots))
    return slots, counts, starts, bytearray()


@pytest.mark.parametrize("name", RING_NAMES)
def test_plans_match_the_reference_loops(name):
    ring = builtin_ring(name)
    assert tuple(_pentagon_plan(ring)) == _reference_pentagon_plan(ring)
    assert tuple(_additional_plan(ring)) == _reference_additional_plan(ring)
