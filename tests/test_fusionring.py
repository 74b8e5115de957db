"""Fusion-ring data, key enumeration, block census."""

from collections import Counter

import pytest

from fusioncat.fusionring import (FusionRing, builtin_ring, check_ring,
                                  enumerate_fkeys, f_blocks, n)


@pytest.fixture(scope="module")
def h3():
    return builtin_ring("h3")


@pytest.mark.parametrize("name", ["h3", "z3_pointed", "fibonacci", "ising"])
def test_builtin_rings_are_consistent(name):
    report = check_ring(builtin_ring(name))
    assert report.all_passed, str(report)


def test_h3_fusion_facts(h3):
    # the rho-row of the fusion table
    for c in ("1", "r", "ar", "asr"):
        assert n(h3, "r", "r", c) == 1
    assert n(h3, "r", "r", "a") == 0
    assert n(h3, "r", "ar", "as") == 1
    assert n(h3, "r", "asr", "a") == 1
    # the orientation of the relation alpha rho = rho alpha^-1
    assert n(h3, "a", "r", "ar") == 1
    assert n(h3, "r", "a", "asr") == 1
    assert n(h3, "a", "a", "1") == 0
    assert n(h3, "a", "a", "as") == 1
    assert h3.dual("a") == h3.label("as")
    assert h3.dual("r") == h3.label("r")
    for x in ("1", "a", "as", "r", "ar", "asr"):
        assert n(h3, "1", x, x) == 1


def test_z3_is_the_invertible_part(h3):
    z3 = builtin_ring("z3_pointed")
    assert n(z3, "a", "a", "as") == 1
    assert z3.is_pointed()
    assert not h3.is_pointed()


def test_dimension_rows(h3):
    d_rho = h3.dim("r")
    assert d_rho * d_rho == 1 + 3 * d_rho
    for a in range(6):
        total = h3.tower.zero()
        for c in range(6):
            if h3.n(a, h3.label("r"), c):
                total = total + h3.dim(c)
        assert total == h3.dim(a) * d_rho


def test_key_counts(h3):
    assert len(enumerate_fkeys(h3)) == 1431
    assert len(enumerate_fkeys(builtin_ring("z3_pointed"))) == 27
    assert len(enumerate_fkeys(builtin_ring("fibonacci"))) == 15
    assert len(enumerate_fkeys(builtin_ring("ising"))) == 36


def test_block_census(h3):
    blocks = f_blocks(h3)
    census = Counter(b.dim for b in blocks)
    assert census == Counter({1: 513, 3: 54, 4: 27})
    assert sum(b.dim ** 2 for b in blocks) == 1431


def test_block_labels(h3):
    by_key = {(b.a, b.b, b.c, b.u): b for b in f_blocks(h3)}
    r = h3.label
    blk = by_key[(r("r"), r("r"), r("r"), r("r"))]
    assert blk.dim == 4
    assert [h3.token(e) for e in blk.e_labels] == ["1", "r", "ar", "asr"]
    blk = by_key[(r("r"), r("r"), r("ar"), r("r"))]
    assert blk.dim == 3
    assert [h3.token(e) for e in blk.e_labels] == ["r", "ar", "asr"]
    assert [h3.token(f) for f in blk.f_labels] == ["r", "ar", "asr"]
    # a mixed block where row and column label sets differ
    blk = by_key[(r("r"), r("ar"), r("ar"), r("r"))]
    assert [h3.token(e) for e in blk.e_labels] == ["1", "r", "ar", "asr"]
    assert [h3.token(f) for f in blk.f_labels] == ["as", "r", "ar", "asr"]


def test_enumeration_is_ordered(h3):
    keys = enumerate_fkeys(h3)
    assert keys == sorted(keys, key=lambda k: k.sort_key)
    assert keys == enumerate_fkeys(h3)


def test_multiplicity_two_is_rejected(h3):
    products = {(a, b): tuple(c for c in range(6) if h3.n(a, b, c))
                for a in range(6) for b in range(6)}
    products[(3, 3)] = (0, 0, 3, 4, 5)  # N(r, r -> 1) = 2
    with pytest.raises(ValueError, match="multiplicity"):
        FusionRing("broken", [(o.name, o.token) for o in h3.objects], 0,
                   products, h3.duals, h3.dims, h3.tower)


def test_mutated_ring_fails_check(h3):
    # drop 1 from r x r: breaks duality and associativity
    products = {(a, b): tuple(c for c in range(6) if h3.n(a, b, c))
                for a in range(6) for b in range(6)}
    products[(3, 3)] = (3, 4, 5)
    broken = FusionRing("broken", [(o.name, o.token) for o in h3.objects], 0,
                        products, h3.duals, h3.dims, h3.tower)
    report = check_ring(broken)
    assert not report.all_passed
    failed = {name for name, ok, _ in report.entries if not ok}
    assert failed & {"duals", "associativity", "dimensions"}


def test_unit_label_key_counts(h3):
    # enumerated counts of the theorem-normalized seed entries
    keys = enumerate_fkeys(h3)
    assert sum(1 for k in keys if h3.unit in (k.a, k.b, k.c)) == 172
    fib = builtin_ring("fibonacci")
    assert sum(1 for k in enumerate_fkeys(fib)
               if fib.unit in (k.a, k.b, k.c)) == 10


def test_inadmissible_key_is_rejected(h3):
    # e = r fails N_u^{ae}: 1 x r does not contain ar
    with pytest.raises(ValueError, match="inadmissible"):
        h3.key("1", "r", "r", "ar", "r", "r")
    # the same block with the forced labels e = ar, f = r is fine
    h3.key("1", "r", "r", "ar", "ar", "r")


def test_builtin_ring_aliases_share_one_object():
    assert builtin_ring("fib") is builtin_ring("fibonacci")
    assert builtin_ring(name="fib") is builtin_ring("fibonacci")
    assert builtin_ring("z3") is builtin_ring("z3_pointed")
    for _ in range(2):  # a failed lookup is not remembered
        with pytest.raises(ValueError, match="unknown ring 'z4'"):
            builtin_ring("z4")


def test_key_and_block_lists_are_fresh_copies():
    fib = builtin_ring("fibonacci")
    keys, blocks = enumerate_fkeys(fib), f_blocks(fib)
    keys.clear()
    blocks.pop()
    assert len(enumerate_fkeys(fib)) == 15
    assert len(f_blocks(fib)) == len(blocks) + 1
    assert fib.admissible_keys == frozenset(enumerate_fkeys(fib))
    assert all(fib.admissible(k) for k in fib.admissible_keys)
