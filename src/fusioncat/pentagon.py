"""Enumeration and exact verification of the pentagon identities, the
triangle products, and the further consistency sweeps satisfied by the H3
data set.

For an instance with externals (x, y, z, w, u) and internals (a, b, c, d)
the residual is

    F[u; x y c; e=d f=a] * F[u; a z w; e=c f=b]
        - sum over t of  F[d; y z w; e=c f=t]
                         * F[u; x t w; e=d f=b]
                         * F[b; x y z; e=t f=a]

with t running over the labels admissible for all three right-hand keys.
Everything is evaluated exactly, symbolically in the sign parameters.

The sweeps split what depends on the ring from what depends on the table.
Once per ring object, each sweep's checks are compiled into a plan of key
positions (:class:`_Plan`); a check is named by its number in the plan.
Inverting the pentagon plan (:func:`_readers`) lists, per key, the numbers
of the checks that read it; the mutation probe sweeps those checks one at
a time, and the probe index is two fresh views of the plan and that map;
only the instance view (:class:`_Instances`) decodes a check back into
labels.  Once per table, the values are compiled into integer coefficients
over one denominator times interned primitive field directions, listed by
key position, with the products of two and three directions memoized as
integer tower coordinates packed into one integer, a fixed number of bits
per coordinate.  A residual is then one integer multiply-add per term into
four packed accumulators, one per sign monomial.  The field width comes
from a bound on every coordinate a residual of the table can reach, so an
accumulator is zero exactly when all its coordinates are; no rational
arithmetic runs per instance.
"""

from __future__ import annotations

import os
import time
import weakref
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import reduce, wraps
from itertools import chain, combinations_with_replacement, islice, product
from math import gcd, lcm
from operator import mul
from typing import Iterator, NamedTuple

from .exactnum import FieldScalar, ParamScalar, named_constant, render_scalar
from .fsymbols import FSymbolTable, BlockReport
from .fusionring import FKey, FusionRing, enumerate_fkeys, f_blocks, is_h3

# the triviality rules (see classify) and the instance bits each one skips
_RULE_BITS = {"unit": 1, "identical": 2, "both": 3, "vacuous": 0}
TRIVIALITY_RULES = tuple(_RULE_BITS)


class PentagonInstance(NamedTuple):
    """One pentagon instance as the tuple :func:`_raw_instances` yields: the
    nine labels, then the labels t of the right-hand sum.  It equals that
    plain tuple and has length 10."""

    x: int
    y: int
    z: int
    w: int
    u: int
    a: int
    b: int
    c: int
    d: int
    e_sum: tuple[int, ...]

    @property
    def labels(self) -> tuple[int, ...]:
        return self[:9]

    def keys(self) -> list[FKey]:
        """The five key families; the summed keys once per summand."""
        return list(map(FKey._make, _instance_keys(self)))


def _instance_keys(tup) -> list[tuple]:
    """The keys of a raw instance tuple as plain label tuples: the two
    left-hand keys, then the three right-hand keys of each summand."""
    x, y, z, w, u, a, b, c, d, esum = tup
    out = [(x, y, c, u, d, a), (a, z, w, u, c, b)]
    for t in esum:
        out += [(y, z, w, d, c, t), (x, t, w, u, d, b), (x, y, z, b, t, a)]
    return out


def enumerate_instances(ring: FusionRing) -> Iterator[PentagonInstance]:
    """Deterministic lexicographic stream over (x, y, z, w, u, a, b, c, d)."""
    return map(PentagonInstance._make, _raw_instances(ring))


def _label_sets(ring: FusionRing):
    """Bit sets over the labels, bit t for label t: ``prod[i][j]`` holds
    i ⊗ j, ``left[i][j]`` the t with N[t][i][j] and ``right[i][j]`` those
    with N[i][t][j]; and ``labels``, a bit set's labels as one shared
    ascending tuple per distinct set."""
    N, rng = ring._n, range(len(ring))
    sets = ([[sum(has(i, j, t) << t for t in rng) for j in rng] for i in rng]
            for has in (lambda i, j, t: N[i][j][t], lambda i, j, t: N[t][i][j],
                        lambda i, j, t: N[i][t][j]))
    return (*sets, _Memo(lambda m: tuple(t for t in rng if m >> t & 1)))


def _raw_instances(ring: FusionRing):
    rng = range(len(ring))
    prod, left, right, labels = _label_sets(ring)
    for x, y in product(rng, repeat=2):
        a_cands, by_x = labels[prod[x][y]], right[x]
        # ds[u][c]: the d in y ⊗ c with N[x][d][u]; c_ok[u]: the c with any
        ds = [[labels[prod[y][c] & by_x[u]] for c in rng] for u in rng]
        c_ok = [sum(bool(dc) << c for c, dc in enumerate(row)) for row in ds]
        for z in rng:
            yz = prod[y][z]
            for w in rng:
                zw, by_w = prod[z][w], left[w]
                for u in rng:
                    zw_u, ds_u = zw & c_ok[u], ds[u]
                    for a in a_cands:
                        cs = labels[zw_u & right[a][u]]
                        for b in labels[prod[a][z] & by_w[u]]:
                            yz_b = yz & by_x[b]
                            for c in cs:
                                for d in ds_u[c]:
                                    yield (x, y, z, w, u, a, b, c, d,
                                           labels[yz_b & by_w[d]])


def _is_identical(unit: int, tup) -> bool:
    """The identical rule (see :func:`classify`) on a raw instance tuple."""
    if len(tup[9]) != 1:
        return False
    l1, l2, *rhs = _instance_keys(tup)
    return (sorted(k for k in (l1, l2) if unit not in k[:3])
            == sorted(k for k in rhs if unit not in k[:3]))


def _trivial_bits(unit: int, tup) -> int:
    """Bit 1 if the unit rule marks a raw instance tuple, 2 if identical;
    the identical rule needs the right side, one key longer, to drop a key
    carrying the unit, so the unit must be among x, y, z, w or the single t."""
    bit = unit in tup[:4]
    return bit | ((bit or tup[9] == (unit,)) and _is_identical(unit, tup)) << 1


def classify(ring: FusionRing, inst: PentagonInstance, rule: str = "unit") -> bool:
    """True when the instance is trivial under the given rule.

    unit:       some external label x, y, z, w is the unit object; these
                instances reduce to triangle identities.
    identical:  after dropping the keys that carry a unit label themselves,
                both sides consist of the same formal keys (requires a
                single-term sum), so the equation holds for any table that
                satisfies the triangle identities.
    both:       trivial under either rule.
    vacuous:    nothing enumerable is trivial; the trivial equations are
                exactly the label assignments excluded by admissibility
                (for h3 this leaves the full count of 41391 equations).
    """
    if rule not in _RULE_BITS:
        raise ValueError(f"unknown triviality rule {rule!r}")
    return bool(_trivial_bits(ring.unit, inst) & _RULE_BITS[rule])


def residual(inst: PentagonInstance, table: FSymbolTable) -> ParamScalar:
    """Left side minus right side, exact and symbolic in p1, p2."""
    it = map(table.entries.__getitem__, _instance_keys(inst))
    lhs = next(it) * next(it)
    rhs = ParamScalar.from_field(table.ring.tower.zero())
    for g1, g2, g3 in zip(it, it, it):
        rhs = rhs + g1 * g2 * g3
    return lhs - rhs


# ---------------------------------------------------------------------------
# per-ring plans

def _per_ring(build):
    """``build(ring)``, computed once per ring object and dropped with it.

    The cache holds its values strongly, so a value must hold only what is
    read from its ring, never the ring itself: a value that does keeps its
    ring, and itself, alive for the process."""
    cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @wraps(build)
    def get(ring: FusionRing):
        if ring not in cache:
            cache[ring] = build(ring)
        return cache[ring]
    return get


class _Plan(NamedTuple):
    """The checks of one sweep over one ring, in sweep order, as positions
    into a kernel's value list (see :class:`_Kernel`): check ``i`` reads two
    left-hand values and then three per summand, ``counts[i]`` summands, from
    the flat array ``slots``, starting at ``starts[i]``; ``starts`` ends with
    ``len(slots)``.  ``trivial[i]`` holds a pentagon instance's triviality
    bits (1: unit rule, 2: identical rule); other sweeps have none."""

    slots: array
    counts: array
    starts: array
    trivial: bytearray


@_per_ring
def _pentagon_plan(ring: FusionRing) -> _Plan:
    """Every pentagon instance in enumeration order, its keys (as
    :func:`_instance_keys` lists them) by position in ``enumerate_fkeys``;
    spelled out here, as a call per instance slows the h3 build by a third."""
    pos = {k: i for i, k in enumerate(enumerate_fkeys(ring))}
    plan = _Plan(array("H"), array("B"), array("I", [0]), bytearray())
    put, unit = plan.slots.append, ring.unit
    for tup in _raw_instances(ring):
        x, y, z, w, u, a, b, c, d, esum = tup
        put(pos[x, y, c, u, d, a])
        put(pos[a, z, w, u, c, b])
        for t in esum:
            put(pos[y, z, w, d, c, t])
            put(pos[x, t, w, u, d, b])
            put(pos[x, y, z, b, t, a])
        plan.counts.append(len(esum))
        plan.starts.append(len(plan.slots))
        plan.trivial.append(_trivial_bits(unit, tup))
    return plan


@_per_ring
def _additional_plan(ring: FusionRing) -> _Plan:
    """The checks of :func:`check_additional` in its label order, right side
    minus left side in the pentagon's shape; a starred factor sits at its
    key's position plus the number of keys.

    A pentagon check reads L1, L2, then R1, R2, R3 for each t.  Check
    (x, y, a, z, t, w, c, u, b) opens with [L2*, R3] of the pentagon checks
    with R3 = (x, y, z, b, t, a) and L2 = (a, z, w, u, c, b), and each adds
    [L1, R1*, R2*] for that t; regrouping the pentagon plan so would hold
    every group at once (25 MB traced peak on h3, against 1 MB here)."""
    pos = {k: i for i, k in enumerate(enumerate_fkeys(ring))}
    star = len(pos)
    rng = range(len(ring))
    prod, left, right, labels = _label_sets(ring)
    plan = _Plan(array("H"), array("B"), array("I", [0]), bytearray())
    put = plan.slots.append
    for a, x1 in product(rng, repeat=2):
        for x3, x2 in product(labels[prod[a][x1]], rng):
            for b, c in product(labels[prod[x1][x2]], rng):
                ys, bc = prod[a][b] & prod[x3][x2], prod[b][c]
                for x4 in labels[prod[x2][c]]:
                    for u in labels[prod[x3][x4]]:
                        ss = labels[prod[x1][x4] & bc & right[a][u]]
                        for y in labels[ys & left[c][u]]:
                            put(star + pos[x3, x2, c, u, x4, y])
                            put(pos[a, x1, x2, y, b, x3])
                            for s in ss:
                                put(pos[a, x1, x4, u, s, x3])
                                put(star + pos[x1, x2, c, s, x4, b])
                                put(star + pos[a, b, c, u, s, y])
                            plan.counts.append(len(ss))
                            plan.starts.append(len(plan.slots))
    return plan


@_per_ring
def _orthogonality_plan(ring: FusionRing) -> tuple[_Plan, array]:
    """The rows i <= j of F Ft - I of every block in ``f_blocks`` order, and
    each check's block number: the pair (F[e_i, f_0], F[e_j, f_0]), the
    triple (-1, F[e_i, f], F[e_j, f]) for each further column f and, for
    i = j, the triple (1, 1, 1), with 1 and -1 at positions ``len(keys)``
    and ``len(keys) + 1`` (see :class:`_Kernel`)."""
    pos = {k: i for i, k in enumerate(enumerate_fkeys(ring))}
    one, minus = len(pos), len(pos) + 1
    plan = _Plan(array("H"), array("B"), array("I", [0]), bytearray())
    put, blocks = plan.slots.extend, array("H")
    for n, blk in enumerate(f_blocks(ring)):
        rows = [[pos[blk.a, blk.b, blk.c, blk.u, e, f] for f in blk.f_labels]
                for e in blk.e_labels]
        for i, j in combinations_with_replacement(range(blk.dim), 2):
            (p, *ps), (q, *qs) = rows[i], rows[j]
            put((p, q))
            for p, q in zip(ps, qs):
                put((minus, p, q))
            if i == j:
                put((one, one, one))
            plan.counts.append(len(ps) + (i == j))
            plan.starts.append(len(plan.slots))
            blocks.append(n)
    return plan, blocks


def _readers(slots: array, starts: array, count: int,
             typecode: str) -> list[array]:
    """For each of ``count`` positions, an ``array(typecode)`` of the
    ascending numbers of the checks that read it, each once: check ``i``
    reads ``slots[starts[i]:starts[i + 1]]``, and may read one twice."""
    out = [array(typecode) for _ in range(count)]
    for i in range(len(starts) - 1):
        for p in set(slots[starts[i]:starts[i + 1]]):
            out[p].append(i)
    return out


@_per_ring
def _key_checks(ring: FusionRing) -> dict[FKey, array]:
    """FKey -> the ascending numbers of the pentagon checks that read it,
    the keys in the order of their first check, then of position."""
    plan, keys = _pentagon_plan(ring), ring._fkeys
    readers = _readers(plan.slots, plan.starts, len(keys), "I")
    first = sorted((found[0], p) for p, found in enumerate(readers) if found)
    return {keys[p]: readers[p] for _, p in first}


# ---------------------------------------------------------------------------
# fast exact kernel

class _Memo(dict):
    """A dict that fills a missing key from a function of that key; nested,
    so the kernel's inner loop indexes by direction id and builds no tuple
    key per product, as a ``functools.cache`` would."""

    __slots__ = ("_fill",)

    def __init__(self, fill):
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


class _Directions:
    """Interned primitive integer directions of one tower, and their
    products over one fixed denominator ``B``, packed into single integers.

    ``B`` is the square of the tower's product denominator: a product of two
    integer vectors has a denominator dividing that product denominator, and
    a product of three one dividing its square.
    """

    def __init__(self, tower):
        self.tower = tower
        self.den_b = tower._pden ** 2
        self.prims: list[tuple[int, ...]] = []
        self._ids: dict[tuple[int, ...], int] = {}

    def intern(self, num: tuple[int, ...]) -> tuple[int, int]:
        """(g, pid) with num = g * prims[pid], the direction primitive and
        its first nonzero coordinate positive."""
        g = reduce(gcd, num)
        if next(v for v in num if v) < 0:
            g = -g
        prim = tuple(v // g for v in num)
        pid = self._ids.get(prim)
        if pid is None:
            pid = self._ids[prim] = len(self.prims)
            self.prims.append(prim)
        return g, pid

    def compile(self, scalars) -> tuple[int, dict]:
        """``(L, splits)`` for nonzero field elements: ``L`` the lcm of their
        denominators, ``splits`` each one's ``integer_coords()`` ->
        ``(n, pid)``, the element being ``n / L`` times ``prims[pid]``."""
        splits = {}
        for x in scalars:
            num, den = coords = x.integer_coords()
            if coords not in splits:
                splits[coords] = self.intern(num) + (den,)
        den_l = lcm(*(den for _, _, den in splits.values()))
        return den_l, {c: (g * (den_l // den), pid)
                       for c, (g, pid, den) in splits.items()}

    def product(self, pids: tuple[int, ...], factor: int, width: int) -> int:
        """The integer coordinates of B * factor * (product of the
        directions), coordinate k in the bits from ``k * width`` upward
        (see :func:`_unpack`)."""
        num, den = reduce(mul, (FieldScalar(self.tower, self.prims[p], 1)
                                for p in pids)).integer_coords()
        return (reduce(lambda acc, v: (acc << width) + v, reversed(num), 0)
                * (self.den_b // den * factor))

    def width(self, den_l: int, pairs: int, triples: int) -> int:
        """Bits per packed coordinate that hold, as balanced digits, each
        coordinate of a sum of products of two directions times ``L * B``
        (``L`` is ``den_l``) and of three times ``B``, with integer
        coefficients of absolute values summing to at most ``pairs`` and
        ``triples``: with ``X`` the largest absolute direction coordinates
        and ``|*|`` the product under the absolute tower product table
        (integers over its denominator ``d``, so ``B = d**2``), coordinate
        ``k`` of ``B * x * y`` is at most ``d * (X |*| X)[k]``, and that of
        ``B * x * y * z`` at most ``((X |*| X) |*| X)[k]``."""
        tower, ptab = self.tower, self.tower._ptab

        def abs_mul(x, y):
            out = [0] * tower.degree
            for i, xi in enumerate(x):
                for j, yj in enumerate(y):
                    for k, c in ptab[i][j]:
                        out[k] += xi * yj * abs(c)
            return out

        x = [max((abs(p[i]) for p in self.prims), default=0)
             for i in range(tower.degree)]
        xx = abs_mul(x, x)
        bound = max(pairs * den_l * tower._pden * c2 + triples * c3
                    for c2, c3 in zip(xx, abs_mul(xx, x)))
        return bound.bit_length() + 1


def _unpack(packed: int, width: int, count: int) -> tuple[int, ...]:
    """The ``count`` balanced base-``2**width`` digits of ``packed``, lowest
    first: the coordinates ``c`` of ``packed = sum of c[k] << (k * width)``,
    provided every ``|c[k]| < 2**(width - 1)``."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    out = []
    for _ in range(count):
        digit = ((packed + half) & mask) - half
        out.append(digit)
        packed = (packed - digit) >> width
    return tuple(out)


class _Kernel:
    """Exact residual evaluation in packed integer tower coordinates.

    Compiling a table splits each distinct value object once (entries of
    equal value often share one object: the data set's 1431 entries hold 51)
    into sign monomials and every coefficient into ``n / L`` times an
    interned primitive integer direction, one denominator ``L`` serving the
    table and its starred entries, if given.  ``values`` lists the compiled
    values by plan position, entries of one object sharing one tuple: the
    table's entries in ``enumerate_fkeys`` order, then the starred ones,
    then the constants 1 and -1.
    Products of two and of three directions (only these depths are needed;
    the full closure would be infinite) are memoized when first met, as
    integer coordinates over ``B`` (see :class:`_Directions`) packed into
    one integer, ``width`` bits per coordinate.

    A pentagon-shaped residual (a product of two values minus a sum of
    products of three) scaled by ``L**3 * B`` thus accumulates into four
    integers, one per sign monomial, one multiply-add per term, the
    left-hand terms carrying the extra ``L`` in their products.  Packing is
    linear, so each accumulator is exactly the packed sum of its
    coordinates.  ``width`` is fixed before any product is formed, from a
    bound on every coordinate any such residual of the compiled values can
    reach (see :meth:`_width`), so each coordinate is a balanced digit of
    absolute value below ``2**(width - 1)``: an accumulator is zero exactly
    when all its coordinates are, and decodes back to them.
    """

    def __init__(self, table: FSymbolTable,
                 starred: dict[FKey, ParamScalar] | None = None):
        self.tower = table.ring.tower
        dirs = self.dirs = _Directions(self.tower)
        maps = [table.entries] + ([starred] if starred is not None else [])
        constants = (one := ParamScalar.from_field(self.tower.one()), -one)
        # the distinct value objects in first-occurrence order; the entries
        # and constants keep them alive, so their ids stay unique for this call
        distinct = {id(v): v for v in chain(
            *(entries.values() for entries in maps), constants)}
        den_l, splits = dirs.compile(
            c for v in distinct.values() for c in v.terms.values())
        self.den_l = den_l
        compiled = {i: tuple((m,) + splits[c.integer_coords()]
                             for m, c in v.terms.items())
                    for i, v in distinct.items()}
        keys = enumerate_fkeys(table.ring)
        self.values = [compiled[id(v)] for v in chain(
            *([entries[k] for k in keys] for entries in maps), constants)]
        # a plan check sums over the labels of one fusion product; a block
        # row has at most d triples, d <= |b ⊗ c| for block (a, b, c; u)
        width = self.width = self._width(
            max(map(len, table.ring._fusion.values())), compiled.values())
        # prod2[i][j] and prod3[i][j][k]: packed coordinates, filled on first
        # use; the fill functions hold only dirs, so a kernel is freed by
        # reference counting rather than left to the cycle collector
        self._prod2 = _Memo(lambda i: _Memo(
            lambda j: dirs.product((i, j), den_l, width)))
        self._prod3 = _Memo(lambda i: _Memo(lambda j: _Memo(
            lambda k: dirs.product((i, j, k), 1, width))))

    def _width(self, summands: int, values) -> int:
        """Bits per packed coordinate of a residual with at most ``summands``
        products of three of ``values`` (:meth:`_Directions.width`): ``T**2``
        products of two times an ``n * n'`` and ``summands * T**3`` of three
        times an ``n * n' * n''``, with ``T`` the most terms of a value and
        ``|n| <= N``."""
        n = max((abs(t[1]) for v in values for t in v), default=0)
        tn = max(map(len, values)) * n
        return self.dirs.width(self.den_l, tn ** 2, summands * tn ** 3)

    def accumulate(self, f1, f2, triples) -> list[int]:
        """The packed coordinates of ``f1 * f2 - sum of g1 * g2 * g3`` over
        triples, scaled by ``L**3 * B``, one integer per sign monomial; the
        width covers as many triples as a fusion product has labels."""
        acc = [0, 0, 0, 0]
        prod2 = self._prod2
        for m1, n1, d1 in f1:
            row = prod2[d1]
            for m2, n2, d2 in f2:
                acc[m1 ^ m2] += n1 * n2 * row[d2]
        prod3 = self._prod3
        for g1, g2, g3 in triples:
            for m1, n1, d1 in g1:
                rows = prod3[d1]
                for m2, n2, d2 in g2:
                    row = rows[d2]
                    n12 = n1 * n2
                    m12 = m1 ^ m2
                    for m3, n3, d3 in g3:
                        acc[m12 ^ m3] -= n12 * n3 * row[d3]
        return acc

    def scalar(self, acc: list[int]) -> ParamScalar:
        """The residual an accumulator holds, as a sign polynomial."""
        scale = self.den_l ** 3 * self.dirs.den_b
        return ParamScalar(self.tower, {
            m: FieldScalar(
                self.tower, _unpack(packed, self.width, self.tower.degree),
                scale)
            for m, packed in enumerate(acc) if packed})


def _sweep(kernel: _Kernel, plan: _Plan, start: int, stop: int,
           mask: int = 0) -> list:
    """(check index, accumulator) for every nonzero residual among checks
    ``start`` to ``stop`` of a plan, skipping those whose bits meet mask."""
    counts, trivial = plan.counts, plan.trivial
    # a memoryview slice starts at check ``start`` without reading the
    # slots before it, so a one-check sweep costs one check
    it = map(kernel.values.__getitem__,
             memoryview(plan.slots)[plan.starts[start]:plan.starts[stop]])
    triples = zip(it, it, it)
    nonzero = []
    for i in range(start, stop):
        n = counts[i]
        if mask and trivial[i] & mask:
            next(islice(it, 2 + 3 * n, 2 + 3 * n), None)
            continue
        acc = kernel.accumulate(next(it), next(it), islice(triples, n))
        if any(acc):
            nonzero.append((i, acc))
    return nonzero


@dataclass
class VerifyReport:
    rule: str
    total: int = 0
    trivial: int = 0
    failures: list[tuple[tuple, str]] = field(default_factory=list)
    duration: float = 0.0

    @property
    def nontrivial(self) -> int:
        return self.total - self.trivial

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return (f"instances={self.total} trivial={self.trivial} "
                f"nontrivial={self.nontrivial} failures={len(self.failures)}")

    def render(self) -> str:
        lines = []
        for labels, expr in sorted(self.failures):
            lines.append("FAIL " + " ".join(str(v) for v in labels)
                         + f" residual={expr}")
        lines.append(self.summary())
        return "\n".join(lines)


def _range_failures(kernel: _Kernel, ring: FusionRing, mask: int, start: int,
                    stop: int) -> list[tuple[tuple, str]]:
    """(labels, rendered residual) of every failing pentagon instance among
    ``start`` to ``stop`` whose triviality bits miss ``mask``."""
    instances, plan = _Instances(ring), _pentagon_plan(ring)
    return [(instances[i][:9], render_scalar(kernel.scalar(acc)))
            for i, acc in _sweep(kernel, plan, start, stop, mask)]


_FORK_STATE: dict = {}


def _pool_worker(start, stop):
    return _range_failures(*_FORK_STATE["args"], start, stop)


def verify_all(table: FSymbolTable, jobs: int = 1, rule: str = "unit") -> VerifyReport:
    """Evaluate the residual of every nontrivial instance; exact throughout.
    Up to ``min(jobs, len(ring))`` forked workers share the instances, each
    rendering the failures of its ranges."""
    if rule not in TRIVIALITY_RULES:
        raise ValueError(f"unknown triviality rule {rule!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    start = time.monotonic()
    ring = table.ring
    plan = _pentagon_plan(ring)
    total, mask = len(plan.counts), _RULE_BITS[rule]
    # compiled once; forked workers inherit it and the plan
    kernel = _Kernel(table)
    procs = min(jobs, len(ring))
    if procs > 1 and hasattr(os, "fork"):
        import multiprocessing as mp

        # four ranges per worker even out the uneven cost of instances
        cuts = [total * i // (4 * procs) for i in range(4 * procs + 1)]
        _FORK_STATE["args"] = (kernel, ring, mask)
        try:
            with mp.get_context("fork").Pool(procs) as pool:
                parts = pool.starmap(_pool_worker, zip(cuts, cuts[1:]))
        finally:
            _FORK_STATE.clear()
    else:
        parts = [_range_failures(kernel, ring, mask, 0, total)]
    return VerifyReport(rule, total, sum(1 for b in plan.trivial if b & mask),
                        sorted(chain.from_iterable(parts)),
                        time.monotonic() - start)


def count_instances(ring: FusionRing) -> dict[str, int]:
    """Instance totals and trivial counts under every rule; never cached.

    It walks the instance stream rather than the pentagon plan's bits: it is
    the benchmark's only traced walk of the stream (``bench/run.py --trace 1``
    reads ``pentagon.enumerate_instances_s`` from it), and building the plan
    slows a one-shot ``fusioncat count --builtin h3`` (median wall 0.13 s
    against 0.23 s, seven interleaved runs each on a 2-core box)."""
    unit = ring.unit
    bits = [_trivial_bits(unit, tup) for tup in _raw_instances(ring)]
    return {"total": len(bits), **{rule: sum(1 for b in bits if b & mask)
                                   for rule, mask in _RULE_BITS.items()}}


# ---------------------------------------------------------------------------
# mutation helpers

def negate_entry(table: FSymbolTable, key: FKey) -> FSymbolTable:
    """A copy of the table with one entry negated; every other entry is the
    same object as in ``table``."""
    if key not in table.entries:
        raise KeyError(f"inadmissible key {key}")
    entries = dict(table.entries)
    entries[key] = -entries[key]
    return FSymbolTable(table.ring, entries)


class _Instances(Sequence):
    """The pentagon instances of one ring in enumeration order, read back
    from its pentagon plan: item ``i`` equals the ``i``-th tuple of
    :func:`_raw_instances`."""

    def __init__(self, ring: FusionRing):
        self._ring = ring

    def __len__(self) -> int:
        return len(_pentagon_plan(self._ring).counts)

    def __getitem__(self, i: int) -> tuple:
        plan, keys = _pentagon_plan(self._ring), self._ring._fkeys
        count = len(plan.counts)
        if i < 0:
            i += count
        if not 0 <= i < count:
            raise IndexError("instance index out of range")
        slots, start = plan.slots, plan.starts[i]
        # the first two keys of a check, then each summand's first key
        x, y, c, u, d, a = keys[slots[start]]
        _, z, w, _, _, b = keys[slots[start + 1]]
        esum = tuple(keys[slots[s]].f
                     for s in range(start + 2, plan.starts[i + 1], 3))
        return (x, y, z, w, u, a, b, c, d, esum)


class _KeyChecks(Mapping):
    """The map of :func:`_key_checks` for one ring."""

    def __init__(self, ring: FusionRing):
        self._ring = ring

    def __getitem__(self, key: FKey) -> array:
        return _key_checks(self._ring)[key]

    def __iter__(self) -> Iterator[FKey]:
        return iter(_key_checks(self._ring))

    def __len__(self) -> int:
        return len(_key_checks(self._ring))


def key_instance_index(ring: FusionRing) -> tuple[Sequence[tuple],
                                                  Mapping[FKey, array]]:
    """The raw instance tuples in enumeration order, as a read-only view
    over the pentagon plan, and a read-only map FKey -> ``array('I')`` of
    the ascending check numbers of the instances that read it, which are
    also their positions in the view.  Each call makes two fresh views,
    which hold the ring and read the plan, or invert it, when first read."""
    return _Instances(ring), _KeyChecks(ring)


def find_failing_instance(table: FSymbolTable,
                          key: FKey) -> PentagonInstance | None:
    """First pentagon instance touching ``key`` with a nonzero residual:
    each check number :func:`_key_checks` lists for the key is swept as one
    check of the pentagon plan."""
    if key not in table.entries:
        raise KeyError(f"inadmissible key {key}")
    ring = table.ring
    kernel, plan = _Kernel(table), _pentagon_plan(ring)
    for i in _key_checks(ring).get(key, ()):
        if _sweep(kernel, plan, i, i + 1):
            return PentagonInstance._make(_Instances(ring)[i])
    return None


# ---------------------------------------------------------------------------
# starred (adjoint) entries: a block's starred matrix is its inverse, which
# only keeps the identities below invariant under a gauge that breaks
# orthogonality; in the data set's gauge it is the transpose


def starred_entries(table: FSymbolTable) -> dict[FKey, ParamScalar]:
    """Map key -> entry of the inverse block at (row f, column e).

    Addressed by the same keys as the table itself, so the starred factor
    (F_u^{abc})*_{f e} is ``starred[key(a, b, c, u, e, f)]``.  A singular
    block raises ValueError naming it.  An orthogonal block's inverse is Ft,
    so its starred entries are the table's own; the blocks in
    :attr:`FSymbolTable.non_orthogonal_blocks` are inverted, each distinct
    matrix once per table, blocks of equal matrices sharing its entries.
    """
    out = dict(table.entries)
    for a, b, c, u in table.non_orthogonal_blocks:
        out.update(_starred_block(table, a, b, c, u))
    return out


def _starred_block(table: FSymbolTable, a: int, b: int, c: int,
                   u: int) -> dict[FKey, ParamScalar]:
    """The starred entries of one block, keyed as in :func:`starred_entries`."""
    ring, m = table.ring, table.f_matrix(a, b, c, u)
    try:
        inv = (table.block_inverse(m) if (a, b, c, u)
               in table.non_orthogonal_blocks else list(zip(*m)))
    except ValueError as exc:
        t = ring.token
        raise ValueError(f"{exc}: ({t(a)},{t(b)},{t(c)};{t(u)})") from None
    return {FKey(a, b, c, u, e, f): inv[fi][ei]
            for ei, e in enumerate(ring.e_labels(a, b, c, u))
            for fi, f in enumerate(ring.f_labels(a, b, c, u))}


# ---------------------------------------------------------------------------
# triangle, additional and seed checks

def check_triangle(table: FSymbolTable) -> BlockReport:
    """Thm-style product identities for the unit-label one-dim entries:
    F[z; 1 x y] * F[x; 1 z y] = 1 and F[z; x y 1] * F[y; x z 1] = 1."""
    ring = table.ring
    unit = ring.unit
    one = ParamScalar.from_field(ring.tower.one())
    report = BlockReport("triangle")
    n = len(ring)
    t = ring.token
    for x, y, z in product(range(n), repeat=3):
        if not ring.n(x, y, z):
            continue
        # both factors must exist (the spaces must be one-dimensional)
        if ring.n(z, y, x):
            first = (table.entries[FKey(unit, x, y, z, z, x)]
                     * table.entries[FKey(unit, z, y, x, x, z)])
            report.checked += 1
            if first != one:
                report.failures.append(f"F[{t(z)};1 {t(x)} {t(y)}] product != 1")
        if ring.n(x, z, y):
            second = (table.entries[FKey(x, y, unit, z, y, z)]
                      * table.entries[FKey(x, z, unit, y, z, y)])
            report.checked += 1
            if second != one:
                report.failures.append(f"F[{t(z)};{t(x)} {t(y)} 1] product != 1")
    return report


def check_additional(table: FSymbolTable) -> BlockReport:
    """Full sweep of the mixed associativity identity

        sum over s of  F[u; a x1 x4; e=s f=x3] * F[x3'; x1 x2 c]*_{b x4}
                       * F[u; a b c]*_{y s}
            = F[u; x3 x2 c]*_{y x4} * F[y; a x1 x2; e=b f=x3]

    with (F[u; a b c]*)_{f e} the entry at row f, column e of the inverse
    of that block (see :func:`starred_entries`).  In the data set's gauge
    the inverse is the transpose, but only the inverse keeps the identity
    invariant under a gauge that breaks orthogonality.  Labels run
    over every assignment satisfying N_u^{x3 x4} = N_x3^{a x1} = N_x4^{x2 c}
    = N_b^{x1 x2} = 1 plus admissibility of the two right-hand keys.
    """
    ring = table.ring
    report = BlockReport("additional")
    try:
        starred = starred_entries(table)
    except ValueError as exc:  # a singular block has no starred entries
        report.failures.append(str(exc))
        return report
    kernel = _Kernel(table, starred=starred)
    plan = _additional_plan(ring)
    report.checked = len(plan.counts)
    keys, slots, starts = ring._fkeys, plan.slots, plan.starts
    for i, _ in _sweep(kernel, plan, 0, report.checked):
        # a check opens with a starred key, then an unstarred one
        x3, x2, c, u, x4, y = keys[slots[starts[i]] - len(keys)]
        a, x1, _, _, b, _ = keys[slots[starts[i] + 1]]
        report.failures.append(f"a={a} x1={x1} x2={x2} x3={x3} "
                               f"x4={x4} c={c} u={u} b={b} y={y}")
    return report


def _square_pop_relations(ring: FusionRing) -> dict[int, tuple]:
    """The two square-pop relations of h3, for x in {ar, asr}:

        sqrt(d) * F[r;rrr]_{e=r,f=x} * F[x;rrr]_{e=r,f=r}
            = c1 * F[r;rrr]_{e=x,f=1} + c2 * F[r;rrr]_{e=x,f=r}

    as x -> ((sqrt(d), first key, second key), ((c1, key), (c2, key))).
    They hold in the data set's gauge only; other rings have none.
    """
    if not is_h3(ring):
        return {}
    r, unit = ring.label("r"), ring.unit
    sqrt_d, c1, c2 = (named_constant(n) for n in ("bBigon", "c1", "c2"))
    return {x: ((sqrt_d, FKey(r, r, r, r, r, x), FKey(r, r, r, x, r, r)),
                ((c1, FKey(r, r, r, r, x, unit)), (c2, FKey(r, r, r, r, x, r))))
            for x in (ring.label("ar"), ring.label("asr"))}


def check_addtriv(table: FSymbolTable) -> BlockReport:
    """The square-pop relations (:func:`_square_pop_relations`), with the
    first factor read from the inverse of the all-rho block at (f=x, e=r).

    These hold in the data set's gauge only; re-gauging any of the touched
    vertices breaks them (which `test` callers exercise deliberately).
    """
    ring = table.ring
    if not is_h3(ring):
        raise ValueError("the square-pop identities are specific to the h3 ring")
    report = BlockReport("addtriv (gauge-dependent: data-set gauge only)")
    g = table.entries
    r = ring.label("r")
    try:
        starred = _starred_block(table, r, r, r, r)
    except ValueError as exc:
        report.failures.append(str(exc))
        return report
    for x, ((sqrt_d, first, second), rhs) in _square_pop_relations(ring).items():
        report.checked += 1
        if starred[first] * g[second] * sqrt_d != sum(g[k] * c for c, k in rhs):
            report.failures.append(f"x={ring.token(x)}")
    return report


def check_seeds(table: FSymbolTable) -> BlockReport:
    """The theorem-forced values: unit-label {1, rho} entries are 1, the
    rho-unit-rho families are 1, and (F[r; r r r])_{e=r, f=r} = -B."""
    ring = table.ring
    if not is_h3(ring):
        raise ValueError("seed values are specific to the h3 ring")
    report = BlockReport("seeds")
    one = ParamScalar.from_field(ring.tower.one())
    unit, r = ring.unit, ring.label("r")
    rho_family = (ring.label("r"), ring.label("ar"), ring.label("asr"))

    for k, v in table.entries.items():
        labels = (k.a, k.b, k.c, k.u)
        if set(labels) <= {unit, r} and unit in labels:
            report.checked += 1
            if v != one:
                report.failures.append(f"{ring.describe(k)} != 1")
    for x in rho_family:
        for k in (FKey(r, unit, r, x, r, r),    # F[x; r 1 r]
                  FKey(unit, r, x, r, r, r),    # F[r; 1 r x]
                  FKey(x, r, unit, r, r, r)):   # F[r; x r 1]
            report.checked += 1
            if table.entries[k] != one:
                report.failures.append(f"{ring.describe(k)} != 1")
    minus_b = ParamScalar.from_field(-named_constant("B"))
    report.checked += 1
    if table.entries[FKey(r, r, r, r, r, r)] != minus_b:
        report.failures.append("(F[r; r r r])_{rr} != -B")
    return report
