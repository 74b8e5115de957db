"""Fusion-ring data for the built-in categories and F-symbol key bookkeeping.

A :class:`FusionRing` stores the simple objects, the multiplicity tensor
N_c^{ab}, the dual involution and the exact quantum dimensions.  All built-in
rings are multiplicity free (every N is 0 or 1), which lets an F-symbol be
addressed by six object labels alone; :class:`FKey` holds them.

Index convention used throughout: for a key (a, b, c; u; e, f) the label
``f`` sits on the internal edge of the left-associated tree ((a x b) x c,
so N_f^{ab} = N_u^{fc} = 1) and ``e`` on the right-associated tree
(a x (b x c), so N_e^{bc} = N_u^{ae} = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from typing import Iterable, NamedTuple

from .exactnum import FieldScalar, TowerSpec, tower_preset


@dataclass(frozen=True)
class ObjectLabel:
    index: int
    name: str
    token: str

    def __repr__(self):
        return f"<{self.name}>"


class FKey(NamedTuple):
    """An admissible F-symbol key; all six fields are object indices."""

    a: int
    b: int
    c: int
    u: int
    e: int
    f: int

    @property
    def sort_key(self):
        return (self.a, self.b, self.c, self.u, self.f, self.e)


class RingCheckReport(NamedTuple):
    entries: tuple[tuple[str, bool, str], ...]

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def __str__(self):
        return "\n".join(
            f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {msg}" if msg else "")
            for name, ok, msg in self.entries
        )


class FusionRing:
    """Simple objects, fusion multiplicities, duals and quantum dimensions."""

    def __init__(self, name: str, objects: list[tuple[str, str]], unit: int,
                 products: dict[tuple[int, int], tuple[int, ...]],
                 duals: tuple[int, ...], dims: tuple[FieldScalar, ...],
                 tower: TowerSpec):
        self.name = name
        self.objects = tuple(
            ObjectLabel(i, disp, tok) for i, (disp, tok) in enumerate(objects))
        self.unit = unit
        self.duals = duals
        self.dims = dims
        self.tower = tower
        n = len(self.objects)
        self._fusion = {}
        self._n = [[[0] * n for _ in range(n)] for _ in range(n)]
        for (a, b), cs in products.items():
            self._fusion[(a, b)] = tuple(sorted(cs))
            for c in cs:
                if self._n[a][b][c]:
                    raise ValueError("multiplicity > 1 is not supported")
                self._n[a][b][c] = 1
        if set(self._fusion) != set(product(range(n), repeat=2)):
            raise ValueError("fusion table is incomplete")
        self._by_token = {o.token: o.index for o in self.objects}

    # -- label plumbing ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.objects)

    def label(self, x) -> int:
        """Accept an index, token, display name or ObjectLabel."""
        if isinstance(x, ObjectLabel):
            return x.index
        if isinstance(x, int):
            if not 0 <= x < len(self.objects):
                raise ValueError(f"object index {x} out of range")
            return x
        if x in self._by_token:
            return self._by_token[x]
        for o in self.objects:
            if o.name == x:
                return o.index
        raise ValueError(f"unknown object {x!r}")

    def token(self, i: int) -> str:
        return self.objects[i].token

    def key(self, a, b, c, u, e, f) -> FKey:
        k = FKey(*(self.label(x) for x in (a, b, c, u, e, f)))
        if not self.admissible(k):
            raise ValueError(f"inadmissible key {self.describe(k)}")
        return k

    def describe(self, k: FKey) -> str:
        t = self.token
        return (f"F[{t(k.u)}; {t(k.a)} {t(k.b)} {t(k.c)}; "
                f"e={t(k.e)} f={t(k.f)}]")

    # -- fusion data ---------------------------------------------------------

    def n(self, a, b, c) -> int:
        """Multiplicity N_c^{ab} of c inside a x b."""
        return self._n[self.label(a)][self.label(b)][self.label(c)]

    def fusion(self, a: int, b: int) -> tuple[int, ...]:
        return self._fusion[(a, b)]

    def dual(self, a) -> int:
        return self.duals[self.label(a)]

    def dim(self, a) -> FieldScalar:
        return self.dims[self.label(a)]

    def is_pointed(self) -> bool:
        return all(len(self.fusion(a, b)) == 1
                   for a in range(len(self)) for b in range(len(self)))

    # -- keys and blocks -----------------------------------------------------

    def admissible(self, k: FKey) -> bool:
        return (self._n[k.a][k.b][k.f] == 1 and self._n[k.f][k.c][k.u] == 1
                and self._n[k.b][k.c][k.e] == 1 and self._n[k.a][k.e][k.u] == 1)

    def e_labels(self, a: int, b: int, c: int, u: int) -> tuple[int, ...]:
        return tuple(e for e in self.fusion(b, c) if self._n[a][e][u])

    def f_labels(self, a: int, b: int, c: int, u: int) -> tuple[int, ...]:
        return tuple(f for f in self.fusion(a, b) if self._n[f][c][u])

    # built on first use and kept for the ring's lifetime; immutable, so no
    # caller can change them

    @cached_property
    def _blocks(self) -> tuple["FBlock", ...]:
        blocks = []
        n = len(self)
        for a, b, c, u in product(range(n), repeat=4):
            es = self.e_labels(a, b, c, u)
            fs = self.f_labels(a, b, c, u)
            if not es and not fs:
                continue
            if len(es) != len(fs):
                raise AssertionError(
                    f"block ({a},{b},{c};{u}) is not square: {len(fs)}x{len(es)}")
            blocks.append(FBlock(a, b, c, u, es, fs))
        return tuple(blocks)

    @cached_property
    def _fkeys(self) -> tuple[FKey, ...]:
        return tuple(sorted((k for blk in self._blocks for k in blk.keys()),
                            key=lambda k: k.sort_key))

    @cached_property
    def admissible_keys(self) -> frozenset[FKey]:
        """The set of all admissible keys."""
        return frozenset(self._fkeys)


@dataclass(frozen=True)
class FBlock:
    """One F-matrix: the keys sharing (a, b, c, u)."""

    a: int
    b: int
    c: int
    u: int
    e_labels: tuple[int, ...]
    f_labels: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.e_labels)

    def keys(self) -> Iterable[FKey]:
        for e in self.e_labels:
            for f in self.f_labels:
                yield FKey(self.a, self.b, self.c, self.u, e, f)


def f_blocks(ring: FusionRing) -> list[FBlock]:
    """All F-matrices of the ring, ordered by (a, b, c, u)."""
    return list(ring._blocks)


def enumerate_fkeys(ring: FusionRing) -> list[FKey]:
    """All admissible keys, ordered lexicographically by (a, b, c, u, f, e)."""
    return list(ring._fkeys)


def n(ring: FusionRing, a, b, c) -> int:
    return ring.n(a, b, c)


def check_ring(ring: FusionRing) -> RingCheckReport:
    """Validate unit, duality, associativity and the dimension equation."""
    entries = []
    nn = len(ring)
    u = ring.unit

    ok = all(ring.n(u, a, b) == (1 if a == b else 0)
             and ring.n(a, u, b) == (1 if a == b else 0)
             for a in range(nn) for b in range(nn))
    entries.append(("unit", ok, ""))

    ok = all(ring.n(a, b, u) == (1 if b == ring.dual(a) else 0)
             for a in range(nn) for b in range(nn))
    ok = ok and all(ring.dual(ring.dual(a)) == a for a in range(nn))
    entries.append(("duals", ok, ""))

    bad = None
    for a, b, c, d in product(range(nn), repeat=4):
        lhs = sum(ring.n(a, b, e) * ring.n(e, c, d) for e in range(nn))
        rhs = sum(ring.n(a, f, d) * ring.n(b, c, f) for f in range(nn))
        if lhs != rhs:
            bad = (a, b, c, d)
            break
    entries.append(("associativity", bad is None,
                    "" if bad is None else f"fails at {bad}"))

    bad = None
    for a, b in product(range(nn), repeat=2):
        want = ring.dim(a) * ring.dim(b)
        got = ring.tower.zero()
        for c in range(nn):
            if ring.n(a, b, c):
                got = got + ring.dim(c)
        if want != got:
            bad = (a, b)
            break
    entries.append(("dimensions", bad is None,
                    "" if bad is None else f"fails at {bad}"))
    return RingCheckReport(tuple(entries))


# ---------------------------------------------------------------------------
# built-in rings

def _group_ring(name, objects, table, tower):
    nn = len(objects)
    products = {(a, b): (table[a][b],) for a in range(nn) for b in range(nn)}
    duals = tuple(next(b for b in range(nn) if table[a][b] == 0) for a in range(nn))
    dims = tuple(tower.one() for _ in range(nn))
    return FusionRing(name, objects, 0, products, duals, dims, tower)


def _build_h3() -> FusionRing:
    # Object 3k + g is α^g ρ^k (g mod 3, k = 0 or 1).  Two relations give
    # the whole table: αρ = ρα⁻¹ moves α^h past ρ^k as α^((-1)^k h), so
    # α^g ρ^k · α^h ρ^l = α^(g + (-1)^k h) ρ^(k+l), and ρ² = 1 + ρ + αρ + α*ρ
    # makes α^g ρ² the sum of α^g and the whole ρ family.
    objects = [("1", "1"), ("α", "a"), ("α*", "as"),
               ("ρ", "r"), ("αρ", "ar"), ("α*ρ", "asr")]
    I, A, AS, R, AR, ASR = range(6)
    prod: dict[tuple[int, int], tuple[int, ...]] = {}
    for x, y in product(range(6), repeat=2):
        (k, g), (l, h) = divmod(x, 3), divmod(y, 3)
        e = (g - h if k else g + h) % 3
        prod[(x, y)] = (e, R, AR, ASR) if k and l else (3 * (k + l) + e,)
    tower = tower_preset("h3")
    d = (tower.gen(0) + 3) / 2
    one = tower.one()
    dims = (one, one, one, d, d, d)
    duals = (I, AS, A, R, AR, ASR)
    return FusionRing("h3", objects, I, prod, duals, dims, tower)


def _build_fibonacci() -> FusionRing:
    tower = tower_preset("fibonacci")
    phi = (tower.gen(0) + 1) / 2
    prod = {(0, 0): (0,), (0, 1): (1,), (1, 0): (1,), (1, 1): (0, 1)}
    return FusionRing("fibonacci", [("1", "1"), ("τ", "t")], 0, prod,
                      (0, 1), (tower.one(), phi), tower)


def _build_ising() -> FusionRing:
    tower = tower_preset("ising")
    one = tower.one()
    # objects 1, sigma, psi
    prod = {(0, 0): (0,), (0, 1): (1,), (0, 2): (2,),
            (1, 0): (1,), (1, 1): (0, 2), (1, 2): (1,),
            (2, 0): (2,), (2, 1): (1,), (2, 2): (0,)}
    return FusionRing("ising", [("1", "1"), ("σ", "s"), ("ψ", "p")], 0, prod,
                      (0, 1, 2), (one, tower.gen(0), one), tower)


_BUILTIN_ALIASES = {
    "h3": "h3", "z3_pointed": "z3_pointed", "z3": "z3_pointed",
    "fibonacci": "fibonacci", "fib": "fibonacci", "ising": "ising",
}


def builtin_ring(name: str) -> FusionRing:
    """One of the built-in rings: h3, z3_pointed, fibonacci, ising."""
    key = _BUILTIN_ALIASES.get(name)
    if key is None:
        raise ValueError(f"unknown ring {name!r}")
    return _build_builtin(key)


@cache
def _build_builtin(key: str) -> FusionRing:
    """The built-in ring of a resolved name, one object for the process."""
    if key == "h3":
        return _build_h3()
    if key == "z3_pointed":
        table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        return _group_ring("z3_pointed", [("1", "1"), ("α", "a"), ("α*", "as")],
                           table, tower_preset("rationals"))
    if key == "fibonacci":
        return _build_fibonacci()
    return _build_ising()


def is_h3(ring: FusionRing) -> bool:
    """True for the built-in h3 ring itself, not another ring of that name."""
    return ring is builtin_ring("h3")
