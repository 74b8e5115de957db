"""Exact arithmetic in towers of quadratic extensions of the rationals.

A :class:`TowerSpec` lists the square roots adjoined on top of Q, each given
by the element (in coordinates over the previous level) whose square root is
added.  Field elements are stored as coordinate vectors over the 2**k
monomial basis of square-root products, so equality and zero tests are exact
coordinate comparisons.  Those tests are sound because every tower proves
at construction that each adjoined element is a positive non-square one
level down, so the tower has degree 2**k.  On top of the field sits
:class:`ParamScalar`, a polynomial in two formal sign parameters p1, p2 with
p1**2 = p2**2 = 1.

The built-in ``h3`` tower is Q(r13, rA, rE) with r13 = sqrt(13),
rA = sqrt((r13 - 3)/2) and rE = sqrt(6*(r13 + 1)), a degree-8 extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

Rational = Fraction

_ZERO = Fraction(0)


@dataclass(frozen=True)
class TowerSpec:
    """An ordered tower of quadratic extensions.

    ``squares[i]`` holds the coordinates (length ``2**i``, over the basis of
    the first ``i`` generators) of the element whose square root is adjoined
    at level ``i``.  ``gens[i]`` is the token naming that square root in the
    canonical text form: an ASCII letter followed by letters or digits,
    distinct, and neither ``p1`` nor ``p2``, so the text form parses back.

    Construction proves the top level: its square must be positive and have
    no square root one level down (the norm descent of :func:`field_sqrt`),
    else ``ValueError``.  The tower one generator shorter, built for the
    product table below, has proved its own levels the same way, so each
    level is checked once and the coordinate-wise zero test is exact.

    Construction also precomputes the products of all pairs of basis
    monomials as integer vectors over one common denominator, which is what
    makes scalar multiplication a short integer loop instead of a recursion.
    The table of the top level is read off :class:`FieldScalar` products in
    the tower one generator shorter, whose own table is built the same way.
    """

    name: str
    gens: tuple[str, ...]
    squares: tuple[tuple[Fraction, ...], ...]

    @property
    def degree(self) -> int:
        return 1 << len(self.gens)

    def __post_init__(self):
        if len(self.gens) != len(self.squares):
            raise ValueError(f"{len(self.gens)} generators for "
                             f"{len(self.squares)} adjoined squares")
        if self.gens:
            top = self.gens[-1]
            if not (top.isascii() and top.isalnum() and top[0].isalpha()):
                raise ValueError(f"generator {top!r} is not an ASCII letter "
                                 "followed by letters or digits")
            if top in self.gens[:-1] + ("p1", "p2"):
                raise ValueError(
                    f"generator {top!r} repeats a generator or sign parameter")
            lower = TowerSpec(self.name, self.gens[:-1], self.squares[:-1])
            level, sq = len(lower.gens), self.squares[-1]
            if len(sq) != lower.degree:
                raise ValueError(f"level {level} square has {len(sq)} "
                                 f"coordinates, want {lower.degree}")
            g2 = lower.from_coords(sq)
            if g2.sign() <= 0 or _sqrt_below(g2, level) is not None:
                raise ValueError(
                    f"level {level} square {render_scalar(g2)} of generator "
                    f"{top!r} is not a positive non-square")
            # (x0 + x1*g)(y0 + y1*g) = x0*y0 + x1*y1*g**2 + (x0*y1 + x1*y0)*g,
            # the halves multiplied in the tower one level down
            h = lower.degree
            basis = [FieldScalar(lower, tuple(int(i == j) for j in range(h)), 1)
                     for i in range(h)]
            raw = [[(basis[i % h] * basis[j % h] * (g2 if i & j & h else 1),
                     (i ^ j) & h) for j in range(2 * h)] for i in range(2 * h)]
            den = math.lcm(*(p._den for row in raw for p, _ in row))
            ptab = tuple(
                tuple(tuple((k + shift, v * (den // p._den))
                            for k, v in enumerate(p._num) if v)
                      for p, shift in row)
                for row in raw)
        else:
            ptab, den = ((((0, 1),),),), 1
        object.__setattr__(self, "_ptab", ptab)
        object.__setattr__(self, "_pden", den)
        # monomial bounds per precision, filled by _monomial_bounds; kept
        # here, as a cache keyed by the tower would hash it (~4 us) per call
        object.__setattr__(self, "_gen_ivs", {})

    def zero(self) -> FieldScalar:
        return FieldScalar(self, (0,) * self.degree, 1)

    def one(self) -> FieldScalar:
        return self.from_rational(1)

    def from_rational(self, q) -> FieldScalar:
        q = Fraction(q)
        num = [0] * self.degree
        num[0] = q.numerator
        return FieldScalar(self, tuple(num), q.denominator)

    def gen(self, i: int) -> FieldScalar:
        """The i-th adjoined square root as a field element."""
        num = [0] * self.degree
        num[1 << i] = 1
        return FieldScalar(self, tuple(num), 1)

    def from_coords(self, coords) -> FieldScalar:
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.degree:
            raise ValueError(f"need {self.degree} coordinates, got {len(coords)}")
        den = math.lcm(*(q.denominator for q in coords))
        return FieldScalar(self, tuple(int(q * den) for q in coords), den)


class FieldScalar:
    """An exact element of a quadratic-extension tower.

    Stored as an integer coordinate vector over the monomial basis together
    with one positive denominator, always reduced (gcd of all numerators and
    the denominator is 1), so equality is plain structural equality.
    Values are immutable: one object may be shared by many table entries.
    """

    __slots__ = ("tower", "_num", "_den", "_hash")

    def __init__(self, tower: TowerSpec, num: tuple[int, ...], den: int):
        if den != 1:
            g = math.gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num = tuple(v // g for v in num)
                den //= g
        self.tower = tower
        self._num = num
        self._den = den
        self._hash = None

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._den) for v in self._num)

    def _coerce(self, other) -> "FieldScalar | None":
        if isinstance(other, FieldScalar):
            if other.tower is not self.tower:
                raise ValueError(
                    f"tower mismatch: {self.tower.name} vs {other.tower.name}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.tower.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._den, o._den
        if d1 == d2:
            return FieldScalar(self.tower,
                               tuple(a + b for a, b in zip(self._num, o._num)), d1)
        g = math.gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        return FieldScalar(
            self.tower,
            tuple(a * m1 + b * m2 for a, b in zip(self._num, o._num)),
            d1 // g * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        # a FieldScalar first: the Fraction test is an ABC check per call
        if not isinstance(other, FieldScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return FieldScalar(self.tower,
                               tuple(v * other.numerator for v in self._num),
                               self._den * other.denominator)
        if other.tower is not self.tower:
            raise ValueError(
                f"tower mismatch: {self.tower.name} vs {other.tower.name}")
        tower = self.tower
        out = [0] * len(self._num)
        ptab = tower._ptab
        for i, xi in enumerate(self._num):
            if not xi:
                continue
            row = ptab[i]
            for j, yj in enumerate(other._num):
                if not yj:
                    continue
                t = xi * yj
                for k, c in row[j]:
                    out[k] += t * c
        return FieldScalar(tower, tuple(out),
                           self._den * other._den * tower._pden)

    __rmul__ = __mul__

    def inverse(self) -> "FieldScalar":
        """Integer-only inverse by conjugates, one level at a time.

        Flipping the sign of the coordinates that carry generator i is the
        automorphism of level i + 1 over level i.  Working from the top
        generator down, multiplying the running norm by that conjugate drops
        it one level, so after k steps ``self * conj`` is a nonzero rational
        and the inverse is ``conj`` divided by it.  A level whose generator
        the running norm does not carry is skipped: there the conjugate is the
        norm itself, and multiplying would only square it.
        """
        if not any(self._num):
            raise ZeroDivisionError("division by zero")
        tower = self.tower
        norm = self
        conj = tower.one()
        for level in reversed(range(len(tower.gens))):
            bit = 1 << level
            if not any(v for idx, v in enumerate(norm._num) if idx & bit):
                continue
            flip = FieldScalar(
                tower, tuple(-v if idx & bit else v
                             for idx, v in enumerate(norm._num)), norm._den)
            norm = norm * flip
            conj = conj * flip
        num0 = norm._num[0]
        if not num0:
            raise ZeroDivisionError("division by zero")
        return FieldScalar(tower, tuple(v * norm._den for v in conj._num),
                           conj._den * num0)

    def integer_coords(self) -> tuple[tuple[int, ...], int]:
        """The reduced integer coordinates and their positive denominator."""
        return self._num, self._den

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return FieldScalar(self.tower, tuple(-v for v in self._num), self._den)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.tower.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        # a FieldScalar first, as in __mul__
        if not isinstance(other, FieldScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.tower.from_rational(other)
        return (self.tower is other.tower and self._num == other._num
                and self._den == other._den)

    def __hash__(self):
        # a rational value equals its int or Fraction, so it hashes as one
        if self._hash is None:
            self._hash = (hash(Fraction(self._num[0], self._den))
                          if not any(self._num[1:])
                          else hash((self.tower.name, self._num, self._den)))
        return self._hash

    def is_zero(self) -> bool:
        return not any(self._num)

    def __repr__(self):
        return f"FieldScalar({self.tower.name}, {render_scalar(self)})"

    def interval(self, bits: int) -> tuple[Fraction, Fraction]:
        """Dyadic bounds lo <= self <= hi with hi - lo <= 2**-bits."""
        lo, hi, b = _enclosure(self, bits)
        return Fraction(lo, 1 << b), Fraction(hi, 1 << b)

    def approx_fraction(self, precision_bits: int = 53) -> Fraction:
        """A dyadic rational within 2**-precision_bits of the true value."""
        lo, hi, b = _enclosure(self, precision_bits + 1)
        return Fraction(lo + hi, 2 << b)

    def sign(self) -> int:
        """Exact sign in the real embedding with all adjoined roots positive."""
        if self.is_zero():
            return 0
        bits = 64
        while True:
            lo, hi, _ = _enclosure(self, bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2


def _enclosure(x: FieldScalar, bits: int) -> tuple[int, int, int]:
    """Integers lo, hi and a precision b with lo <= x * 2**b <= hi and
    hi - lo <= 2**(b - bits).

    b starts at ``bits`` plus 8 guard bits plus the bit length of the sum of
    |coordinates|, so large coefficients meet the width at once, rounded up
    to a multiple of 32 so few precisions of monomial bounds are kept.
    """
    num, den = x._num, x._den
    scale = (sum(map(abs, num)) // den).bit_length()
    b = -(-(bits + 8 + scale) // 32) * 32
    while True:
        lo, hi = _bound(num, den, _monomial_bounds(x.tower, b))
        if hi - lo <= 1 << (b - bits):
            return lo, hi, b
        b += 32


def _bound(num, den: int, monos) -> tuple[int, int]:
    """Floor and ceiling of 2**b * sum(num[k] * monomial k) / den, from
    bounds (lo, hi) on 2**b times each monomial; coordinates past the end
    of ``monos`` must be zero."""
    lo = hi = 0
    for n, (mlo, mhi) in zip(num, monos):
        if n > 0:
            lo += n * mlo
            hi += n * mhi
        elif n:
            lo += n * mhi
            hi += n * mlo
    return lo // den, -(-hi // den)


def _monomial_bounds(tower: TowerSpec, b: int) -> tuple[tuple[int, int], ...]:
    """Integer bounds 0 <= lo <= m * 2**b <= hi on every basis monomial m,
    computed once per precision; generator i is monomial ``1 << i``.

    Each generator is the integer square root of the bounds on its adjoined
    square over the lower generators.  All bounds are nonnegative, so a
    product takes floor(lo * lo') and ceil(hi * hi').
    """
    monos = tower._gen_ivs.get(b)
    if monos is not None:
        return monos
    monos = [(1 << b, 1 << b)]
    for sq in tower.squares:
        s = tower.from_coords(sq + (0,) * (tower.degree - len(sq)))
        lo, hi = _bound(s._num, s._den, monos)
        glo = math.isqrt(max(lo, 0) << b)
        ghi = math.isqrt((hi << b) - 1) + 1
        monos += [(mlo * glo >> b, -(-mhi * ghi >> b)) for mlo, mhi in monos]
    monos = tower._gen_ivs[b] = tuple(monos)
    return monos


def field_sqrt(x: FieldScalar) -> FieldScalar | None:
    """The square root of x inside its own tower, or None if there is none.

    Returns the root that is nonnegative in the real embedding.
    """
    if x.sign() < 0:
        return None
    r = _sqrt_below(x, len(x.tower.gens))
    if r is None:
        return None
    return -r if r.sign() < 0 else r


def _sqrt_below(x: FieldScalar, level: int) -> FieldScalar | None:
    """A square root of x in the subfield of the first ``level`` generators,
    which holds x too, or None if it has none there.

    Norm descent: a root a + b*g of x0 + x1*g, with g the generator of the
    level and a, b, x0, x1 one level down, has a**2 = (x0 +- m)/2 where
    m**2 = x0**2 - x1**2*g**2, and b = x1/(2a).
    """
    tower = x.tower
    num, den = x._num, x._den
    if level == 0:
        if num[0] < 0:
            return None
        rn, rd = math.isqrt(num[0]), math.isqrt(den)
        if rn * rn != num[0] or rd * rd != den:
            return None
        return FieldScalar(tower, (rn,) + num[1:], rd)
    h = 1 << (level - 1)
    pad = (0,) * (tower.degree - h)
    x0 = FieldScalar(tower, num[:h] + pad, den)
    x1 = FieldScalar(tower, num[h:2 * h] + pad, den)
    g = tower.gen(level - 1)
    if x1.is_zero():
        r0 = _sqrt_below(x0, level - 1)
        if r0 is not None:
            return r0
        # maybe sqrt(x0) = y * g with y**2 = x0 / g**2
        y = _sqrt_below(x0 / (g * g), level - 1)
        return None if y is None else y * g
    m = _sqrt_below(x0 * x0 - x1 * x1 * (g * g), level - 1)
    if m is None:
        return None
    for mm in (m, -m):
        a = _sqrt_below((x0 + mm) * Fraction(1, 2), level - 1)
        if a is None or a.is_zero():
            continue
        return a + x1 / (a * 2) * g
    return None


# ---------------------------------------------------------------------------
# built-in towers

# name -> (gens, squares); r13**2 = 13, rA**2 = (r13 - 3)/2,
# rE**2 = 6 + 6*r13, r5**2 = 5, rphi**2 = (1 + r5)/2
_PRESETS = {
    "h3": (("r13", "rA", "rE"),
           ((Fraction(13),), (Fraction(-3, 2), Fraction(1, 2)),
            (Fraction(6), Fraction(6), _ZERO, _ZERO))),
    "fibonacci": (("r5", "rphi"),
                  ((Fraction(5),), (Fraction(1, 2), Fraction(1, 2)))),
    "ising": (("r2",), ((Fraction(2),),)),
    "rationals": ((), ()),
}


def tower_preset(name: str) -> TowerSpec:
    """Return one of the built-in towers: h3, fibonacci, ising, rationals;
    one object per name for the process."""
    return _build_tower(name)  # positional, so a keyword call shares the key


@cache
def _build_tower(name: str) -> TowerSpec:
    if name not in _PRESETS:
        raise ValueError(f"unknown tower preset {name!r}")
    return TowerSpec(name, *_PRESETS[name])


def named_constant(name: str) -> FieldScalar:
    """Exact values of the constants used by the H3 data set.

    All of these live in the h3 tower: dRho = (3+r13)/2, A = 1/dRho,
    B = (r13-2)/3, C = (r13+1)/6, Dplus/Dminus = (5 - r13 +- rE)/12,
    sqrtA = rA, bBigon = sqrt(dRho) = dRho*rA, tTriangle = -B*bBigon,
    c1 = (r13+7)/18 and c2 = (1+r13)/(6*sqrt(dRho)) (whose square is
    (r13-2)/9).
    """
    t = tower_preset("h3")
    r13 = t.gen(0)
    rA = t.gen(1)
    rE = t.gen(2)
    d_rho = (r13 + 3) / 2
    sqrt_d = d_rho * rA  # sqrt(1/A) = A^-1 * sqrt(A)
    table = {
        "dRho": lambda: d_rho,
        "A": lambda: (r13 - 3) / 2,
        "B": lambda: (r13 - 2) / 3,
        "C": lambda: (r13 + 1) / 6,
        "Dplus": lambda: (5 - r13 + rE) / 12,
        "Dminus": lambda: (5 - r13 - rE) / 12,
        "sqrtA": lambda: rA,
        "bBigon": lambda: sqrt_d,
        "tTriangle": lambda: -((r13 - 2) / 3) * sqrt_d,
        "c1": lambda: (r13 + 7) / 18,
        "c2": lambda: (1 + r13) / (6 * sqrt_d),
    }
    if name not in table:
        raise ValueError(f"unknown constant {name!r}")
    return table[name]()


# ---------------------------------------------------------------------------
# spec-named wrappers

def field_add(x: FieldScalar, y: FieldScalar) -> FieldScalar:
    return x + y


def field_mul(x: FieldScalar, y: FieldScalar) -> FieldScalar:
    return x * y


def field_inv(x: FieldScalar) -> FieldScalar:
    return x.inverse()


def is_zero(x: "FieldScalar | ParamScalar") -> bool:
    return x.is_zero()


def approx(x: FieldScalar, precision_bits: int = 53) -> float:
    """Floating approximation of x, accurate to ~2**-precision_bits."""
    if precision_bits < 53:
        raise ValueError("precision_bits must be >= 53")
    return float(x.approx_fraction(precision_bits))


# ---------------------------------------------------------------------------
# exact linear elimination

def add_scaled(row: dict, other: dict, f: FieldScalar | None = None) -> None:
    """Add ``f * other`` (``other`` when f is None) to ``row`` in place.

    Both map keys to :class:`FieldScalar` values; entries that come out zero
    are dropped, so a row that holds only nonzero entries keeps doing so.
    """
    for k, v in other.items():
        if f is not None:
            v = f * v
        w = row[k] + v if k in row else v
        if w.is_zero():
            row.pop(k, None)
        else:
            row[k] = w


def gauss_jordan(rows: list[dict], columns) -> dict:
    """Sparse exact Gauss-Jordan elimination of ``rows``, in place.

    Each row maps a column to its nonzero :class:`FieldScalar` entry.  For
    each column in the given order the pivot is the first row not yet used
    as a pivot row that has an entry there; it is scaled to 1 in that column
    and the column is cleared from every other row.  Returns the map from
    column to pivot row; a column without a pivot is absent from it.
    """
    free = list(range(len(rows)))
    pivots = {}
    for col in columns:
        i = next((i for i in free if col in rows[i]), None)
        if i is None:
            continue
        free.remove(i)
        src = rows[i]
        inv = src[col].inverse()
        for k in src:
            src[k] = src[k] * inv
        for row in rows:
            if row is not src and col in row:
                add_scaled(row, src, -row[col])
        pivots[col] = src
    return pivots


# ---------------------------------------------------------------------------
# formal sign parameters

class ParamScalar:
    """Polynomial in the sign parameters p1, p2 over a field tower.

    Terms map sign monomials, the 2-bit ints ``i | j << 1`` meaning
    p1**i * p2**j (0 is 1, 1 is p1, 2 is p2, 3 is p1*p2; as p1**2 = p2**2 = 1,
    a product of monomials is their XOR), to field coefficients.  Zero
    coefficients are never stored.  Values are immutable (``terms`` is never
    assigned into after construction), so one object may be shared by many
    table entries; equal values hash alike.  :meth:`substitute` evaluates at
    one of the four sign points and :meth:`from_points` is its inverse.
    """

    __slots__ = ("tower", "terms")

    def __init__(self, tower: TowerSpec, terms: dict[int, FieldScalar]):
        self.tower = tower
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    @classmethod
    def from_field(cls, x: FieldScalar) -> "ParamScalar":
        return cls(x.tower, {0: x})

    @classmethod
    def param(cls, tower: TowerSpec, which: int) -> "ParamScalar":
        """p1 for which = 1, p2 for which = 2."""
        return cls(tower, {which: tower.one()})

    def _coerce(self, other) -> "ParamScalar | None":
        if isinstance(other, ParamScalar):
            if other.tower is not self.tower:
                raise ValueError("tower mismatch")
            return other
        if isinstance(other, FieldScalar):
            return ParamScalar.from_field(self._field_coerce(other))
        if isinstance(other, (int, Fraction)):
            return ParamScalar.from_field(self.tower.from_rational(other))
        return None

    def _field_coerce(self, x: FieldScalar) -> FieldScalar:
        if x.tower is not self.tower:
            raise ValueError("tower mismatch")
        return x

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in o.terms.items():
            terms[m] = terms[m] + c if m in terms else c
        return ParamScalar(self.tower, terms)

    __radd__ = __add__

    def __neg__(self):
        return ParamScalar(self.tower, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict[int, FieldScalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = m1 ^ m2
                prod = c1 * c2
                terms[m] = terms[m] + prod if m in terms else prod
        return ParamScalar(self.tower, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, FieldScalar):
            other = ParamScalar.from_field(other)
        elif isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, ParamScalar):
            return NotImplemented
        return self.tower is other.tower and self.terms == other.terms

    def __hash__(self):
        # a value with no sign monomial equals its field coefficient
        if self.is_field():
            return hash(self.terms.get(0, 0))
        return hash((self.tower.name, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def is_field(self) -> bool:
        return all(m == 0 for m in self.terms)

    def as_field(self) -> FieldScalar:
        if not self.terms:
            return self.tower.zero()
        if not self.is_field():
            raise ValueError("scalar still depends on p1/p2")
        return self.terms[0]

    def substitute(self, p1: int, p2: int) -> FieldScalar:
        """Evaluate at p1, p2 in {-1, +1}."""
        if p1 not in (-1, 1) or p2 not in (-1, 1):
            raise ValueError("parameters must be +1 or -1")
        out = self.tower.zero()
        for m, c in self.terms.items():
            out = out + c * ((p1 if m & 1 else 1) * (p2 if m & 2 else 1))
        return out

    @classmethod
    def from_points(cls, tower: TowerSpec,
                    values: dict[tuple[int, int], FieldScalar]) -> "ParamScalar":
        """The value that substitutes to ``values[(p1, p2)]`` at each of the
        four sign points: a monomial's coefficient is the mean of the values,
        each times the monomial's sign at its point."""
        a, b, c, d = (values[p] for p in ((1, 1), (-1, 1), (1, -1), (-1, -1)))
        q = Fraction(1, 4)
        return cls(tower, {0: (a + b + c + d) * q, 1: (a - b + c - d) * q,
                           2: (a + b - c - d) * q, 3: (a - b - c + d) * q})

    def __repr__(self):
        return f"ParamScalar({self.tower.name}, {render_scalar(self)})"


def param_add(x: ParamScalar, y: ParamScalar) -> ParamScalar:
    return x + y


def param_mul(x: ParamScalar, y: ParamScalar) -> ParamScalar:
    return x * y


def param_substitute(x: ParamScalar, p1: int, p2: int) -> FieldScalar:
    return x.substitute(p1, p2)


# ---------------------------------------------------------------------------
# canonical text form
#
# A scalar is printed as a sum of terms COEFF * MONO where MONO is a product
# of the upper-level generator tokens (rA, rE for h3) and p1, p2, and COEFF
# lives in the quadratic field of the first generator.  Examples:
# `(-3/2+1/2*r13)`, `(-1/2+1/2*r13)*rA*p1`, `-p1`, `1/2*rA`.

def _coeff_text(q0: Fraction, q1: Fraction, g0: str | None) -> str:
    if q1 == 0 or g0 is None:
        return str(q0)
    if q0 == 0:
        if q1 == 1:
            return g0
        if q1 == -1:
            return f"-{g0}"
        return f"{q1}*{g0}"
    sign = "+" if q1 > 0 else "-"
    tail = f"{abs(q1)}*{g0}" if abs(q1) != 1 else g0
    return f"({q0}{sign}{tail})"


def render_scalar(x: "FieldScalar | ParamScalar") -> str:
    """Canonical text form of a scalar; parsed back by :func:`parse_scalar`."""
    if isinstance(x, FieldScalar):
        x = ParamScalar.from_field(x)
    tower = x.tower
    k = len(tower.gens)
    upper = max(k - 1, 0)  # generators above the first one
    g0 = tower.gens[0] if k else None
    parts: list[tuple[int, str]] = []
    for m, coeff in x.terms.items():
        by_mono: dict[int, list[Fraction]] = {}
        for idx, q in enumerate(coeff.coords):
            if q == 0:
                continue
            mono = idx >> 1 if k else 0  # strip the g0 bit
            has_g0 = (idx & 1) if k else 0
            slot = by_mono.setdefault(mono, [_ZERO, _ZERO])
            slot[has_g0] = q
        for mono, (q0, q1) in by_mono.items():
            tokens = [tower.gens[lvl + 1] for lvl in range(upper) if mono >> lvl & 1]
            if m & 1:
                tokens.append("p1")
            if m & 2:
                tokens.append("p2")
            order = mono | m << upper
            ctext = _coeff_text(q0, q1, g0)
            if tokens:
                if ctext == "1":
                    text = "*".join(tokens)
                elif ctext == "-1":
                    text = "-" + "*".join(tokens)
                else:
                    text = "*".join([ctext] + tokens)
            else:
                text = ctext
            parts.append((order, text))
    if not parts:
        return "0"
    parts.sort()
    out = parts[0][1]
    for _, text in parts[1:]:
        out += text if text.startswith("-") else "+" + text
    return out


# Deepest nesting of parentheses and unary minus signs the parser accepts.
# Canonical text nests one level; the bound keeps hostile input from
# exhausting the interpreter's recursion limit.
MAX_NESTING_DEPTH = 100


class ScalarParseError(ValueError):
    """``message`` without a position; ``pos`` is the 0-based offset of the
    fault in the parsed text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at column {pos + 1}")
        self.message = message
        self.pos = pos


class _Parser:
    def __init__(self, text: str, tower: TowerSpec):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.tower = tower

    def error(self, msg: str):
        raise ScalarParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> ParamScalar:
        value = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self) -> ParamScalar:
        value = self.factor()
        while self.peek() == "*":
            self.pos += 1
            value = value * self.factor()
        return value

    def factor(self) -> ParamScalar:
        ch = self.peek()
        if ch in ("-", "("):
            if self.depth == MAX_NESTING_DEPTH:
                self.error(f"nesting deeper than {MAX_NESTING_DEPTH} levels")
            self.depth += 1
            self.pos += 1
            if ch == "-":
                value = -self.factor()
            else:
                value = self.expr()
                if self.peek() != ")":
                    self.error("expected ')'")
                self.pos += 1
            self.depth -= 1
            return value
        if ch.isdigit():
            return self.number()
        if ch.isalpha():
            return self.token()
        self.error("expected a number, token or '('")

    def number(self) -> ParamScalar:
        q = Fraction(self.integer())
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            start = self.pos
            den = self.integer()
            if den == 0:
                self.pos = start
                self.error("zero denominator")
            q /= den
        return ParamScalar.from_field(self.tower.from_rational(q))

    def integer(self) -> int:
        """The decimal literal at the current position; only a denominator
        can be empty, since :meth:`factor` sees a digit before a number."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected a denominator")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # past int()'s digit limit, or non-ASCII digits
            self.pos = start
            self.error("integer literal too long or not decimal")

    def token(self) -> ParamScalar:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        name = self.text[start:self.pos]
        if name == "p1":
            return ParamScalar.param(self.tower, 1)
        if name == "p2":
            return ParamScalar.param(self.tower, 2)
        if name in self.tower.gens:
            return ParamScalar.from_field(self.tower.gen(self.tower.gens.index(name)))
        self.pos = start
        self.error(f"unknown token {name!r}")


def parse_scalar(text: str, tower: TowerSpec) -> ParamScalar:
    """Parse the canonical text form (also accepts any +-*() expression)."""
    p = _Parser(text, tower)
    value = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("unexpected trailing input")
    return value
