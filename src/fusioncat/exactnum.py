"""Exact arithmetic in towers of quadratic extensions of the rationals.

A :class:`TowerSpec` lists the square roots adjoined on top of Q, each given
by the element (in coordinates over the previous level) whose square root is
added.  Field elements are stored as coordinate vectors over the 2**k
monomial basis of square-root products, so equality and zero tests are exact
coordinate comparisons.  On top of the field sits :class:`ParamScalar`, a
polynomial in two formal sign parameters p1, p2 with p1**2 = p2**2 = 1.

The built-in ``h3`` tower is Q(r13, rA, rE) with r13 = sqrt(13),
rA = sqrt((r13 - 3)/2) and rE = sqrt(6*(r13 + 1)), which is a degree-8
extension (see :func:`_check_h3_degree` for the non-square certificates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class TowerSpec:
    """An ordered tower of quadratic extensions.

    ``squares[i]`` holds the coordinates (length ``2**i``, over the basis of
    the first ``i`` generators) of the element whose square root is adjoined
    at level ``i``.  ``gens[i]`` is the token naming that square root in the
    canonical text form.

    Construction precomputes the products of all pairs of basis monomials as
    integer vectors over one common denominator, which is what makes scalar
    multiplication a short integer loop instead of a recursion.
    """

    name: str
    gens: tuple[str, ...]
    squares: tuple[tuple[Fraction, ...], ...]

    @property
    def degree(self) -> int:
        return 1 << len(self.gens)

    def __post_init__(self):
        for i, sq in enumerate(self.squares):
            if len(sq) != 1 << i:
                raise ValueError(f"level {i} square has {len(sq)} coordinates, want {1 << i}")
        k = len(self.gens)
        deg = self.degree
        raw = [[None] * deg for _ in range(deg)]
        den = 1
        for i in range(deg):
            ei = [_ZERO] * deg
            ei[i] = _ONE
            for j in range(deg):
                ej = [_ZERO] * deg
                ej[j] = _ONE
                prod = _vec_mul(self, tuple(ei), tuple(ej), k)
                raw[i][j] = prod
                for q in prod:
                    den = den * q.denominator // math.gcd(den, q.denominator)
        ptab = tuple(
            tuple(tuple((idx, int(q * den)) for idx, q in enumerate(row) if q)
                  for row in raw[i])
            for i in range(deg))
        object.__setattr__(self, "_ptab", ptab)
        object.__setattr__(self, "_pden", den)
        # generator enclosures per precision, filled by _gen_intervals
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
        den = 1
        for q in coords:
            den = den * q.denominator // math.gcd(den, q.denominator)
        return FieldScalar(self, tuple(int(q * den) for q in coords), den)


def _vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def _vec_scale(x, q):
    return tuple(a * q for a in x)


def _vec_mul(tower: TowerSpec, x, y, level: int):
    """Multiply coordinate vectors of length 2**level."""
    if level == 0:
        return (x[0] * y[0],)
    h = 1 << (level - 1)
    x0, x1 = x[:h], x[h:]
    y0, y1 = y[:h], y[h:]
    sq = tower.squares[level - 1]
    lo = _vec_add(
        _vec_mul(tower, x0, y0, level - 1),
        _vec_mul(tower, _vec_mul(tower, x1, y1, level - 1), sq, level - 1),
    )
    hi = _vec_add(_vec_mul(tower, x0, y1, level - 1), _vec_mul(tower, x1, y0, level - 1))
    return lo + hi


def _vec_inv(tower: TowerSpec, x, level: int):
    """Invert a nonzero coordinate vector of length 2**level."""
    if level == 0:
        if x[0] == 0:
            raise ZeroDivisionError("division by zero")
        return (1 / x[0],)
    h = 1 << (level - 1)
    x0, x1 = x[:h], x[h:]
    sq = tower.squares[level - 1]
    # norm to the level below: x0^2 - x1^2 * sq, nonzero for x != 0 because
    # each level is a proper quadratic extension
    norm = _vec_sub(
        _vec_mul(tower, x0, x0, level - 1),
        _vec_mul(tower, _vec_mul(tower, x1, x1, level - 1), sq, level - 1),
    )
    if all(c == 0 for c in norm):
        raise ZeroDivisionError("division by zero")
    ninv = _vec_inv(tower, norm, level - 1)
    lo = _vec_mul(tower, x0, ninv, level - 1)
    hi = _vec_scale(_vec_mul(tower, x1, ninv, level - 1), -1)
    return lo + hi


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
            g = den
            for v in num:
                if v:
                    g = math.gcd(g, v)
                    if g == 1:
                        break
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
        if isinstance(other, int):
            return FieldScalar(self.tower, tuple(v * other for v in self._num),
                               self._den)
        if isinstance(other, Fraction):
            return FieldScalar(self.tower,
                               tuple(v * other.numerator for v in self._num),
                               self._den * other.denominator)
        if not isinstance(other, FieldScalar):
            return NotImplemented
        if other.tower is not self.tower:
            raise ValueError(
                f"tower mismatch: {self.tower.name} vs {other.tower.name}")
        tower = self.tower
        out = [0] * tower.degree
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
        and the inverse is ``conj`` divided by it.
        """
        if not any(self._num):
            raise ZeroDivisionError("division by zero")
        tower = self.tower
        norm = self
        conj = tower.one()
        for level in reversed(range(len(tower.gens))):
            bit = 1 << level
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
        if isinstance(other, (int, Fraction)):
            other = self.tower.from_rational(other)
        if not isinstance(other, FieldScalar):
            return NotImplemented
        return (self.tower is other.tower and self._num == other._num
                and self._den == other._den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.tower.name, self._num, self._den))
        return self._hash

    def is_zero(self) -> bool:
        return not any(self._num)

    def __repr__(self):
        return f"FieldScalar({self.tower.name}, {render_scalar(self)})"

    def interval(self, bits: int) -> tuple[Fraction, Fraction]:
        return _interval(self, bits)

    def approx_fraction(self, precision_bits: int = 53) -> Fraction:
        """A dyadic rational within 2**-precision_bits of the true value."""
        lo, hi = _interval(self, precision_bits + 8)
        return (lo + hi) / 2

    def sign(self) -> int:
        """Exact sign in the real embedding with all adjoined roots positive."""
        if self.is_zero():
            return 0
        bits = 64
        while True:
            lo, hi = _interval(self, bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2


def _isqrt_interval(num: int, den: int, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of sqrt(num/den) for num, den > 0, to roughly 2**-bits."""
    shift = 1 << (2 * bits)
    lo_int = math.isqrt(num * shift // den)
    return Fraction(lo_int, 1 << bits), Fraction(lo_int + 2, 1 << bits)


def _int_mul(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(p), max(p))


def _gen_intervals(tower: TowerSpec, bits: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Enclosures of the adjoined square roots, computed once per precision."""
    gens = tower._gen_ivs.get(bits)
    if gens is not None:
        return gens
    gens = []
    for i, sq in enumerate(tower.squares):
        # evaluate the adjoined square over the already-known generators
        lo, hi = _eval_interval(sq, gens, bits)
        if hi <= 0:
            raise ValueError(f"adjoined element at level {i} is not positive")
        slo, _ = _isqrt_interval(lo.numerator, lo.denominator, bits) if lo > 0 else (_ZERO, None)
        _, shi = _isqrt_interval(hi.numerator, hi.denominator, bits)
        gens.append((slo, shi))
    gens = tower._gen_ivs[bits] = tuple(gens)
    return gens


def _eval_interval(coords, gen_ivs, bits: int) -> tuple[Fraction, Fraction]:
    lo = hi = _ZERO
    for idx, q in enumerate(coords):
        if q == 0:
            continue
        mono = (_ONE, _ONE)
        j = idx
        level = 0
        while j:
            if j & 1:
                mono = _int_mul(mono, gen_ivs[level])
            j >>= 1
            level += 1
        tlo, thi = mono[0] * q, mono[1] * q
        if q < 0:
            tlo, thi = thi, tlo
        lo, hi = lo + tlo, hi + thi
    return lo, hi


def _interval(x: FieldScalar, bits: int) -> tuple[Fraction, Fraction]:
    gen_ivs = _gen_intervals(x.tower, bits + 16)
    return _eval_interval(x.coords, gen_ivs, bits + 16)


def field_sqrt(x: FieldScalar) -> FieldScalar | None:
    """The square root of x inside its own tower, or None if there is none.

    Returns the root that is nonnegative in the real embedding.
    """
    if x.sign() < 0:
        return None
    coords = _sqrt_vec(x.tower, x.coords, len(x.tower.gens))
    if coords is None:
        return None
    r = x.tower.from_coords(coords)
    return -r if r.sign() < 0 else r


def _rat_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _sqrt_vec(tower: TowerSpec, x, level: int):
    if level == 0:
        r = _rat_sqrt(x[0])
        return None if r is None else (r,)
    h = 1 << (level - 1)
    x0, x1 = x[:h], x[h:]
    sq = tower.squares[level - 1]
    zero = (_ZERO,) * h
    if all(c == 0 for c in x1):
        r0 = _sqrt_vec(tower, x0, level - 1)
        if r0 is not None:
            return r0 + zero
        # maybe sqrt(x0) = y * gen with y^2 = x0 / sq
        quot = _vec_mul(tower, x0, _vec_inv(tower, sq, level - 1), level - 1)
        y = _sqrt_vec(tower, quot, level - 1)
        if y is not None:
            return zero + y
        return None
    # seek (a + b*gen)^2 = x0 + x1*gen: a^2 = (x0 +- m)/2 with m = sqrt(norm)
    norm = _vec_sub(
        _vec_mul(tower, x0, x0, level - 1),
        _vec_mul(tower, _vec_mul(tower, x1, x1, level - 1), sq, level - 1),
    )
    m = _sqrt_vec(tower, norm, level - 1)
    if m is None:
        return None
    for mm in (m, _vec_scale(m, -1)):
        half = _vec_scale(_vec_add(x0, mm), Fraction(1, 2))
        a = _sqrt_vec(tower, half, level - 1)
        if a is None or all(c == 0 for c in a):
            continue
        b = _vec_mul(tower, x1, _vec_inv(tower, _vec_scale(a, 2), level - 1), level - 1)
        return a + b
    return None


# ---------------------------------------------------------------------------
# built-in towers

def _build_h3_tower() -> TowerSpec:
    # r13^2 = 13;  rA^2 = (r13 - 3)/2;  rE^2 = 6 + 6*r13
    return TowerSpec(
        name="h3",
        gens=("r13", "rA", "rE"),
        squares=(
            (Fraction(13),),
            (Fraction(-3, 2), Fraction(1, 2)),
            (Fraction(6), Fraction(6), _ZERO, _ZERO),
        ),
    )


def _build_fib_tower() -> TowerSpec:
    # r5^2 = 5;  rphi^2 = (1 + r5)/2
    return TowerSpec(
        name="fibonacci",
        gens=("r5", "rphi"),
        squares=((Fraction(5),), (Fraction(1, 2), Fraction(1, 2))),
    )


def _check_h3_degree(tower: TowerSpec) -> None:
    """Assert the three non-square certificates that make the tower degree 8.

    - A = (r13-3)/2 is not a square in Q(r13): (x + y*r13)^2 = A would force
      x^2 + 13 y^2 = -3/2 < 0.
    - Neither E = 6 + 6 r13 nor A*E = 30 - 6 r13 is a square in Q(r13): the
      induced quartics x^4 - 6 x^2 + 117 and x^4 - 30 x^2 + 117 have no
      rational roots, hence no solution with rational x = (coordinate).
    Together these give [Q(r13, rA, rE) : Q] = 8, which is what makes the
    coordinate-wise zero test sound.
    """
    for p, q in ((-6, 117), (-30, 117)):
        # rational roots of x^4 + p x^2 + q divide q (rational root theorem,
        # monic integer polynomial => roots are integers dividing q)
        for r in range(1, abs(q) + 1):
            if q % r == 0 and r**4 + p * r**2 + q == 0:
                raise AssertionError("h3 tower certificate violated")
    # A < 0 trap: x^2 + 13 y^2 = -3/2 is impossible; nothing to compute.


_TOWERS: dict[str, TowerSpec] = {}


def tower_preset(name: str) -> TowerSpec:
    """Return one of the built-in towers: h3, fibonacci, ising, rationals."""
    if name not in _TOWERS:
        if name == "h3":
            t = _build_h3_tower()
            _check_h3_degree(t)
        elif name == "fibonacci":
            t = _build_fib_tower()
        elif name == "ising":
            t = TowerSpec(name="ising", gens=("r2",), squares=((Fraction(2),),))
        elif name == "rationals":
            t = TowerSpec(name="rationals", gens=(), squares=())
        else:
            raise ValueError(f"unknown tower preset {name!r}")
        _TOWERS[name] = t
    return _TOWERS[name]


def named_constant(name: str, tower: TowerSpec | None = None) -> FieldScalar:
    """Exact values of the constants used by the H3 data set.

    All of these live in the h3 tower: dRho = (3+r13)/2, A = 1/dRho,
    B = (r13-2)/3, C = (r13+1)/6, Dplus/Dminus = (5 - r13 +- rE)/12,
    sqrtA = rA, bBigon = sqrt(dRho) = dRho*rA, tTriangle = -B*bBigon,
    c1 = (r13+7)/18 and c2 = (1+r13)/(6*sqrt(dRho)) (whose square is
    (r13-2)/9).
    """
    t = tower if tower is not None else tower_preset("h3")
    if t.name != "h3":
        raise ValueError(f"constant {name!r} requires the h3 tower")
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

    Terms map monomials (i, j) -- meaning p1**i * p2**j with i, j in {0, 1}
    -- to field coefficients.  Zero coefficients are never stored.  Values
    are immutable (``terms`` is never assigned into after construction), so
    one object may be shared by many table entries; equal values hash alike.
    """

    __slots__ = ("tower", "terms")

    def __init__(self, tower: TowerSpec, terms: dict[tuple[int, int], FieldScalar]):
        self.tower = tower
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    @classmethod
    def from_field(cls, x: FieldScalar) -> "ParamScalar":
        return cls(x.tower, {(0, 0): x})

    @classmethod
    def param(cls, tower: TowerSpec, which: int) -> "ParamScalar":
        """p1 for which = 1, p2 for which = 2."""
        mono = (1, 0) if which == 1 else (0, 1)
        return cls(tower, {mono: tower.one()})

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
        terms: dict[tuple[int, int], FieldScalar] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in o.terms.items():
                m = ((i1 + i2) & 1, (j1 + j2) & 1)  # p1^2 = p2^2 = 1
                prod = c1 * c2
                terms[m] = terms[m] + prod if m in terms else prod
        return ParamScalar(self.tower, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldScalar)):
            other = self._coerce(other)
        if not isinstance(other, ParamScalar):
            return NotImplemented
        return self.tower is other.tower and self.terms == other.terms

    def __hash__(self):
        return hash((self.tower.name, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def is_field(self) -> bool:
        return all(m == (0, 0) for m in self.terms)

    def as_field(self) -> FieldScalar:
        if not self.terms:
            return self.tower.zero()
        if not self.is_field():
            raise ValueError("scalar still depends on p1/p2")
        return self.terms[(0, 0)]

    def substitute(self, p1: int, p2: int) -> FieldScalar:
        """Evaluate at p1, p2 in {-1, +1}."""
        if p1 not in (-1, 1) or p2 not in (-1, 1):
            raise ValueError("parameters must be +1 or -1")
        out = self.tower.zero()
        for (i, j), c in self.terms.items():
            out = out + c * (p1**i * p2**j)
        return out

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
    for (i, j), coeff in x.terms.items():
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
            if i:
                tokens.append("p1")
            if j:
                tokens.append("p2")
            order = mono | (i << upper) | (j << (upper + 1))
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
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at column {pos + 1}")
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
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        num = int(self.text[start:self.pos])
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            dstart = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if dstart == self.pos:
                self.error("expected a denominator")
            den = int(self.text[dstart:self.pos])
            if den == 0:
                self.pos = dstart
                self.error("zero denominator")
            q = Fraction(num, den)
        else:
            q = Fraction(num)
        return ParamScalar.from_field(self.tower.from_rational(q))

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
