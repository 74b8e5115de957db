"""Exact field arithmetic, constants, text form, approximation."""

import decimal
import math
import random
from fractions import Fraction

import pytest

from fusioncat.exactnum import (MAX_NESTING_DEPTH, FieldScalar, ParamScalar,
                                ScalarParseError, approx, field_add, field_inv, field_mul, field_sqrt,
                                TowerSpec, gauss_jordan, is_zero, named_constant,
                                param_mul, param_substitute, parse_scalar,
                                render_scalar, tower_preset)
from fusioncat.fsymbols import _invert_param_matrix


# ---------------------------------------------------------------------------
# reference: recursive Fraction arithmetic on coordinate vectors, which the
# integer product table and the norm descent of field_sqrt must agree with

def _vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def _vec_scale(x, q):
    return tuple(a * q for a in x)


def _vec_mul(tower, x, y, level):
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


def _vec_inv(tower, x, level):
    """Invert a nonzero coordinate vector of length 2**level."""
    if level == 0:
        if x[0] == 0:
            raise ZeroDivisionError("division by zero")
        return (1 / x[0],)
    h = 1 << (level - 1)
    x0, x1 = x[:h], x[h:]
    sq = tower.squares[level - 1]
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


def _rat_sqrt(q):
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _sqrt_vec(tower, x, level):
    if level == 0:
        r = _rat_sqrt(x[0])
        return None if r is None else (r,)
    h = 1 << (level - 1)
    x0, x1 = x[:h], x[h:]
    sq = tower.squares[level - 1]
    zero = (Fraction(0),) * h
    if all(c == 0 for c in x1):
        r0 = _sqrt_vec(tower, x0, level - 1)
        if r0 is not None:
            return r0 + zero
        quot = _vec_mul(tower, x0, _vec_inv(tower, sq, level - 1), level - 1)
        y = _sqrt_vec(tower, quot, level - 1)
        if y is not None:
            return zero + y
        return None
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


def _reference_ptab(tower):
    """The product table and its denominator, from the recursive product."""
    k, deg = len(tower.gens), tower.degree
    unit = [tuple(Fraction(int(i == j)) for j in range(deg)) for i in range(deg)]
    raw = [[_vec_mul(tower, unit[i], unit[j], k) for j in range(deg)]
           for i in range(deg)]
    den = math.lcm(*(q.denominator for row in raw for prod in row for q in prod))
    ptab = tuple(tuple(tuple((idx, int(q * den)) for idx, q in enumerate(prod) if q)
                       for prod in row) for row in raw)
    return ptab, den


def _reference_sqrt(x):
    if x.sign() < 0:
        return None
    coords = _sqrt_vec(x.tower, x.coords, len(x.tower.gens))
    if coords is None:
        return None
    r = x.tower.from_coords(coords)
    return -r if r.sign() < 0 else r


@pytest.fixture(scope="module")
def h3():
    return tower_preset("h3")


def test_presets():
    assert tower_preset("h3").degree == 8
    assert tower_preset("rationals").degree == 1
    assert tower_preset("ising").degree == 2
    assert tower_preset("fibonacci").degree == 4
    with pytest.raises(ValueError):
        tower_preset("golden")


def test_defining_relations(h3):
    r13 = h3.gen(0)
    assert field_mul(r13, r13) == 13
    d_rho = named_constant("dRho")
    a = named_constant("A")
    assert field_mul(d_rho, a) == 1
    assert field_inv(d_rho) == a
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        field_inv(h3.zero())


def test_tower_mismatch(h3):
    other = tower_preset("ising")
    with pytest.raises(ValueError, match="tower mismatch"):
        field_add(h3.one(), other.one())
    # equality across towers is False either way round; arithmetic raises
    fib_one = tower_preset("fibonacci").one()
    h3_one = ParamScalar.from_field(h3.one())
    assert h3_one != fib_one and fib_one != h3_one
    assert not h3_one == fib_one and not fib_one == h3_one
    with pytest.raises(ValueError, match="tower mismatch"):
        h3_one + fib_one


def test_presets_are_one_object_per_name():
    for name in ("h3", "fibonacci", "ising", "rationals"):
        assert tower_preset(name) is tower_preset(name)
        assert tower_preset(name=name) is tower_preset(name)
    for _ in range(2):  # a failed build is not remembered
        with pytest.raises(ValueError, match="unknown tower preset 'q7'"):
            tower_preset("q7")


@pytest.mark.parametrize("gens, squares, level", [
    (("r4",), ((Fraction(4),),), 0),
    (("r2", "r8"), ((Fraction(2),), (Fraction(8), 0)), 1),
    (("r2", "r3", "r6"), ((Fraction(2),), (Fraction(3), 0), (Fraction(6), 0, 0, 0)), 2),
    # (2 + r13)**2: the descent finds its root through the norm 81 = 9**2
    (("r13", "s"), ((Fraction(13),), (Fraction(17), Fraction(4))), 1),
    (("i",), ((Fraction(-1),),), 0),
    (("z",), ((Fraction(0),),), 0),
], ids=["4", "8-over-r2", "6-over-r2-r3", "square-over-r13", "minus-1", "zero"])
def test_unsound_squares_are_rejected_at_construction(gens, squares, level):
    # a square root of a square, or of a nonpositive element, would make the
    # coordinate-wise zero test wrong (and sign() of gen - root never return)
    with pytest.raises(ValueError, match=f"level {level} square .* of generator "
                       f"'{gens[-1]}' is not a positive non-square"):
        TowerSpec("bad", gens, squares)


@pytest.mark.parametrize("gens, squares, match", [
    ((), ((Fraction(2),),), "0 generators for 1 adjoined squares"),
    (("r", "r"), ((Fraction(2),), (Fraction(3), 0)), "generator 'r' repeats"),
    (("r_2",), ((Fraction(2),),), "generator 'r_2' is not an ASCII letter"),
    (("p1",), ((Fraction(2),),), "generator 'p1' repeats .* sign parameter"),
], ids=["count", "duplicate", "not-a-token", "sign-parameter"])
def test_malformed_generators_are_rejected(gens, squares, match):
    # a count mismatch went unnoticed; each of the others rendered text that
    # did not parse back to the same value
    with pytest.raises(ValueError, match=match):
        TowerSpec("bad", gens, squares)


def test_zero_identities(h3):
    r13 = h3.gen(0)
    dp, dm = named_constant("Dplus"), named_constant("Dminus")
    b = named_constant("B")
    assert is_zero(dp * dm + b / 3)
    assert is_zero(named_constant("A") * named_constant("dRho") - 1)
    assert is_zero(named_constant("c1") - named_constant("dRho") * (r13 - 2) / 9)
    assert not is_zero(named_constant("sqrtA"))
    assert is_zero(h3.zero())


def test_named_constants(h3):
    r13 = h3.gen(0)
    assert named_constant("C") == (r13 + 1) / 6
    assert named_constant("bBigon") ** 2 == named_constant("dRho")
    t = named_constant("tTriangle")
    assert t == -named_constant("B") * named_constant("bBigon")
    assert approx(t) == pytest.approx(-0.97262, abs=1e-5)
    assert named_constant("c2") ** 2 == (r13 - 2) / 9
    with pytest.raises(ValueError):
        named_constant("zeta")


def test_approx_values(h3):
    assert approx(named_constant("dRho")) == pytest.approx(3.302775637731995, abs=1e-12)
    assert approx(named_constant("A")) == pytest.approx(0.302775637731995, abs=1e-12)
    assert approx(h3.zero()) == 0.0
    with pytest.raises(ValueError):
        approx(h3.one(), 32)


def _random_scalar(tower, rng, max_num=10**6):
    coords = [Fraction(rng.randint(-max_num, max_num),
                       rng.randint(1, max_num)) for _ in range(tower.degree)]
    return tower.from_coords(coords)


def test_field_axioms(h3):
    rng = random.Random(20240601)
    for _ in range(40):
        x, y, z = (_random_scalar(h3, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == 1


def _conjugate(x, bit):
    """Negate the coordinates whose monomial carries the generator ``bit``."""
    num, den = x.integer_coords()
    return FieldScalar(x.tower, tuple(-v if i & bit else v
                                      for i, v in enumerate(num)), den)


def test_galois_conjugation_commutes_with_mul(h3):
    # rA -> -rA and rE -> -rE fix Q(r13) and are automorphisms; r13 -> -r13
    # is not one, since it would send rA**2 = (r13 - 3)/2 to a negative
    rng = random.Random(1906)
    pairs = [(_random_scalar(h3, rng, 50), _random_scalar(h3, rng, 50))
             for _ in range(50)]
    for bit in (2, 4):
        for x, y in pairs:
            assert _conjugate(x * y, bit) == _conjugate(x, bit) * _conjugate(y, bit)
            assert _conjugate(x + y, bit) == _conjugate(x, bit) + _conjugate(y, bit)
    assert all(_conjugate(x * y, 1) != _conjugate(x, 1) * _conjugate(y, 1)
               for x, y in pairs)


def test_zero_test_soundness(h3):
    rng = random.Random(7)
    for _ in range(1000):
        x = _random_scalar(h3, rng, max_num=1000)
        if x.is_zero():
            continue
        assert abs(approx(x, 64)) > 0


def _decimal_value(x):
    """x to 100 significant digits, each adjoined root taken in decimal."""
    def combine(coords, monos):
        return sum(decimal.Decimal(q.numerator) / q.denominator * m
                   for q, m in zip(coords, monos))

    with decimal.localcontext() as ctx:
        ctx.prec = 100
        monos = [decimal.Decimal(1)]
        for sq in x.tower.squares:
            root = combine(sq, monos).sqrt()
            monos += [m * root for m in monos]
        return Fraction(combine(x.coords, monos))


@pytest.mark.parametrize("name", ["ising", "fibonacci", "h3"])
def test_enclosures_meet_their_width_for_large_coefficients(name):
    # approx_fraction(53) of 2**40 * r13 was once 5.8e-12 off: the working
    # precision did not grow with the coefficients
    tower = tower_preset(name)
    rng = random.Random(40)
    values = [tower.gen(0) * 2 ** 40, tower.gen(len(tower.gens) - 1) * -2 ** 40]
    values += [tower.from_coords([rng.randint(-2 ** 40, 2 ** 40)
                                  for _ in range(tower.degree)]) for _ in range(10)]
    values += [_random_scalar(tower, rng, 2 ** 40) for _ in range(10)]
    for x in values:
        ref = _decimal_value(x)
        for bits in (53, 64, 100, 200):
            assert abs(x.approx_fraction(bits) - ref) <= Fraction(1, 2 ** bits)
            lo, hi = x.interval(bits)
            assert lo <= ref <= hi
            assert hi - lo <= Fraction(1, 2 ** bits)


def test_enclosure_refines_past_a_tiny_adjoined_square():
    # sqrt(t) with t = 2**-60 / 3 is known only to about 2**29 units at the
    # starting precision, so the width is met only after raising it
    tower = TowerSpec("tiny", ("rt",), ((Fraction(1, 3 * 2 ** 60),),))
    for x in (tower.gen(0), tower.from_coords([1, 2 ** 40])):
        ref = _decimal_value(x)
        for bits in (53, 64, 200):
            lo, hi = x.interval(bits)
            assert lo <= ref <= hi
            assert hi - lo <= Fraction(1, 2 ** bits)
            assert abs(x.approx_fraction(bits) - ref) <= Fraction(1, 2 ** bits)


def test_approx_is_multiplicative(h3):
    rng = random.Random(99)
    values = [named_constant(n) for n in ("A", "B", "C", "Dplus", "Dminus",
                                          "sqrtA", "bBigon", "tTriangle")]
    for _ in range(50):
        x, y = rng.choice(values), rng.choice(values)
        err = abs(approx(x * y, 64) - approx(x, 64) * approx(y, 64))
        assert err < 2 ** -40


def test_param_ops(h3):
    p1 = ParamScalar.param(h3, 1)
    p2 = ParamScalar.param(h3, 2)
    assert param_substitute(-p1, 1, 1) == -h3.one()
    c = named_constant("C")
    assert param_substitute(p1 * p2 * c, -1, 1) == -c
    assert param_mul(p1, p1) == ParamScalar.from_field(h3.one())
    with pytest.raises(ValueError):
        param_substitute(p1, 0, 1)


def test_equal_scalars_hash_alike(h3):
    # a rational FieldScalar equals its int or Fraction, and a ParamScalar
    # with no sign monomial its field coefficient, so each set has one item
    for q in (1, Fraction(3, 7), 0):
        field = h3.from_rational(q)
        param = ParamScalar.from_field(field)
        assert field == q and param == q and param == field
        assert len({field, q}) == len({param, q}) == len({param, field}) == 1
        assert len({q, field, param, Fraction(q)}) == 1
    assert len({h3.one(), 1, ParamScalar.from_field(h3.one())}) == 1
    b = named_constant("B")
    assert len({b, ParamScalar.from_field(b)}) == 1
    p1 = ParamScalar.param(h3, 1)
    assert len({p1, 1, p1 * p1, ParamScalar.from_field(h3.zero()), 0}) == 3
    # a non-scalar and a scalar of another tower are never equal, though a
    # rational value of any tower hashes as its Fraction
    ising_one = tower_preset("ising").one()
    assert h3.one() != "1" and h3.one() != ising_one
    assert len({h3.one(), "1", ising_one}) == 3


def test_substitution_is_a_homomorphism(h3):
    rng = random.Random(5)
    values = [named_constant(n) for n in ("A", "B", "C", "Dplus")]
    p1 = ParamScalar.param(h3, 1)
    p2 = ParamScalar.param(h3, 2)
    for _ in range(20):
        x = ParamScalar.from_field(rng.choice(values)) * rng.choice([p1, p2, p1 * p2])
        y = ParamScalar.from_field(rng.choice(values)) * rng.choice([p1, p2, p1 * p2])
        for s1 in (-1, 1):
            for s2 in (-1, 1):
                assert (x * y).substitute(s1, s2) == x.substitute(s1, s2) * y.substitute(s1, s2)
                assert (x + y).substitute(s1, s2) == x.substitute(s1, s2) + y.substitute(s1, s2)


def test_canonical_text(h3):
    a = named_constant("A")
    assert render_scalar(a) == "(-3/2+1/2*r13)"
    x = ParamScalar.from_field(a * named_constant("sqrtA") * named_constant("dRho"))
    p1 = ParamScalar.param(h3, 1)
    # A * sqrtA * dRho = sqrtA, so with an extra (-1/2 + r13/2) factor:
    y = ParamScalar.from_field((h3.gen(0) - 1) / 2 * named_constant("sqrtA")) * p1
    assert render_scalar(y) == "(-1/2+1/2*r13)*rA*p1"
    assert render_scalar(parse_scalar(render_scalar(y), h3)) == render_scalar(y)
    assert render_scalar(h3.zero()) == "0"
    assert render_scalar(-p1) == "-p1"
    assert render_scalar(named_constant("c1")) == "(7/18+1/18*r13)"


@pytest.mark.parametrize("text", ["(-3/2+1/2*r13)", "7/18+1/18*r13",
                                  "(7/18)+(1/18)*r13", "-p1", "p1*p2",
                                  "1/2*rA*rE", "(1+r13)*(1-r13)"])
def test_parse_accepts_expression_shapes(h3, text):
    parse_scalar(text, h3)


def test_parse_errors(h3):
    with pytest.raises(ScalarParseError, match="zero denominator"):
        parse_scalar("(1/0)", h3)
    with pytest.raises(ScalarParseError, match="unknown token"):
        parse_scalar("2*r7", h3)
    with pytest.raises(ScalarParseError, match="column"):
        parse_scalar("1+", h3)


def test_parse_rejects_overlong_integer_literals(h3):
    digits = "3" * 5000
    for text, pos in ((f"1/{digits}", 2), (f"2*{digits}/7", 2)):
        with pytest.raises(ScalarParseError, match="integer literal") as err:
            parse_scalar(text, h3)
        assert err.value.pos == pos


def test_field_sqrt(h3):
    assert field_sqrt(named_constant("dRho")) == named_constant("bBigon")
    assert field_sqrt(h3.from_rational(4)) == 2
    assert field_sqrt(h3.from_rational(-1)) is None
    rationals = tower_preset("rationals")
    assert field_sqrt(rationals.from_rational(2)) is None
    fib = tower_preset("fibonacci")
    phi = (fib.gen(0) + 1) / 2
    root = field_sqrt(1 - phi.inverse() ** 2)
    assert root is not None and root ** 2 == 1 - phi.inverse() ** 2
    assert root.sign() > 0


@pytest.mark.parametrize("name", ["rationals", "ising", "fibonacci", "h3"])
def test_inverse_on_every_tower(name):
    tower = tower_preset(name)
    rng = random.Random(31)
    checked = 0
    for _ in range(60):
        # sparse and dense operands, including pure generator monomials
        coords = [Fraction(rng.randint(-40, 40), rng.randint(1, 25))
                  if rng.random() < 0.6 else 0 for _ in range(tower.degree)]
        x = tower.from_coords(coords)
        if x.is_zero():
            continue
        inv = x.inverse()
        assert x * inv == 1
        assert inv == tower.from_coords(
            _vec_inv(tower, x.coords, len(tower.gens)))
        checked += 1
    assert checked > 30
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        tower.zero().inverse()


@pytest.mark.parametrize("name", ["rationals", "ising", "fibonacci", "h3"])
def test_inverse_in_subfields(name):
    # elements generated by a proper subset of the generators (Q alone for
    # the rationals), for which inverse skips the levels they do not carry
    tower = tower_preset(name)
    rng = random.Random(97)
    n = len(tower.gens)
    checked = 0
    for mask in range(max((1 << n) - 1, 1)):
        monomials = [tower.one()]
        for i in range(n):
            if mask >> i & 1:
                monomials += [m * tower.gen(i) for m in monomials]
        for _ in range(10):
            x = sum((Fraction(rng.randint(-40, 40), rng.randint(1, 25)) * m
                     for m in monomials if rng.random() < 0.7), start=tower.zero())
            if x.is_zero():
                continue
            inv = x.inverse()
            assert x * inv == 1
            assert inv == tower.from_coords(
                _vec_inv(tower, x.coords, len(tower.gens)))
            checked += 1
    assert checked >= 5 * max((1 << n) - 1, 1)


@pytest.mark.parametrize("name", ["rationals", "ising", "fibonacci", "h3"])
def test_product_table_matches_reference(name):
    tower = tower_preset(name)
    assert (tower._ptab, tower._pden) == _reference_ptab(tower)


@pytest.mark.parametrize("name", ["rationals", "ising", "fibonacci", "h3"])
def test_field_sqrt_matches_reference(name):
    tower = tower_preset(name)
    rng = random.Random(83)
    roots = nones = 0
    for _ in range(25):
        # sparse operands reach the branch where the top half is zero
        x = tower.from_coords([Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                               if rng.random() < 0.6 else 0
                               for _ in range(tower.degree)])
        g = tower.gen(rng.randrange(len(tower.gens))) if tower.gens else 3
        for y in (x * x, x * x * g, -(x * x), x):
            root = field_sqrt(y)
            assert root == _reference_sqrt(y)
            if root is None:
                nones += 1
            else:
                assert root * root == y and root.sign() >= 0
                roots += 1
        assert field_sqrt(x * x) in (x, -x)
    assert roots >= 25 and nones >= 25


@pytest.mark.parametrize("name", ["rationals", "ising", "fibonacci", "h3"])
def test_gauss_jordan_inverts_on_every_tower(name):
    tower = tower_preset(name)
    rng = random.Random(47)
    zero, one = tower.zero(), tower.one()

    def element():
        while True:
            x = tower.from_coords([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                   if rng.random() < 0.6 else 0
                                   for _ in range(tower.degree)])
            if not x.is_zero():
                return x

    def reduce(m):
        n = len(m)
        rows = [{j: v for j, v in enumerate(row) if not v.is_zero()}
                | {n + i: one} for i, row in enumerate(m)]
        return gauss_jordan(rows, range(n))

    inverted = 0
    for trial in range(40):
        n = trial % 4 + 1
        m = [[element() for _ in range(n)] for _ in range(n)]
        if n > 1 and trial % 8 >= 4:
            m[0][0] = zero  # the first pivot must come from a later row
        pivots = reduce(m)
        if len(pivots) < n:
            continue
        inv = [[pivots[r].get(n + c, zero) for c in range(n)] for r in range(n)]
        for i in range(n):
            for j in range(n):
                got = sum((m[i][k] * inv[k][j] for k in range(n)), start=zero)
                assert got == (one if i == j else zero)
        inverted += 1
    assert inverted >= 36
    # singular: the third row is the first plus a multiple of the second
    m = [[element() for _ in range(3)] for _ in range(2)]
    f = element()
    m.append([a + f * b for a, b in zip(*m)])
    assert len(reduce(m)) == 2
    with pytest.raises(ValueError, match="block matrix is singular"):
        _invert_param_matrix(tower, [[ParamScalar.from_field(v) for v in row]
                                     for row in m])


def test_parse_rejects_deep_nesting(h3):
    depth = MAX_NESTING_DEPTH
    assert parse_scalar("(" * depth + "r13" + ")" * depth, h3) == \
        ParamScalar.from_field(h3.gen(0))
    assert parse_scalar("-" * depth + "1", h3) == ParamScalar.from_field(h3.one())
    for text in ("(" * 5000 + "1" + ")" * 5000, "-" * 5000 + "1",
                 "(" * (depth + 1) + "1" + ")" * (depth + 1)):
        with pytest.raises(ScalarParseError, match="nesting deeper than"):
            parse_scalar(text, h3)


def test_generator_enclosures_are_reused(h3):
    x = named_constant("c1") - named_constant("c2")
    first = (x.sign(), x.approx_fraction(64), x.interval(100))
    assert h3._gen_ivs
    h3._gen_ivs.clear()
    assert (x.sign(), x.approx_fraction(64), x.interval(100)) == first
