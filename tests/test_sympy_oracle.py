"""Tower arithmetic and degree against sympy's algebraic numbers on every
preset.

Each adjoined root is built in sympy from ``TowerSpec.squares``, so the
oracle shares no code with the integer product table, the norm descent of
``field_sqrt`` or the integer enclosures.  Values are compared at 60
significant digits, far beyond where two distinct elements with these
coefficients could meet.
"""

from fractions import Fraction
from functools import cache

import pytest

from fusioncat.exactnum import field_sqrt, tower_preset

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PRESETS = ("rationals", "ising", "fibonacci", "h3")
settings = hypothesis.settings(max_examples=10, deadline=None, derandomize=True)
coords = st.one_of(st.just(0), st.integers(-2 ** 40, 2 ** 40),
                   st.fractions(min_value=-50, max_value=50, max_denominator=12))


def elements(tower):
    return st.lists(coords, min_size=tower.degree,
                    max_size=tower.degree).map(tower.from_coords)


def _combine(coords, monos):
    return sum((sympy.Rational(q.numerator, q.denominator) * m
                for q, m in zip(coords, monos)), sympy.Integer(0))


@cache
def _basis(name):
    monos = [sympy.Integer(1)]
    for sq in tower_preset(name).squares:
        root = sympy.sqrt(_combine(sq, monos))
        monos += [m * root for m in monos]
    return monos


def to_sympy(x):
    return _combine(x.coords, _basis(x.tower.name))


def digits(expr) -> Fraction:
    return Fraction(str(sympy.N(expr, 60)))


def assert_close(x, expr):
    a, b = digits(to_sympy(x)), digits(expr)
    assert abs(a - b) <= Fraction(1, 10 ** 45) * (1 + abs(b))


@pytest.mark.parametrize("name", PRESETS)
@settings
@hypothesis.given(data=st.data())
def test_products_and_inverses(name, data):
    tower = tower_preset(name)
    x, y = data.draw(elements(tower)), data.draw(elements(tower))
    assert_close(x * y, to_sympy(x) * to_sympy(y))
    if not x.is_zero():
        assert_close(x.inverse(), 1 / to_sympy(x))


@pytest.mark.parametrize("name", PRESETS)
@settings
@hypothesis.given(data=st.data())
def test_field_sqrt(name, data):
    x = data.draw(elements(tower_preset(name)))
    assert_close(field_sqrt(x * x), abs(to_sympy(x)))
    root = field_sqrt(x)
    if digits(to_sympy(x)) < 0:
        assert root is None
    elif root is not None:
        assert_close(root, sympy.sqrt(to_sympy(x)))


@pytest.mark.parametrize("name", PRESETS)
@settings
@hypothesis.given(data=st.data())
def test_interval_holds_the_value(name, data):
    x = data.draw(elements(tower_preset(name)))
    lo, hi = x.interval(64)
    assert lo <= digits(to_sympy(x)) <= hi


@pytest.mark.parametrize("name", PRESETS)
def test_tower_degree(name):
    # the sum of the adjoined roots has as many conjugates as the tower
    # claims basis monomials, so no level adjoins a root already present
    tower = tower_preset(name)
    total = sum((_basis(name)[1 << i] for i in range(len(tower.gens))),
                sympy.Integer(0))
    x = sympy.Symbol("x")
    assert sympy.degree(sympy.minimal_polynomial(total, x), x) == tower.degree
