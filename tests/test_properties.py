"""Property tests of the field layer on every tower preset, and of the
data-set text format on gauged H3 tables."""

import pytest

from fusioncat.exactnum import (ParamScalar, field_sqrt, parse_scalar,
                                render_scalar, tower_preset)
from fusioncat.fsymbols import GaugeAssignment, build_h3_table, parse

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PRESETS = ("rationals", "ising", "fibonacci", "h3")
settings = hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
coords = st.one_of(st.just(0), st.fractions(min_value=-50, max_value=50,
                                            max_denominator=12))


def elements(tower):
    return st.lists(coords, min_size=tower.degree,
                    max_size=tower.degree).map(tower.from_coords)


@pytest.mark.parametrize("name", PRESETS)
@settings
@hypothesis.given(data=st.data())
def test_ring_axioms(name, data):
    tower = tower_preset(name)
    x, y, z = (data.draw(elements(tower)) for _ in range(3))
    assert (x * y) * z == x * (y * z)
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert x + y == y + x
    assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("name", PRESETS)
@settings
@hypothesis.given(data=st.data())
def test_inverse(name, data):
    x = data.draw(elements(tower_preset(name)))
    hypothesis.assume(not x.is_zero())
    assert x * x.inverse() == 1


@pytest.mark.parametrize("name", PRESETS)
@settings
@hypothesis.given(data=st.data())
def test_sqrt_of_a_square(name, data):
    x = data.draw(elements(tower_preset(name)))
    root = field_sqrt(x * x)
    assert root in (x, -x)
    assert root.sign() >= 0


@pytest.mark.parametrize("name", PRESETS)
@settings
@hypothesis.given(data=st.data())
def test_text_round_trip(name, data):
    tower = tower_preset(name)
    monos = data.draw(st.sets(st.sampled_from(range(4))))
    x = ParamScalar(tower, {m: data.draw(elements(tower)) for m in monos})
    assert parse_scalar(render_scalar(x), tower) == x


@pytest.mark.parametrize("name", PRESETS)
@settings
@hypothesis.given(data=st.data())
def test_sign_point_transform_round_trip(name, data):
    tower = tower_preset(name)
    monos = data.draw(st.sets(st.sampled_from(range(4))))
    x = ParamScalar(tower, {m: data.draw(elements(tower)) for m in monos})
    points = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    assert ParamScalar.from_points(
        tower, {p: x.substitute(*p) for p in points}) == x
    values = {p: data.draw(elements(tower)) for p in points}
    y = ParamScalar.from_points(tower, values)
    assert {p: y.substitute(*p) for p in points} == values


@pytest.fixture(scope="module")
def h3_table():
    return build_h3_table()


@hypothesis.settings(max_examples=4, deadline=None, derandomize=True)
@hypothesis.given(data=st.data())
def test_gauged_table_text_round_trip(h3_table, data):
    ring = h3_table.ring
    vertices = [(a, b, c) for a in range(len(ring)) for b in range(len(ring))
                for c in ring.fusion(a, b)]
    values = data.draw(st.dictionaries(
        st.sampled_from(vertices),
        st.fractions(min_value=-20, max_value=20,
                     max_denominator=20).filter(bool),
        min_size=1))
    gauged = h3_table.apply_gauge(GaugeAssignment(ring, values))
    assert parse(gauged.serialize()) == gauged
