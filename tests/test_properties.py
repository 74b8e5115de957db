"""Property tests of the field layer on every tower preset, and of the
data-set text format on gauged H3 tables."""

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from fusioncat import cli, fsymbols
from fusioncat.exactnum import (ParamScalar, field_sqrt, parse_scalar,
                                render_scalar, tower_preset)
from fusioncat.fsymbols import GaugeAssignment, build_h3_table, parse

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PRESETS = ("rationals", "ising", "fibonacci", "h3")
settings = hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
coords = st.one_of(st.just(0), st.fractions(min_value=-50, max_value=50,
                                            max_denominator=12))


big_coords = st.one_of(st.just(0), st.integers(-2 ** 40, 2 ** 40),
                       st.fractions(min_value=-2 ** 40, max_value=2 ** 40,
                                    max_denominator=2 ** 20))


def elements(tower, coords=coords):
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
def test_sign_agrees_with_approx_fraction(name, data):
    x = data.draw(elements(tower_preset(name), big_coords))
    # minus a rational close to it, x is small and its sign needs refining
    x -= x.approx_fraction(data.draw(st.integers(0, 100)))
    for bits in (64, 256):
        approx = x.approx_fraction(bits)
        if abs(approx) > Fraction(1, 2 ** bits):
            assert x.sign() == (1 if approx > 0 else -1)


@pytest.mark.parametrize("name", PRESETS)
@settings
@hypothesis.given(data=st.data())
def test_interval_width(name, data):
    x = data.draw(elements(tower_preset(name), big_coords))
    precisions = (1, 32, 53, 64, 100, 160)
    intervals = [x.interval(bits) for bits in precisions]
    for bits, (lo, hi) in zip(precisions, intervals):
        assert 0 <= hi - lo <= Fraction(1, 2 ** bits)
    # every interval holds x, so they all meet
    assert max(lo for lo, _ in intervals) <= min(hi for _, hi in intervals)


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


DATA_SET_LINES = (Path(fsymbols.__file__).with_name("h3_fsymbols.txt")
                  .read_text("utf-8").splitlines())
fuzz_text = st.text(st.sampled_from(
    sorted(set("".join(DATA_SET_LINES))) + list("\t\n\r#q^/()-+*ρ\x00é")),
    min_size=1, max_size=3)


@st.composite
def edited_lines(draw):
    """The data set's lines with one to three random edits: characters
    replaced, deleted or inserted, or a line duplicated."""
    lines = list(DATA_SET_LINES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        at = draw(st.integers(0, len(line)))
        op = draw(st.sampled_from(("replace", "delete", "insert", "duplicate")))
        if op == "duplicate":
            lines.insert(i, line)
        elif op == "insert":
            lines[i] = line[:at] + draw(fuzz_text) + line[at:]
        else:
            cut = at + draw(st.integers(1, 5))
            new = draw(fuzz_text) if op == "replace" else ""
            lines[i] = line[:at] + new + line[cut:]
    return lines


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "edited.txt"


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(lines=edited_lines())
def test_fuzzed_data_set_text_never_crashes(fuzz_path, lines):
    fuzz_path.write_text("\n".join(lines) + "\n", "utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["export", "--dataset", str(fuzz_path)])
    assert code in (0, 1, 2), err.getvalue()
    assert "internal error" not in err.getvalue()
