"""The H3 data set: totality, orthogonality, gauge action, serialization."""

import random
from fractions import Fraction

import pytest

from fusioncat.exactnum import ParamScalar, named_constant, render_scalar
from fusioncat.fsymbols import (DatasetParseError, FSymbolTable,
                                GaugeAssignment, all_ones_table,
                                build_h3_table, parse)
from fusioncat.fusionring import builtin_ring, enumerate_fkeys


@pytest.fixture(scope="module")
def table():
    return build_h3_table()


@pytest.fixture(scope="module")
def h3(table):
    return table.ring


def test_totality(table, h3):
    assert set(table.entries) == set(enumerate_fkeys(h3))
    assert len(table.entries) == 1431


def test_specific_entries(table, h3):
    assert table.get(("r", "r", "r", "r", "1", "1")).as_field() == named_constant("A")
    minus_p1 = -ParamScalar.param(h3.tower, 1)
    assert table.get(("a", "ar", "asr", "1", "as", "asr")) == minus_p1
    dplus = ParamScalar.from_field(named_constant("Dplus"))
    assert table.get(("r", "r", "ar", "r", "r", "r")) == dplus


def test_f_matrix(table, h3):
    m = table.f_matrix("r", "r", "r", "1")
    assert len(m) == 1 and m[0][0] == ParamScalar.from_field(h3.tower.one())
    m = table.f_matrix("r", "r", "r", "r")
    row2 = [render_scalar(v) for v in m[1]]
    assert row2 == ["rA", "(2/3-1/3*r13)", "(-5/12+1/12*r13)*p1-1/12*rE*p1",
                    "(5/12-1/12*r13)*p1-1/12*rE*p1"]
    with pytest.raises(ValueError):
        table.get(("1", "r", "r", "ar", "r", "r"))


def test_orthogonality_symbolic(table):
    report = table.check_orthogonality()
    assert report.passed, str(report)
    assert report.checked == 594


@pytest.mark.parametrize("p1,p2", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_substituted_tables_are_orthogonal(table, p1, p2):
    sub = table.substitute_params(p1, p2)
    assert sub.check_orthogonality().passed
    for v in sub.entries.values():
        assert v.is_field()


def test_substitution_examples(table, h3):
    one = ParamScalar.from_field(h3.tower.one())
    key = h3.key("a", "ar", "asr", "1", "as", "asr")  # stores -p1
    assert table.substitute_params(-1, 1).entries[key] == one
    assert table.substitute_params(1, 1).entries[key] == -one


def test_unit_label_entries(table, h3):
    one = ParamScalar.from_field(h3.tower.one())
    seen = 0
    for k, v in table.entries.items():
        if h3.unit in (k.a, k.b, k.c):
            seen += 1
            assert v * v == one
            assert v == one  # the data set is fully triangle-normalized
    assert seen == 172


def test_gauge_identity_and_composition(table, h3):
    rng = random.Random(11)
    g1 = GaugeAssignment(h3)
    assert table.apply_gauge(g1) == table
    g1 = _random_gauge(h3, rng)
    g2 = _random_gauge(h3, rng)
    once = table.apply_gauge(g1).apply_gauge(g2)
    combined = table.apply_gauge(g1.compose(g2))
    assert once == combined


def _random_gauge(ring, rng):
    g = GaugeAssignment(ring)
    for a in range(len(ring)):
        for b in range(len(ring)):
            for c in ring.fusion(a, b):
                g.set(a, b, c, Fraction(rng.randint(1, 7), rng.randint(1, 7)))
    return g


def _reference_apply_gauge(table, gauge):
    """Each entry times the vertex ratio, one division per entry."""
    def rescale(k, v):
        num = gauge(k.a, k.e, k.u) * gauge(k.b, k.c, k.e)
        den = gauge(k.a, k.b, k.f) * gauge(k.f, k.c, k.u)
        return v * (num / den)
    return table.map_entries(rescale)


def test_apply_gauge_matches_entrywise_division(table, h3):
    rng = random.Random(31)
    tower = h3.tower
    vertices = [(a, b, c) for a in range(len(h3)) for b in range(len(h3))
                for c in h3.fusion(a, b)]
    values = [tower.one() + tower.gen(0), tower.gen(1) - 2, tower.gen(2),
              tower.from_rational(Fraction(-3, 5))]
    field_valued = GaugeAssignment(h3)
    for vertex in vertices:
        field_valued.set(*vertex, rng.choice(values))
    partial = GaugeAssignment(h3)
    for vertex in rng.sample(vertices, len(vertices) // 3):
        partial.set(*vertex, Fraction(rng.randint(1, 7), rng.randint(1, 7)))
    assert 0 < len(partial.values) < len(vertices)
    for gauge in (_random_gauge(h3, rng), field_valued, partial):
        assert table.apply_gauge(gauge) == _reference_apply_gauge(table, gauge)


def test_compose_rejects_a_gauge_of_another_ring(h3):
    fib = builtin_ring("fibonacci")
    g = GaugeAssignment(h3).set("r", "r", "r", 2)
    other = GaugeAssignment(fib).set("t", "t", "t", 3)
    with pytest.raises(ValueError, match="different ring"):
        g.compose(other)
    with pytest.raises(ValueError, match="different ring"):
        other.compose(g)
    r = h3.label("r")
    assert g.compose(g).values == {(r, r, r): h3.tower.from_rational(4)}


def test_gauge_values_must_be_nonzero(h3):
    with pytest.raises(ValueError, match="nonzero"):
        GaugeAssignment(h3).set("r", "r", "r", 0)
    with pytest.raises(ValueError, match="vertex"):
        GaugeAssignment(h3).set("1", "a", "as", 2)


def test_serialize_round_trip(table):
    text = table.serialize()
    assert text.splitlines()[0] == "h3fsym v1"
    assert "F r r r r 1 1 = (-3/2+1/2*r13)" in text
    again = parse(text)
    assert again == table


def test_serialize_round_trip_other_rings():
    z3 = builtin_ring("z3_pointed")
    tab = all_ones_table(z3)
    assert parse(tab.serialize()) == tab


def test_parse_errors(table):
    with pytest.raises(DatasetParseError, match="header"):
        parse("not a dataset\n")
    good = table.serialize().splitlines()
    broken = "\n".join(good[:3] + ["F r r r r 1 1 = (1/0)"])
    with pytest.raises(DatasetParseError, match="zero denominator"):
        parse(broken)
    broken = "\n".join(good + [good[-1]])
    with pytest.raises(DatasetParseError, match="duplicate"):
        parse(broken)
    with pytest.raises(DatasetParseError, match="not total"):
        parse("\n".join(good[:-1]) + "\n")
    with pytest.raises(DatasetParseError, match="inadmissible|unknown"):
        parse("h3fsym v1\nF r q r r 1 1 = 1\n")


def test_tables_reject_partial_entry_maps(table, h3):
    entries = dict(table.entries)
    entries.popitem()
    with pytest.raises(ValueError, match="not total"):
        FSymbolTable(h3, entries)
