"""The H3 data set: totality, orthogonality, gauge action, serialization."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from fusioncat import fsymbols
from fusioncat.exactnum import (ParamScalar, ScalarParseError, named_constant,
                                parse_scalar, render_scalar, tower_preset)
from fusioncat.fsymbols import (DatasetParseError, FSymbolTable,
                                GaugeAssignment, all_ones_table,
                                build_h3_table, parse)
from fusioncat.fusionring import builtin_ring, enumerate_fkeys, f_blocks
from fusioncat.pentagon import find_failing_instance, negate_entry


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


def test_gauge_values_must_be_in_the_ring_tower(h3):
    fib_one = tower_preset("fibonacci").one()
    with pytest.raises(ValueError, match=r"\(3,3;3\) is in tower fibonacci"):
        GaugeAssignment(h3).set("r", "r", "r", fib_one)
    with pytest.raises(ValueError, match="tower fibonacci"):
        GaugeAssignment(h3, {("r", "r", "1"): fib_one})


def test_serialize_round_trip(table):
    text = table.serialize()
    assert text.splitlines()[0] == "h3fsym v1"
    assert "F r r r r 1 1 = (-3/2+1/2*r13)" in text
    again = parse(text)
    assert again == table


def test_shipped_data_set_is_canonical(table):
    # export must reproduce the shipped file byte for byte
    path = Path(fsymbols.__file__).with_name("h3_fsymbols.txt")
    assert path.read_bytes() == table.serialize().encode("utf-8")


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


def _with_line(lines, at, line):
    return "\n".join(lines[:at] + [line] + lines[at:]) + "\n"


def test_conflicting_ring_comment_is_rejected(table):
    lines = table.serialize().splitlines()
    with pytest.raises(DatasetParseError, match="fibonacci") as err:
        parse(_with_line(lines, 10, "# ring: fib"))
    assert err.value.line == 11
    with pytest.raises(DatasetParseError, match="fibonacci") as err:
        parse(table.serialize(), ring=builtin_ring("fibonacci"))
    assert err.value.line == 2


def test_ring_comment_after_entries_must_match_the_default():
    z3 = builtin_ring("z3_pointed")
    lines = all_ones_table(z3).serialize().splitlines()
    comment = lines.pop(1)
    assert comment == "# ring: z3_pointed"
    lines.append(comment)
    with pytest.raises(DatasetParseError, match="z3_pointed") as err:
        parse("\n".join(lines) + "\n")
    assert err.value.line == len(lines)


def test_repeated_ring_comment_is_accepted(table):
    lines = table.serialize().splitlines()
    assert parse(_with_line(lines, 10, "# ring: h3")) == table
    assert parse(table.serialize(), ring=builtin_ring("h3")) == table


def test_unknown_ring_comment_is_rejected(table):
    lines = table.serialize().splitlines()
    with pytest.raises(DatasetParseError, match="unknown ring") as err:
        parse(_with_line(lines, 1, "# ring: nosuch"))
    assert err.value.line == 2


def test_parse_error_positions_survive_shared_values(table):
    good = table.serialize().splitlines()
    bad = "(1/2+3/0*r13)"
    with pytest.raises(ScalarParseError) as direct:
        parse_scalar(bad, table.ring.tower)
    text = "\n".join(good[:5] + [f"F r r r r 1 1 = {bad}",
                                 f"F r r r r r r = {bad}"] + good[5:])
    with pytest.raises(DatasetParseError, match="zero denominator") as err:
        parse(text)
    assert (err.value.line, err.value.column) == (
        6, len("F r r r r 1 1 = ") + direct.value.pos + 1)
    # a duplicate after a value shared with earlier lines is still a duplicate
    expr = good[-1].split("=", 1)[1].strip()
    assert sum(line.endswith("= " + expr) for line in good) > 1
    with pytest.raises(DatasetParseError, match="duplicate") as err:
        parse("\n".join(good + [good[-1]]))
    assert err.value.line == len(good) + 1
    # a bad key fails on its own line although its expression is known
    with pytest.raises(DatasetParseError, match="unknown|inadmissible") as err:
        parse("\n".join(good[:20] + [f"F r q r r 1 1 = {expr}"] + good[20:]))
    assert err.value.line == 21


def test_parse_skips_blank_lines_and_rejects_an_empty_data_set(table):
    lines = table.serialize().splitlines()
    assert parse("\n".join(lines[:3] + ["", "  "] + lines[3:])) == table
    with pytest.raises(DatasetParseError, match="empty data set") as err:
        parse("h3fsym v1\n")
    assert err.value.line == 1


def test_parse_errors_name_one_column_of_the_line():
    for entry, message in (("F r r r r 1 1 = 1/0", "column 19: zero denominator"),
                           ("   F r r r r 1 1", "column 16: expected '='")):
        with pytest.raises(DatasetParseError) as err:
            parse(f"h3fsym v1\n# ring: h3\n{entry}\n")
        assert str(err.value) == f"line 3, {message}"


def test_parse_reports_overlong_integer_literal_line(table):
    good = table.serialize().splitlines()
    text = "\n".join(good[:5] + ["F r r r r 1 1 = 1/" + "3" * 5000] + good[5:])
    with pytest.raises(DatasetParseError, match="integer literal") as err:
        parse(text)
    assert (err.value.line, err.value.column) == (6, 19)


def test_shared_values_are_safe_to_edit(table, h3):
    parsed = parse(table.serialize())
    holders = {}
    for k, v in parsed.entries.items():
        holders.setdefault(id(v), []).append(k)
    four_dim = {(b.a, b.b, b.c, b.u) for b in f_blocks(h3) if b.dim == 4}
    key = next(ks[0] for ks in holders.values() if len(ks) > 1
               and (ks[0].a, ks[0].b, ks[0].c, ks[0].u) in four_dim)
    partners = holders[id(parsed.entries[key])]
    mutated = negate_entry(parsed, key)
    changed = [k for k in mutated.entries if mutated.entries[k] != table.entries[k]]
    assert changed == [key]
    assert mutated.entries[key] == -table.entries[key]
    assert all(mutated.entries[k] == table.entries[k] for k in partners[1:])
    assert find_failing_instance(mutated, key) is not None
    gauge = _random_gauge(h3, random.Random(5))
    assert parsed.apply_gauge(gauge) == table.apply_gauge(gauge)
    for p1, p2 in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        assert (parsed.substitute_params(p1, p2)
                == table.substitute_params(p1, p2))


def test_parse_key_errors_are_pinned(table):
    for entry, message in (
            ("F r q r r 1 1 = 1", "unknown object 'q'"),
            ("F 1 1 1 1 1 a = 1", "inadmissible key F[1; 1 1 1; e=1 f=a]")):
        with pytest.raises(DatasetParseError) as err:
            parse(f"h3fsym v1\n# ring: h3\n{entry}\n")
        assert str(err.value) == f"line 3, column 0: {message}"
    # display names still name objects
    text = table.serialize()
    assert "\nF r 1 1 r r 1 = 1\n" in text
    assert parse(text.replace("\nF r 1 1 r r 1 = 1\n",
                              "\nF ρ 1 1 ρ ρ 1 = 1\n")) == table


def _reference_orthogonality_failures(tab):
    ring, t = tab.ring, tab.ring.token
    zero = ParamScalar.from_field(ring.tower.zero())
    out = []
    for blk in f_blocks(ring):
        m = tab.f_matrix(blk.a, blk.b, blk.c, blk.u)
        d = blk.dim
        if any(sum((m[i][k] * m[j][k] for k in range(d)), start=zero)
               != (1 if i == j else 0) for i in range(d) for j in range(d)):
            out.append(f"block ({t(blk.a)},{t(blk.b)},{t(blk.c)};{t(blk.u)})")
    return out


def test_orthogonality_names_every_failing_block_once_per_block(table, h3):
    gauge = GaugeAssignment(h3)
    rng = random.Random(11)
    for a in range(len(h3)):
        for b in range(len(h3)):
            for c in h3.fusion(a, b):
                gauge.set(a, b, c, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    twos = table.map_entries(lambda k, v: v * 2)
    for tab in (table.apply_gauge(gauge), twos):
        report = tab.check_orthogonality()
        assert report.checked == 594
        assert report.failures == _reference_orthogonality_failures(tab)
        assert report.failures
    assert len(twos.check_orthogonality().failures) == 594
