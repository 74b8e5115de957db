"""The F-symbol store: the H3 data set, gauge action, orthogonality checks
and the text serialization format.

The data set file format is UTF-8 text: a header line ``h3fsym v1``, optional
``#`` comment lines, then one line per entry

    F <u> <a> <b> <c> <e> <f> = <expr>

using the object tokens of the ring and the canonical scalar grammar of
:mod:`fusioncat.exactnum`.  Lines are sorted by key (a, b, c, u, f, e).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import _h3_data
from .exactnum import (FieldScalar, ParamScalar, ScalarParseError,
                       named_constant, parse_scalar, render_scalar)
from .fusionring import FKey, FusionRing, builtin_ring, enumerate_fkeys, f_blocks

HEADER = "h3fsym v1"


class GaugeAssignment:
    """A nonzero rescaling u_c^{ab} for every fusion vertex (a, b; c)."""

    def __init__(self, ring: FusionRing, values: dict[tuple, FieldScalar] | None = None):
        self.ring = ring
        self.values: dict[tuple[int, int, int], FieldScalar] = {}
        for (a, b, c), v in (values or {}).items():
            self.set(a, b, c, v)

    def set(self, a, b, c, v) -> "GaugeAssignment":
        a, b, c = (self.ring.label(x) for x in (a, b, c))
        if not self.ring.n(a, b, c):
            raise ValueError(f"({a},{b};{c}) is not a fusion vertex")
        if not isinstance(v, FieldScalar):
            v = self.ring.tower.from_rational(v)
        if v.is_zero():
            raise ValueError("gauge values must be nonzero")
        self.values[(a, b, c)] = v
        return self

    def __call__(self, a: int, b: int, c: int) -> FieldScalar:
        return self.values.get((a, b, c), self.ring.tower.one())

    def compose(self, other: "GaugeAssignment") -> "GaugeAssignment":
        """Pointwise product; acting with the result equals acting twice."""
        if other.ring is not self.ring:
            raise ValueError("gauge assignment is for a different ring")
        out = GaugeAssignment(self.ring)
        for key in set(self.values) | set(other.values):
            out.values[key] = self(*key) * other(*key)
        return out


@dataclass
class BlockReport:
    """Outcome of a per-block check (orthogonality and friends)."""

    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        out = f"[{status}] {self.name}: {self.checked} checked, {len(self.failures)} failed"
        for msg in self.failures[:20]:
            out += f"\n  {msg}"
        return out


class FSymbolTable:
    """A total map from admissible keys to exact scalar values."""

    def __init__(self, ring: FusionRing, entries: dict[FKey, ParamScalar]):
        self.ring = ring
        self.entries = entries
        expected = ring.admissible_keys
        if entries.keys() != expected:
            got = set(entries)
            missing = len(expected - got)
            extra = len(got - expected)
            raise ValueError(
                f"table is not total: {missing} keys missing, {extra} extraneous")

    def get(self, key: FKey | tuple) -> ParamScalar:
        if not isinstance(key, FKey):
            key = self.ring.key(*key)
        if key not in self.entries:
            raise KeyError(f"inadmissible key {key}")
        return self.entries[key]

    def f_matrix(self, a, b, c, u) -> list[list[ParamScalar]]:
        """The block as a matrix; rows run over e labels, columns over f."""
        r = self.ring
        a, b, c, u = (r.label(x) for x in (a, b, c, u))
        es = r.e_labels(a, b, c, u)
        fs = r.f_labels(a, b, c, u)
        if not es:
            raise ValueError(f"no admissible entries for block ({a},{b},{c};{u})")
        return [[self.entries[FKey(a, b, c, u, e, f)] for f in fs] for e in es]

    def map_entries(self, fn: Callable[[FKey, ParamScalar], ParamScalar]) -> "FSymbolTable":
        return FSymbolTable(self.ring, {k: fn(k, v) for k, v in self.entries.items()})

    def apply_gauge(self, gauge: GaugeAssignment) -> "FSymbolTable":
        """Rescale every entry by the vertex ratio of its two fusion trees.

        The right-associated tree of key (a,b,c;u;e,f) carries the vertices
        (b,c;e) and (a,e;u); the left-associated one (a,b;f) and (f,c;u).
        Vertex values are inverted once, up front; an unset vertex counts as one.
        """
        if gauge.ring is not self.ring:
            raise ValueError("gauge assignment is for a different ring")
        one, g = self.ring.tower.one(), gauge.values
        inv = {vertex: x.inverse() for vertex, x in g.items()}

        def rescale(k: FKey, v: ParamScalar) -> ParamScalar:
            return v * (g.get((k.a, k.e, k.u), one) * g.get((k.b, k.c, k.e), one)
                        * inv.get((k.a, k.b, k.f), one) * inv.get((k.f, k.c, k.u), one))

        return self.map_entries(rescale)

    def substitute_params(self, p1: int, p2: int) -> "FSymbolTable":
        return self.map_entries(
            lambda k, v: ParamScalar.from_field(v.substitute(p1, p2)))

    def check_orthogonality(self) -> BlockReport:
        """F Ft = Ft F = identity, exactly and symbolically, per block."""
        report = BlockReport("orthogonality")
        one = self.ring.tower.one()
        for blk in f_blocks(self.ring):
            m = self.f_matrix(blk.a, blk.b, blk.c, blk.u)
            d = blk.dim
            ok = True
            for i in range(d):
                for j in range(i, d):
                    row = sum((m[i][k] * m[j][k] for k in range(d)),
                              start=ParamScalar.from_field(self.ring.tower.zero()))
                    col = sum((m[k][i] * m[k][j] for k in range(d)),
                              start=ParamScalar.from_field(self.ring.tower.zero()))
                    want = one if i == j else 0
                    if row != want or col != want:
                        ok = False
            report.checked += 1
            if not ok:
                t = self.ring.token
                report.failures.append(
                    f"block ({t(blk.a)},{t(blk.b)},{t(blk.c)};{t(blk.u)})")
        return report

    def serialize(self) -> str:
        lines = [HEADER,
                 f"# ring: {self.ring.name}",
                 "# rows of a block run over the right-tree internal label e,"
                 " columns over the left-tree label f"]
        t = self.ring.token
        for k in sorted(self.entries, key=lambda k: k.sort_key):
            expr = render_scalar(self.entries[k])
            lines.append(
                f"F {t(k.u)} {t(k.a)} {t(k.b)} {t(k.c)} {t(k.e)} {t(k.f)} = {expr}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        if not isinstance(other, FSymbolTable):
            return NotImplemented
        return self.ring is other.ring and self.entries == other.entries


class DatasetParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse(text: str, ring: FusionRing | None = None) -> FSymbolTable:
    """Parse the dataset text format; inverse of ``FSymbolTable.serialize``."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise DatasetParseError(f"expected header {HEADER!r}", 1)
    entries: dict[FKey, ParamScalar] = {}
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("ring:") and ring is None:
                ring = builtin_ring(body.split(":", 1)[1].strip())
            continue
        if ring is None:
            ring = builtin_ring("h3")
        parts = line.split("=", 1)
        if len(parts) != 2:
            raise DatasetParseError("expected '='", ln, len(line))
        head = parts[0].split()
        if len(head) != 7 or head[0] != "F":
            raise DatasetParseError(
                "expected 'F <u> <a> <b> <c> <e> <f> = <expr>'", ln)
        try:
            u, a, b, c, e, f = (ring.label(tok) for tok in head[1:])
            key = ring.key(a, b, c, u, e, f)
        except ValueError as exc:
            raise DatasetParseError(str(exc), ln) from exc
        try:
            value = parse_scalar(parts[1].strip(), ring.tower)
        except ScalarParseError as exc:
            raise DatasetParseError(str(exc), ln, exc.pos) from exc
        if key in entries:
            raise DatasetParseError(f"duplicate key {ring.describe(key)}", ln)
        entries[key] = value
    if ring is None:
        raise DatasetParseError("empty data set", 1)
    try:
        return FSymbolTable(ring, entries)
    except ValueError as exc:
        raise DatasetParseError(str(exc), len(lines)) from exc


# ---------------------------------------------------------------------------
# the H3 data set

_ATOMS: dict[str, Callable[[], FieldScalar]] | None = None


def _h3_atom(name: str) -> FieldScalar:
    global _ATOMS
    if _ATOMS is None:
        tower = builtin_ring("h3").tower
        _ATOMS = {
            "1": tower.one(),
            "A": named_constant("A"),
            "sA": named_constant("sqrtA"),
            "B": named_constant("B"),
            "C": named_constant("C"),
            "D+": named_constant("Dplus"),
            "D-": named_constant("Dminus"),
        }
    return _ATOMS[name]


def _h3_value(ring: FusionRing, cell: tuple[int, str, int, int]) -> ParamScalar:
    sign, atom, i, j = cell
    return ParamScalar(ring.tower, {(i, j): _h3_atom(atom) * sign})


def build_h3_table() -> FSymbolTable:
    """The exact two-parameter H3 solution, all 1431 entries."""
    ring = builtin_ring("h3")
    entries: dict[FKey, ParamScalar] = {}
    for (a, b, c, u), cell in _h3_data.ONE_DIM.items():
        ai, bi, ci, ui = (ring.label(x) for x in (a, b, c, u))
        es = ring.e_labels(ai, bi, ci, ui)
        fs = ring.f_labels(ai, bi, ci, ui)
        if len(es) != 1 or len(fs) != 1:
            raise AssertionError(f"block ({a},{b},{c};{u}) is not one-dimensional")
        entries[FKey(ai, bi, ci, ui, es[0], fs[0])] = _h3_value(ring, cell)
    for (a, b, c, u), (rows, cols, cells) in _h3_data.BLOCKS.items():
        ai, bi, ci, ui = (ring.label(x) for x in (a, b, c, u))
        es = ring.e_labels(ai, bi, ci, ui)
        fs = ring.f_labels(ai, bi, ci, ui)
        if tuple(ring.token(e) for e in es) != rows:
            raise AssertionError(f"row labels of ({a},{b},{c};{u}) disagree")
        if tuple(ring.token(f) for f in fs) != cols:
            raise AssertionError(f"column labels of ({a},{b},{c};{u}) disagree")
        for e, row in zip(es, cells):
            for f, cell in zip(fs, row):
                entries[FKey(ai, bi, ci, ui, e, f)] = _h3_value(ring, cell)
    return FSymbolTable(ring, entries)


def all_ones_table(ring: FusionRing) -> FSymbolTable:
    one = ParamScalar.from_field(ring.tower.one())
    return FSymbolTable(ring, {k: one for k in enumerate_fkeys(ring)})
