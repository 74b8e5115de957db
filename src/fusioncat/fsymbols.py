"""The F-symbol store: the H3 data set, gauge action, orthogonality checks
and the text serialization format.

The data set file format is UTF-8 text: a header line ``h3fsym v1``, optional
``#`` comment lines, then one line per entry

    F <u> <a> <b> <c> <e> <f> = <expr>

using the object tokens of the ring and the canonical scalar grammar of
:mod:`fusioncat.exactnum`.  Lines are sorted by key (a, b, c, u, f, e).

The H3 data set ships in this format as ``h3_fsymbols.txt`` next to this
module, byte for byte what ``serialize`` writes; ``build_h3_table`` parses it.

The data set holds few distinct values (1431 entries, 51 distinct expression
texts), so ``parse``, ``serialize`` and ``substitute_params`` work out each
distinct value once per call (``parse`` in a dict keyed by the text, the
others in a ``functools.cache`` made for the call) and let the entries share
the resulting immutable scalars.  The checks build on that sharing: the
exact kernel works once per distinct value object, orthogonality is one
sweep of every block's rows F Ft - I through it, and a table inverts each
distinct matrix of a block failing it once (``FSymbolTable.block_inverse``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from pathlib import Path
from typing import Callable

from .exactnum import (FieldScalar, ParamScalar, ScalarParseError, gauss_jordan,
                       parse_scalar, render_scalar)
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
        elif v.tower is not self.ring.tower:
            raise ValueError(f"gauge value for ({a},{b};{c}) is in tower "
                             f"{v.tower.name}, not {self.ring.tower.name}")
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
    """A total map from admissible keys to exact scalar values.

    A table is never mutated after construction: ``entries`` is not assigned
    into, and every edit returns a new table.  The non-orthogonal blocks and
    their inverses (:attr:`non_orthogonal_blocks`, :attr:`block_inverse`)
    are kept on the table on that ground, and are freed with it.
    """

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

    def f_matrix(self, a, b, c, u) -> tuple[tuple[ParamScalar, ...], ...]:
        """The block as a tuple of rows; rows run over e labels, columns over f."""
        r = self.ring
        a, b, c, u = (r.label(x) for x in (a, b, c, u))
        es = r.e_labels(a, b, c, u)
        fs = r.f_labels(a, b, c, u)
        if not es:
            raise ValueError(f"no admissible entries for block ({a},{b},{c};{u})")
        return tuple(tuple(self.entries[FKey(a, b, c, u, e, f)] for f in fs)
                     for e in es)

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
        at = cache(lambda v: ParamScalar.from_field(v.substitute(p1, p2)))
        return self.map_entries(lambda k, v: at(v))

    @cached_property
    def block_inverse(self) -> Callable[[tuple], list]:
        """A block matrix's inverse (:func:`_invert_param_matrix`; ValueError
        if singular), once per distinct matrix as :meth:`f_matrix` gives it;
        only a block in :attr:`non_orthogonal_blocks` needs one."""
        return cache(partial(_invert_param_matrix, self.ring.tower))

    @cached_property
    def non_orthogonal_blocks(self) -> dict[tuple[int, int, int, int], None]:
        """The blocks (a, b, c, u) with F Ft != I, singular ones among them,
        in ``f_blocks`` order (a dict as an ordered set): one sweep of every
        block's rows F Ft - I (``pentagon._orthogonality_plan``)."""
        from .pentagon import _Kernel, _orthogonality_plan, _sweep
        plan, numbers = _orthogonality_plan(self.ring)
        blocks = f_blocks(self.ring)
        failing = _sweep(_Kernel(self), plan, 0, len(numbers))
        return {(blk.a, blk.b, blk.c, blk.u): None
                for blk in (blocks[numbers[i]] for i, _ in failing)}

    def check_orthogonality(self) -> BlockReport:
        """F Ft = Ft F = identity, exactly and symbolically, per block.

        Only F Ft is formed (:attr:`non_orthogonal_blocks`): F Ft = I gives
        det F * det Ft = 1, so F is invertible with inverse Ft, and Ft F = I
        follows."""
        t = self.ring.token
        return BlockReport("orthogonality", len(f_blocks(self.ring)), [
            f"block ({t(a)},{t(b)},{t(c)};{t(u)})"
            for a, b, c, u in self.non_orthogonal_blocks])

    def serialize(self) -> str:
        lines = [HEADER,
                 f"# ring: {self.ring.name}",
                 "# rows of a block run over the right-tree internal label e,"
                 " columns over the left-tree label f"]
        t = self.ring.token
        text = cache(render_scalar)
        for k in sorted(self.entries, key=lambda k: k.sort_key):
            lines.append(f"F {t(k.u)} {t(k.a)} {t(k.b)} {t(k.c)} {t(k.e)} "
                         f"{t(k.f)} = {text(self.entries[k])}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        if not isinstance(other, FSymbolTable):
            return NotImplemented
        return self.ring is other.ring and self.entries == other.entries


# ---------------------------------------------------------------------------
# block inverses: a block whose sign monomials factor into row times column
# signs, as all the data set's do, needs field arithmetic only


def _sign_factors(m):
    """Row and column sign monomials (as in :class:`ParamScalar`) such that
    every nonzero ``m[r][c]`` is ``row[r] * col[c]`` times a field value, or
    None when an entry has several terms or the monomials do not factor."""
    n = len(m)
    if any(len(v.terms) > 1 for row in m for v in row):
        return None
    mono = {(r, c): s for r, row in enumerate(m)
            for c, v in enumerate(row) for s in v.terms}
    # walk the graph of nonzero entries (column c is node n + c), XOR-ing signs
    sign = [None] * (2 * n)
    for start in (r for r in range(n) if sign[r] is None):
        sign[start], todo = 0, [start]
        while todo:
            k = todo.pop()
            for o in range(n):
                s = mono.get((k, o) if k < n else (o, k - n))
                nb = n + o if k < n else o
                if s is not None and sign[nb] is None:
                    sign[nb] = sign[k] ^ s
                    todo.append(nb)
                elif s is not None and sign[nb] != sign[k] ^ s:
                    return None
    return sign[:n], [s or 0 for s in sign[n:]]


def _field_matrix_inverse(tower, m):
    """Inverse of a matrix over the field, by reducing [m | I]."""
    n = len(m)
    rows = [{j: v for j, v in enumerate(row) if not v.is_zero()}
            | {n + i: tower.one()} for i, row in enumerate(m)]
    pivots = gauss_jordan(rows, range(n))
    if len(pivots) < n:
        raise ValueError("block matrix is singular")
    return [[pivots[r].get(n + c, tower.zero()) for c in range(n)]
            for r in range(n)]


def _invert_param_matrix(tower, m):
    """Exact inverse of a matrix over the ring of p1/p2 sign polynomials.

    If :func:`_sign_factors` writes m as D_row C D_col (C over the field,
    the D diagonal sign monomials, each its own inverse), the inverse is
    D_col C^-1 D_row: one field inversion, entry (i, j) taking the monomial
    ``cols[i] ^ rows[j]``.  Otherwise (an entry like 1 + p1, or monomials
    that do not factor) each distinct substituted matrix is inverted once
    and every entry read back from its four pointwise inverses by
    :meth:`ParamScalar.from_points`.  An orthogonal matrix is inverted like
    any other; the checks do not ask for its inverse, which is Ft.
    """
    factors, d = _sign_factors(m), len(m)
    if factors is not None:
        rows, cols = factors
        inv = _field_matrix_inverse(tower, [
            [next(iter(v.terms.values()), tower.zero()) for v in row]
            for row in m])
        return [[ParamScalar(tower, {cols[i] ^ rows[j]: x})
                 for j, x in enumerate(row)] for i, row in enumerate(inv)]
    invert = cache(partial(_field_matrix_inverse, tower))
    at = {(s1, s2): invert(tuple(tuple(v.substitute(s1, s2) for v in row)
                                 for row in m))
          for s1 in (1, -1) for s2 in (1, -1)}
    return [[ParamScalar.from_points(
                tower, {point: inv[i][j] for point, inv in at.items()})
             for j in range(d)] for i in range(d)]


class DatasetParseError(ValueError):
    """``line`` and ``column`` are 1-based; column 0 means the whole line."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _ring_comment(name: str, ring: FusionRing | None, ln: int) -> FusionRing:
    """The ring a ``# ring:`` comment names; it must agree with a fixed one."""
    if ring is not None and name == ring.name:
        return ring
    try:
        named = builtin_ring(name)
    except ValueError as exc:
        raise DatasetParseError(str(exc), ln) from exc
    if ring is not None and named is not ring:
        raise DatasetParseError(
            f"ring comment names {named.name}, but the data set is read as "
            f"{ring.name}", ln)
    return named


def parse(text: str, ring: FusionRing | None = None) -> FSymbolTable:
    """Parse the dataset text format; inverse of ``FSymbolTable.serialize``."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise DatasetParseError(f"expected header {HEADER!r}", 1)
    entries: dict[FKey, ParamScalar] = {}
    # text -> value; not a cache keyed by (text, tower): the first entry fixes
    # the tower, and hashing a TowerSpec per line (~4 us) adds 6 ms to 10 ms
    values: dict[str, ParamScalar] = {}
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("ring:"):
                ring = _ring_comment(body.split(":", 1)[1].strip(), ring, ln)
            continue
        if ring is None:
            ring = builtin_ring("h3")
        parts = line.split("=", 1)
        if len(parts) != 2:
            raise DatasetParseError("expected '='", ln, len(raw.rstrip()))
        head = parts[0].split()
        if len(head) != 7 or head[0] != "F":
            raise DatasetParseError(
                "expected 'F <u> <a> <b> <c> <e> <f> = <expr>'", ln)
        u, a, b, c, e, f = head[1:]
        key = FKey._make(map(ring._by_token.get, (a, b, c, u, e, f)))
        if key not in ring.admissible_keys:
            # display names, or the error for an unknown or inadmissible key
            try:
                key = ring.key(a, b, c, u, e, f)
            except ValueError as exc:
                raise DatasetParseError(str(exc), ln) from exc
        expr = parts[1].strip()
        value = values.get(expr)
        if value is None:
            try:
                value = values[expr] = parse_scalar(expr, ring.tower)
            except ScalarParseError as exc:
                after = raw[raw.index("=") + 1:]
                column = len(raw) - len(after.lstrip()) + exc.pos + 1
                raise DatasetParseError(exc.message, ln, column) from exc
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

def build_h3_table() -> FSymbolTable:
    """The exact two-parameter H3 solution: the shipped file, parsed afresh."""
    return parse(Path(__file__).with_name("h3_fsymbols.txt").read_text("utf-8"))


def all_ones_table(ring: FusionRing) -> FSymbolTable:
    one = ParamScalar.from_field(ring.tower.one())
    return FSymbolTable(ring, {k: one for k in enumerate_fkeys(ring)})
