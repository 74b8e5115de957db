"""Closed trivalent-diagram evaluation and the square-popping derivation.

Diagrams are half-edge structures with an explicit cyclic order at every
(trivalent) vertex, so bigon and triangle faces can be found combinatorially;
planarity of the inputs is assumed, not checked.  The fixed diagrams are
written with named edges: each vertex lists the names of its three edges in
cyclic order, the boundary lists the edges ending on it, and every name
occurs exactly twice (see ``_diagram``).

One generator, ``_moves``, yields every one-move reduction of a closed
diagram: each bigon collapse (factor b), then each triangle contraction
(factor t).  A circle attached by a single edge (tadpole) kills the whole
diagram, and a diagram whose smallest face is a square cannot be reduced by
these moves alone.  :func:`evaluate_closed` takes the first move each time
and counts the free circles left at the end (factor d each);
:func:`evaluate_all_orders` follows every move to test confluence.

The four-point space is spanned by

    w1  nested cups          w2  side-by-side cups
    w3  side-by-side cups joined by a bridge (the "H")
    w4  nested cups joined by a bridge

and the square diagram expands over that basis with cup coefficient
b(b^2 + bt - t^2)/(bd + t + dt) and trivalent coefficient
(t^2(d+1) - b^2)/(bd + t + dt); :func:`derive_square_pop` re-derives the
two coefficients from the Gram matrix instead of trusting the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import (FieldScalar, TowerSpec, gauss_jordan, named_constant,
                       tower_preset)


class SkeinReductionError(ValueError):
    pass


@dataclass(frozen=True)
class SkeinParams:
    """Loop, bigon and triangle constants; d and b must be nonzero."""

    d: FieldScalar
    b: FieldScalar
    t: FieldScalar

    def __post_init__(self):
        if self.d.is_zero() or self.b.is_zero():
            raise ValueError("loop and bigon constants must be nonzero")

    @property
    def tower(self) -> TowerSpec:
        return self.d.tower

    @classmethod
    def from_rationals(cls, d, b, t) -> "SkeinParams":
        tower = tower_preset("rationals")
        return cls(tower.from_rational(d), tower.from_rational(b),
                   tower.from_rational(t))


def h3_params() -> SkeinParams:
    return SkeinParams(named_constant("dRho"), named_constant("bBigon"),
                       named_constant("tTriangle"))


def h3_constants() -> tuple[FieldScalar, FieldScalar, FieldScalar, FieldScalar, FieldScalar]:
    """The exact H3 skein constants (c1, c2, t, b, d).

    t is -B*sqrt(d): the all-rho F-matrix entry at (e, f) = (rho, rho) equals
    t/sqrt(d) = -B, which pins the sign (the variant +(2/3)d+5/3 prefactor
    appearing in one place does not satisfy that identity; see the
    regression test).  c2 is stored as (1+r13)/(6*sqrt(d)), an element of
    the tower; its square is (r13-2)/9.
    """
    return (named_constant("c1"), named_constant("c2"),
            named_constant("tTriangle"), named_constant("bBigon"),
            named_constant("dRho"))


class TrivalentGraph:
    """A trivalent multigraph with cyclic vertex order and marked boundary.

    Half-edges are integers; ``twin`` pairs them into edges, ``rot`` holds
    one ordered triple per vertex, boundary points are loose half-edges in
    boundary order.  ``circles`` counts closed vertex-free loops.
    """

    def __init__(self):
        self.twin: dict[int, int] = {}
        self.vertex_of: dict[int, int] = {}
        self.rot: dict[int, tuple[int, ...]] = {}
        self.boundary: list[int] = []
        self.circles = 0
        self._next_h = 0
        self._next_v = 0

    # -- construction --------------------------------------------------------

    def half(self) -> int:
        h = self._next_h
        self._next_h += 1
        return h

    def vertex(self, *halves: int) -> int:
        if len(halves) != 3:
            raise ValueError("internal vertices are trivalent")
        v = self._next_v
        self._next_v += 1
        self.rot[v] = tuple(halves)
        for h in halves:
            self.vertex_of[h] = v
        return v

    def edge(self, h1: int, h2: int) -> None:
        self.twin[h1] = h2
        self.twin[h2] = h1

    def strand(self) -> tuple[int, int]:
        """A bare edge; returns its two half-edges."""
        h1, h2 = self.half(), self.half()
        self.edge(h1, h2)
        return h1, h2

    def validate(self) -> "TrivalentGraph":
        placed = set(self.boundary)
        for v, rot in self.rot.items():
            placed.update(rot)
        for h, th in self.twin.items():
            if self.twin.get(th) != h:
                raise ValueError("twin map is not an involution")
            if h not in placed:
                raise ValueError(f"half-edge {h} is neither placed nor boundary")
        return self

    def copy(self) -> "TrivalentGraph":
        g = TrivalentGraph()
        g.twin = dict(self.twin)
        g.vertex_of = dict(self.vertex_of)
        g.rot = dict(self.rot)
        g.boundary = list(self.boundary)
        g.circles = self.circles
        g._next_h = self._next_h
        g._next_v = self._next_v
        return g

    def mirrored(self) -> "TrivalentGraph":
        """The reflection: all cyclic orders reversed, boundary order kept."""
        g = self.copy()
        g.rot = {v: tuple(reversed(rot)) for v, rot in g.rot.items()}
        return g

    # -- faces ---------------------------------------------------------------

    def _rot_next(self, h: int) -> int:
        rot = self.rot[self.vertex_of[h]]
        return rot[(rot.index(h) + 1) % 3]

    def face_of(self, h: int) -> tuple[int, ...]:
        out = [h]
        cur = self._rot_next(self.twin[h])
        while cur != h:
            out.append(cur)
            cur = self._rot_next(self.twin[cur])
        return tuple(out)

    def faces(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        out = []
        for h in sorted(self.twin):
            if h in seen or h in self.boundary:
                continue
            face = self.face_of(h)
            seen.update(face)
            out.append(face)
        return out

    # -- local moves (closed graphs only) -------------------------------------

    def _drop_halves(self, halves) -> None:
        for h in halves:
            self.twin.pop(h, None)
            self.vertex_of.pop(h, None)

    def find_tadpole(self):
        """A half-edge of an edge from a vertex to itself, or None."""
        return next((h for h in sorted(self.twin) if h in self.vertex_of
                     and self.vertex_of[h] == self.vertex_of.get(self.twin[h])),
                    None)

    def find_bigons(self) -> list[tuple[int, ...]]:
        return [f for f in self.faces()
                if len(f) == 2
                and self.vertex_of[f[0]] != self.vertex_of[f[1]]]

    def find_triangles(self) -> list[tuple[int, ...]]:
        return [f for f in self.faces()
                if len(f) == 3 and len({self.vertex_of[h] for h in f}) == 3]

    def pop_bigon(self, face: tuple[int, ...]) -> None:
        """Collapse a two-sided face: remove its two vertices, splice the
        two external strands (or close a circle if they coincide)."""
        h1, h2 = face
        u, v = self.vertex_of[h1], self.vertex_of[self.twin[h1]]
        inner = {h1, h2, self.twin[h1], self.twin[h2]}
        a = next(h for h in self.rot[u] if h not in inner)
        b = next(h for h in self.rot[v] if h not in inner)
        ta, tb = self.twin[a], self.twin[b]
        self._drop_halves(inner | {a, b})
        del self.rot[u], self.rot[v]
        if ta == b:  # the third edge ran between u and v: a circle appears
            self.circles += 1
            return
        self.twin[ta] = tb
        self.twin[tb] = ta

    def contract_triangle(self, face: tuple[int, ...]) -> None:
        """Contract a three-sided face to a single vertex, keeping the three
        external strands in face order."""
        vs = [self.vertex_of[h] for h in face]
        inner = set(face) | {self.twin[h] for h in face}
        outer = [next(h for h in self.rot[v] if h not in inner) for v in vs]
        self._drop_halves(inner)
        for v in vs:
            del self.rot[v]
        w = self._next_v
        self._next_v += 1
        # the legs wind around the contracted vertex opposite to the face walk
        self.rot[w] = tuple(reversed(outer))
        for h in outer:
            self.vertex_of[h] = w


def _closed(graph: TrivalentGraph) -> TrivalentGraph:
    if graph.boundary:
        raise ValueError("diagram has boundary points")
    return graph


def _moves(g: TrivalentGraph, params: SkeinParams):
    """Every one-move reduction of a closed diagram with a vertex, as
    (factor, reduced copy): each bigon pop, then each triangle contraction.
    A tadpole yields only (0, empty diagram); a diagram with neither face
    raises once the moves run out."""
    if g.find_tadpole() is not None:
        yield params.tower.zero(), TrivalentGraph()
        return
    moved = False
    for face in g.find_bigons():
        h = g.copy()
        h.pop_bigon(face)
        moved = True
        yield params.b, h
    for face in g.find_triangles():
        h = g.copy()
        h.contract_triangle(face)
        moved = True
        yield params.t, h
    if not moved:
        raise SkeinReductionError("requires square-pop")


def evaluate_closed(graph: TrivalentGraph, params: SkeinParams) -> FieldScalar:
    """Reduce a closed diagram to the empty one, taking the first move each
    time, and return its value."""
    g = _closed(graph)
    value = params.tower.one()
    while g.rot:
        factor, g = next(_moves(g, params))
        value = value * factor
    return value * params.d ** g.circles


def evaluate_all_orders(graph: TrivalentGraph, params: SkeinParams) -> set[FieldScalar]:
    """Evaluate under every possible move order (confluence testing)."""
    results: set[FieldScalar] = set()

    def go(g: TrivalentGraph, acc: FieldScalar):
        if not g.rot:
            results.add(acc * params.d ** g.circles)
            return
        for factor, h in _moves(g, params):
            go(h, acc * factor)

    go(_closed(graph), params.tower.one())
    return results


# ---------------------------------------------------------------------------
# fixed diagrams

def _diagram(vertices=(), boundary=(), circles: int = 0) -> TrivalentGraph:
    """A diagram from named edges: each vertex lists its edges in cyclic
    order, ``boundary`` the edges ending on the boundary in boundary order,
    and every edge name occurs exactly twice."""
    g = TrivalentGraph()
    g.circles = circles
    ends: dict[str, list[int]] = {}

    def end(name: str) -> int:
        h = g.half()
        ends.setdefault(name, []).append(h)
        return h

    g.boundary = [end(name) for name in boundary]
    for names in vertices:
        g.vertex(*(end(name) for name in names))
    for name, halves in ends.items():
        if len(halves) != 2:
            raise ValueError(f"edge {name!r} occurs {len(halves)} times, not twice")
        g.edge(*halves)
    return g.validate()


def circle_graph() -> TrivalentGraph:
    return _diagram(circles=1)


def theta_graph() -> TrivalentGraph:
    """Two vertices joined by three parallel edges, in mirror order on the
    far side so the embedding is planar."""
    return _diagram([("x", "y", "z"), ("x", "z", "y")])


def tetrahedron_graph() -> TrivalentGraph:
    """The 1-skeleton of the tetrahedron: outer triangle 1-2-3 around
    vertex 0, counterclockwise rotations; edge ij joins vertices i and j."""
    return _diagram([("01", "02", "03"), ("01", "13", "12"),
                     ("02", "12", "23"), ("03", "23", "13")])


def basis_w1() -> TrivalentGraph:
    """Nested cups: boundary pairs (1,4) and (2,3)."""
    return _diagram(boundary=("a", "b", "b", "a"))


def basis_w2() -> TrivalentGraph:
    """Side-by-side cups: boundary pairs (1,2) and (3,4)."""
    return _diagram(boundary=("a", "a", "b", "b"))


def basis_w3() -> TrivalentGraph:
    """Side-by-side cups joined by a bridge m (the "H")."""
    return _diagram([("1", "2", "m"), ("m", "3", "4")],
                    boundary=("1", "2", "3", "4"))


def basis_w4() -> TrivalentGraph:
    """Nested cups joined by a radial bridge m."""
    return _diagram([("1", "m", "4"), ("2", "3", "m")],
                    boundary=("1", "2", "3", "4"))


def square_graph() -> TrivalentGraph:
    """The four-valent square: a 4-cycle a-b-c-d with one leg per corner."""
    return _diagram([("1", "a", "d"), ("2", "b", "a"),
                     ("3", "c", "b"), ("4", "d", "c")],
                    boundary=("1", "2", "3", "4"))


def c4_basis() -> tuple[TrivalentGraph, TrivalentGraph, TrivalentGraph, TrivalentGraph]:
    return basis_w1(), basis_w2(), basis_w3(), basis_w4()


# ---------------------------------------------------------------------------
# pairing, Gram matrix, square popping

def glue(x: TrivalentGraph, y: TrivalentGraph) -> TrivalentGraph:
    """Glue the reflection of y onto x along matching boundary points."""
    if len(x.boundary) != len(y.boundary):
        raise ValueError("boundary sizes differ")
    g = x.copy()
    m = y.mirrored()
    shift = g._next_h
    vshift = g._next_v
    for h, th in m.twin.items():
        g.twin[h + shift] = th + shift
    for v, rot in m.rot.items():
        g.rot[v + vshift] = tuple(h + shift for h in rot)
        for h in rot:
            g.vertex_of[h + shift] = v + vshift
    g.circles += m.circles
    g._next_h += m._next_h
    g._next_v += m._next_v
    pairs = [(sx, sy + shift) for sx, sy in zip(x.boundary, m.boundary)]
    g.boundary = []
    for s, r in pairs:
        a, b = g.twin[s], g.twin[r]
        del g.twin[s], g.twin[r]
        if a == r:  # the two stubs were already joined: a closed loop
            g.circles += 1
            continue
        g.twin[a] = b
        g.twin[b] = a
    return g.validate()


def pair(x: TrivalentGraph, y: TrivalentGraph, params: SkeinParams) -> FieldScalar:
    return evaluate_closed(glue(x, y), params)


def gram_matrix(basis, params: SkeinParams) -> list[list[FieldScalar]]:
    return [[pair(wi, wj, params) for wj in basis] for wi in basis]


def square_pop_closed_form(params: SkeinParams) -> tuple[FieldScalar, FieldScalar]:
    """The printed closed forms for the square expansion coefficients."""
    d, b, t = params.d, params.b, params.t
    denom = b * d + t + d * t
    if denom.is_zero():
        raise ValueError("degenerate parameters")
    gamma_cup = b * (b * b + b * t - t * t) / denom
    gamma_tri = (t * t * (d + 1) - b * b) / denom
    return gamma_cup, gamma_tri


def derive_square_pop(params: SkeinParams) -> tuple[FieldScalar, FieldScalar]:
    """Expand the square over the C4 basis by solving the Gram system.

    Returns the coefficient shared by the two cup diagrams and the one
    shared by the two trivalent diagrams.
    """
    basis = c4_basis()
    square = square_graph()
    n = len(basis)
    rows = [{j: v for j, v in enumerate(row + [pair(square, w, params)])
             if not v.is_zero()}
            for row, w in zip(gram_matrix(basis, params), basis)]
    pivots = gauss_jordan(rows, range(n))
    if len(pivots) < n:
        raise ValueError("degenerate parameters")
    coeffs = [pivots[i].get(n, params.tower.zero()) for i in range(n)]
    if coeffs[0] != coeffs[1] or coeffs[2] != coeffs[3]:
        raise AssertionError("square expansion lost its symmetry")
    return coeffs[0], coeffs[2]
