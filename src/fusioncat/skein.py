"""Closed trivalent-diagram evaluation and the square-popping derivation.

A diagram is its named edges: each (trivalent) vertex lists the names of
its three edges in cyclic order, the boundary lists the edges ending on it,
and every name occurs exactly twice (see :class:`TrivalentGraph`).  Faces
are walked corner by corner, so bigon and triangle faces can be found
combinatorially; planarity of the inputs is assumed, not checked.  Moves
and gluing rewrite edge names.

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

from collections import Counter
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class TrivalentGraph:
    """A trivalent diagram as named edges: each vertex lists the names of its
    three edges in cyclic order, ``boundary`` the edges ending on the
    boundary in boundary order, and ``circles`` counts closed vertex-free
    loops.  Every name occurs exactly twice; this is checked once, here."""

    vertices: tuple[tuple, ...] = ()
    boundary: tuple = ()
    circles: int = 0

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(map(tuple, self.vertices)))
        object.__setattr__(self, "boundary", tuple(self.boundary))
        ends = Counter(self.boundary)
        for names in self.vertices:
            if len(names) != 3:
                raise ValueError("internal vertices are trivalent")
            ends.update(names)
        for name, count in ends.items():
            if count != 2:
                raise ValueError(f"edge {name!r} occurs {count} times, not twice")

    def mirrored(self) -> "TrivalentGraph":
        """The reflection: all cyclic orders reversed, boundary order kept."""
        return replace(self, vertices=[names[::-1] for names in self.vertices])

    def faces(self) -> list[tuple[tuple[int, int], ...]]:
        """The faces of a closed diagram, each as its corners (vertex, slot)
        in walk order: across a corner's edge, then one slot on."""
        _closed(self)
        corners = [(v, s) for v in range(len(self.vertices)) for s in range(3)]
        ends: dict = {}
        for v, s in corners:
            ends.setdefault(self.vertices[v][s], []).append((v, s))
        step = {}
        for (v, s), (w, t) in ends.values():
            step[v, s], step[w, t] = (w, (t + 1) % 3), (v, (s + 1) % 3)
        faces, seen = [], set()
        for start in corners:
            if start in seen:
                continue
            face = [start]
            while (corner := step[face[-1]]) != start:
                face.append(corner)
            seen.update(face)
            faces.append(tuple(face))
        return faces

    def _replace_face(self, face, new=(), rename=None, circles=0) -> "TrivalentGraph":
        """This diagram with the vertices of ``face`` replaced by ``new``,
        edges renamed by ``rename`` and ``circles`` more loops."""
        drop = {v for v, _ in face}
        rename = rename or {}
        kept = [tuple(rename.get(n, n) for n in names)
                for v, names in enumerate(self.vertices) if v not in drop]
        return TrivalentGraph(kept + list(new), (), self.circles + circles)


def _closed(graph: TrivalentGraph) -> TrivalentGraph:
    if graph.boundary:
        raise ValueError("diagram has boundary points")
    return graph


def _moves(g: TrivalentGraph, params: SkeinParams):
    """Every one-move reduction of a closed diagram with a vertex, as
    (factor, reduced diagram): each bigon pop, then each triangle
    contraction.  A tadpole (a vertex listing one edge twice) yields only
    (0, empty diagram); a diagram with neither face raises.

    With no tadpole, the corners of a two- or three-sided face lie on
    distinct vertices, and the edge leaving the face at corner (v, s) is
    the one in slot s + 1 of v."""
    if any(len(set(names)) < 3 for names in g.vertices):
        yield params.tower.zero(), TrivalentGraph()
        return
    faces = g.faces()
    bigons = [f for f in faces if len(f) == 2]
    triangles = [f for f in faces if len(f) == 3]
    if not bigons and not triangles:
        raise SkeinReductionError("requires square-pop")

    def outer(face):
        return [g.vertices[v][(s + 1) % 3] for v, s in face]

    for face in bigons:
        # drop both vertices and splice the two outer edges, or close a
        # circle when they are one edge
        a, b = outer(face)
        yield params.b, g._replace_face(face, rename={b: a}, circles=a == b)
    for face in triangles:
        # one vertex whose legs wind opposite to the face walk
        yield params.t, g._replace_face(face, new=[outer(face)[::-1]])


def evaluate_closed(graph: TrivalentGraph, params: SkeinParams) -> FieldScalar:
    """Reduce a closed diagram to the empty one, taking the first move each
    time, and return its value."""
    g = _closed(graph)
    value = params.tower.one()
    while g.vertices:
        factor, g = next(_moves(g, params))
        value = value * factor
    return value * params.d ** g.circles


def evaluate_all_orders(graph: TrivalentGraph, params: SkeinParams) -> set[FieldScalar]:
    """Evaluate under every possible move order (confluence testing)."""
    results: set[FieldScalar] = set()

    def go(g: TrivalentGraph, acc: FieldScalar):
        if not g.vertices:
            results.add(acc * params.d ** g.circles)
            return
        for factor, h in _moves(g, params):
            go(h, acc * factor)

    go(_closed(graph), params.tower.one())
    return results


# ---------------------------------------------------------------------------
# fixed diagrams

_diagram = TrivalentGraph


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
    """Glue the reflection of y onto x along matching boundary points.

    Edge names are tagged apart, 0 for x and 1 for y, and each boundary
    pair joins its two edges under one name; a pair that is already one
    edge closes a circle."""
    if len(x.boundary) != len(y.boundary):
        raise ValueError("boundary sizes differ")
    m = y.mirrored()
    alias: dict = {}

    def name(n):
        while n in alias:
            n = alias[n]
        return n

    circles = x.circles + m.circles
    for s, r in zip(x.boundary, m.boundary):
        a, b = name((0, s)), name((1, r))
        if a == b:
            circles += 1
        else:
            alias[b] = a
    vertices = [tuple(name((side, n)) for n in names)
                for side, g in enumerate((x, m)) for names in g.vertices]
    return TrivalentGraph(vertices, (), circles)


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
