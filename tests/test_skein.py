"""Diagram evaluation, the Gram solve and the square-pop constants."""

import random
from fractions import Fraction

import pytest

from fusioncat.exactnum import named_constant, tower_preset
from fusioncat.fsymbols import build_h3_table
from fusioncat.skein import (SkeinParams, SkeinReductionError, TrivalentGraph,
                             _diagram, basis_w1, basis_w2, basis_w3, basis_w4, c4_basis,
                             circle_graph, derive_square_pop,
                             evaluate_all_orders, evaluate_closed, glue,
                             gram_matrix, h3_constants, h3_params, pair,
                             square_graph, square_pop_closed_form,
                             tetrahedron_graph, theta_graph)

GENERIC = SkeinParams.from_rationals(3, 2, 5)


def test_params_reject_degenerate_loops():
    with pytest.raises(ValueError):
        SkeinParams.from_rationals(0, 1, 1)
    with pytest.raises(ValueError):
        SkeinParams.from_rationals(1, 0, 1)


def test_closed_evaluations():
    d, b, t = GENERIC.d, GENERIC.b, GENERIC.t
    assert evaluate_closed(circle_graph(), GENERIC) == d
    assert evaluate_closed(theta_graph(), GENERIC) == b * d
    assert evaluate_closed(tetrahedron_graph(), GENERIC) == t * b * d


def test_pairings():
    d, b, t = GENERIC.d, GENERIC.b, GENERIC.t
    w1, w2, w3, w4 = c4_basis()
    assert pair(w1, w1, GENERIC) == d * d
    assert pair(w1, w2, GENERIC) == d
    assert pair(w2, w2, GENERIC) == d * d
    assert pair(w3, w3, GENERIC) == b * b * d
    # a trivalent vertex capped by a circle vanishes (one-strand space is 0)
    assert pair(w1, w4, GENERIC).is_zero()
    assert pair(w2, w3, GENERIC).is_zero()
    # gluing the two bridged diagrams yields the tetrahedron
    assert pair(w3, w4, GENERIC) == t * b * d
    # every Gram entry and the square's pairings, as exact values
    q = GENERIC.tower.from_rational
    assert gram_matrix(c4_basis(), GENERIC) == [
        [q(9), q(3), q(6), q(0)], [q(3), q(9), q(0), q(6)],
        [q(6), q(0), q(12), q(30)], [q(0), q(6), q(30), q(12)]]
    assert [pair(square_graph(), w, GENERIC) for w in c4_basis()] == \
        [q(12), q(12), q(150), q(150)]


def test_gram_matrix_is_symmetric():
    basis = c4_basis()
    gram = gram_matrix(basis, GENERIC)
    for i in range(4):
        for j in range(4):
            assert gram[i][j] == gram[j][i]


def test_square_pop_generic_point():
    params = SkeinParams.from_rationals(3, 1, 1)
    assert derive_square_pop(params) == square_pop_closed_form(params)


def test_square_pop_random_rational_sweep():
    rng = random.Random(123)
    seen = 0
    while seen < 25:
        d, b, t = (Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                   for _ in range(3))
        if d == 0 or b == 0:
            continue
        try:
            params = SkeinParams.from_rationals(d, b, t)
            derived = derive_square_pop(params)
        except ValueError:
            continue  # degenerate Gram matrix or zero denominator
        assert derived == square_pop_closed_form(params)
        seen += 1


def test_square_pop_degenerate_parameters():
    with pytest.raises(ValueError, match="degenerate parameters"):
        derive_square_pop(SkeinParams.from_rationals(2, 1, 0))


def test_h3_constants_exact():
    c1, c2, t, b, d = h3_constants()
    r13 = tower_preset("h3").gen(0)
    assert c1 == (r13 + 7) / 18
    assert c2 * c2 == (r13 - 2) / 9
    assert b * b == d
    assert t == -named_constant("B") * b
    # the denominator of the closed forms collapses to b at these values
    assert b * d + t + d * t == b


def test_h3_square_pop_matches_constants():
    gamma_cup, gamma_tri = derive_square_pop(h3_params())
    assert gamma_cup == named_constant("c1")
    assert gamma_tri == named_constant("c2")


def test_triangle_constant_sign_regression():
    """t = (-(2/3) d + 5/3) sqrt(d); the variant with the minus outside the
    whole prefactor contradicts the all-rho data-set entry."""
    _, _, t, b, d = h3_constants()
    table = build_h3_table()
    entry = table.get(("r", "r", "r", "r", "r", "r")).as_field()
    assert entry == t / b
    assert t == (Fraction(-2, 3) * d + Fraction(5, 3)) * b
    wrong_t = -(Fraction(2, 3) * d + Fraction(5, 3)) * b
    assert entry != wrong_t / b


def _cube() -> TrivalentGraph:
    """Outer 4-cycle o, inner 4-cycle i and four radial edges r; edge o{k}
    joins outer vertices k and k+1, i{k} inner ones, r{k} the two k's."""
    return _diagram([names for k in range(4) for names in
                     ((f"o{k}", f"o{(k - 1) % 4}", f"r{k}"),
                      (f"i{(k - 1) % 4}", f"i{k}", f"r{k}"))])


def test_irreducible_graph_raises():
    cube = _cube()
    assert sorted(len(f) for f in cube.faces()) == [4] * 6
    with pytest.raises(SkeinReductionError, match="requires square-pop"):
        evaluate_closed(cube, GENERIC)


def test_boundary_graphs_are_not_closed():
    with pytest.raises(ValueError):
        evaluate_closed(basis_w1(), GENERIC)


def test_all_orders_shares_the_closed_and_square_pop_checks():
    for evaluate in (evaluate_closed, evaluate_all_orders,
                     lambda g, _: g.faces()):
        with pytest.raises(ValueError, match="diagram has boundary points"):
            evaluate(basis_w3(), GENERIC)
    with pytest.raises(SkeinReductionError, match="requires square-pop"):
        evaluate_all_orders(_cube(), GENERIC)


def test_diagram_edges_occur_twice():
    with pytest.raises(ValueError, match="edge 'w' occurs 1 times"):
        _diagram([("x", "y", "z"), ("x", "z", "w")], boundary=("y",))
    with pytest.raises(ValueError, match="edge 'x' occurs 3 times"):
        _diagram([("x", "y", "z"), ("x", "z", "x")], boundary=("y",))


def test_confluence_on_corpus():
    graphs = [theta_graph(), tetrahedron_graph()]
    basis = c4_basis()
    graphs += [glue(wi, wj) for wi in basis for wj in basis]
    graphs += [glue(square_graph(), w) for w in basis]
    for g in graphs:
        results = evaluate_all_orders(g, GENERIC)
        assert len(results) == 1


def test_malformed_diagrams_are_rejected():
    with pytest.raises(ValueError, match="internal vertices are trivalent"):
        TrivalentGraph(vertices=[("x", "y", "z"), ("x", "y")], boundary=("z",))
    with pytest.raises(ValueError, match="boundary sizes differ"):
        glue(basis_w1(), theta_graph())
