"""Tests for loop intersections, concatenation, and the surface bracket."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from oracles import canonical_rotations, concatenate_fraction, intersections_fraction, normal_form_rotations
from stringtop import strings
from stringtop.geometry import Chart, PLLoop, Torus
from stringtop.harness import gen_random_loop
from stringtop.strings import (
    StringCycle,
    TransversalityError,
    concatenate,
    degree_zero_prefactor,
    goldman_torus,
    intersections,
    jacobi_eta,
    jacobi_residual,
    string_bracket,
)

F = Fraction
TORUS = Torus(2)
CHART = Chart(2)


def torus_line(cls, base=(0, 0)):
    return PLLoop(TORUS, [base], closure=cls)


def wiggly_rep(rng, cls, k=4):
    """Random rational-vertex representative of a torus class."""
    while True:
        try:
            verts = []
            for m in range(k):
                jit = [F(int(rng.integers(-20, 21)), 160) for _ in range(2)]
                verts.append((F(cls[0] * m, k) + jit[0], F(cls[1] * m, k) + jit[1]))
            return PLLoop(TORUS, verts, closure=tuple(cls))
        except ValueError:
            continue


def bracket_of_classes(rng, cls1, cls2, attempts=10):
    for _ in range(attempts):
        try:
            a = StringCycle.from_loop(wiggly_rep(rng, cls1))
            b = StringCycle.from_loop(wiggly_rep(rng, cls2))
            return string_bracket(a, b)
        except TransversalityError:
            continue
    raise RuntimeError("no transversal pair found")


# -- intersections ---------------------------------------------------------------


def test_straight_torus_lifts_cross_once():
    g1 = torus_line((1, 0))
    g2 = torus_line((0, 1), base=(F(1, 3), F(1, 5)))
    pts = intersections(g1, g2)
    assert len(pts) == 1
    p = pts[0]
    assert (p.s, p.s_bar, p.sign, p.offset) == (F(1, 3), F(4, 5), 1, (0, -1))
    assert p.point == (F(1, 3), F(0))


def test_diamond_and_band_cross_twice_with_opposite_signs():
    diamond = PLLoop(CHART, [(1, 0), (0, 1), (-1, 0), (0, -1)])
    band = PLLoop(CHART, [(-2, F(1, 3)), (2, F(1, 3)), (2, 2), (-2, 2)])
    pts = intersections(diamond, band)
    assert [(p.point, p.sign) for p in pts] == [
        ((F(2, 3), F(1, 3)), -1),
        ((F(-2, 3), F(1, 3)), 1),
    ]


def test_disjoint_loops_do_not_intersect():
    diamond = PLLoop(CHART, [(1, 0), (0, 1), (-1, 0), (0, -1)])
    far = PLLoop(CHART, [(10, 10), (11, 10), (11, 11)])
    assert intersections(diamond, far) == []
    # parallel torus lines from distinct base points never touch
    assert intersections(torus_line((1, 0)), torus_line((2, 0), base=(0, F(1, 2)))) == []


def test_non_transversal_contact_is_rejected():
    g1 = torus_line((1, 0))
    with pytest.raises(TransversalityError, match="collinear overlap"):
        intersections(g1, torus_line((1, 0)))
    square = PLLoop(CHART, [(0, -1), (1, 0), (0, 1), (-1, 0)])
    through_vertex = PLLoop(CHART, [(-2, -1), (2, -1), (2, 2), (-2, 2)])
    with pytest.raises(TransversalityError, match="vertex or marked point"):
        intersections(square, through_vertex)


def test_intersections_input_validation():
    with pytest.raises(ValueError, match="different spaces"):
        intersections(torus_line((1, 0)), PLLoop(CHART, [(0, 0), (1, 0), (1, 1)]))
    t3 = Torus(3)
    l3 = PLLoop(t3, [(0, 0, 0)], closure=(1, 0, 0))
    with pytest.raises(ValueError, match="d = 2"):
        intersections(l3, l3)


def crossings_or_error(find, loop, other):
    try:
        return find(loop, other)
    except TransversalityError as err:
        return str(err)


def grid_loop(rng, space, den, cls):
    """A loop of 1..5 vertices on the 1/den grid of [-2, 2]^2, or None if degenerate."""
    verts = [
        (F(int(rng.integers(-2 * den, 2 * den + 1)), den), F(int(rng.integers(-2 * den, 2 * den + 1)), den))
        for _ in range(int(rng.integers(1, 6)))
    ]
    try:
        return PLLoop(space, verts, closure=cls)
    except ValueError:
        return None


@pytest.mark.parametrize(
    "space, den, pairs",
    [(TORUS, 4, 150), (TORUS, 160, 50), (CHART, 4, 150), (CHART, 24, 150)],
    ids=["torus-4", "torus-160", "chart-4", "chart-24"],
)
def test_intersections_match_the_fraction_oracle(space, den, pairs):
    # on the coarse 1/4 grid many pairs touch degenerately, and both sides must raise alike
    rng = np.random.default_rng(den + len(space.kind))
    crossed = degenerate = 0
    for _ in range(pairs):
        loop = other = None
        while loop is None or other is None:
            cls = [tuple(int(x) for x in rng.integers(-3, 4, 2)) if space == TORUS else (0, 0) for _ in range(2)]
            loop, other = grid_loop(rng, space, den, cls[0]), grid_loop(rng, space, den, cls[1])
        got = crossings_or_error(intersections, loop, other)
        assert got == crossings_or_error(intersections_fraction, loop, other)
        if isinstance(got, str):
            degenerate += 1
        elif got:
            crossed += 1
    assert crossed >= 20
    assert degenerate >= (10 if den == 4 else 0)


def test_mixed_denominators_match_the_fraction_oracle():
    loop = PLLoop(TORUS, [(F(-1, 3), F(1, 128)), (F(2, 3), F(-1, 7)), (F(1, 5), F(5, 3))], closure=(1, 2))
    other = PLLoop(TORUS, [(F(1, 128), F(-1, 3)), (F(9, 7), F(1, 2))], closure=(2, -1))
    pts = intersections(loop, other)
    assert len(pts) >= 3 and pts == intersections_fraction(loop, other)


def test_degenerate_contact_at_a_nonzero_deck_offset_still_raises():
    line = torus_line((1, 0))
    # the second loop's vertex (5/2, 3) sits on the line's translate by (2, 3)
    kink = PLLoop(TORUS, [(F(5, 2), 3), (F(11, 4), F(13, 4))], closure=(0, 1))
    with pytest.raises(TransversalityError, match=r"segments \(0, 0\) cross at a vertex"):
        intersections(line, kink)
    # the triangle's first edge runs along the line's translate by (3, 2)
    triangle = PLLoop(TORUS, [(F(13, 4), 2), (F(7, 2), 2), (F(7, 2), F(5, 2))])
    with pytest.raises(TransversalityError, match=r"collinear overlap between segments \(0, 0\)"):
        intersections(line, triangle)
    for other in (kink, triangle):
        assert crossings_or_error(intersections, line, other) == crossings_or_error(
            intersections_fraction, line, other
        )


# -- concatenation -----------------------------------------------------------------


def test_concatenation_adds_classes_and_marks_the_crossing():
    g1 = torus_line((1, 0))
    g2 = torus_line((0, 1), base=(F(1, 3), F(1, 5)))
    p = intersections(g1, g2)[0]
    cat = concatenate(g1, g2, p)
    assert cat.lattice_class() == (1, 1)
    assert cat.vertices[0] == p.point
    assert cat.num_segments == g1.num_segments + g2.num_segments + 2


def test_concatenation_rejects_stale_points():
    g1 = torus_line((1, 0))
    g2 = torus_line((0, 1), base=(F(1, 3), F(1, 5)))
    g3 = torus_line((0, 1), base=(F(1, 4), F(1, 5)))
    p = intersections(g1, g2)[0]
    with pytest.raises(ValueError, match="stale"):
        concatenate(g1, g3, p)


def test_stale_points_raise_the_texts_of_the_fraction_oracle():
    rng = np.random.default_rng(8)
    g1 = wiggly_rep(rng, (2, 1))
    g2 = wiggly_rep(rng, (-1, 1))
    p = next(p for p in intersections(g1, g2) if any(p.offset))
    cases = [
        (dataclasses.replace(p, s=(p.s + F(1, 7)) % 1), "stale intersection point: not on the first loop"),
        (dataclasses.replace(p, s_bar=(p.s_bar + F(1, 7)) % 1), "stale intersection point: not on the second loop"),
        (dataclasses.replace(p, offset=(p.offset[0] + 1, p.offset[1])), "stale intersection point: not on the second loop"),
        (dataclasses.replace(p, s=F(3, 2)), "parameter must lie in"),
        (dataclasses.replace(p, s=F(-1, 5)), "parameter must lie in"),
        (dataclasses.replace(p, s_bar=F(6, 5)), "parameter must lie in"),
    ]
    for stale, text in cases:
        for cat in (concatenate, concatenate_fraction):
            with pytest.raises(ValueError, match=text):
                cat(g1, g2, stale)


def assert_concatenation_matches_the_oracle(loop, other, p):
    got, want = concatenate(loop, other, p), concatenate_fraction(loop, other, p)
    assert (got.vertices, got.closure) == (want.vertices, want.closure)
    assert got.integer_lift() == want.integer_lift()
    # the same lift over twice the denominator builds the same loop
    den, rows = got.integer_lift()
    doubled = tuple(tuple(2 * c for c in row) for row in rows)
    assert PLLoop._from_lift(got.space, 2 * den, doubled).integer_lift() == (den, rows)
    canon = got.canonical()
    for built in (got, canon):
        assert built.integer_lift() == PLLoop(built.space, built.vertices, built.closure).integer_lift()
    assert (canon.vertices, canon.closure) == normal_form_rotations(want)
    return got


@pytest.mark.parametrize(
    "space, dens, pairs",
    [(TORUS, [1, 3, 128], 60), (TORUS, [160], 20), (CHART, [24], 60), (CHART, [1, 3, 128], 60)],
    ids=["torus-mixed", "torus-160", "chart-24", "chart-mixed"],
)
def test_concatenation_matches_the_fraction_oracle(space, dens, pairs):
    rng = np.random.default_rng(len(dens) + len(space.kind))
    found = deck = fed_back = 0
    for _ in range(pairs):
        cls = [tuple(int(x) for x in rng.integers(-3, 4, 2)) if space == TORUS else (0, 0) for _ in range(3)]
        loop, other, third = (grid_loop(rng, space, int(rng.choice(dens)), c) for c in cls)
        if loop is None or other is None or third is None:
            continue
        try:
            pts = intersections(loop, other)
        except TransversalityError:
            continue
        for p in pts[:3]:
            cat = assert_concatenation_matches_the_oracle(loop, other, p)
            found += 1
            deck += any(p.offset)
            # a bracket output fed back in, on either side
            for a, b in ((cat, third), (third, cat)):
                try:
                    again = intersections(a, b)
                except TransversalityError:
                    continue
                for q in again[:2]:
                    assert_concatenation_matches_the_oracle(a, b, q)
                    fed_back += 1
    assert found >= 30 and fed_back >= 30
    assert deck >= (20 if space == TORUS else 0)


def test_concatenation_over_mixed_denominators_matches_the_fraction_oracle():
    loop = PLLoop(TORUS, [(F(-1, 3), F(1, 128)), (F(2, 3), F(-1, 7)), (F(1, 5), F(5, 3))], closure=(1, 2))
    other = PLLoop(TORUS, [(F(1, 128), F(-1, 3)), (F(9, 7), F(1, 2))], closure=(2, -1))
    pts = intersections(loop, other)
    assert any(any(p.offset) for p in pts)
    for p in pts:
        assert_concatenation_matches_the_oracle(loop, other, p)
    for p in intersections(other, loop):
        assert_concatenation_matches_the_oracle(other, loop, p)


def test_concatenation_is_rotation_equivariant():
    rng = np.random.default_rng(3)
    g1 = wiggly_rep(rng, (1, 0))
    g2 = wiggly_rep(rng, (0, 1))
    p = intersections(g1, g2)[0]
    rotated = g1.rotate_marked(2)
    q = next(
        q
        for q in intersections(rotated, g2)
        if all((qc - pc) % 1 == 0 for qc, pc in zip(q.point, p.point))
    )
    assert concatenate(g1, g2, p).same_loop(concatenate(rotated, g2, q))


def test_subdividing_a_loop_changes_no_signs():
    rng = np.random.default_rng(5)
    g1 = wiggly_rep(rng, (2, 1))
    g2 = wiggly_rep(rng, (1, 1))
    pts = intersections(g1, g2)
    fine = g1.subdivide_segment(1, F(1, 3))
    pts_fine = intersections(fine, g2)
    assert [p.sign for p in pts] == [p.sign for p in pts_fine]
    assert {p.point for p in pts} == {p.point for p in pts_fine}
    a, b = StringCycle.from_loop(g1), StringCycle.from_loop(g2)
    # chains differ by the extra collinear vertex, classes must not
    assert (
        string_bracket(a, b).class_reduction()
        == string_bracket(StringCycle.from_loop(fine), b).class_reduction()
    )


# -- formal cycles ------------------------------------------------------------------


def test_cycles_combine_rotated_duplicates():
    rng = np.random.default_rng(11)
    loop = wiggly_rep(rng, (1, 2))
    cycle = StringCycle(TORUS, [(1, loop), (1, loop.rotate_marked(2))])
    assert len(cycle.terms) == 1
    assert cycle.terms[0][0] == 2
    assert (cycle + cycle.scale(-1)).is_zero


def test_scaling_keeps_the_term_order_and_zero_gives_the_zero_cycle():
    rng = np.random.default_rng(13)
    cycle = StringCycle(TORUS, [(c, wiggly_rep(rng, cls)) for c, cls in [(2, (1, 2)), (-1, (0, 1)), (3, (1, 0))]])
    assert len(cycle.terms) == 3
    assert cycle.scale(0).is_zero and cycle.scale(0) == StringCycle.zero(TORUS)
    for k in (-1, 3):
        scaled = cycle.scale(k)
        assert [(c, loop) for c, loop in scaled.terms] == [(k * c, loop) for c, loop in cycle.terms]
        assert scaled == StringCycle(TORUS, [(k * c, loop) for c, loop in cycle.terms])


def test_only_the_constructor_normalizes(monkeypatch):
    rng = np.random.default_rng(12)
    a = StringCycle(TORUS, [(2, wiggly_rep(rng, (1, 2))), (-1, wiggly_rep(rng, (0, 1)))])
    b = StringCycle.from_loop(wiggly_rep(rng, (1, 2)).rotate_marked(1), 3)
    calls = []
    normal_form, least_lift = PLLoop.normal_form, PLLoop._least_lift
    monkeypatch.setattr(PLLoop, "_least_lift", lambda self: calls.append(1) or least_lift(self))
    total, neg = a + b, a.scale(-1)
    assert (a == b, a == a, total == b + a) == (False, True, True)
    assert hash(neg) == hash(-a) and hash(total) == hash(b + a)
    assert calls == []
    # a stored loop is its own normal form, so its key is what normal_form gives
    for _, loop in a.terms + b.terms:
        assert normal_form(loop) == (loop.vertices, loop.closure)


def test_class_reduction_is_torus_only():
    loop = PLLoop(CHART, [(0, 0), (1, 0), (1, 1)])
    with pytest.raises(ValueError, match="torus"):
        StringCycle.from_loop(loop).class_reduction()


# -- the bracket --------------------------------------------------------------------


def test_sign_prefactors_at_degree_zero():
    assert degree_zero_prefactor(0, 0, 2) == 1
    assert degree_zero_prefactor(1, 1, 2) == -1
    assert jacobi_eta(0, 0, 2) == 1
    assert jacobi_eta(1, 1, 2) == -1


def test_torus_bracket_of_transverse_classes():
    a = StringCycle.from_loop(torus_line((1, 0)))
    abar = StringCycle.from_loop(torus_line((0, 1), base=(F(1, 3), F(1, 5))))
    br = string_bracket(a, abar)
    assert [(c, l.lattice_class()) for c, l in br.terms] == [(1, (1, 1))]
    # antisymmetry at degree 0: {abar; a} = -{a; abar}, already on chains
    assert (br + string_bracket(abar, a)).is_zero


def test_bracket_of_disjoint_cycles_vanishes():
    a = StringCycle.from_loop(torus_line((1, 0)))
    b = StringCycle.from_loop(torus_line((2, 0), base=(0, F(1, 2))))
    assert string_bracket(a, b).is_zero


def test_goldman_oracle_frozen_table():
    assert goldman_torus((1, 0), (0, 1)) == (1, (1, 1))
    assert goldman_torus((0, 1), (1, 0)) == (-1, (1, 1))
    assert goldman_torus((1, 0), (2, 0)) == (0, (3, 0))
    assert goldman_torus((2, 1), (1, 1)) == (1, (3, 2))
    assert goldman_torus((-1, 2), (3, 1)) == (-7, (2, 3))
    assert goldman_torus((0, 0), (1, 1)) == (0, (1, 1))


def test_bracket_matches_goldman_oracle_on_random_pairs():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 30:
        cls1 = tuple(int(x) for x in rng.integers(-3, 4, 2))
        cls2 = tuple(int(x) for x in rng.integers(-3, 4, 2))
        if cls1 == (0, 0) or cls2 == (0, 0):
            continue
        br = bracket_of_classes(rng, cls1, cls2)
        coeff, total = goldman_torus(cls1, cls2)
        expected = {} if coeff == 0 else {total: coeff}
        assert br.class_reduction() == expected, (cls1, cls2)
        checked += 1


def test_jacobi_residual_reduces_to_zero():
    rng = np.random.default_rng(77)
    cycles = [
        StringCycle.from_loop(wiggly_rep(rng, cls))
        for cls in [(1, 0), (0, 1), (1, 1)]
    ]
    res = jacobi_residual(*cycles)
    assert res.class_reduction() == {}
    zero = StringCycle.zero(TORUS)
    assert jacobi_residual(zero, cycles[1], cycles[2]).is_zero


def chain_terms(cycle):
    return [(c, loop.vertices, loop.closure) for c, loop in cycle.terms]


@pytest.mark.parametrize("seed", [0, 7919])
def test_chain_level_terms_match_the_fraction_oracles(seed, monkeypatch):
    """Class reductions cannot see where a bracket concatenates; the chains can."""
    classes = [[(1, 0), (0, 1), (1, 1)], [(2, -1), (1, 2), (-1, 1)], [(2, 1), (1, -2), (1, 1)]]

    def chains():
        rng = np.random.default_rng(seed)
        out = []
        for cls in classes:
            a, b, c = (StringCycle.from_loop(gen_random_loop(TORUS, rng, x)) for x in cls)
            try:
                ab = string_bracket(a, b)
                out.append([chain_terms(x) for x in (ab, string_bracket(ab, c), jacobi_residual(a, b, c))])
            except TransversalityError as err:
                out.append(str(err))
        return out

    production = chains()
    # terms are sorted by (vertices, closure)
    for terms in production:
        for chain in terms if isinstance(terms, list) else ():
            assert chain == sorted(chain, key=lambda term: term[1:])
    monkeypatch.setattr(strings, "intersections", intersections_fraction)
    monkeypatch.setattr(strings, "concatenate", concatenate_fraction)
    monkeypatch.setattr(PLLoop, "canonical", canonical_rotations)
    assert chains() == production
    assert sum(len(terms[1]) for terms in production if isinstance(terms, list)) > 30
