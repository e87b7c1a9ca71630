"""Tests for loop intersections, concatenation, and the surface bracket."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import canonical_rotations, concatenate_fraction, intersections_fraction, normal_form_rotations
from stringtop import strings
from stringtop.geometry import PLLoop, Torus
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
    assert g1.point_at(p.s) == (F(1, 3), F(0))


def small(verts):
    """A class-(0, 0) loop with the vertices scaled by 1/8, so that only the untranslated lifts meet."""
    return PLLoop(TORUS, [tuple(F(c, 8) for c in v) for v in verts], closure=(0, 0))


def test_diamond_and_band_cross_twice_with_opposite_signs():
    diamond = small([(1, 0), (0, 1), (-1, 0), (0, -1)])
    band = small([(-2, F(1, 3)), (2, F(1, 3)), (2, 2), (-2, 2)])
    pts = intersections(diamond, band)
    assert [(diamond.point_at(p.s), p.sign, p.offset) for p in pts] == [
        ((F(1, 12), F(1, 24)), -1, (0, 0)),
        ((F(-1, 12), F(1, 24)), 1, (0, 0)),
    ]


def test_disjoint_loops_do_not_intersect():
    diamond = small([(1, 0), (0, 1), (-1, 0), (0, -1)])
    far = small([(3, 3), (4, 3), (4, 4)])
    assert intersections(diamond, far) == []
    # parallel torus lines from distinct base points never touch
    assert intersections(torus_line((1, 0)), torus_line((2, 0), base=(0, F(1, 2)))) == []


def test_non_transversal_contact_is_rejected():
    g1 = torus_line((1, 0))
    with pytest.raises(TransversalityError, match="collinear overlap"):
        intersections(g1, torus_line((1, 0)))
    square = small([(0, -1), (1, 0), (0, 1), (-1, 0)])
    through_vertex = small([(-2, -1), (2, -1), (2, 2), (-2, 2)])
    with pytest.raises(TransversalityError, match="vertex or marked point"):
        intersections(square, through_vertex)


def crossings_or_error(find, loop, other):
    try:
        return find(loop, other)
    except TransversalityError as err:
        return str(err)


def assert_crossings_meet(loop, other, pts):
    """Each record locates its crossing: gamma(s) = gammabar(s_bar) + offset."""
    for p in pts:
        assert loop.point_at(p.s) == tuple(c + o for c, o in zip(other.point_at(p.s_bar), p.offset))


def grid_loop(rng, den, cls):
    """A loop of 1..5 vertices on the 1/den grid of [-2, 2]^2, or None if degenerate."""
    verts = [
        (F(int(rng.integers(-2 * den, 2 * den + 1)), den), F(int(rng.integers(-2 * den, 2 * den + 1)), den))
        for _ in range(int(rng.integers(1, 6)))
    ]
    try:
        return PLLoop(TORUS, verts, closure=cls)
    except ValueError:
        return None


@pytest.mark.parametrize(
    "random_class, den, pairs",
    [(True, 4, 150), (True, 160, 50), (False, 4, 150), (False, 24, 150)],
    ids=["torus-4", "torus-160", "chart-4", "chart-24"],
)
def test_intersections_match_the_fraction_oracle(random_class, den, pairs):
    # on the coarse 1/4 grid many pairs touch degenerately, and both sides must raise alike;
    # the chart-* cases draw class (0, 0), loops that close up in one chart
    rng = np.random.default_rng(den + 5)
    crossed = degenerate = 0
    for _ in range(pairs):
        loop = other = None
        while loop is None or other is None:
            cls = [tuple(int(x) for x in rng.integers(-3, 4, 2)) if random_class else (0, 0) for _ in range(2)]
            loop, other = grid_loop(rng, den, cls[0]), grid_loop(rng, den, cls[1])
        got = crossings_or_error(intersections, loop, other)
        assert got == crossings_or_error(intersections_fraction, loop, other)
        if isinstance(got, str):
            degenerate += 1
        elif got:
            assert_crossings_meet(loop, other, got)
            crossed += 1
    assert crossed >= 20
    assert degenerate >= (10 if den == 4 else 0)


def test_mixed_denominators_match_the_fraction_oracle():
    loop = PLLoop(TORUS, [(F(-1, 3), F(1, 128)), (F(2, 3), F(-1, 7)), (F(1, 5), F(5, 3))], closure=(1, 2))
    other = PLLoop(TORUS, [(F(1, 128), F(-1, 3)), (F(9, 7), F(1, 2))], closure=(2, -1))
    pts = intersections(loop, other)
    assert len(pts) >= 3 and pts == intersections_fraction(loop, other)
    assert_crossings_meet(loop, other, pts)


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
    assert cat.closure == (1, 1)
    assert cat.vertices[0] == g1.point_at(p.s)
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
    apart = "stale intersection point: the loops do not meet"
    cases = [
        (dataclasses.replace(p, s=(p.s + F(1, 7)) % 1), apart),
        (dataclasses.replace(p, s_bar=(p.s_bar + F(1, 7)) % 1), apart),
        (dataclasses.replace(p, offset=(p.offset[0] + 1, p.offset[1])), apart),
        (dataclasses.replace(p, s=F(3, 2)), "parameter must lie in"),
        (dataclasses.replace(p, s=F(-1, 5)), "parameter must lie in"),
        (dataclasses.replace(p, s_bar=F(6, 5)), "parameter must lie in"),
    ]
    for stale, text in cases:
        for cat in (concatenate, concatenate_fraction):
            with pytest.raises(ValueError, match=text):
                cat(g1, g2, stale)


def test_crossing_records_are_checked_like_the_fraction_route():
    """``concatenate`` reads a record's point off both lifts; the oracle reads it with ``point_at``.

    True crossings give one lift on both routes. A record with s, s_bar or
    the offset moved is stale on both, and s outside [0, 1] is out of range.
    """
    rng = np.random.default_rng(21)
    mixed = PLLoop(TORUS, [(F(-1, 3), F(1, 128)), (F(2, 3), F(-1, 7)), (F(1, 5), F(5, 3))], closure=(1, 2))
    loops = [mixed] + [grid_loop(rng, den, tuple(int(x) for x in rng.integers(-3, 4, 2))) for den in (1, 3, 128) * 12]
    loops = list(filter(None, loops))
    checked = 0
    for loop, other in zip(loops, loops[1:]):
        try:
            pts = intersections(loop, other)
        except TransversalityError:
            continue
        for p in pts[:4]:
            assert concatenate(loop, other, p).integer_lift() == concatenate_fraction(loop, other, p).integer_lift()
            du = F(1, int(rng.integers(2, 300)))
            for moved in (
                dataclasses.replace(p, s=min(p.s + du, F(1))),
                dataclasses.replace(p, s=max(p.s - du, F(0))),
                dataclasses.replace(p, s_bar=min(p.s_bar + du, F(1))),
                dataclasses.replace(p, offset=(p.offset[0], p.offset[1] - 1)),
            ):
                for cat in (concatenate, concatenate_fraction):
                    with pytest.raises(ValueError, match="stale intersection point"):
                        cat(loop, other, moved)
            for s in (F(-1, 7), F(8, 7), F(-1), F(2)):
                for cat in (concatenate, concatenate_fraction):
                    with pytest.raises(ValueError, match=r"parameter must lie in \[0, 1\]"):
                        cat(loop, other, dataclasses.replace(p, s=s))
            checked += 1
    assert checked > 30


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
    "random_class, dens, pairs",
    [(True, [1, 3, 128], 60), (True, [160], 20), (False, [24], 60), (False, [1, 3, 128], 60)],
    ids=["torus-mixed", "torus-160", "chart-24", "chart-mixed"],
)
def test_concatenation_matches_the_fraction_oracle(random_class, dens, pairs):
    # the chart-* cases draw class (0, 0), loops that close up in one chart
    rng = np.random.default_rng(len(dens) + 5)
    found = deck = fed_back = 0
    for _ in range(pairs):
        cls = [tuple(int(x) for x in rng.integers(-3, 4, 2)) if random_class else (0, 0) for _ in range(3)]
        loop, other, third = (grid_loop(rng, int(rng.choice(dens)), c) for c in cls)
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
    assert deck >= 20


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
        if all((qc - pc) % 1 == 0 for qc, pc in zip(rotated.point_at(q.s), g1.point_at(p.s)))
    )
    assert concatenate(g1, g2, p).normal_form() == concatenate(rotated, g2, q).normal_form()


def test_subdividing_a_loop_changes_no_signs():
    rng = np.random.default_rng(5)
    g1 = wiggly_rep(rng, (2, 1))
    g2 = wiggly_rep(rng, (1, 1))
    pts = intersections(g1, g2)
    fine = g1.subdivide_segment(1, F(1, 3))
    pts_fine = intersections(fine, g2)
    assert [p.sign for p in pts] == [p.sign for p in pts_fine]
    assert {g1.point_at(p.s) for p in pts} == {fine.point_at(p.s) for p in pts_fine}
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
    cycle = StringCycle([(1, loop), (1, loop.rotate_marked(2))])
    assert len(cycle.terms) == 1
    assert cycle.terms[0][0] == 2
    assert (cycle + cycle.scale(-1)).is_zero


def test_scaling_keeps_the_term_order_and_zero_gives_the_zero_cycle():
    rng = np.random.default_rng(13)
    cycle = StringCycle([(c, wiggly_rep(rng, cls)) for c, cls in [(2, (1, 2)), (-1, (0, 1)), (3, (1, 0))]])
    assert len(cycle.terms) == 3
    assert cycle.scale(0).is_zero and cycle.scale(0) == StringCycle()
    for k in (-1, 3):
        scaled = cycle.scale(k)
        assert [(c, loop) for c, loop in scaled.terms] == [(k * c, loop) for c, loop in cycle.terms]
        assert scaled == StringCycle([(k * c, loop) for c, loop in cycle.terms])


def test_only_the_constructor_normalizes(monkeypatch):
    rng = np.random.default_rng(12)
    a = StringCycle([(2, wiggly_rep(rng, (1, 2))), (-1, wiggly_rep(rng, (0, 1)))])
    b = StringCycle([(3, wiggly_rep(rng, (1, 2)).rotate_marked(1))])
    calls = []
    normal_form, least_lift = PLLoop.normal_form, PLLoop._least_lift
    monkeypatch.setattr(PLLoop, "_least_lift", lambda self: calls.append(1) or least_lift(self))
    total, neg = a + b, a.scale(-1)
    assert (a == b, a == a, total == b + a) == (False, True, True)
    assert hash(neg) == hash(a.scale(-1)) and hash(total) == hash(b + a)
    assert calls == []
    # a stored loop is its own normal form, so its key is what normal_form gives
    for _, loop in a.terms + b.terms:
        assert normal_form(loop) == (loop.vertices, loop.closure)


def test_each_bracket_term_builds_one_loop(monkeypatch):
    """One validated build (``_from_lift``) and one least rotation per term."""
    rng = np.random.default_rng(14)
    a = StringCycle([(2, wiggly_rep(rng, (1, 2))), (-1, wiggly_rep(rng, (0, 1)))])
    b = StringCycle([(1, wiggly_rep(rng, (2, -1))), (3, wiggly_rep(rng, (1, 1)))])
    crossings = sum(len(intersections(x, y)) for _, x in a.terms for _, y in b.terms)
    assert crossings > 5
    builds, rotations = [], []
    from_lift, least_lift = PLLoop._from_lift.__func__, PLLoop._least_lift
    monkeypatch.setattr(PLLoop, "_from_lift", classmethod(lambda cls, *args: builds.append(1) or from_lift(cls, *args)))
    monkeypatch.setattr(PLLoop, "_least_lift", lambda self: rotations.append(1) or least_lift(self))
    bracket = string_bracket(a, b)
    assert len(builds) == len(rotations) == crossings
    # re-wrapping canonical terms gives the same cycle, and each term the lift a validated build gives
    assert StringCycle(bracket.terms) == bracket
    for _, loop in bracket.terms:
        assert from_lift(PLLoop, TORUS, *least_lift(loop)).integer_lift() == loop.integer_lift()


def test_each_splice_is_over_the_least_denominator(monkeypatch):
    """``concatenate`` hands ``_from_lift`` rows with no common factor to divide out."""
    rng = np.random.default_rng(15)
    splices = []
    from_lift = PLLoop._from_lift.__func__

    def record(cls, space, den, pts):
        splices.append(math.gcd(den, *(c for row in pts for c in row)))
        return from_lift(cls, space, den, pts)

    monkeypatch.setattr(PLLoop, "_from_lift", classmethod(record))
    for _ in range(50):
        a, b = (StringCycle.from_loop(gen_random_loop(rng)) for _ in range(2))
        try:
            string_bracket(a, b)
        except TransversalityError:
            continue
    assert len(splices) > 100
    assert set(splices) == {1}


# -- the bracket --------------------------------------------------------------------


def test_sign_prefactors_at_degree_zero():
    assert degree_zero_prefactor(0, 0) == 1
    assert degree_zero_prefactor(1, 1) == -1
    assert jacobi_eta(0, 0) == 1
    assert jacobi_eta(1, 1) == -1


def test_torus_bracket_of_transverse_classes():
    a = StringCycle.from_loop(torus_line((1, 0)))
    abar = StringCycle.from_loop(torus_line((0, 1), base=(F(1, 3), F(1, 5))))
    br = string_bracket(a, abar)
    assert [(c, l.closure) for c, l in br.terms] == [(1, (1, 1))]
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


def test_jacobi_residual_is_zero_on_chains():
    """On transversal random triples the residual vanishes as a chain, not only on classes."""
    zero = drawn = 0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            a, b, c = (StringCycle.from_loop(gen_random_loop(rng)) for _ in range(3))
            try:
                res = jacobi_residual(a, b, c)
            except TransversalityError:
                continue
            drawn += 1
            zero += res.is_zero
    assert drawn > 80 and zero == drawn


def test_jacobi_residual_reduces_to_zero():
    rng = np.random.default_rng(77)
    cycles = [
        StringCycle.from_loop(wiggly_rep(rng, cls))
        for cls in [(1, 0), (0, 1), (1, 1)]
    ]
    res = jacobi_residual(*cycles)
    assert res.class_reduction() == {}
    zero = StringCycle()
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
            a, b, c = (StringCycle.from_loop(gen_random_loop(rng, x)) for x in cls)
            try:
                ab = string_bracket(a, b)
                out.append([chain_terms(x) for x in (ab, string_bracket(ab, c), jacobi_residual(a, b, c))])
            except TransversalityError as err:
                out.append(str(err))
        return out

    production = chains()
    # terms are sorted by their lift rows over one common denominator (``_by_rows``)
    for terms in production:
        for chain in terms if isinstance(terms, list) else ():
            lifts = [PLLoop(TORUS, verts, closure).integer_lift() for _, verts, closure in chain]
            assert lifts == sorted(lifts, key=strings._by_rows)
    # which is not the (vertices, closure) order when one loop's vertices begin another's
    short, long = PLLoop(TORUS, [(0, 0)], (1, 0)), PLLoop(TORUS, [(0, 0), (0, F(1, 2))], (0, 1))
    assert [loop.num_segments for _, loop in StringCycle([(1, short), (1, long)]).terms] == [2, 1]
    monkeypatch.setattr(strings, "intersections", intersections_fraction)
    monkeypatch.setattr(strings, "concatenate", concatenate_fraction)
    monkeypatch.setattr(PLLoop, "canonical", canonical_rotations)
    assert chains() == production
    assert sum(len(terms[1]) for terms in production if isinstance(terms, list)) > 30


# sha256 of the chain terms below, recorded before the exact layer moved to 2-D
# integer splices and canonical forms built without a second validation pass
CHAIN_DIGEST = "0db08f1abf2fe631e88276f4958d536eed30bf7afd5731c07d5eea8df60c364a"


def test_chain_level_jacobi_terms_keep_their_digest():
    """Bit-identity of the chains, which the suite's class reductions cannot see.

    The residual itself is zero on chains for these draws, so the digest
    also covers each summand's inner bracket {x;y} and outer bracket {{x;y};z}.
    """
    out = []
    for seed in (0, 7919):
        rng = np.random.default_rng(seed)
        for _ in range(16):
            a, b, c = (StringCycle.from_loop(gen_random_loop(rng)) for _ in range(3))
            try:
                summands = []
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    xy = string_bracket(x, y)
                    summands.append((chain_terms(xy), chain_terms(string_bracket(xy, z))))
                out.append((summands, chain_terms(jacobi_residual(a, b, c))))
            except TransversalityError as err:
                out.append(str(err))
    assert sum(len(outer) for draw in out if not isinstance(draw, str) for _, outer in draw[0]) > 500
    assert hashlib.sha256(repr(out).encode()).hexdigest() == CHAIN_DIGEST
