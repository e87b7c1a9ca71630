"""Tests for loop intersections, concatenation, and the surface bracket."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    bracket_terms_fraction,
    concatenate_fraction,
    goldman_torus_fraction,
    intersections_fraction,
    least_lift_rotations,
    normal_form_rotations,
)
from test_mutants import first_crossing
from stringtop import geometry, strings
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
    ids=["torus-4", "torus-160", "contractible-4", "contractible-24"],
)
def test_intersections_match_the_fraction_oracle(random_class, den, pairs):
    # on the coarse 1/4 grid many pairs touch degenerately, and both sides must raise alike;
    # the contractible-* cases draw class (0, 0), loops that close up without winding
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
    ids=["torus-mixed", "torus-160", "contractible-24", "contractible-mixed"],
)
def test_concatenation_matches_the_fraction_oracle(random_class, dens, pairs):
    # the contractible-* cases draw class (0, 0), loops that close up without winding
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
    assert StringCycle(cycle.terms + ((-2, loop.rotate_marked(1)),)).is_zero


@pytest.mark.parametrize("coeff", [F(1, 2), F(2), 2.7, 2.0, True, np.int64(2), "2"])
def test_a_cycle_takes_int_coefficients_only(coeff):
    """1/2 became the zero cycle and 2.7 became 2; now anything but an int raises."""
    loop = torus_line((1, 0))
    with pytest.raises(TypeError, match="coefficient must be an int"):
        StringCycle([(coeff, loop)])
    assert StringCycle([(2, loop)]).terms[0][0] == 2


@pytest.mark.parametrize("entry", [F(3, 2), 1.5, 1.0, True, np.int64(1)])
def test_the_goldman_oracle_takes_int_classes_only(entry):
    """(1.5, 0) was counted as the class (1, 0); now anything but an int raises."""
    for c1, c2 in (((entry, 0), (0, 1)), ((0, 1), (1, entry))):
        with pytest.raises(TypeError, match="class entry must be an int"):
            goldman_torus(c1, c2)


def test_only_the_constructor_normalizes(monkeypatch):
    rng = np.random.default_rng(12)
    a = StringCycle([(2, wiggly_rep(rng, (1, 2))), (-1, wiggly_rep(rng, (0, 1)))])
    b = StringCycle([(3, wiggly_rep(rng, (1, 2)).rotate_marked(1))])
    total, swapped = StringCycle(a.terms + b.terms), StringCycle(b.terms + a.terms)
    calls = []
    normal_form, least_lift = PLLoop.normal_form, geometry._least_lift
    for owner in (geometry, strings):
        monkeypatch.setattr(owner, "_least_lift", lambda *lift: calls.append(1) or least_lift(*lift))
    assert (a == b, a == a, total == swapped) == (False, True, True)
    assert hash(total) == hash(swapped)
    assert calls == []
    # a stored loop is its own normal form, so its key is what normal_form gives
    for _, loop in a.terms + b.terms:
        assert normal_form(loop) == (loop.vertices, loop.closure)


def forbid(monkeypatch, owner, name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"the bracket called {name}")

    monkeypatch.setattr(owner, name, refuse)


def test_each_bracket_term_builds_one_loop(monkeypatch):
    """One stored ``PLLoop`` per kept term, straight from the integers, and a normal form (``_least_lift``) only on a tie.

    The bracket builds no ``IntersectionPoint``, no ``Fraction``, no
    ``lift_point`` and no validated ``_from_lift`` build. ``_splice`` gives
    every other term's normal-form rows itself; which terms tie is pinned
    by the rotation-start tests below.
    """
    rng = np.random.default_rng(14)
    a = StringCycle([(2, wiggly_rep(rng, (1, 2))), (-1, wiggly_rep(rng, (0, 1)))])
    b = StringCycle([(1, wiggly_rep(rng, (2, -1))), (3, wiggly_rep(rng, (1, 1)))])
    crossings = sum(len(intersections(x, y)) for _, x in a.terms for _, y in b.terms)
    assert crossings > 5
    stores, rotations, ties = [], [], []
    store, least_lift, rotation_start = PLLoop._store, strings._least_lift, strings._rotation_start

    def start(*crossing):
        found = rotation_start(*crossing)
        ties.append(found is None)
        return found

    monkeypatch.setattr(PLLoop, "_store", lambda self, *args: stores.append(1) or store(self, *args))
    monkeypatch.setattr(strings, "_least_lift", lambda *lift: rotations.append(1) or least_lift(*lift))
    monkeypatch.setattr(strings, "_rotation_start", start)
    for name in ("IntersectionPoint", "Fraction", "intersections", "concatenate"):
        forbid(monkeypatch, strings, name)
    forbid(monkeypatch, PLLoop, "lift_point")
    forbid(monkeypatch, PLLoop, "_from_lift")
    bracket = string_bracket(a, b)
    assert len(stores) == len(bracket.terms) and len(ties) == crossings
    assert len(rotations) == sum(ties) < crossings
    monkeypatch.undo()
    # re-wrapping canonical terms gives the same cycle, and each term the lift a validated build gives
    assert StringCycle(bracket.terms) == bracket
    for _, loop in bracket.terms:
        assert PLLoop._from_lift(TORUS, *least_lift(*loop.integer_lift(), loop.closure)).integer_lift() == loop.integer_lift()


def bracket_starts(monkeypatch, a, b):
    """[unit, plain, start, rows, scanned] per term of {a; b}: the plain
    rows of its splice, the start ``_rotation_start`` found, the rows
    ``_splice`` gave with it, and whether the token scan
    (``least_rotation``) ran for the term."""
    events = []
    splice, rotation = strings._splice, geometry.least_rotation

    def recorded(*crossing):
        unit, rows, start = splice(*crossing)
        events.append([unit, splice(*crossing[:9])[1], start, rows, False])
        return unit, rows, start

    def scan(tokens):
        events[-1][4] = True
        return rotation(tokens)

    monkeypatch.setattr(strings, "_splice", recorded)
    monkeypatch.setattr(geometry, "least_rotation", scan)
    try:
        string_bracket(a, b)
    finally:
        monkeypatch.undo()
    return events


def assert_splice_is_the_scans(unit, plain, start, rows):
    """With a start, the splice's rows are the normal form the token scan
    gives for its plain rows, and the start is the scan's row and the floor
    of that row; without one, the rows are the plain rows."""
    if start is None:
        assert rows == plain
        return
    closure = tuple((q - p) // unit for p, q in zip(plain[0], plain[-1]))
    r = geometry._least_token(unit, plain)
    assert (unit, rows) == geometry._least_lift(unit, plain, closure)
    assert start == (r, plain[r][0] // unit, plain[r][1] // unit)


def assert_starts_match_the_scan(events):
    """Each splice is the scan's normal form, and the scan ran exactly on
    the ties: the least point mod the unit is held by more rows than the
    crossing point's two copies, or by two rows other than the crossing
    point's."""
    for unit, plain, start, rows, scanned in events:
        assert_splice_is_the_scans(unit, plain, start, rows)
        points = [(x % unit, y % unit) for x, y in plain[:-1]]
        least = min(points)
        held = points.count(least)
        assert scanned == (start is None) == (held > 2 or (held == 2 and points[0] != least))


def test_rotation_starts_match_the_scan_on_random_and_nested_brackets(monkeypatch):
    """Every term of random brackets {a; b} and nested ones {{a; b}; c}."""
    rng = np.random.default_rng(35)
    events = []
    while len(events) < 400:
        a, b, c = (StringCycle.from_loop(gen_random_loop(rng)) for _ in range(3))
        try:
            events += bracket_starts(monkeypatch, a, b)
            events += bracket_starts(monkeypatch, string_bracket(a, b), c)
        except TransversalityError:
            continue
    assert_starts_match_the_scan(events)
    scanned = sum(scan for *_, scan in events)
    assert 0 < scanned < len(events) // 4
    # the one-pass route starts at row 0, at the crossing point's other copy, and at a loop's vertex 0
    kinds = set()
    for unit, plain, start, _, _ in events:
        if start is not None:
            (x, y), (x0, y0) = plain[start[0]], plain[0]
            kinds.add("row 0" if start[0] == 0 else "vertex" if (x - x0) % unit or (y - y0) % unit else "copy")
    assert kinds == {"row 0", "copy", "vertex"}


@pytest.mark.parametrize(
    "first, second, row",
    [
        # the crossing point (1/4, 1/2) is least; its two copies, rows 0
        # and K1 + 1, are ordered by their outgoing edges: (0, 1) < (1, 0)
        # picks the second loop's, (-1, 0) < (0, 1) the first loop's
        (([(F(1, 2), F(1, 2))], (1, 0)), ([(F(1, 4), F(3, 4))], (0, 1)), 2),
        (([(F(1, 2), F(1, 2))], (-1, 0)), ([(F(1, 4), F(3, 4))], (0, 1)), 0),
        # vertex (0, 1/2) of the first loop is least; the crossing is in
        # segment i = 1, so that vertex is row K1 - i = 2
        (([(0, F(1, 2)), (F(1, 3), F(5, 8)), (F(2, 3), F(1, 2))], (1, 0)), ([(F(1, 2), F(3, 4))], (0, 1)), 2),
        # the same loop second: row K1 + 1 + K2 - j = 4
        (([(F(1, 2), F(3, 4))], (0, 1)), ([(0, F(1, 2)), (F(1, 3), F(5, 8)), (F(2, 3), F(1, 2))], (1, 0)), 4),
    ],
)
def test_rotation_start_of_each_branch(monkeypatch, first, second, row):
    a, b = (StringCycle.from_loop(PLLoop(TORUS, *loop)) for loop in (first, second))
    events = bracket_starts(monkeypatch, a, b)
    assert [start[0] for _, _, start, _, _ in events] == [row]
    assert_starts_match_the_scan(events)


STEP = [(0, F(1, 2)), (F(1, 3), F(5, 8)), (F(2, 3), F(1, 2))]
TIED = [(F(1, 2), F(1, 4)), (F(3, 4), 0), (F(3, 2), F(1, 4)), (F(7, 4), F(1, 2))]


def column(x):
    return [(x, F(3, 4))], (0, 1)


@pytest.mark.parametrize(
    "first, second, rows",
    [
        # the crossing point's copy at row 0, then at row K1 + 1
        (([(F(1, 2), F(1, 2))], (-1, 0)), column(F(1, 4)), [0]),
        (([(F(1, 2), F(1, 2))], (1, 0)), column(F(1, 4)), [2]),
        # two diagonals: at their second crossing, (1/4, 3/4) mod 1, the two
        # outgoing edges (1/4, 1/4) and (1/4, -1/4) share their x step, so
        # the y step orders the copies; the first crossing starts at a vertex 0
        (([(F(1, 2), 0)], (1, 1)), ([(F(1, 2), F(1, 2))], (1, -1)), [1, 2]),
        (([(F(1, 2), F(1, 2))], (1, -1)), ([(F(1, 2), 0)], (1, 1)), [0, 3]),
        # STEP's vertex 0, (0, 1/2), is least; the column meets segment
        # i = 0, 1 or 2 of it, so the rotation starts at row K1 - i
        ((STEP, (1, 0)), column(F(1, 6)), [3]),
        ((STEP, (1, 0)), column(F(1, 2)), [2]),
        ((STEP, (1, 0)), column(F(5, 6)), [1]),
        # STEP second, met in segment j: row K1 + 1 + K2 - j
        (column(F(1, 6)), (STEP, (1, 0)), [5]),
        (column(F(5, 6)), (STEP, (1, 0)), [3]),
        (column(F(1, 2)), (STEP, (1, 0)), [4]),
        # TIED ties its vertices 0 and 2, (1/2, 1/4) mod 1, yet one point is
        # strictly least: the line's vertex 0, (0, 3/8), at row K1 - i ...
        (([(0, F(3, 8))], (1, 0)), (TIED, (2, 0)), [1, 1]),
        # ... or the crossing point, at (1/4, 1/3) and (1/4, 1/6), whose
        # copies are ordered by the column's outgoing edge (0, 1)
        ((TIED, (2, 0)), column(F(1, 4)), [5, 5]),
        (column(F(1, 4)), (TIED, (2, 0)), [0, 0]),
        # a tie on the second loop: vertices 0 and 2 are both (0, 1/2) mod 1
        (column(F(1, 4)), ([(0, F(1, 2)), (F(1, 2), F(1, 4)), (1, F(1, 2)), (F(3, 2), F(3, 4))], (2, 0)), [None, None]),
        # a tie: vertices 0 and 2 of the first loop are both (0, 1/2) mod 1
        (([(0, F(1, 2)), (F(1, 2), F(1, 4)), (1, F(1, 2)), (F(3, 2), F(3, 4))], (2, 0)), column(F(1, 4)), [None, None]),
    ],
)
def test_each_branch_of_the_one_pass_splice_is_the_scans(first, second, rows):
    """``_splice`` on normal-form loops, as the bracket hands them over:
    each start it takes gives the rows ``_least_lift`` gives for its plain
    rows."""
    gamma, gammabar = (PLLoop(TORUS, *loop) for loop in (first, second))
    assert all(loop.canonical().integer_lift() == loop.integer_lift() for loop in (gamma, gammabar))
    lows = strings._alone(gamma), strings._alone(gammabar)
    starts = []
    for i, j, _, _, _, _, (ox, oy), den, x, y in strings._crossings(gamma, gammabar):
        unit, plain, start = strings._splice(gamma, gammabar, i, j, den, x, y, ox, oy)
        assert start is None
        got, spliced, start = strings._splice(gamma, gammabar, i, j, den, x, y, ox, oy, lows)
        assert got == unit
        assert_splice_is_the_scans(unit, plain, start, spliced)
        starts.append(start and start[0])
    assert starts == rows


def test_the_bracket_splices_normal_forms_only(monkeypatch):
    """Every loop that ``_bracket_terms`` hands to ``_splice`` is its own
    normal form, so its vertex 0 is its least vertex, in [0, den)^2: the
    premise of ``_alone`` and ``_rotation_start``. The brackets are random
    {a; b}, nested {{a; b}; c}, and Jacobi's, whose outer brackets take
    their inner terms' starts from the splice."""
    rng = np.random.default_rng(40)
    splice = strings._splice
    handed = {}

    def recorded(loop, other, *crossing):
        handed.update({id(loop): loop, id(other): other})
        return splice(loop, other, *crossing)

    monkeypatch.setattr(strings, "_splice", recorded)
    drawn = 0
    while drawn < 20:
        a, b, c = (StringCycle.from_loop(gen_random_loop(rng)) for _ in range(3))
        try:
            string_bracket(string_bracket(a, b), c)
            jacobi_residual(a, b, c)
        except TransversalityError:
            continue
        drawn += 1
    monkeypatch.undo()
    assert len(handed) > 200 and any(loop.num_segments > 4 for loop in handed.values())
    for loop in handed.values():
        assert loop.canonical().integer_lift() == loop.integer_lift()


def test_a_tied_least_vertex_takes_the_scan(monkeypatch):
    """An inner-bracket loop passes its crossing point twice: when that point
    is its least vertex, and so the least point of an outer splice, two
    rows hold it and the scan decides."""
    line, column = PLLoop(TORUS, [(F(1, 2), F(1, 2))], (1, 0)), PLLoop(TORUS, [(F(1, 4), F(3, 4))], (0, 1))
    inner = string_bracket(StringCycle.from_loop(line), StringCycle.from_loop(column))
    ((_, loop),) = inner.terms
    den, pts = loop.integer_lift()
    assert [(x % den, y % den) for x, y in pts[:-1]].count((den // 4, den // 2)) == 2
    assert strings._alone(loop) is False
    # the diagonal y = x + 5/8 meets the inner loop at (1/4, 7/8) and (7/8, 1/2), both above (1/4, 1/2)
    events = bracket_starts(monkeypatch, inner, StringCycle.from_loop(PLLoop(TORUS, [(F(3, 4), F(3, 8))], (1, 1))))
    assert len(events) == 2
    assert [scan for *_, scan in events] == [True, True]
    assert_starts_match_the_scan(events)


@pytest.mark.parametrize(
    "first, second",
    [
        # the two loops' vertices coincide
        (([(F(1, 4), F(1, 2))], (1, 0)), ([(F(1, 4), F(1, 2))], (0, 1))),
        # the second loop's vertex lies mid-segment of the first
        (([(0, F(1, 2)), (F(1, 2), F(1, 2))], (1, 0)), ([(F(1, 4), F(1, 2)), (F(1, 4), 1)], (0, 1))),
        # the second loop's vertex is a lattice translate of the first's
        (([(F(1, 4), F(1, 2))], (1, 0)), ([(F(5, 4), F(-1, 2))], (0, 1))),
    ],
)
def test_a_loop_through_the_other_loops_vertex_raises(first, second):
    """``_rotation_start``'s comparisons of the crossing point and the two
    least vertices tie only when one of them meets a vertex of the other
    loop mod the lattice; that contact raises before any splice, so strict
    and non-strict comparisons agree on every splice the bracket makes."""
    a, b = (StringCycle.from_loop(PLLoop(TORUS, *loop)) for loop in (first, second))
    with pytest.raises(TransversalityError, match="cross at a vertex or marked point"):
        string_bracket(a, b)


def test_each_splice_is_over_the_least_denominator(monkeypatch):
    """Every raw bracket term is reduced and closes up by the sum of the two closures.

    So the gcd and closure passes of ``_from_lift``, which the bracket
    skips, would change nothing. ``concatenate`` still runs them, on rows
    with no common factor to divide out.
    """
    rng = np.random.default_rng(15)
    stored, built = [], []
    bracket_terms, from_lift = strings._bracket_terms, PLLoop._from_lift.__func__

    def keep(*args):
        for term in bracket_terms(*args):
            stored.append(term)
            yield term

    def record(cls, space, den, pts):
        built.append(math.gcd(den, *(c for row in pts for c in row)))
        return from_lift(cls, space, den, pts)

    monkeypatch.setattr(strings, "_bracket_terms", keep)
    monkeypatch.setattr(PLLoop, "_from_lift", classmethod(record))
    splices = 0
    for _ in range(50):
        x, y = gen_random_loop(rng), gen_random_loop(rng)
        a, b = StringCycle.from_loop(x), StringCycle.from_loop(y)
        del stored[:]
        try:
            string_bracket(a, b)
            pts = intersections(x, y)
        except TransversalityError:
            continue
        closure = tuple(c + d for c, d in zip(x.closure, y.closure))
        for _, term_closure, den, rows in stored:
            assert math.gcd(den, *(c for row in rows for c in row)) == 1
            assert term_closure == closure
            assert tuple(b - a for a, b in zip(rows[0], rows[-1])) == tuple(den * c for c in closure)
        assert len(stored) == len(pts)
        splices += len(stored)
        for p in pts:
            concatenate(x, y, p)
    assert splices > 100 and len(built) == splices
    assert set(built) == {1}


def bracket_by_records(a, b):
    """{a; b} through the public routes: sorted records, validated splices, then ``canonical``."""
    return [
        (m * mb * p.sign, concatenate(x, y, p).canonical())
        for m, x in a.terms
        for mb, y in b.terms
        for p in intersections(x, y)
    ]


def test_the_bracket_splices_what_the_records_splice():
    """The bracket's raw (sign, term) multiset is that of ``intersections`` -> ``concatenate`` -> ``canonical``.

    On degenerate pairs both routes raise the same ``TransversalityError``
    text. Two terms of each bracket are fed back in, so longer loops over
    mixed denominators are spliced too.
    """
    rng = np.random.default_rng(16)
    compared = degenerate = fed_back = 0

    def compare(a, b):
        try:
            want = bracket_by_records(a, b)
        except TransversalityError as err:
            with pytest.raises(TransversalityError) as got:
                list(strings._bracket_terms(a, b))
            assert str(got.value) == str(err)
            return None
        got = list(strings._bracket_terms(a, b))
        assert sorted(got) == sorted((c, loop.closure, *loop.integer_lift()) for c, loop in want)
        assert string_bracket(a, b) == StringCycle(want)
        return StringCycle._of(got[:2])

    for _ in range(60):
        den = int(rng.choice([4, 128, 160]))
        cls = [tuple(int(x) for x in rng.integers(-3, 4, 2)) for _ in range(3)]
        loops = [grid_loop(rng, den, c) for c in cls]
        if any(loop is None for loop in loops):
            continue
        x, y, z = (StringCycle.from_loop(loop) for loop in loops)
        xy = compare(x, y)
        if xy is None:
            degenerate += 1
            continue
        compared += 1
        if not xy.is_zero:
            fed_back += compare(xy, z) is not None
    assert compared >= 20 and degenerate >= 5 and fed_back >= 10


# -- inherited crossings ----------------------------------------------------------


def compare_inherited(monkeypatch, x, y, z, counts):
    """``_inherited`` against ``_crossings`` on every term of {x; y} with every term of z.

    A term without an origin, whose start the splice did not find, inherits
    nothing and is skipped. Both routes give the same records in the same
    order, or raise the same text, and ``_crossings`` runs on the term
    exactly when one of its parent pairs raises. counts tallies the pairs
    by what the search gives, "inherited" records or a "degenerate"
    contact, and counts as "searched" those where ``_crossings`` ran on the
    term. A degenerate {x; y} compares nothing.
    """
    search = strings._crossings
    pair = lambda gamma, other: list(search(gamma, other))
    origins = {}
    try:
        inner = StringCycle._of(strings._bracket_terms(x, y, pair, origins))
    except TransversalityError:
        return
    searched = []
    monkeypatch.setattr(strings, "_crossings", lambda loop, other: searched.append(loop) or search(loop, other))
    try:
        for _, loop in inner.terms:
            origin = origins.get(loop.integer_lift())
            if origin is None:
                continue
            parents = origin[:2]
            for _, other in z.terms:
                want = crossings_or_error(lambda *p: list(search(*p)), loop, other)
                raised = any(isinstance(crossings_or_error(pair, gamma, other), str) for gamma in parents)
                del searched[:]
                got = crossings_or_error(lambda *p: list(strings._inherited(origins, pair, *p)), loop, other)
                assert got == want
                assert any(s is loop for s in searched) == raised
                counts["degenerate" if isinstance(want, str) else "inherited"] += 1
                counts["searched"] += raised
    finally:
        monkeypatch.undo()


def test_inherited_records_are_the_searched_ones(monkeypatch):
    """Random four-vertex triples, drawn as ``nested`` draws them, and coarse
    grid triples, which are often degenerate."""
    rng = np.random.default_rng(36)
    counts = dict.fromkeys(("inherited", "degenerate", "searched"), 0)
    for _ in range(40):
        a, b, c = (StringCycle.from_loop(gen_random_loop(rng)) for _ in range(3))
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            compare_inherited(monkeypatch, x, y, z, counts)
    assert counts["inherited"] > 250
    drawn = 0
    while drawn < 100:
        den = int(rng.choice([2, 4, 24]))
        loops = [grid_loop(rng, den, tuple(int(c) for c in rng.integers(-2, 3, 2))) for _ in range(3)]
        if any(loop is None for loop in loops):
            continue
        drawn += 1
        compare_inherited(monkeypatch, *(StringCycle.from_loop(loop) for loop in loops), counts)
    assert counts["inherited"] > 500 and counts["degenerate"] > 100
    # some degenerate pairs are the crossing point's, which raise without a search
    assert 0 < counts["searched"] < counts["degenerate"]


def test_a_triple_point_takes_the_search(monkeypatch):
    """z through the crossing point of x and y: each parent pair is transversal,
    the term's pair is not, and the inherited route raises the search's text
    without searching."""
    x, y, z = (
        StringCycle.from_loop(PLLoop(TORUS, [base], cls))
        for base, cls in (((0, F(1, 2)), (1, 0)), ((F(1, 4), 0), (0, 1)), ((0, F(1, 4)), (1, 1)))
    )
    # all three meet at (1/4, 1/2) and nowhere else
    for (_, gamma), (_, other) in itertools.combinations([x.terms[0], y.terms[0], z.terms[0]], 2):
        assert [p.sign for p in intersections(gamma, other)] in ([1], [-1])
    counts = dict.fromkeys(("inherited", "degenerate", "searched"), 0)
    compare_inherited(monkeypatch, x, y, z, counts)
    assert counts == {"inherited": 0, "degenerate": 1, "searched": 0}
    with pytest.raises(TransversalityError, match="vertex or marked point") as searched:
        list(strings._bracket_terms(string_bracket(x, y), z))
    with pytest.raises(TransversalityError) as got:
        jacobi_residual(x, y, z)
    assert str(got.value) == str(searched.value)


def test_a_term_whose_rotation_the_scan_decides_inherits(monkeypatch):
    """The first loop's two vertices coincide mod 1 and are least, so the
    token scan gives each term's rotation row. Neither term records an
    origin, and the outer bracket searches each one with z, as it searches
    an input loop: its records are ``_crossings``'."""
    x = StringCycle.from_loop(PLLoop(TORUS, [(F(1, 16), F(1, 16)), (F(17, 16), F(17, 16))], (2, 3)))
    y = StringCycle.from_loop(PLLoop(TORUS, [(F(1, 2), F(1, 4))], (0, 1)))
    z = StringCycle.from_loop(PLLoop(TORUS, [(0, F(3, 8))], (1, 0)))
    assert [scan for *_, scan in bracket_starts(monkeypatch, x, y)] == [True, True]
    counts = dict.fromkeys(("inherited", "degenerate", "searched"), 0)
    compare_inherited(monkeypatch, x, y, z, counts)
    assert counts == {"inherited": 0, "degenerate": 0, "searched": 0}
    origins = {}
    inner = StringCycle._of(strings._bracket_terms(x, y, None, origins))
    assert len(inner.terms) == 2 and origins == {}
    searched = []
    pair = lambda loop, other: searched.append(loop) or list(strings._crossings(loop, other))
    got = list(strings._bracket_terms(inner, z, pair, origins))
    assert [id(loop) for loop in searched] == [id(loop) for _, loop in inner.terms]
    assert got and got == list(strings._bracket_terms(inner, z))


def test_jacobi_searches_each_pair_of_input_loops_once(monkeypatch):
    """The six ordered pairs of input loops are each searched at most once,
    and only they: the inner brackets and the parents of the outer terms
    share them, and no inner term whose start the splice found is searched.
    None of these draws has a tied inner term, which would be."""
    rng = np.random.default_rng(37)
    search = strings._crossings
    searched = []
    monkeypatch.setattr(strings, "_crossings", lambda loop, other: searched.append((loop, other)) or search(loop, other))
    full = 0
    for _ in range(20):
        a, b, c = (StringCycle.from_loop(gen_random_loop(rng)) for _ in range(3))
        del searched[:]
        try:
            jacobi_residual(a, b, c)
        except TransversalityError:
            continue
        loops = [cycle.terms[0][1] for cycle in (a, b, c)]
        pairs = {(gamma, other) for gamma in loops for other in loops if gamma is not other}
        assert len(searched) == len(set(searched)) and set(searched) <= pairs
        full += len(searched) == 6
    assert full >= 10


def test_each_least_vertex_read_off_a_splice_is_the_scans():
    """An inner term whose start the splice found records its ``_alone``:
    row 0 of its rows is held by no other vertex when the start is a loop's
    vertex 0, and by the crossing point's other copy when it is that point.
    A tie records no origin."""
    rng = np.random.default_rng(391)
    read = dict.fromkeys((True, False), 0)
    for _ in range(40):
        cycles = [StringCycle.from_loop(gen_random_loop(rng)) for _ in range(3)]
        for x, y in itertools.combinations(cycles, 2):
            origins = {}
            try:
                inner = StringCycle._of(strings._bracket_terms(x, y, None, origins))
            except TransversalityError:
                continue
            for _, loop in inner.terms:
                alone = origins[loop.integer_lift()][-1]
                assert alone == strings._alone(loop)
                read[alone] += 1
    assert read[True] > 100 and read[False] > 20, read
    # a tie: both vertices of x are (1/16, 1/16) mod 1
    x = StringCycle.from_loop(PLLoop(TORUS, [(F(1, 16), F(1, 16)), (F(17, 16), F(17, 16))], (2, 3)))
    y = StringCycle.from_loop(PLLoop(TORUS, [(F(1, 2), F(1, 4))], (0, 1)))
    origins = {}
    inner = StringCycle._of(strings._bracket_terms(x, y, None, origins))
    assert len(inner.terms) == 2 and origins == {}


def test_a_cancelling_jacobi_builds_loops_for_its_inner_brackets_only(monkeypatch):
    """The outer terms of a Jacobi chain that cancels stay integer rows: the
    only loops stored are the kept terms of the three inner brackets."""
    rng = np.random.default_rng(392)
    store = PLLoop._store
    stores = []
    checked = outer = 0
    for _ in range(20):
        a, b, c = (StringCycle.from_loop(gen_random_loop(rng)) for _ in range(3))
        try:
            inners = [(string_bracket(x, y), z) for x, y, z in ((a, b, c), (b, c, a), (c, a, b))]
            raw = sum(len(list(strings._bracket_terms(xy, z))) for xy, z in inners)
            with monkeypatch.context() as patch:
                patch.setattr(PLLoop, "_store", lambda self, *args: stores.append(1) or store(self, *args))
                del stores[:]
                residual = jacobi_residual(a, b, c)
        except TransversalityError:
            continue
        assert residual.is_zero
        assert len(stores) == sum(len(xy.terms) for xy, _ in inners)
        checked += 1
        outer += raw
    assert checked >= 15 and outer > 500


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
    assert StringCycle(br.terms + string_bracket(abar, a).terms).is_zero


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


def test_integer_goldman_oracle_matches_the_fraction_route():
    # every class pair that the suite's goldman check draws from, [-3, 3]^2
    classes = list(itertools.product(range(-3, 4), repeat=2))
    for c1, c2 in itertools.product(classes, repeat=2):
        assert goldman_torus(c1, c2) == goldman_torus_fraction(c1, c2), (c1, c2)


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


def unsigned_crossings(monkeypatch):
    """Every crossing weighted +1, in ``_crossings`` and ``_inherited`` alike,
    since both test through ``_contact``: Jacobi's chain no longer cancels."""
    contact = strings._contact

    def unsigned(*segments):
        found = contact(*segments)
        return found if found is None else (*found[:5], 1, *found[6:])

    monkeypatch.setattr(strings, "_contact", unsigned)


@pytest.mark.parametrize("variant", ["unsigned-crossings", "first-crossing"])
def test_an_uncancelled_jacobi_chain_is_its_outer_brackets_summed(monkeypatch, variant):
    """The one combine of the raw outer terms is the sum of the outer cycles, term for term.

    Unsigned, the outer brackets are the public ``string_bracket(string_bracket(x, y), z)``.
    Under ``first-crossing`` every term is spliced at its pair's first
    crossing, not at the record its origin keeps, so its inherited
    crossings are not a fresh search's; there each outer bracket is formed
    as Jacobi forms it, from the recorded origins, and combined on its own.
    """
    (unsigned_crossings if variant == "unsigned-crossings" else first_crossing)(monkeypatch)
    rng = np.random.default_rng(393)
    checked = 0
    for _ in range(20):
        a, b, c = (StringCycle.from_loop(gen_random_loop(rng)) for _ in range(3))
        try:
            got = jacobi_residual(a, b, c)
            summed = []
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                if variant == "unsigned-crossings":
                    summed += string_bracket(string_bracket(x, y), z).terms
                else:
                    origins = {}
                    inner = StringCycle._of(strings._bracket_terms(x, y, None, origins))
                    summed += StringCycle._of(strings._bracket_terms(inner, z, None, origins)).terms
        except TransversalityError:
            continue
        assert chain_terms(got) == chain_terms(StringCycle(summed))
        checked += not got.is_zero
    assert checked >= 10, checked


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
    # the bracket's terms through the Fraction oracles, and the input loops normalized by rotations
    monkeypatch.setattr(strings, "_bracket_terms", bracket_terms_fraction)
    monkeypatch.setattr(strings, "_least_lift", least_lift_rotations)
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
