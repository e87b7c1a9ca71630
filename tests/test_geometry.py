"""Tests for spaces, PL loops, and variation fields."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    normal_form_rotations,
    reverse_fraction,
    rotate_marked_fraction,
    segment_of,
    segment_velocity,
    subdivide_segment_fraction,
    variation_value_at,
    velocity_at,
)
from stringtop.geometry import (
    PLLoop,
    Torus,
    VariationField,
    _least_lift,
    least_rotation,
)

F = Fraction


def unit_square_loop():
    return PLLoop(Torus(2), [(0, 0), (1, 0), (1, 1), (0, 1)], closure=(0, 0))


def test_dimension_validation():
    for d in (1, 3):
        with pytest.raises(ValueError, match="must be 2"):
            Torus(d)
    with pytest.raises(TypeError):
        Torus(2, kind="chart")


def test_closure_must_be_integral():
    with pytest.raises(ValueError, match="not integral"):
        PLLoop(Torus(2), [(0, 0), (F(1, 2), F(1, 3))], closure=(0.5, 1.9))
    with pytest.raises(ValueError, match="not integral"):
        PLLoop(Torus(2), [(0, 0)], closure=(F(1, 2), 1))
    for closure in [(np.int64(1), np.int32(-2)), (1.0, -2), (F(1), -2.0)]:
        loop = PLLoop(Torus(2), [(0, 0), (F(1, 2), F(1, 3))], closure=closure)
        assert loop.closure == (1, -2) and all(type(c) is int for c in loop.closure)


def test_constant_loops_are_rejected():
    with pytest.raises(ValueError, match="coincide"):
        PLLoop(Torus(2), [(0, 0), (0, 0), (1, 1)])
    with pytest.raises(ValueError, match="coincide"):
        PLLoop(Torus(2), [(F(1, 2), F(1, 2))], closure=(0, 0))


def test_straight_torus_line_with_one_segment():
    loop = PLLoop(Torus(2), [(0, 0)], closure=(1, 2))
    assert loop.num_segments == 1
    assert loop.point_at(F(1, 2)) == (F(1, 2), F(1))
    assert loop.closure == (1, 2)


def test_uniform_parametrization_is_exact():
    loop = unit_square_loop()
    assert loop.point_at(F(0)) == (0, 0)
    assert loop.point_at(F(1, 8)) == (F(1, 2), 0)
    assert loop.point_at(F(1, 4)) == (1, 0)
    assert loop.point_at(F(5, 8)) == (F(1, 2), 1)
    assert loop.point_at(F(1)) == (0, 0)


def test_parameters_and_coordinates_are_fractions_or_ints_only():
    # 0.1 is not 1/10 in binary, so no route may read a float as a rational
    loop = unit_square_loop()
    assert loop.point_at(1) == loop.point_at(F(1)) == (0, 0)
    assert loop.lift_point(0) == loop.lift_point(F(0))
    for bad in (0.1, "1/10"):
        for read in (loop.point_at, loop.lift_point, VariationField(loop, [(0, 0)] * 4).deform):
            with pytest.raises(TypeError, match="Fraction or an int"):
                read(bad)
        with pytest.raises(TypeError, match="Fraction or an int"):
            loop.subdivide_segment(0, bad)
        with pytest.raises(TypeError, match="Fraction or an int"):
            PLLoop(Torus(2), [(bad, 0)], closure=(1, 0))


def test_segment_velocity_scale():
    """Velocity is K times the edge vector, constant on each segment."""
    loop = unit_square_loop()
    assert segment_velocity(loop, 0) == (4, 0)
    assert segment_velocity(loop, 2) == (-4, 0)
    assert velocity_at(loop, F(1, 8)) == (4, 0)
    assert velocity_at(loop, F(7, 8)) == (0, -4)
    assert [loop.edge(i) for i in (0, 2, 3)] == [(1, 0), (-1, 0), (0, -1)]


def test_lift_vertices_extend_by_closure():
    loop = PLLoop(Torus(2), [(0, 0), (F(1, 2), F(1, 3))], closure=(1, 0))
    assert loop.vertex(2) == (1, 0)
    assert loop.vertex(3) == (F(3, 2), F(1, 3))
    assert loop.vertex(-1) == (F(-1, 2), F(1, 3))


def test_rotation_preserves_geometry():
    loop = unit_square_loop()
    rot = loop.rotate_marked(2)
    assert rot.vertices[0] == (1, 1)
    assert rot.normal_form() == loop.normal_form()
    assert rot.point_at(F(1, 8)) == loop.point_at(F(5, 8))


def test_rotation_past_wrap_on_torus_is_same_loop():
    loop = PLLoop(
        Torus(2), [(0, 0), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 2))], closure=(1, 1)
    )
    for k in range(1, 3):
        assert loop.rotate_marked(k).normal_form() == loop.normal_form()


def test_translated_torus_loop_by_lattice_vector_is_same_loop():
    loop = PLLoop(Torus(2), [(0, 0), (F(1, 2), F(1, 4))], closure=(1, 0))
    moved = PLLoop(Torus(2), [(x + 2, y - 1) for x, y in loop.vertices], loop.closure)
    assert moved.normal_form() == loop.normal_form()
    shifted = PLLoop(Torus(2), [(x + F(1, 3), y) for x, y in loop.vertices], loop.closure)
    assert shifted.normal_form() != loop.normal_form()


def test_reverse_flips_class_and_geometry():
    loop = PLLoop(Torus(2), [(0, 0), (F(1, 2), F(1, 4))], closure=(1, 0))
    rev = loop.reverse()
    assert rev.closure == (-1, 0)
    assert rev.point_at(F(1, 4)) == tuple(
        a - b for a, b in zip(loop.point_at(F(3, 4)), (1, 0))
    )
    assert rev.reverse().normal_form() == loop.normal_form()


def test_variation_interpolates_and_deforms():
    loop = unit_square_loop()
    var = VariationField.from_displacements(
        loop, [(1, 0), (0, 0), (0, 0), (0, 0)]
    )
    assert variation_value_at(var, F(0)) == (1, 0)
    assert variation_value_at(var, F(1, 8)) == (F(1, 2), 0)
    assert variation_value_at(var, F(1, 4)) == (0, 0)
    # displacement of vertex 0 also moves the far endpoint of the last segment
    assert variation_value_at(var, F(7, 8)) == (F(1, 2), 0)
    moved = var.deform(F(1, 100))
    assert moved.vertices[0] == (F(1, 100), 0)
    assert moved.vertices[1] == (1, 0)
    assert moved.closure == loop.closure


def test_constant_variation_translates():
    loop = unit_square_loop()
    var = VariationField.from_displacements(loop, [(F(1, 2), F(1, 3))] * loop.num_segments)
    moved = var.deform(F(1))
    assert moved.vertices[2] == (F(3, 2), F(4, 3))


# -- the integer lift and the least-rotation normal form ----------------------------


def random_loop(rng, dens, cls=(0, 0), k_max=6, span=6):
    """A loop with 1..k_max vertices in [-span, span]^2 over the given denominators."""
    while True:
        k = int(rng.integers(1, k_max + 1))
        verts = [
            tuple(F(int(rng.integers(-span * den, span * den + 1)), den) for den in map(int, rng.choice(dens, 2)))
            for _ in range(k)
        ]
        try:
            return PLLoop(Torus(2), verts, closure=cls)
        except ValueError:
            continue


def cover(loop, m):
    """The loop run m times: vertex pattern repeated, shifted by the closure each time."""
    verts = [
        tuple(c + j * w for c, w in zip(p, loop.closure)) for j in range(m) for p in loop.vertices
    ]
    return PLLoop(loop.space, verts, tuple(m * w for w in loop.closure))


def test_least_rotation_matches_brute_force():
    rng = np.random.default_rng(40)
    assert least_rotation(()) == 0 and least_rotation([]) == 0
    seqs = [[3] * n for n in range(1, 6)] + [[1, 0] * n for n in range(1, 5)] + [[0, 2] * n for n in range(1, 5)]
    for _ in range(500):
        seq = [int(x) for x in rng.integers(0, 3, int(rng.integers(1, 13)))]
        if rng.random() < 0.3:
            seq = seq[: max(1, len(seq) // 3)] * 3
        seqs.append(seq)
    for seq in seqs:
        for cand in (seq, tuple(seq)):
            r = least_rotation(cand)
            assert cand[r:] + cand[:r] == min(cand[i:] + cand[:i] for i in range(len(cand)))


def test_integer_lift_is_the_lift_over_the_common_denominator():
    loop = PLLoop(Torus(2), [(F(-1, 3), 0), (F(1, 2), F(5, 4))], closure=(2, -1))
    den, pts = loop.integer_lift()
    assert den == 12
    assert pts == ((-4, 0), (6, 15), (20, -12))
    assert [tuple(F(c, den) for c in p) for p in pts] == [loop.vertex(i) for i in range(3)]
    assert loop.integer_lift() is loop.integer_lift()


def test_normal_form_matches_rotation_oracle_on_random_torus_loops():
    rng = np.random.default_rng(41)
    for _ in range(200):
        cls = tuple(int(x) for x in rng.integers(-3, 4, 2))
        loop = random_loop(rng, [160], cls)
        assert loop.normal_form() == normal_form_rotations(loop)


def test_normal_form_matches_rotation_oracle_on_mixed_denominators():
    rng = np.random.default_rng(42)
    for _ in range(200):
        cls = tuple(int(x) for x in rng.integers(-3, 4, 2))
        loop = random_loop(rng, [1, 3, 128], cls, span=2)
        assert loop.normal_form() == normal_form_rotations(loop)
    # 1/3 next to 1/128, negative coordinates, a vertex exactly on the lattice
    loop = PLLoop(Torus(2), [(F(-1, 3), F(-5, 128)), (F(-1, 128), F(1, 3)), (-1, 2)], closure=(-1, 1))
    assert loop.normal_form() == normal_form_rotations(loop)


def test_normal_form_matches_rotation_oracle_on_contractible_loops():
    # class (0, 0): loops that close up without winding, spanning several cells
    rng = np.random.default_rng(43)
    for _ in range(200):
        loop = random_loop(rng, [1, 4, 7])
        assert loop.normal_form() == normal_form_rotations(loop)


def test_normal_form_of_periodic_loops_breaks_ties_like_the_oracle():
    rng = np.random.default_rng(44)
    for cls in [(1, 0), (-1, 2), (0, 0)]:
        for _ in range(30):
            base = random_loop(rng, [4], cls, k_max=4, span=1)
            for m in (2, 3):
                loop = cover(base, m)
                # rotations by a multiple of the base length tie
                nf = loop.normal_form()
                assert nf == normal_form_rotations(loop)
                assert loop.rotate_marked(base.num_segments).normal_form() == nf


def test_canonical_loops_are_their_own_normal_form():
    loop = PLLoop(Torus(2), [(F(5, 4), F(-1, 2)), (F(3, 2), 0), (F(1, 4), F(1, 3))], closure=(0, 1))
    nf = loop.normal_form()
    canon = loop.canonical()
    assert (canon.vertices, canon.closure) == nf
    assert normal_form_rotations(canon) == canon.normal_form() == nf


def test_a_loop_from_a_lift_is_reduced_and_validated():
    ref = PLLoop(Torus(2), [(F(-1, 3), 0), (F(1, 2), F(5, 4))], closure=(2, -1))
    # the same lift over 24 instead of 12
    loop = PLLoop._from_lift(Torus(2), 24, ((-8, 0), (12, 30), (40, -24)))
    assert loop.integer_lift() == ref.integer_lift() == (12, ((-4, 0), (6, 15), (20, -12)))
    assert loop._vertices is None
    assert (loop.num_segments, loop.closure) == (2, (2, -1))
    assert loop.vertices == ref.vertices and loop.vertices is loop.vertices
    assert loop.normal_form() == ref.normal_form()
    with pytest.raises(ValueError, match="not integral"):
        PLLoop._from_lift(Torus(2), 4, ((0, 0), (1, 2), (2, 2)))
    with pytest.raises(ValueError, match="coincide"):
        PLLoop._from_lift(Torus(2), 4, ((0, 0), (1, 2), (1, 2), (4, 0)))
    with pytest.raises(ValueError, match="coincide"):
        PLLoop._from_lift(Torus(2), 4, ((1, 3), (1, 3)))


def test_canonical_loops_have_the_lift_of_the_constructor():
    rng = np.random.default_rng(45)
    for random_class, dens in [(True, [1, 3, 128]), (True, [160]), (False, [1, 4, 7])]:
        for _ in range(100):
            cls = tuple(int(x) for x in rng.integers(-3, 4, 2)) if random_class else (0, 0)
            canon = random_loop(rng, dens, cls).canonical()
            assert canon.integer_lift() == PLLoop(Torus(2), canon.vertices, canon.closure).integer_lift()
            assert normal_form_rotations(canon) == (canon.vertices, canon.closure)


def test_a_loop_from_a_scaled_lift_is_the_constructed_loop():
    rng = np.random.default_rng(46)
    for _ in range(100):
        cls = tuple(int(x) for x in rng.integers(-3, 4, 2))
        ref = random_loop(rng, [1, 3, 128], cls, span=2)
        den, pts = ref.integer_lift()
        loop = PLLoop._from_lift(Torus(2), 2 * den, tuple(tuple(2 * c for c in p) for p in pts))
        k = ref.num_segments
        assert loop.integer_lift() == ref.integer_lift()
        assert (loop.vertices, loop.closure) == (ref.vertices, ref.closure)
        assert [loop.vertex(i) for i in range(-k, 2 * k + 1)] == [ref.vertex(i) for i in range(-k, 2 * k + 1)]
        for t in [F(0), F(1)] + [F(int(rng.integers(0, q + 1)), q) for q in map(int, rng.integers(1, 50, 8))]:
            assert segment_of(loop, t) == segment_of(ref, t)
            assert loop.point_at(t) == ref.point_at(t)
            assert loop.lift_point(t) == ref.lift_point(t)
            lden, x = loop.lift_point(t)
            assert tuple(F(c, lden) for c in x) == ref.point_at(t)
        assert loop.normal_form() == ref.normal_form() == normal_form_rotations(ref)
        assert loop.canonical().integer_lift() == ref.canonical().integer_lift()


def test_transformations_on_the_lift_match_the_fraction_oracles():
    rng = np.random.default_rng(47)
    for _ in range(100):
        cls = tuple(int(x) for x in rng.integers(-3, 4, 2))
        loop = random_loop(rng, [1, 3, 128], cls, span=2)
        k = loop.num_segments
        for r in range(-1, k + 1):
            assert loop.rotate_marked(r).integer_lift() == rotate_marked_fraction(loop, r).integer_lift()
        assert loop.reverse().integer_lift() == reverse_fraction(loop).integer_lift()
        for i in range(k):
            u = F(int(rng.integers(1, 8)), 8) if rng.random() < 0.5 else F(1, 3)
            got = loop.subdivide_segment(i, u)
            assert got.integer_lift() == subdivide_segment_fraction(loop, i, u).integer_lift()
            assert got.normal_form() != loop.normal_form() and got.num_segments == k + 1


def test_canonical_stores_the_least_lift_that_from_lift_validates():
    """``canonical`` skips the gcd and closure passes; a validated build agrees."""
    rng = np.random.default_rng(48)
    for span in (1, 6, 10**6):
        for _ in range(40):
            cls = tuple(int(x) for x in rng.integers(-3, 4, 2)) if rng.random() < 0.8 else (0, 0)
            loop = random_loop(rng, [1, 3, 7, 128], cls, span=span)
            k = loop.num_segments
            u = F(int(rng.integers(1, 9)), 9)
            for v in (loop, loop.reverse(), loop.rotate_marked(int(rng.integers(1, k + 1))), loop.subdivide_segment(int(rng.integers(0, k)), u)):
                canon = v.canonical()
                ref = PLLoop._from_lift(Torus(2), *_least_lift(*v.integer_lift(), v.closure))
                assert canon.integer_lift() == ref.integer_lift()
                assert (canon.vertices, canon.closure) == (ref.vertices, ref.closure) == normal_form_rotations(v)
                assert canon.canonical().integer_lift() == canon.integer_lift()
                rebuilt = PLLoop(Torus(2), canon.vertices, canon.closure)
                assert rebuilt.canonical().integer_lift() == canon.integer_lift()
