"""Tests for spaces, PL loops, and variation fields."""

from __future__ import annotations

from fractions import Fraction

import pytest

from stringtop.geometry import (
    Chart,
    PLLoop,
    Torus,
    VariationField,
)

F = Fraction


def unit_square_loop(space=None):
    if space is None:
        space = Chart(2)
    return PLLoop(space, [(0, 0), (1, 0), (1, 1), (0, 1)])


def test_dimension_validation():
    with pytest.raises(ValueError, match="at least 2"):
        Chart(1)
    with pytest.raises(ValueError, match="at least 2"):
        Torus(1)


def test_chart_loops_must_close():
    with pytest.raises(ValueError, match="zero closure"):
        PLLoop(Chart(2), [(0, 0), (1, 0)], closure=(1, 0))


def test_constant_loops_are_rejected():
    with pytest.raises(ValueError, match="coincide"):
        PLLoop(Chart(2), [(0, 0), (0, 0), (1, 1)])
    with pytest.raises(ValueError, match="coincide"):
        PLLoop(Torus(2), [(F(1, 2), F(1, 2))], closure=(0, 0))


def test_straight_torus_line_with_one_segment():
    loop = PLLoop(Torus(2), [(0, 0)], closure=(1, 2))
    assert loop.num_segments == 1
    assert loop.point_at(F(1, 2)) == (F(1, 2), F(1))
    assert loop.lattice_class() == (1, 2)


def test_uniform_parametrization_is_exact():
    loop = unit_square_loop()
    assert loop.point_at(F(0)) == (0, 0)
    assert loop.point_at(F(1, 8)) == (F(1, 2), 0)
    assert loop.point_at(F(1, 4)) == (1, 0)
    assert loop.point_at(F(5, 8)) == (F(1, 2), 1)
    assert loop.point_at(F(1)) == (0, 0)


def test_segment_velocity_scale():
    """Velocity is K times the edge vector, constant on each segment."""
    loop = unit_square_loop()
    assert loop.segment_velocity(0) == (4, 0)
    assert loop.segment_velocity(2) == (-4, 0)
    assert loop.velocity_at(F(1, 8)) == (4, 0)
    assert loop.velocity_at(F(7, 8)) == (0, -4)


def test_lift_vertices_extend_by_closure():
    loop = PLLoop(Torus(2), [(0, 0), (F(1, 2), F(1, 3))], closure=(1, 0))
    assert loop.vertex(2) == (1, 0)
    assert loop.vertex(3) == (F(3, 2), F(1, 3))
    assert loop.vertex(-1) == (F(-1, 2), F(1, 3))


def test_rotation_preserves_geometry():
    loop = unit_square_loop()
    rot = loop.rotate_marked(2)
    assert rot.vertices[0] == (1, 1)
    assert rot.same_loop(loop)
    assert rot.point_at(F(1, 8)) == loop.point_at(F(5, 8))


def test_rotation_past_wrap_on_torus_is_same_loop():
    loop = PLLoop(
        Torus(2), [(0, 0), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 2))], closure=(1, 1)
    )
    for k in range(1, 3):
        assert loop.rotate_marked(k).same_loop(loop)


def test_translated_torus_loop_by_lattice_vector_is_same_loop():
    loop = PLLoop(Torus(2), [(0, 0), (F(1, 2), F(1, 4))], closure=(1, 0))
    moved = loop.translate((2, -1))
    assert moved.same_loop(loop)
    shifted = loop.translate((F(1, 3), 0))
    assert not shifted.same_loop(loop)


def test_reverse_flips_class_and_geometry():
    loop = PLLoop(Torus(2), [(0, 0), (F(1, 2), F(1, 4))], closure=(1, 0))
    rev = loop.reverse()
    assert rev.lattice_class() == (-1, 0)
    assert rev.point_at(F(1, 4)) == tuple(
        a - b for a, b in zip(loop.point_at(F(3, 4)), (1, 0))
    )
    assert rev.reverse().same_loop(loop)


def test_variation_interpolates_and_deforms():
    loop = unit_square_loop()
    var = VariationField.from_displacements(
        loop, [(1, 0), (0, 0), (0, 0), (0, 0)]
    )
    assert var.value_at(F(0)) == (1, 0)
    assert var.value_at(F(1, 8)) == (F(1, 2), 0)
    assert var.value_at(F(1, 4)) == (0, 0)
    # displacement of vertex 0 also moves the far endpoint of the last segment
    assert var.value_at(F(7, 8)) == (F(1, 2), 0)
    moved = var.deform(F(1, 100))
    assert moved.vertices[0] == (F(1, 100), 0)
    assert moved.vertices[1] == (1, 0)
    assert moved.closure == loop.closure


def test_tangent_variation_matches_velocity():
    loop = unit_square_loop()
    var = VariationField.tangent(loop)
    assert var.value_at(F(1, 8)) == loop.velocity_at(F(1, 8))
    with pytest.raises(ValueError, match="cannot deform"):
        var.deform(F(1, 10))


def test_constant_variation_translates():
    loop = unit_square_loop()
    var = VariationField.constant(loop, (F(1, 2), F(1, 3)))
    moved = var.deform(F(1))
    assert moved.vertices[2] == (F(3, 2), F(4, 3))
