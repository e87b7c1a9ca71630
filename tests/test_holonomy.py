"""Tests for plain/generalized transport and insertions."""

from __future__ import annotations

import collections
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from stringtop import fields, holonomy
from stringtop.fields import (
    ConstantCommutingConnection,
    FieldConfig,
    FourierField,
    field_obstruction,
)
from stringtop.geometry import PLLoop, Torus, VariationField
from stringtop.grassmann import GradedCoefficient
from stringtop.harness import gen_random_loop, gen_transport_ode, transport_by_pieces
from stringtop.holonomy import (
    DEFAULT_PLAN,
    QuadratureError,
    TransportPlan,
    extract_leg_coefficient,
    gen_transport,
    insertion_derivative,
    transport,
    wilson,
    wilsons,
)
from stringtop.lierep import SuperMatrix
from stringtop.strings import TransversalityError, concatenate, intersections

from oracles import (
    constant_field,
    epsilon_config,
    epsilon_part,
    exp_series,
    gen_transport_stepwise,
    insertion_derivative_epsilon_stepwise,
    insertion_derivative_stepwise,
    matrix_unit,
    segment_velocity,
    variation_value_at,
)

F = Fraction
TORUS = Torus(2)


def wiggly_loop():
    return PLLoop(
        TORUS,
        [(0, 0), (F(2, 5), F(1, 10)), (F(1, 2), F(3, 5)), (F(1, 10), F(4, 5))],
        closure=(1, 1),
    )


def diag_connection():
    return ConstantCommutingConnection(
        [np.diag([0.2 + 0j, -0.1]), np.diag([-0.3 + 0j, 0.15])]
    )


def mixed_config(n_theta=2):
    """One body-level 1-form and one theta-pair 1-form; odd parity throughout."""
    return FieldConfig.build(
        TORUS,
        2,
        n_theta,
        [
            {
                "indices": (1,),
                "field": FourierField.from_dict(2, {(1, 0): 0.4, (0, 1): 0.2j}),
                "lie": matrix_unit(2, 1, 2),
            },
            {
                "indices": (2,),
                "eps": (1, 2),
                "field": FourierField.from_dict(2, {(0, 1): 0.3}),
                "lie": matrix_unit(2, 2, 1),
            },
        ],
        expect_parity=1,
    )


@functools.lru_cache(maxsize=None)
def reference_transport():
    return gen_transport(
        diag_connection(),
        mixed_config(),
        wiggly_loop(),
        plan=TransportPlan(steps=512),
    )


@functools.lru_cache(maxsize=None)
def default_transport():
    return gen_transport(diag_connection(), mixed_config(), wiggly_loop())


def single_grid(evaluate, plan, count=1):
    """The plan's coarse grid alone for each value, without the Richardson level."""
    return evaluate([(i, plan.steps) for i in range(count)])


@pytest.fixture
def one_grid(monkeypatch):
    """Transports evaluate ``plan.steps`` steps per segment and nothing else,
    the discretization that the stepwise oracles take."""
    monkeypatch.setattr(holonomy, "_with_richardson", single_grid)


# -- plain transport -----------------------------------------------------------


def test_plain_transport_closed_forms():
    conn = diag_connection()
    line = PLLoop(TORUS, [(0, 0)], closure=(2, 1))
    expected = expm(2 * conn.mats[0] + conn.mats[1])
    assert np.max(np.abs(transport(conn, line) - expected)) <= 1e-13
    # commuting factors telescope along any representative of the class
    expected = expm(conn.mats[0] + conn.mats[1])
    assert np.max(np.abs(transport(conn, wiggly_loop()) - expected)) <= 1e-12


def test_plain_transport_composes_exactly_off_grid():
    conn = diag_connection()
    loop = wiggly_loop()
    u_full = transport(conn, loop)
    u_split = transport(conn, loop, F(0), F(1, 3)) @ transport(conn, loop, F(1, 3), F(1))
    assert np.max(np.abs(u_split - u_full)) <= 1e-13


def test_single_exponential_matches_the_ordered_product_over_pieces():
    # the per-piece product is the holonomy check's oracle; concatenations
    # are built from an integer lift and form their Fraction vertices lazily
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 6:
        n = 1 + checked % 3
        conn = random_connection(n, rng)
        a = gen_random_loop(rng, (1, 0))
        b = gen_random_loop(rng, (int(rng.integers(-1, 2)), 1))
        try:
            pts = intersections(a, b)
        except TransversalityError:
            continue
        for p in pts[:2]:
            cat = concatenate(a, b, p)
            u = transport(conn, cat)
            scale = max(1.0, float(np.max(np.abs(u))))
            assert np.max(np.abs(u - transport_by_pieces(conn, cat))) <= 1e-13 * scale
            # off-grid s < t: denominators coprime to the segment count
            k = cat.num_segments
            s = F(int(rng.integers(0, 6 * k + 1)), 6 * k + 1)
            t = s + (1 - s) * F(int(rng.integers(1, 10)), 11)
            part = transport(conn, cat, s, t)
            assert np.max(np.abs(part - transport_by_pieces(conn, cat, s, t))) <= 1e-13 * scale
            assert np.array_equal(transport(conn, cat, t, t), np.eye(n))
        checked += 1


def test_transport_parameter_validation():
    conn, loop = diag_connection(), wiggly_loop()
    # a span runs forward on the periodic lift, from an s in [0, 1] at most one lap
    for s, t in ((F(1, 2), F(1, 4)), (F(1, 4), F(5, 4) + F(1, 100)), (F(5, 4), F(3, 2)), (F(-1, 4), F(1, 4))):
        with pytest.raises(ValueError, match="0 <= s <= 1 and s <= t <= s \\+ 1"):
            transport(conn, loop, s, t)
    # parameters are read as the loop reads them: exact, Fraction or int
    assert np.array_equal(transport(conn, loop, 0, 1), transport(conn, loop))
    routes = (
        lambda s: transport(conn, loop, s),
        lambda t: transport(conn, loop, F(1, 2), t),
    )
    for route in routes:
        with pytest.raises(TypeError, match="Fraction or an int"):
            route(0.1)


def test_the_span_check_on_integers_accepts_what_the_fraction_predicate_does():
    # every s and t with denominators up to 12 in [-1, 3], so s = 0 and 1,
    # t = s and t = s + 1 are all on the grid
    conn, loop = diag_connection(), wiggly_loop()
    grid = sorted({F(p, q) for q in range(1, 13) for p in range(-q, 3 * q + 1)})
    accepted = 0
    for s in grid:
        for t in grid:
            if 0 <= s <= 1 and s <= t <= s + 1:
                transport(conn, loop, s, t)
                accepted += 1
            else:
                with pytest.raises(ValueError) as err:
                    transport(conn, loop, s, t)
                assert str(err.value) == "need 0 <= s <= 1 and s <= t <= s + 1"
    assert accepted > 1000


def test_walk_floats_are_the_floats_of_the_exact_vertices():
    # int/int quotients and float(Fraction) are both correctly rounded; the
    # subdivided loops have five segments, so 1 / K is not a binary fraction
    rng = np.random.default_rng(13)
    for _ in range(20):
        loop = gen_random_loop(rng, (int(rng.integers(-2, 3)), int(rng.integers(-2, 3))))
        for loop in (loop, loop.subdivide_segment(int(rng.integers(0, 4)), F(int(rng.integers(1, 7)), 7))):
            var = vertex_variation(loop)
            walk = holonomy._Walk(loop, [var])
            k = loop.num_segments
            assert walk.starts.tolist() == [[float(c) for c in loop.vertex(i)] for i in range(k)]
            assert walk.vels.tolist() == [[float(c) for c in segment_velocity(loop, i)] for i in range(k)]
            assert walk.leg_starts.tolist() == [[[float(c) for c in variation_value_at(var, F(i, k))]] for i in range(k)]


def test_transport_past_one_is_the_hop_over_the_marked_point():
    rng = np.random.default_rng(12)
    loop = wiggly_loop()
    for n in (1, 2, 3):
        conn = random_connection(n, rng)
        for s, t in ((F(5, 7), F(1, 9)), (F(1, 3), F(1, 3)), (F(1), F(0)), (F(2, 3), F(0))):
            two = transport(conn, loop, s, F(1)) @ transport(conn, loop, F(0), t)
            assert np.max(np.abs(transport(conn, loop, s, t + 1) - two)) <= 1e-13
    # from s over the marked point back to s is the whole loop
    assert np.max(np.abs(transport(conn, loop, F(1, 3), F(4, 3)) - transport(conn, loop))) <= 1e-13


def test_the_lap_from_s_is_the_holonomy_based_at_s():
    # U(s, s + 1) = U(s, 1) U(0, s): conjugate to the holonomy at the marked point
    rng = np.random.default_rng(14)
    for n in (1, 2, 3):
        conn = random_connection(n, rng)
        loop = gen_random_loop(rng)
        k = loop.num_segments
        for s in (F(0), F(1, 3), F(2, k), F(int(rng.integers(1, 7 * k)), 7 * k), F(1)):
            lap = transport(conn, loop, s, s + 1)
            split = transport(conn, loop, s, F(1)) @ transport(conn, loop, F(0), s)
            scale = max(1.0, float(np.max(np.abs(split))))
            assert np.max(np.abs(lap - split)) <= 1e-13 * scale
            assert abs(np.trace(lap) - np.trace(transport(conn, loop))) <= 1e-13 * scale * n


# -- generalized transport ------------------------------------------------------


def test_gen_transport_without_field_matches_plain():
    # the steps of a constant K multiply to exp(A(delta x)) up to rounding
    conn = diag_connection()
    loop = wiggly_loop()
    u_gen = gen_transport(conn, FieldConfig(TORUS, 2, 0, ()), loop)
    assert u_gen.n_gen == 0
    assert np.max(np.abs(u_gen.components[0] - transport(conn, loop))) <= 1e-13


def test_zero_form_terms_do_not_enter_transports():
    conn = diag_connection()
    loop = wiggly_loop()
    cfg = FieldConfig.build(
        TORUS, 2, 2, [{"eps": (1,), "field": FourierField.from_dict(2, {(1, 0): 1.0}), "lie": matrix_unit(2, 1, 2)}]
    )
    u_gen = gen_transport(conn, cfg, loop)
    assert np.max(np.abs(u_gen.components[0] - transport(conn, loop))) <= 1e-13
    assert np.flatnonzero(u_gen.components.any(axis=(1, 2))).tolist() == [0]


def test_both_stepping_entries_name_a_connection_of_another_size():
    conn, cfg, loop = ConstantCommutingConnection([np.eye(3), np.eye(3)]), mixed_config(), wiggly_loop()
    with pytest.raises(ValueError, match="connection and field configuration sizes differ"):
        gen_transport(conn, cfg, loop)
    with pytest.raises(ValueError, match="connection and field configuration sizes differ"):
        insertion_derivative(conn, cfg, loop, field_obstruction(cfg, diag_connection()))


def test_one_insertion_closed_form():
    # A = 0 and C = theta1 theta2 dx^1 E_11 on the class-(1,0) line:
    # the resummed series truncates at I + (net x^1 displacement) theta1 theta2 E_11.
    line = PLLoop(TORUS, [(0, 0)], closure=(1, 0))
    cfg = FieldConfig.build(
        TORUS, 2, 2, [{"indices": (1,), "eps": (1, 2), "field": constant_field(1.0), "lie": matrix_unit(2, 1, 1)}]
    )
    u_gen = gen_transport(ConstantCommutingConnection([np.zeros((2, 2))] * 2), cfg, line)
    assert np.flatnonzero(u_gen.components.any(axis=(1, 2))).tolist() == [0, 3]
    assert np.max(np.abs(u_gen.components[0] - np.eye(2))) <= 1e-14
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    assert np.max(np.abs(u_gen.components[3] - e11)) <= 1e-12


def test_convergence_is_fourth_order_with_richardson_on_top(monkeypatch):
    ref, default = reference_transport(), default_transport()
    monkeypatch.setattr(holonomy, "_with_richardson", single_grid)
    errs = [
        gen_transport(
            diag_connection(),
            mixed_config(),
            wiggly_loop(),
            plan=TransportPlan(steps=s),
        ).distance(ref)
        for s in (16, 32, 64)
    ]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(p >= 3.9 for p in orders)
    assert default.distance(ref) <= 2.5e-10


def test_wilson_is_parametrization_and_marking_invariant():
    conn = diag_connection()
    cfg = mixed_config()
    loop = wiggly_loop()
    w = wilson(conn, cfg, loop)
    assert wilson(conn, cfg, loop.subdivide_segment(0, F(1, 3))).distance(w) <= 1e-10
    assert wilson(conn, cfg, loop.rotate_marked(2)).distance(w) <= 1e-12


def test_wilson_is_gauge_invariant():
    conn = diag_connection()
    cfg = mixed_config()
    loop = wiggly_loop()
    g = np.array([[1.0, 0.3], [-0.5, 1.0]])
    w = wilson(conn, cfg, loop)
    assert wilson(conn.gauge(g), cfg.gauge(g), loop).distance(w) <= 1e-12


def test_extra_theta_generators_do_not_change_values():
    w2 = wilson(diag_connection(), mixed_config(2), wiggly_loop())
    w3 = wilson(diag_connection(), mixed_config(3), wiggly_loop())
    assert GradedCoefficient(w2.masks, 3).distance(w3) <= 1e-15


def test_tolerance_driven_refinement_and_cap(monkeypatch):
    conn = diag_connection()
    cfg = mixed_config()
    loop = wiggly_loop()
    refined = gen_transport(
        conn, cfg, loop, plan=TransportPlan(steps=16, tol=1e-10)
    )
    assert refined.distance(reference_transport()) <= 1e-10
    monkeypatch.setattr(holonomy, "MAX_STEPS", 64)
    with pytest.raises(QuadratureError, match="no convergence"):
        gen_transport(conn, cfg, loop, plan=TransportPlan(steps=16, tol=1e-30))


def test_richardson_levels_evaluate_each_step_count_once(monkeypatch):
    # tol mode runs the levels 8,16 | 16,32 | 32,64 ...; the shared grids
    # are computed once and the extrapolated value is unchanged. The first
    # call steps every grid the plan needs, 8, 16 and 32, in one walk
    conn, cfg, loop = diag_connection(), mixed_config(), wiggly_loop()
    stepped = holonomy._gen_transports
    calls = collections.Counter()
    seen = []

    def counting(slots, lanes):
        calls.update(steps for _, steps in lanes)
        seen.append((slots, lanes))
        return stepped(slots, lanes)

    monkeypatch.setattr(holonomy, "_gen_transports", counting)
    out = gen_transport(conn, cfg, loop, plan=TransportPlan(steps=8, tol=1e-10))
    top = max(calls)
    assert sorted(calls) == [8 << k for k in range(len(calls))] and len(calls) >= 4
    assert set(calls.values()) == {1}
    assert [tuple(s for _, s in lanes) for _, lanes in seen] == [(8, 16, 32), *(((8 << k),) for k in range(3, len(calls)))]
    # every grid of the transport steps on the one slot basis and walk built for it
    assert len({id(slots) for slots, _ in seen}) == 1
    assert len({id(walk) for _, lanes in seen for walk, _ in lanes}) == 1
    slots, ((walk, _), *_) = seen[0]
    coarse, fine = (stepped(slots, [(walk, s)])[0] for s in (top // 2, top))
    assert out.distance(fine * (16.0 / 15.0) - coarse * (1.0 / 15.0)) == 0.0


def test_transport_plan_validation(monkeypatch):
    with pytest.raises(ValueError, match="step counts"):
        TransportPlan(steps=0)
    # the first level's fine grid, 2 * steps, may not pass the cap
    assert TransportPlan(steps=holonomy.MAX_STEPS // 2).steps == 8192
    with pytest.raises(ValueError, match="step counts"):
        TransportPlan(steps=holonomy.MAX_STEPS // 2 + 1)
    monkeypatch.setattr(holonomy, "MAX_STEPS", 64)
    assert TransportPlan(steps=32).steps == 32
    with pytest.raises(ValueError, match="step counts"):
        TransportPlan(steps=33)
    # a tolerance that is not positive would run every grid up to the cap
    for tol in (math.nan, 0.0, -1e-6):
        with pytest.raises(ValueError, match="tol must be positive"):
            TransportPlan(steps=8, tol=tol)


def test_no_grid_finer_than_max_steps_is_evaluated(monkeypatch):
    # one Richardson level evaluates 2 * steps, so the levels run 8, 16 and
    # the next one (16, 32) would pass the cap of 16: the first call, which
    # would take 32 along under a tolerance, asks for 8 and 16 only
    evaluated = []

    def evaluate(lanes):
        evaluated.append(tuple(steps for _, steps in lanes))
        return [SuperMatrix.from_body(np.eye(1) * steps, 0) for _, steps in lanes]

    monkeypatch.setattr(holonomy, "MAX_STEPS", 16)
    with pytest.raises(QuadratureError, match="within 16 steps/segment"):
        holonomy._with_richardson(evaluate, TransportPlan(steps=8, tol=1e-9))
    assert evaluated == [(8, 16)]
    with pytest.raises(ValueError, match="step counts"):
        TransportPlan(steps=16)
    assert TransportPlan(steps=8).steps == 8


# -- variation legs -------------------------------------------------------------


def test_extract_leg_coefficient_signs():
    # stored canonically as theta_1 w_1; the legs-left presentation w_1 theta_1
    # flips the sign, while leg-free monomials are dropped
    value = GradedCoefficient({0b11: 5.0, 0b01: 7.0, 0b10: 2.0}, 2)
    out = extract_leg_coefficient(value, 1, 1)
    assert out == GradedCoefficient({0b1: -5.0, 0b0: 2.0}, 1)


# -- insertion derivative --------------------------------------------------------


def test_insertion_derivative_closed_form():
    # A = 0, an empty transport field: the integrand is tr M_eta(t), and for
    # eta = theta1 theta2 dx^1 E_11 that integrates to the net x^1 displacement
    line = PLLoop(TORUS, [(0, 0)], closure=(1, 0))
    eta = FieldConfig.build(
        TORUS, 2, 2, [{"indices": (1,), "eps": (1, 2), "field": constant_field(1.0), "lie": matrix_unit(2, 1, 1)}]
    )
    empty = FieldConfig(TORUS, 2, 2, ())
    out = insertion_derivative(ConstantCommutingConnection([np.zeros((2, 2))] * 2), empty, line, eta)
    assert out.distance(GradedCoefficient({0b11: 1.0}, 2)) <= 1e-12


def test_insertion_derivative_rejects_mismatched_shapes():
    eta = FieldConfig.build(
        TORUS, 2, 1, [{"indices": (1,), "eps": (1,), "field": constant_field(1.0), "lie": matrix_unit(2, 1, 1)}]
    )
    with pytest.raises(ValueError, match="shape differs"):
        insertion_derivative(diag_connection(), mixed_config(2), wiggly_loop(), eta)


def test_insertion_derivative_steps_once_per_step_count(monkeypatch):
    # the insertion is the epsilon-part of one generalized transport per
    # grid: DEFAULT_PLAN evaluates 16 and 32 steps, in one call on one slot basis
    conn, cfg, loop = diag_connection(), mixed_config(), wiggly_loop()
    eta = field_obstruction(cfg, conn)
    stepped = holonomy._gen_transports
    calls = collections.Counter()
    batches = []
    slot_ids = set()

    def counting(slots, lanes):
        calls.update(steps for _, steps in lanes)
        batches.append(tuple(steps for _, steps in lanes))
        slot_ids.add(id(slots))
        return stepped(slots, lanes)

    monkeypatch.setattr(holonomy, "_gen_transports", counting)
    insertion_derivative(conn, cfg, loop, eta, variations=[vertex_variation(loop)])
    assert calls == {16: 1, 32: 1}
    assert batches == [(16, 32)]
    assert len(slot_ids) == 1


# -- the block-streamed regular representation against the stepwise oracles ----


def random_config(n, rng, n_theta=2, two_form=True):
    """Odd terms: a body-level 1-form, a theta-pair 1-form and a theta 2-form."""

    def field():
        modes = rng.choice(3, size=2, replace=False)
        freqs = [(1, 0), (0, 1), (1, 1)]
        return FourierField.from_dict(2, {freqs[int(m)]: 0.3 * complex(*rng.standard_normal(2)) for m in modes})

    def lie():
        return 0.5 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))

    specs = [
        {"indices": (1,), "field": field(), "lie": lie()},
        {"indices": (2,), "eps": (1, 2), "field": field(), "lie": lie()},
    ]
    if two_form:
        specs.append({"indices": (1, 2), "eps": (1,), "field": field(), "lie": lie()})
    return FieldConfig.build(TORUS, n, n_theta, specs, expect_parity=1)


def random_connection(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return ConstantCommutingConnection([q @ np.diag(rng.uniform(-0.5, 0.5, n)) @ q.T for _ in range(2)])


def vertex_variation(loop):
    return VariationField.from_displacements(
        loop, [(F(k % 3 - 1, 16), F(1 - k % 2, 32)) for k in range(loop.num_segments)]
    )


def relative(new, old):
    return new.distance(old) / max(old.norm(), 1e-300)


STEPS = 20  # steps per segment: the 80 steps of a whole loop fill less than one block


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_legs", [0, 1])
def test_gen_transport_matches_stepwise_oracle(one_grid, n, n_legs):
    rng = np.random.default_rng(10 * n + n_legs)
    conn, cfg, loop = random_connection(n, rng), random_config(n, rng), wiggly_loop()
    legs = [vertex_variation(loop)] * n_legs
    new = gen_transport(conn, cfg, loop, TransportPlan(steps=STEPS), legs)
    old = gen_transport_stepwise(conn, cfg, loop, STEPS, legs)
    assert new.n_gen == old.n_gen == 2 + n_legs
    assert relative(new, old) <= 1e-12


def test_gen_transport_with_a_body_level_term_matches_oracle(one_grid):
    conn, cfg, loop = diag_connection(), mixed_config(), wiggly_loop()
    new = gen_transport(conn, cfg, loop, plan=TransportPlan(steps=STEPS))
    old = gen_transport_stepwise(conn, cfg, loop, steps=STEPS)
    assert relative(new, old) <= 1e-12


def test_gen_transport_of_a_field_and_its_derivative_matches_oracle(one_grid):
    loop = PLLoop(TORUS, [(0, 0), (F(3, 5), F(1, 10)), (F(1, 2), F(4, 5)), (F(-1, 5), F(1, 2))])
    f = FourierField.from_dict(2, {(1, 0): 0.5, (1, 1): -0.7j, (0, 2): 0.2})
    cfg = FieldConfig.build(
        TORUS,
        2,
        2,
        [
            {"indices": (1,), "field": f, "lie": matrix_unit(2, 1, 2)},
            {"indices": (2,), "eps": (1, 2), "field": f.derivative(0), "lie": matrix_unit(2, 2, 1)},
            {"indices": (1, 2), "eps": (2,), "field": f, "lie": matrix_unit(2, 1, 1)},
        ],
        expect_parity=1,
    )
    legs = [vertex_variation(loop)]
    new = gen_transport(diag_connection(), cfg, loop, TransportPlan(steps=STEPS), legs)
    old = gen_transport_stepwise(diag_connection(), cfg, loop, STEPS, legs)
    assert relative(new, old) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_legs", [0, 1])
def test_insertion_derivative_matches_stepwise_oracle(one_grid, n, n_legs):
    rng = np.random.default_rng(100 + 10 * n + n_legs)
    conn, cfg, loop = random_connection(n, rng), random_config(n, rng, two_form=False), wiggly_loop()
    legs = [vertex_variation(loop)] * n_legs
    eta = field_obstruction(cfg, conn) if n_legs else random_config(n, rng)
    new = insertion_derivative(conn, cfg, loop, eta, TransportPlan(steps=STEPS), legs)
    old = insertion_derivative_epsilon_stepwise(conn, cfg, loop, eta, STEPS, legs)
    assert old.norm() > 0
    assert relative(new, old) <= 1e-12


@pytest.mark.parametrize("block", [1, 7, 10_000])
def test_block_boundaries_do_not_matter(one_grid, monkeypatch, block):
    # at 20 steps per segment, blocks of 7 exponentials, 3 steps, span
    # segments and the last one is partial
    rng = np.random.default_rng(77)
    conn, cfg, loop = random_connection(3, rng), random_config(3, rng, two_form=False), wiggly_loop()
    legs = [vertex_variation(loop)]
    eta = field_obstruction(cfg, conn)
    plan = TransportPlan(steps=STEPS)

    def run():
        return (
            gen_transport(conn, cfg, loop, plan, legs),
            insertion_derivative(conn, cfg, loop, eta, plan, legs),
        )

    base = run()
    monkeypatch.setattr(holonomy, "BLOCK", block)
    got = run()
    for new, old in zip(got, base):
        assert relative(new, old) <= 1e-13
    assert relative(got[0], gen_transport_stepwise(conn, cfg, loop, STEPS, legs)) <= 1e-12
    assert relative(got[1], insertion_derivative_epsilon_stepwise(conn, cfg, loop, eta, STEPS, legs)) <= 1e-12


def test_transport_memory_does_not_grow_with_the_steps(monkeypatch):
    # the working set is one block of midpoints per grid, however fine the
    # grids: one grid alone, and the three grids that a tolerance plan
    # (converged at its second level) steps in its first walk
    rng = np.random.default_rng(5)
    conn, cfg, loop = random_connection(3, rng), random_config(3, rng), wiggly_loop()
    legs = [vertex_variation(loop)]

    def peaks(tol):
        out = []
        for steps in (128, 1024):
            tracemalloc.start()
            try:
                gen_transport(conn, cfg, loop, plan=TransportPlan(steps=steps, tol=tol), variations=legs)
                out.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return out

    with monkeypatch.context() as patch:
        patch.setattr(holonomy, "_with_richardson", single_grid)
        fixed = peaks(None)
    for got in (fixed, peaks(1e-6)):
        assert max(got) < 1.5 * min(got)


# -- the Grassmann support that the stepping runs on ---------------------------


def support_config(n, rng, n_theta=2):
    """Random odd and even terms: an odd-theta 1-form dx^1 theta^1, a 0-form,
    and 2-forms with and without a theta; each kept with probability 3/4."""
    specs = [
        {"indices": (1,), "eps": (1,)},
        {"indices": (2,), "eps": (1, 2)},
        {"eps": (2,)},
        {"indices": (1, 2)},
        {"indices": (1, 2), "eps": (2,)},
    ]
    kept = [spec for spec in specs if rng.random() < 0.75] or specs[:1]
    for spec in kept:
        spec["field"] = FourierField.from_dict(2, {(1, 0): complex(*rng.standard_normal(2)), (1, 1): 0.3})
        spec["lie"] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return FieldConfig.build(TORUS, n, n_theta, kept)


@pytest.mark.parametrize("n_legs", [0, 1, 2])
def test_insertion_matrices_vanish_off_the_static_support(n_legs):
    rng = np.random.default_rng(40 + n_legs)
    proper = 0
    for _ in range(12):
        n = int(rng.integers(1, 4))
        cfg = support_config(n, rng)
        full = tuple(range(1 << (cfg.n_theta + n_legs)))
        support = holonomy._support(cfg, n_legs)
        assert support[0] == 0 and list(support) == sorted(set(support))
        assert all(a & b or a | b in support for a in support for b in support)
        pos, vel = rng.uniform(0, 1, (9, 2)), rng.standard_normal((9, 2))
        legs = rng.standard_normal((n_legs, 9, 2))
        everywhere = holonomy.insertion_matrix(cfg, pos, vel, legs, n_legs, full)
        off = [m for m in full if m not in support]
        assert not everywhere[:, off].any()
        assert np.array_equal(holonomy.insertion_matrix(cfg, pos, vel, legs, n_legs, support), everywhere[:, list(support)])
        proper += len(support) < len(full)
    assert proper >= 6


def whole_algebra_config(n, rng):
    """theta^1 dx^1, theta^2 dx^2 and the 2-form dx^1 dx^2: with one leg w their
    masks 1, 2 and 4 close to the whole of Lambda(3)."""
    specs = [
        {"indices": (1,), "eps": (1,)},
        {"indices": (2,), "eps": (2,)},
        {"indices": (1, 2)},
    ]
    for spec in specs:
        spec["field"] = FourierField.from_dict(2, {(1, 0): 0.4 * complex(*rng.standard_normal(2)), (0, 1): 0.2})
        spec["lie"] = 0.5 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return FieldConfig.build(TORUS, n, 2, specs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_whole_algebra_support_matches_the_stepwise_oracles(one_grid, n):
    rng = np.random.default_rng(60 + n)
    conn, cfg, loop = random_connection(n, rng), whole_algebra_config(n, rng), wiggly_loop()
    legs = [vertex_variation(loop)]
    assert holonomy._support(cfg, 1) == tuple(range(8))
    plan = TransportPlan(steps=STEPS)
    new = gen_transport(conn, cfg, loop, plan, legs)
    old = gen_transport_stepwise(conn, cfg, loop, STEPS, legs)
    assert all(np.abs(old.components[m]).max() > 0 for m in range(8))
    assert relative(new, old) <= 1e-12
    eta = random_config(n, rng)
    new = insertion_derivative(conn, cfg, loop, eta, plan, legs)
    old = insertion_derivative_epsilon_stepwise(conn, cfg, loop, eta, STEPS, legs)
    assert old.norm() > 0
    assert relative(new, old) <= 1e-12


# -- the step exponential in the slot basis ------------------------------------


def slot_block(n, n_legs, rng, rhos):
    """Slots of a random config with 1- and 2-forms, and (Q, b) random
    coefficients scaled so that column j has the norm bound rhos[j]."""
    cfg = support_config(n, rng)
    slots = holonomy._Slots(random_connection(n, rng), cfg, n_legs, holonomy._support(cfg, n_legs))
    shape = (len(slots.mats), len(rhos))
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if not len(slots.mats):
        return slots, coeffs
    _, norms = slots.regulars
    return slots, coeffs * (rhos / (np.abs(coeffs) * norms[:, None]).sum(axis=0))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_legs", [0, 1, 2])
def test_block_exponential_matches_the_series_oracle(n, n_legs):
    # rho from a fine step up to the coarsest step of the adaptive workload
    # (about 1.4 at 8 steps per piece)
    rng = np.random.default_rng(90 + 3 * n + n_legs)
    rhos = np.geomspace(1e-3, 2.0, 12)
    checked = 0
    for _ in range(4):
        slots, coeffs = slot_block(n, n_legs, rng, rhos)
        if not len(slots.mats):
            continue
        got = slots.exp(coeffs)
        dense = slots.dense(coeffs)
        for j in range(len(rhos)):
            m = SuperMatrix(n, slots.n_gen, dict(zip(slots.support, dense[j])))
            want = exp_series(m).components
            assert not np.delete(want, list(slots.support), axis=0).any()
            want = want[list(slots.support)]
            assert np.abs(got[j] - want).max() <= 1e-14 * np.abs(want).max()
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_blocks_side_by_side_exponentiate_as_each_block_alone(n):
    # blocks of small and large steps, out of term-count order, so the
    # columns are reordered and the series stops early on the small ones
    rng = np.random.default_rng(80 + n)
    widths = (6, 2, 10, 4)
    slots, coeffs = slot_block(n, 1, rng, np.repeat([1e-3, 1.5, 0.2, 1.5], widths))
    got = slots.exp(coeffs, widths)
    for part, alone in zip(np.split(got, np.cumsum(widths)[:-1]), np.split(coeffs, np.cumsum(widths)[:-1], axis=1)):
        want = slots.exp(alone)
        assert np.abs(part - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("rhos", [(1.5, 0.2, 1e-2, 1e-4), (1e-3, 1.5, 0.2, 1.5)], ids=["in-order", "out-of-order"])
def test_the_working_arrays_follow_the_live_width_down(n, rhos):
    # blocks of different term counts, so the live width shrinks partway
    # through the series, arriving in term-count order or out of it; each
    # block's columns equal the block alone up to the rounding of the
    # joined GEMM, as side by side above
    rng = np.random.default_rng(70 + n)
    widths = (8, 4, 12, 16)
    slots, coeffs = slot_block(n, 1, rng, np.repeat(rhos, widths))
    got = slots.exp(coeffs, widths)
    cuts = np.cumsum(widths)[:-1]
    for part, alone in zip(np.split(got, cuts), np.split(coeffs, cuts, axis=1)):
        want = slots.exp(alone)
        assert np.abs(part - want).max() <= 1e-15 * np.abs(want).max()


def test_block_exponential_of_nothing_is_the_identity():
    rng = np.random.default_rng(5)
    slots, coeffs = slot_block(3, 1, rng, np.ones(6))
    ident = np.zeros((6, len(slots.support), 3, 3))
    ident[:, 0] = np.eye(3)
    assert np.array_equal(slots.exp(np.zeros_like(coeffs)), ident)
    # a 2-form without legs has no slot: only the connection's two remain
    cfg = FieldConfig.build(TORUS, 3, 2, [{"indices": (1, 2), "field": constant_field(0.5), "lie": matrix_unit(3, 1, 2)}])
    body = holonomy._Slots(random_connection(3, rng), cfg, 0, (0,))
    assert len(body.mats) == 2
    assert np.array_equal(body.exp(np.zeros((2, 6))), ident[:, :1])


def test_block_exponential_that_needs_more_than_59_terms_raises():
    rng = np.random.default_rng(6)
    slots, coeffs = slot_block(2, 1, rng, np.array([0.1, 8.0]))
    slots.exp(coeffs)  # rho = 8 takes 48 terms, rho = 12 would take 60
    slots, coeffs = slot_block(2, 1, rng, np.array([0.1, 12.0]))
    with pytest.raises(QuadratureError, match="insertion exponential failed to converge"):
        slots.exp(coeffs)


# -- the walk: segment set-up once per transport, no exponential of the segments --


def test_a_tolerance_plan_sets_up_each_piece_once(monkeypatch):
    # every grid shares one walk table of the segments, read once; the
    # connection steps in the slot basis, so no grid calls expm, which
    # only the connection's own exponential (``fields``) calls
    conn, cfg, loop = diag_connection(), mixed_config(), wiggly_loop()
    calls = collections.Counter()
    walk, expm_, stepped = holonomy._Walk, fields.expm, holonomy._gen_transports

    def counting(name, function):
        def wrapped(*args):
            calls[name] += 1
            return function(*args)

        return wrapped

    batches = []

    def grids(slots, lanes):
        calls["grids"] += len(lanes)
        batches.append(tuple(steps for _, steps in lanes))
        return stepped(slots, lanes)

    monkeypatch.setattr(holonomy, "_Walk", counting("walks", walk))
    monkeypatch.setattr(fields, "expm", counting("expm", expm_))
    monkeypatch.setattr(holonomy, "_gen_transports", grids)
    gen_transport(conn, cfg, loop, plan=TransportPlan(steps=8, tol=1e-10))
    assert calls["grids"] >= 4
    assert batches[0] == (8, 16, 32)
    assert calls["walks"] == 1
    assert calls["expm"] == 0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("block", [holonomy.BLOCK, 14])
def test_grids_stepped_together_match_each_grid_alone(monkeypatch, n, block):
    # on the Wilson support and with one leg; blocks of 7 steps give the
    # grids 5, 10 and 19 blocks, the last ones partial, walked in lockstep
    monkeypatch.setattr(holonomy, "BLOCK", block)
    rng = np.random.default_rng(30 + n)
    conn, cfg, loop = random_connection(n, rng), random_config(n, rng), wiggly_loop()
    for legs in ([], [vertex_variation(loop)]):
        slots = holonomy._Slots(conn, cfg, len(legs), holonomy._support(cfg, len(legs)))
        walk = holonomy._Walk(loop, legs)
        together = holonomy._gen_transports(slots, [(walk, steps) for steps in (8, 16, 32)])
        for steps, got in zip((8, 16, 32), together):
            alone = holonomy._gen_transports(slots, [(walk, steps)])[0]
            assert relative(got, alone) <= 1e-15


def wound_loop():
    """The wiggly loop's vertices closed around the torus (3, 2) times: a
    tolerance plan refines it further than the wiggly loop."""
    return PLLoop(TORUS, [(0, 0), (F(2, 5), F(1, 10)), (F(1, 2), F(3, 5)), (F(1, 10), F(4, 5))], closure=(3, 2))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("plan", [DEFAULT_PLAN, TransportPlan(steps=8, tol=1e-6)], ids=["default", "tolerance"])
def test_loops_stepped_as_lanes_match_each_loop_alone(monkeypatch, n, plan):
    # under the tolerance plan the two loops stop at different doubling
    # levels; together they step the same grids and give the same values.
    # Joined blocks share their GEMMs, whose rounding sets the last bits,
    # so the values meet the bound of the grids stepped together (with the
    # OpenBLAS build that BENCH_34.json records they are bit-identical)
    rng = np.random.default_rng(20 + n)
    conn, cfg, loops = random_connection(n, rng), random_config(n, rng), [wiggly_loop(), wound_loop()]
    stepped, seen = holonomy._gen_transports, []

    def counting(slots, lanes):
        seen.append(lanes)
        return stepped(slots, lanes)

    def grids():
        # the step counts that each walk was stepped at, walks in order of appearance
        out = {}
        for walk, steps in itertools.chain.from_iterable(seen):
            out.setdefault(id(walk), []).append(steps)
        seen.clear()
        return list(out.values())

    monkeypatch.setattr(holonomy, "_gen_transports", counting)
    alone = [wilson(conn, cfg, loop, plan) for loop in loops]
    alone_grids = grids()
    together = wilsons(conn, cfg, loops, plan)
    assert grids() == alone_grids
    if plan.tol is None:
        assert alone_grids == [[16, 32], [16, 32]]
    else:
        assert len(alone_grids[1]) > len(alone_grids[0]) >= 3
    for got, want in zip(together, alone):
        assert got.n_gen == want.n_gen and relative(got, want) <= 1e-15


def test_lanes_share_one_slot_basis_and_one_exponential_per_pass(monkeypatch):
    # blocks of 7 steps: each loop's fine grid, 4 x 32 steps, takes 19 passes
    monkeypatch.setattr(holonomy, "BLOCK", 14)
    rng = np.random.default_rng(23)
    conn, cfg = random_connection(3, rng), random_config(3, rng)
    base, calls = holonomy._Slots, collections.Counter()

    class Counted(base):
        def __init__(self, *args):
            calls["slots"] += 1
            super().__init__(*args)

        @functools.cached_property
        def regulars(self):
            calls["regulars"] += 1
            return base.regulars.func(self)

        def exp(self, coeffs, widths=None):
            calls["exp"] += 1
            return base.exp(self, coeffs, widths)

    monkeypatch.setattr(holonomy, "_Slots", Counted)
    wilsons(conn, cfg, [wiggly_loop(), wound_loop()])
    assert calls == {"slots": 1, "regulars": 1, "exp": math.ceil(4 * 32 / 7)}
    assert wilsons(conn, cfg, []) == []


def test_a_lane_that_hits_the_step_cap_raises_as_it_does_alone(monkeypatch):
    # with the cap at 64 steps per segment the wiggly loop converges and the
    # wound one does not
    monkeypatch.setattr(holonomy, "MAX_STEPS", 64)
    rng = np.random.default_rng(22)
    conn, cfg, plan = random_connection(2, rng), random_config(2, rng), TransportPlan(steps=8, tol=1e-6)
    wilson(conn, cfg, wiggly_loop(), plan)
    with pytest.raises(QuadratureError) as alone:
        wilson(conn, cfg, wound_loop(), plan)
    for loops in ([wiggly_loop(), wound_loop()], [wound_loop(), wiggly_loop()]):
        with pytest.raises(QuadratureError) as together:
            wilsons(conn, cfg, loops, plan)
        assert str(together.value) == str(alone.value) == "no convergence to tol=1e-06 within 64 steps/segment"


# -- against an independent integrator -----------------------------------------

ODE_TOL = 9e-10  # 10x the worst of the two instances (8.7e-11) at DEFAULT_PLAN


@functools.lru_cache(maxsize=None)
def integrator_instance(seed):
    """A random transport with one leg and its DOP853 reference."""
    rng = np.random.default_rng(seed)
    n = 2 + seed
    conn, cfg, loop = random_connection(n, rng), random_config(n, rng), wiggly_loop()
    legs = [vertex_variation(loop)]
    return conn, cfg, loop, legs, gen_transport_ode(conn, cfg, loop, variations=legs)


@pytest.mark.parametrize("seed", [0, 1])
def test_gen_transport_matches_an_independent_integrator(seed):
    conn, cfg, loop, legs, ref = integrator_instance(seed)
    assert relative(gen_transport(conn, cfg, loop, variations=legs), ref) <= ODE_TOL


def test_the_extrapolated_error_falls_at_sixth_order():
    # the Richardson value of the symmetric fourth-order step is of order 6,
    # 64x per halving (70x here); the step alone would give 16x, and a
    # second-order step with its Richardson level or the step with its
    # exponentials swapped 16x or less
    conn, cfg, loop, legs, ref = integrator_instance(0)
    coarse, fine = (
        relative(gen_transport(conn, cfg, loop, plan=TransportPlan(steps=steps), variations=legs), ref)
        for steps in (4, 8)
    )
    assert coarse >= 40 * fine


# 10x the worst of the six instances below against the integrator: the
# package 5.9e-9 (n = 3, one leg), the Strang sandwich quadrature's
# Richardson value at 64 and 128 steps 2.2e-8 (n = 2, one leg)
EPSILON_ODE_TOL = 6e-8
SANDWICH_TOL = 2.2e-7


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_legs", [0, 1])
def test_insertion_derivative_matches_a_second_quadrature_and_an_integrator(n, n_legs):
    # the midpoint sandwich samples M_eta between the halves of a Strang
    # factor, the epsilon route inside the step exponentials; both converge
    # to the integral that the integrator approximates
    rng = np.random.default_rng(100 + 10 * n + n_legs)
    conn, cfg, loop = random_connection(n, rng), random_config(n, rng, two_form=False), wiggly_loop()
    legs = [vertex_variation(loop)] * n_legs
    eta = field_obstruction(cfg, conn) if n_legs else random_config(n, rng)
    ode = gen_transport_ode(conn, epsilon_config(cfg, eta), loop, variations=legs)
    ode = epsilon_part(ode.trace(), cfg.n_theta, n_legs)
    new = insertion_derivative(conn, cfg, loop, eta, variations=legs)
    assert relative(new, ode) <= EPSILON_ODE_TOL
    coarse, fine = (insertion_derivative_stepwise(conn, cfg, loop, eta, steps, legs) for steps in (64, 128))
    assert relative(fine * (4.0 / 3.0) - coarse * (1.0 / 3.0), ode) <= SANDWICH_TOL
