import itertools
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.linalg import expm

from stringtop.brackets import wilson_field_bracket
from stringtop.chords import (
    ChordDiagram,
    DiagramRealization,
    _contraction_steps,
    _diagram_tensors,
    _cross,
    evaluate_diagram,
    four_t_combination,
    gln_ideal_element,
    parse_rep,
)
from stringtop.fields import ConstantCommutingConnection
from stringtop.geometry import PLLoop, Torus
from stringtop.harness import gen_random_loop
from stringtop.strings import TransversalityError, concatenate, intersections

from oracles import evaluate_diagram_enumerated, velocity_at
from test_mutants import casimir_without_dual, diagonal_pseudo_rep

T = Torus(2)


def line(cls, base=(0, 0)):
    return PLLoop(T, [base], closure=cls)


def shifted(loop, dx, dy):
    """The loop translated by (dx, dy)."""
    return PLLoop(T, [(x + dx, y + dy) for x, y in loop.vertices], loop.closure)


def conn_n(n, seed=0):
    """Random flat connection with a shared non-diagonal eigenbasis."""
    rng = np.random.default_rng(seed)
    d1 = np.diag(rng.uniform(-0.5, 0.5, n)).astype(complex)
    d2 = np.diag(rng.uniform(-0.5, 0.5, n)).astype(complex)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return ConstantCommutingConnection([q @ d1 @ q.T, q @ d2 @ q.T])


# a (1,0) zigzag that crosses itself once, at (1/2,1/6): parameter 2/9 on
# the first segment against 7/9 on the last, velocities (3,1) and (3,-1)
ZIG = PLLoop(T, [(0, 0), (F(3, 4), F(1, 4)), (F(1, 4), F(1, 4))], closure=(1, 0))
S_A = F(2, 9)
S_B = F(7, 9)


def test_diagram_validation():
    assert parse_rep("std:3") == 3
    # one spelling per representation: gln_ideal_element compares labels
    for label in ("fund:2", "std:0", "std:", "std:02", "std:\u0663", "std:\u00b2"):
        with pytest.raises(ValueError, match="unknown representation"):
            parse_rep(label)
    with pytest.raises(ValueError, match="not matched by any arc"):
        ChordDiagram([("std:2", ("p",))], [])
    with pytest.raises(ValueError, match="pairs .* with itself"):
        ChordDiagram([("std:2", ("p", "q"))], [("p", "p")])
    with pytest.raises(ValueError, match="not matched by any arc"):
        ChordDiagram([("std:2", ("p", "q", "r"))], [("p", "q")])
    with pytest.raises(ValueError, match="two arcs"):
        ChordDiagram([("std:2", ("p", "q", "r"))], [("p", "q"), ("q", "r")])


def test_canonical_rotation():
    d_a = ChordDiagram(
        [("std:2", ("p", "q", "x")), ("std:2", ("y",))],
        [("p", "q"), ("x", "y")],
    )
    d_b = ChordDiagram(
        [("std:2", ("x", "p", "q")), ("std:2", ("y",))],
        [("x", "y"), ("p", "q")],
    )
    assert d_a == d_b
    assert hash(d_a) == hash(d_b)
    # random endpoint sequences: every rotation builds an equal diagram,
    # and the stored circle is the least rotation (oracle: the minimum over
    # all rotations)
    rng = np.random.default_rng(60)
    for _ in range(100):
        labels = [f"e{int(i)}" for i in rng.permutation(12)[: 2 * int(rng.integers(1, 7))]]
        cut = int(rng.integers(0, len(labels) + 1))
        circles = [labels[:cut], labels[cut:]]
        arcs = list(zip(labels[0::2], labels[1::2]))
        want = ChordDiagram([("std:2", seq) for seq in circles], arcs)
        for stored, seq in zip(want.circles, circles):
            assert stored.endpoints == min((tuple(seq[r:] + seq[:r]) for r in range(len(seq))), default=())
        for r in range(len(labels)):
            turned = [seq[r % len(seq):] + seq[: r % len(seq)] if seq else seq for seq in circles]
            got = ChordDiagram([("std:2", seq) for seq in turned], arcs)
            assert got == want and hash(got) == hash(want)


def test_realization_validation():
    g1 = line((1, 0))
    g2 = line((0, 1), base=(F(1, 3), F(1, 5)))
    pt = intersections(g1, g2)[0]
    d = ChordDiagram([("std:2", ("p",)), ("std:2", ("q",))], [("p", "q")])
    with pytest.raises(ValueError, match="one loop per circle"):
        DiagramRealization(d, [g1], {"p": pt.s, "q": pt.s_bar})
    with pytest.raises(ValueError, match="cover exactly"):
        DiagramRealization(d, [g1, g2], {"p": pt.s})
    with pytest.raises(ValueError, match="outside"):
        DiagramRealization(d, [g1, g2], {"p": F(3, 2), "q": pt.s_bar})
    with pytest.raises(ValueError, match="different points"):
        DiagramRealization(d, [g1, g2], {"p": pt.s, "q": pt.s_bar + F(1, 7)})
    with pytest.raises(TypeError, match="Fraction or an int"):
        DiagramRealization(d, [g1, g2], {"p": float(pt.s), "q": pt.s_bar})
    # a (2,0) line meets itself with parallel velocities
    d_self = ChordDiagram([("std:2", ("a", "b"))], [("a", "b")])
    with pytest.raises(TransversalityError, match="tangentially"):
        DiagramRealization(d_self, [line((2, 0))], {"a": F(1, 8), "b": F(5, 8)})


def test_realization_cyclic_order_enforced():
    # params put x between p and q, but the circle lists it after both
    d = ChordDiagram(
        [("std:2", ("p", "q", "x")), ("std:2", ("y",))],
        [("p", "q"), ("x", "y")],
    )
    vert = PLLoop(T, [(F(1, 2), 0)], closure=(0, 1))
    with pytest.raises(ValueError, match="cyclic order"):
        DiagramRealization(
            d, [ZIG, vert], {"p": S_A, "q": S_B, "x": F(1, 2), "y": F(1, 4)}
        )


def test_no_arc_diagram_is_product_of_wilson_loops():
    conn = conn_n(2, 1)
    d = ChordDiagram([("std:2", ()), ("std:2", ())], [])
    r = DiagramRealization(d, [line((1, 0)), line((0, 1))], {})
    want = np.trace(expm(conn.mats[0])) * np.trace(expm(conn.mats[1]))
    assert abs(evaluate_diagram(r, conn) - want) < 1e-12


def test_one_arc_matches_trace_fusion():
    conn = conn_n(2, 1)
    g1 = line((1, 0))
    g2 = line((0, 1), base=(F(1, 3), F(1, 5)))
    pt = intersections(g1, g2)[0]
    d = ChordDiagram([("std:2", ("p",)), ("std:2", ("q",))], [("p", "q")])
    r = DiagramRealization(d, [g1, g2], {"p": pt.s, "q": pt.s_bar})
    val = evaluate_diagram(r, conn)
    assert abs(val - wilson_field_bracket(g1, g2, conn)) < 1e-12


def test_self_chord_abelian_is_plain_holonomy():
    conn = ConstantCommutingConnection(
        [np.array([[0.25]], dtype=complex), np.array([[-0.1]], dtype=complex)]
    )
    d = ChordDiagram([("std:1", ("a", "b"))], [("a", "b")])
    r = DiagramRealization(d, [ZIG], {"a": S_A, "b": S_B})
    assert abs(evaluate_diagram(r, conn) - np.exp(0.25)) < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_self_chord_splits_into_two_circles(n):
    conn = conn_n(n, seed=n + 7)
    d = ChordDiagram([(f"std:{n}", ("a", "b"))], [("a", "b")])
    val = evaluate_diagram(DiagramRealization(d, [ZIG], {"a": S_A, "b": S_B}), conn)
    combo = gln_ideal_element(d, ("a", "b"))
    assert combo[0][0] == 1 and combo[1][0] == -1
    split = combo[1][1]
    assert len(split.circles) == 2 and not split.arcs
    # the crossing cuts the zigzag into a contractible lobe and a (1,0) rest
    xpt = (F(1, 2), F(1, 6))
    lobe = PLLoop(T, [xpt, (F(3, 4), F(1, 4)), (F(1, 4), F(1, 4))], closure=(0, 0))
    rest = PLLoop(T, [xpt, (1, 0)], closure=(1, 0))
    want = evaluate_diagram(DiagramRealization(split, [lobe, rest], {}), conn)
    assert abs(val - want) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trace_ideal_two_circles(n):
    conn = conn_n(n, seed=n + 3)
    g1 = line((1, 0))
    g2 = line((0, 1), base=(F(1, 3), F(1, 5)))
    pt = intersections(g1, g2)[0]
    d = ChordDiagram([(f"std:{n}", ("p",)), (f"std:{n}", ("q",))], [("p", "q")])
    combo = gln_ideal_element(d, ("p", "q"))
    chorded = evaluate_diagram(
        DiagramRealization(d, [g1, g2], {"p": pt.s, "q": pt.s_bar}), conn
    )
    merged = combo[1][1]
    assert len(merged.circles) == 1 and not merged.arcs
    smoothed = evaluate_diagram(
        DiagramRealization(merged, [concatenate(g1, g2, pt)], {}), conn
    )
    assert abs(chorded - smoothed) < 1e-10


def test_trace_ideal_identity_connection():
    zero = ConstantCommutingConnection(
        [np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex)]
    )
    g1 = line((1, 0))
    g2 = line((0, 1), base=(F(1, 3), F(1, 5)))
    pt = intersections(g1, g2)[0]
    d = ChordDiagram([("std:2", ("p",)), ("std:2", ("q",))], [("p", "q")])
    chorded = evaluate_diagram(
        DiagramRealization(d, [g1, g2], {"p": pt.s, "q": pt.s_bar}), zero
    )
    merged = gln_ideal_element(d, ("p", "q"))[1][1]
    smoothed = evaluate_diagram(
        DiagramRealization(merged, [concatenate(g1, g2, pt)], {}), zero
    )
    # sum over the chord basis contributes one unit per matrix slot: n each
    assert chorded == pytest.approx(2.0)
    assert smoothed == pytest.approx(2.0)


def test_four_t_validation():
    d = ChordDiagram(
        [("std:2", ("p", "q", "x")), ("std:2", ("y",))],
        [("p", "q"), ("x", "y")],
    )
    with pytest.raises(ValueError, match="is not an arc"):
        four_t_combination(d, "x", ("p", "y"))
    with pytest.raises(ValueError, match="on the chord itself"):
        four_t_combination(d, "p", ("p", "q"))
    with pytest.raises(ValueError, match="not adjacent"):
        four_t_combination(d, "y", ("p", "q"))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_four_t_combination_evaluates_to_zero(n):
    # self-chord (p,q) at the zigzag crossing, moving chord (x,y) out to a
    # vertical line through the same point; x rides at p's parameter in the
    # first two terms and at q's in the last two
    vert = PLLoop(T, [(F(1, 2), 0)], closure=(0, 1))
    conn = conn_n(n, seed=10 + n)
    d = ChordDiagram(
        [(f"std:{n}", ("p", "q", "x")), (f"std:{n}", ("y",))],
        [("p", "q"), ("x", "y")],
    )
    combo = four_t_combination(d, "x", ("p", "q"))
    assert [sign for sign, _ in combo] == [1, -1, 1, -1]
    vals = []
    for k, (sign, term) in enumerate(combo):
        s_x = S_A if k < 2 else S_B
        r = DiagramRealization(
            term, [ZIG, vert], {"p": S_A, "q": S_B, "x": s_x, "y": F(1, 6)}
        )
        vals.append(sign * evaluate_diagram(r, conn))
    assert abs(sum(vals)) < 1e-10
    if n == 1:
        # abelian insertions commute, every term is the same number
        assert max(abs(v - vals[0] * s) for s, v in zip([1, -1, 1, -1], vals)) < 1e-14
    else:
        # the two sides of p differ, cancellation needs all four terms
        assert abs(vals[0] + vals[1]) > 1e-3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_arc_per_crossing_sums_to_the_observable_bracket(n):
    # the observable bracket of two bare loops, crossing by crossing: the
    # two circles joined by one arc at the crossing, weighted by its sign
    rng = np.random.default_rng((n, 20))
    # gauged off the symmetric matrices, on which E_a and its dual E_a^T trace alike
    conn = conn_n(n, seed=20 + n).gauge(np.eye(n) + 0.3 * rng.normal(size=(n, n)))
    crossings = 0
    for _ in range(12):
        loop, loopbar = gen_random_loop(rng), gen_random_loop(rng)
        try:
            pts = intersections(loop, loopbar)
            want = wilson_field_bracket(loop, loopbar, conn)
        except TransversalityError:
            continue
        d = ChordDiagram([(f"std:{n}", ("a",)), (f"std:{n}", ("b",))], [("a", "b")])
        got = sum(
            p.sign * evaluate_diagram(DiagramRealization(d, [loop, loopbar], {"a": p.s, "b": p.s_bar}), conn)
            for p in pts
        )
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        crossings += len(pts)
    assert crossings >= 20


# -- the contraction against the enumeration oracle ---------------------------------


def _realize(circles, arcs):
    """circles: [(rep, loop)]; arcs: [(i, s, j, t)] joins circle i at s to circle j at t."""
    params, ends = {}, [[] for _ in circles]
    for k, (i, s, j, t) in enumerate(arcs):
        params[f"p{k}"], params[f"q{k}"] = s, t
        ends[i].append(f"p{k}")
        ends[j].append(f"q{k}")
    diagram = ChordDiagram(
        [(rep, sorted(e, key=params.get)) for (rep, _), e in zip(circles, ends)],
        [(f"p{k}", f"q{k}") for k in range(len(arcs))],
    )
    return DiagramRealization(diagram, [loop for _, loop in circles], params)


def _random_realizations(rng, n):
    """Diagrams with 0-3 arcs on lines of classes (1,0), (0,1), (1,1), (1,-1)
    at random base points and a randomly translated self-crossing zigzag."""
    while True:
        bases = [F(int(c), 97) for c in rng.integers(0, 97, size=4)]
        x = line((1, 0), base=(0, bases[0]))
        y = line((0, 1), base=(bases[1], 0))
        z = line((1, 1), base=(bases[2], 0))
        w = line((1, -1), base=(bases[3], 0))
        zig = shifted(ZIG, F(int(rng.integers(0, 89)), 89), F(int(rng.integers(0, 89)), 89))
        try:
            cross = {
                (a, b): [(p.s, p.s_bar) for p in intersections(la, lb)]
                for (a, la), (b, lb) in itertools.combinations(
                    [("x", x), ("y", y), ("z", z), ("w", w), ("zig", zig)], 2
                )
            }
        except TransversalityError:
            continue
        break
    loops = {"x": x, "y": y, "z": z, "w": w, "zig": zig}

    def arc(names, a, b):
        s, t = cross[(a, b)][0]
        return (names.index(a), s, names.index(b), t)

    def case(names, arcs):
        return _realize([(f"std:{n}", loops[nm]) for nm in names], arcs)

    self_chord = (0, S_A, 0, S_B)
    return [
        case(["x", "y"], []),
        case(["x", "y"], [arc(["x", "y"], "x", "y")]),
        case(["zig"], [self_chord]),
        case(["zig", "x"], [self_chord]),
        case(["x", "y", "z"], [arc(["x", "y", "z"], "x", "y"), arc(["x", "y", "z"], "y", "z")]),
        case(["zig", "y"], [self_chord, arc(["zig", "y"], "y", "zig")]),
        case(
            ["x", "y", "z", "w"],
            [arc(["x", "y", "z", "w"], *pair) for pair in (("x", "y"), ("z", "w"), ("x", "w"))],
        ),
        case(
            ["zig", "y", "z", "x"],
            [self_chord, arc(["zig", "y", "z", "x"], "y", "zig"), arc(["zig", "y", "z", "x"], "y", "z")],
        ),
    ]


# the ids are the ones these cases had while seeds 2 and 3 also drew other
# representation kinds, so that each case keeps its name
@pytest.mark.parametrize("seed", [1, 2, 3], ids=["1-kinds0", "2-kinds1", "3-kinds2"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_contraction_matches_the_enumeration_oracle(n, seed):
    rng = np.random.default_rng((n, seed))
    conn = conn_n(n, seed=int(rng.integers(1 << 30)))
    realizations = _random_realizations(rng, n)
    assert {len(r.diagram.arcs) for r in realizations} == {0, 1, 2, 3}
    assert any(not c.endpoints for r in realizations for c in r.diagram.circles)
    for r in realizations:
        want = evaluate_diagram_enumerated(r, conn)
        got = evaluate_diagram(r, conn)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), r.diagram


def test_contraction_index_budget():
    # every endpoint takes two einsum letters: 13 arcs need 52, 14 need 56
    g1 = line((1, 0))
    g2 = line((0, 1), base=(F(1, 3), F(1, 5)))
    pt = intersections(g1, g2)[0]
    conn = conn_n(1, 4)
    for k, ok in ((13, True), (14, False)):
        r = _realize([("std:1", g1), ("std:1", g2)], [(0, pt.s, 1, pt.s_bar)] * k)
        if ok:
            assert abs(evaluate_diagram(r, conn) - evaluate_diagram_enumerated(r, conn)) <= 1e-12
        else:
            with pytest.raises(ValueError, match="56 contraction indices"):
                evaluate_diagram(r, conn)


# -- the cached contraction plan ------------------------------------------------


def _plan_cases(n):
    """The four 4T terms, the two ideal splits and a diagram with an empty circle."""
    vert = PLLoop(T, [(F(1, 2), 0)], closure=(0, 1))
    g1 = line((1, 0))
    g2 = line((0, 1), base=(F(1, 3), F(1, 5)))
    pt = intersections(g1, g2)[0]
    base = ChordDiagram(
        [(f"std:{n}", ("p", "q", "x")), (f"std:{n}", ("y",))], [("p", "q"), ("x", "y")]
    )
    out = [
        DiagramRealization(
            term, [ZIG, vert], {"p": S_A, "q": S_B, "x": S_A if k < 2 else S_B, "y": F(1, 6)}
        )
        for k, (_, term) in enumerate(four_t_combination(base, "x", ("p", "q")))
    ]
    two = ChordDiagram([(f"std:{n}", ("p",)), (f"std:{n}", ("q",))], [("p", "q")])
    out.append(DiagramRealization(two, [g1, g2], {"p": pt.s, "q": pt.s_bar}))
    merged = gln_ideal_element(two, ("p", "q"))[1][1]
    out.append(DiagramRealization(merged, [concatenate(g1, g2, pt)], {}))
    one = ChordDiagram([(f"std:{n}", ("a", "b"))], [("a", "b")])
    out.append(DiagramRealization(one, [ZIG], {"a": S_A, "b": S_B}))
    split = gln_ideal_element(one, ("a", "b"))[1][1]
    lobe = PLLoop(T, [(F(1, 2), F(1, 6)), (F(3, 4), F(1, 4)), (F(1, 4), F(1, 4))], closure=(0, 0))
    rest = PLLoop(T, [(F(1, 2), F(1, 6)), (1, 0)], closure=(1, 0))
    out.append(DiagramRealization(split, [lobe, rest], {}))
    empty = ChordDiagram([(f"std:{n}", ("a", "b")), (f"std:{n}", ())], [("a", "b")])
    out.append(DiagramRealization(empty, [ZIG, vert], {"a": S_A, "b": S_B}))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compiled_steps_replay_the_greedy_path(n):
    conn = conn_n(n, seed=20 + n)
    for r in _plan_cases(n):
        spec, operands = _diagram_tensors(r, conn)
        path = np.einsum_path(spec, *operands, optimize="greedy")[0][1:]
        steps = _contraction_steps(spec, tuple(op.shape for op in operands))
        assert [positions for positions, _ in steps] == [tuple(sorted(p, reverse=True)) for p in path]
        want = complex(np.einsum(spec, *operands, optimize="greedy"))
        assert abs(evaluate_diagram(r, conn) - want) <= 1e-15 * max(1.0, abs(want)), r.diagram


def test_one_spec_is_planned_once_per_size():
    _contraction_steps.cache_clear()
    cases = {n: _plan_cases(n)[0] for n in (1, 2)}
    for n, r in cases.items():
        evaluate_diagram(r, conn_n(n, seed=n))
    info = _contraction_steps.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    for n, r in cases.items():
        evaluate_diagram(r, conn_n(n, seed=n + 5))
    info = _contraction_steps.cache_info()
    assert (info.hits, info.currsize) == (2, 2)


def test_no_cache_holds_representation_data(monkeypatch):
    # the Casimir tensor is rebuilt per call: patching the dual or the
    # representation after a first value must change the next one
    r = _plan_cases(2)[0]
    conn = conn_n(2, seed=9)
    value = evaluate_diagram(r, conn)
    for mutant in (casimir_without_dual, diagonal_pseudo_rep):
        mutant(monkeypatch)
        assert abs(evaluate_diagram(r, conn) - value) > 1e-6, mutant.__name__
        monkeypatch.undo()
        assert evaluate_diagram(r, conn) == value


# -- arcs checked on the integer lift --------------------------------------------


def _arc_outcome(l1, s1, l2, s2):
    """How DiagramRealization takes an arc from l1 at s1 to l2 at s2."""
    if l1 is l2:
        d = ChordDiagram([("std:1", ("a", "b"))], [("a", "b")])
        loops = [l1]
    else:
        d = ChordDiagram([("std:1", ("a",)), ("std:1", ("b",))], [("a", "b")])
        loops = [l1, l2]
    try:
        DiagramRealization(d, loops, {"a": s1, "b": s2})
    except TransversalityError as err:
        assert "tangentially" in str(err)
        return "tangentially"
    except ValueError as err:
        assert "different points" in str(err)
        return "different points"
    return "meets"


@pytest.mark.parametrize(
    "pair", ["zig-self", "zig-vert", "zig-deck", "lines", "double-line", "zig-diag", "zig-level"]
)
def test_integer_arc_check_agrees_with_the_fraction_route(pair):
    vert = PLLoop(T, [(F(1, 2), 0)], closure=(0, 1))
    g1 = line((1, 0))
    g2 = line((0, 1), base=(F(1, 3), F(1, 5)))
    double = line((2, 0))
    l1, l2 = {
        "zig-self": (ZIG, ZIG),
        "zig-vert": (ZIG, vert),
        # the same loop through another lift: every meeting is a deck translate
        "zig-deck": (ZIG, shifted(ZIG, 1, -1)),
        # g1 at 1/3 meets g2 at 4/5 one lattice step away in the lift
        "lines": (g1, g2),
        "double-line": (double, double),
        "zig-diag": (ZIG, line((1, 1), base=(F(1, 2), F(1, 6)))),
        # through both ends of the zigzag's level segment: at its first vertex
        # the velocity is the right-sided one, parallel to the line
        "zig-level": (ZIG, line((1, 0), base=(0, F(1, 4)))),
    }[pair]
    grid = sorted({F(k, 36) for k in range(36)} | {F(k, 10) for k in range(10)})
    seen = set()
    for s1, s2 in itertools.product(grid, grid):
        p1, p2 = l1.point_at(s1), l2.point_at(s2)
        if any((a - b).denominator != 1 for a, b in zip(p1, p2)):
            want = "different points"
        elif _cross(velocity_at(l1, s1), velocity_at(l2, s2)) == 0:
            want = "tangentially"
        else:
            want = "meets"
        assert _arc_outcome(l1, s1, l2, s2) == want, (s1, s2)
        seen.add(want)
    assert "different points" in seen and len(seen) >= 2
    if pair == "lines":
        assert _arc_outcome(g1, F(1, 3), g2, F(4, 5)) == "meets"
        assert g1.point_at(F(1, 3)) != g2.point_at(F(4, 5))
