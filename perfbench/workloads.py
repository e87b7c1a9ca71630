"""The benchmark's workloads: build library objects from draws and check them.

An instance draws its inputs (``perfbench.inputs``), builds the library
objects and checks one or more of the paper's identities against a
tolerance. Redraws happen only for degenerate PL positions; every other
exception, and every residual over its tolerance, fails the instance.

Library functions are called through their modules (``holonomy.wilson``,
not a name imported here), so the traced run's wrappers, installed on
the modules, see every call this file makes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from stringtop import brackets, chords, holonomy, lierep, phasespace, strings
from stringtop.fields import ConstantCommutingConnection, FieldConfig, FourierField
from stringtop.geometry import PLLoop, Torus, VariationField
from stringtop.lierep import LieBasis, SuperMatrix

from perfbench import inputs

TORUS2 = Torus(2)
MAX_REDRAWS = 8
ADAPTIVE_PLAN = holonomy.TransportPlan(steps=8, tol=1e-6)

GAUGE_TOL = 1e-9  # relative, both Wilson values at the fixed default plan
# Under a tolerance plan the two Wilson values may stop at different doubling
# levels (the controller compares gauge-dependent transport matrices), so
# they agree only to the accuracy the plan asks for.
ADAPTIVE_GAUGE_TOL = ADAPTIVE_PLAN.tol
FUNDAMENTAL_TOL = 1e-4  # absolute distance of the two paths
MAIN_THEOREM_TOL = 1e-9  # relative
GLN_TOL = 1e-10  # relative
CHORD_TOL = 1e-10  # absolute

# ValueError texts that mean "the draw landed degenerately": redraw
DEGENERATE_CAUSES = (("collinear overlap", "collinear"), ("vertex or marked point", "vertex"))


class CheckFailed(RuntimeError):
    """A residual exceeded its tolerance, or an exact comparison differed."""


class RetryCapError(RuntimeError):
    """An instance stayed degenerate through every allowed redraw."""


@dataclass
class RunStats:
    """What a run of instances found, besides its timings."""

    attempted: int = 0
    failed: int = 0
    resid_over_tol_max: float = 0.0
    retries: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)
    times_s: list = field(default_factory=list)

    def gate(self, check: str, resid: float, tol: float) -> None:
        ratio = resid / tol
        self.resid_over_tol_max = max(self.resid_over_tol_max, ratio)
        if not ratio <= 1.0:
            raise CheckFailed(f"{check}: residual {resid:.3e} exceeds tolerance {tol:.1e}")

    @staticmethod
    def exact(check: str, got, want) -> None:
        if got != want:
            raise CheckFailed(f"{check}: exact values differ: {got!r} != {want!r}")


def degenerate_cause(err: ValueError) -> str | None:
    text = str(err)
    for hint, cause in DEGENERATE_CAUSES:
        if hint in text:
            return cause
    return "transversality" if isinstance(err, strings.TransversalityError) else None


def with_redraws(stats: RunStats, seed: int, workload: str, key: tuple, attempt_fn):
    """attempt_fn(rng) on fresh draws until it is not degenerate."""
    for attempt in range(MAX_REDRAWS + 1):
        rng = inputs.instance_rng(seed, workload, *key, attempt)
        try:
            return attempt_fn(rng)
        except ValueError as err:
            cause = degenerate_cause(err)
            if cause is None:
                raise
            stats.retries[cause] += 1
    raise RetryCapError(f"{workload} instance {key}: degenerate after {MAX_REDRAWS} redraws")


# ---------------------------------------------------------------------------
# building library objects from draws


def build_loop(draw) -> PLLoop:
    verts, closure = draw
    return PLLoop(TORUS2, verts, closure)


def build_config(n: int, terms) -> FieldConfig:
    specs = [dict(t, field=FourierField.from_dict(2, t["field"])) for t in terms]
    return FieldConfig.build(TORUS2, n, 2, specs, expect_parity=1)


def build_gauge(draw):
    return ConstantCommutingConnection(draw["conn"]), build_config(draw["n"], draw["config"]), build_loop(draw["loop"])


# ---------------------------------------------------------------------------
# instance bodies


def gauge_check(stats: RunStats, conn, config, loop, g, plan, tol: float) -> None:
    w1 = holonomy.wilson(conn, config, loop, plan)
    w2 = holonomy.wilson(conn.gauge(g), config.gauge(g), loop, plan)
    stats.gate("gauge", w1.distance(w2) / max(w1.norm(), 1.0), tol)


def transport_instance(stats: RunStats, seed: int, k: int, fixtures) -> None:
    draw = inputs.draw_transport(inputs.instance_rng(seed, "transport", k, 0), k)
    conn, config, loop = build_gauge(draw)
    gauge_check(stats, conn, config, loop, draw["g"], holonomy.DEFAULT_PLAN, GAUGE_TOL)
    v = VariationField.from_displacements(loop, draw["disps"])
    resid = brackets.fundamental_identity_check(conn, config, loop, v, holonomy.DEFAULT_PLAN)
    stats.gate("fundamental", resid, FUNDAMENTAL_TOL)


def adaptive_instance(stats: RunStats, seed: int, k: int, fixtures) -> None:
    draw = inputs.draw_gauge(inputs.instance_rng(seed, "adaptive", k, 0), k)
    gauge_check(stats, *build_gauge(draw), draw["g"], ADAPTIVE_PLAN, ADAPTIVE_GAUGE_TOL)


def nested_instance(stats: RunStats, seed: int, k: int, fixtures) -> None:
    def attempt(rng):
        cycles = [strings.StringCycle.from_loop(build_loop(d)) for d in inputs.draw_nested(rng, k)]
        return strings.jacobi_residual(*cycles).class_reduction()

    stats.exact("jacobi", with_redraws(stats, seed, "nested", (k,), attempt), {})


class OneshotFixtures:
    """Fixed geometry and models shared by every oneshot round.

    The chord geometry is a self-crossing zigzag of class (1,0) whose first
    and last segments meet at (1/2,1/6), plus lines through that crossing.
    """

    def __init__(self) -> None:
        self.zig = PLLoop(TORUS2, [(0, 0), (Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4))], closure=(1, 0))
        self.zig_s = (Fraction(2, 9), Fraction(7, 9))
        self.vert = PLLoop(TORUS2, [(Fraction(1, 2), 0)], closure=(0, 1))
        self.line_a = PLLoop(TORUS2, [(0, 0)], closure=(1, 0))
        self.line_b = PLLoop(TORUS2, [(Fraction(1, 3), Fraction(1, 5))], closure=(0, 1))
        self.lobe = PLLoop(TORUS2, [(Fraction(1, 2), Fraction(1, 6)), (Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4))], closure=(0, 0))
        self.rest = PLLoop(TORUS2, [(Fraction(1, 2), Fraction(1, 6)), (1, 0)], closure=(1, 0))
        self.crossing = strings.intersections(self.line_a, self.line_b)[0]
        self.cat = strings.concatenate(self.line_a, self.line_b, self.crossing)
        self.even = phasespace.GradedPhaseModel(list(inputs.EVEN_MODEL), {("q", "p"): Fraction(1)}, d=2)
        self.koszul = phasespace.GradedPhaseModel(
            list(inputs.KOSZUL_MODEL), {("x", "xd"): Fraction(1), ("c", "cd"): Fraction(1)}, d=1
        )
        self.s_koszul = self.koszul.monomial(1, "xd", "c")


def goldman_check(stats: RunStats, seed: int, k: int, fx: OneshotFixtures) -> None:
    def attempt(rng):
        (v1, c1), (v2, c2) = inputs.draw_goldman(rng)
        br = strings.string_bracket(
            strings.StringCycle.from_loop(build_loop((v1, c1))),
            strings.StringCycle.from_loop(build_loop((v2, c2))),
        )
        n_cross, total = strings.goldman_torus(c1, c2)
        return br.class_reduction(), ({total: n_cross} if n_cross else {})

    got, want = with_redraws(stats, seed, "oneshot", (k, inputs.GOLDMAN), attempt)
    stats.exact("goldman", got, want)


def main_theorem_check(stats: RunStats, seed: int, k: int, fx: OneshotFixtures) -> None:
    def attempt(rng):
        draw = inputs.draw_main_theorem(rng, k)
        a, abar = (strings.StringCycle.from_loop(build_loop(d)) for d in draw["loops"])
        return brackets.main_theorem_sides(a, abar, ConstantCommutingConnection(draw["conn"]))

    lhs, rhs = with_redraws(stats, seed, "oneshot", (k, inputs.MAIN_THEOREM), attempt)
    stats.gate("main-theorem", abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)), MAIN_THEOREM_TOL)


def gln_check(stats: RunStats, seed: int, k: int, fx: OneshotFixtures) -> None:
    draw = inputs.draw_gln(inputs.instance_rng(seed, "oneshot", k, inputs.GLN, 0), k)
    a1, a2, b1, b2 = (SuperMatrix(draw["n"], draw["n_theta"], comps) for comps in draw["mats"])
    fused = lierep.fuse_traces(a1, a2, b1, b2, LieBasis(draw["n"]))
    single = (a1 @ b2 @ b1 @ a2).trace()
    stats.gate("gln", fused.distance(single) / max(fused.norm(), single.norm(), 1.0), GLN_TOL)


def chord_4t_check(stats: RunStats, seed: int, k: int, fx: OneshotFixtures) -> None:
    draw = inputs.draw_chord(inputs.instance_rng(seed, "oneshot", k, inputs.CHORD_4T, 0), k)
    n, conn = draw["n"], ConstantCommutingConnection(draw["conn"])
    base = chords.ChordDiagram(
        [(f"std:{n}", ("p", "q", "x")), (f"std:{n}", ("y",))], [("p", "q"), ("x", "y")]
    )
    s_a, s_b = fx.zig_s
    total = 0j
    for j, (sign, term) in enumerate(chords.four_t_combination(base, "x", ("p", "q"))):
        params = {"p": s_a, "q": s_b, "x": s_a if j < 2 else s_b, "y": Fraction(1, 6)}
        total += sign * chords.evaluate_diagram(chords.DiagramRealization(term, [fx.zig, fx.vert], params), conn)
    stats.gate("chord-4t", abs(total), CHORD_TOL)


def chord_ideal_check(stats: RunStats, seed: int, k: int, fx: OneshotFixtures) -> None:
    draw = inputs.draw_chord(inputs.instance_rng(seed, "oneshot", k, inputs.CHORD_IDEAL, 0), k)
    n, conn = draw["n"], ConstantCommutingConnection(draw["conn"])
    real = chords.DiagramRealization
    two = chords.ChordDiagram([(f"std:{n}", ("p",)), (f"std:{n}", ("q",))], [("p", "q")])
    pt = fx.crossing
    chorded = chords.evaluate_diagram(real(two, [fx.line_a, fx.line_b], {"p": pt.s, "q": pt.s_bar}), conn)
    merged = chords.gln_ideal_element(two, ("p", "q"))[1][1]
    smoothed = chords.evaluate_diagram(real(merged, [fx.cat], {}), conn)
    stats.gate("chord-ideal", abs(chorded - smoothed), CHORD_TOL)
    one = chords.ChordDiagram([(f"std:{n}", ("a", "b"))], [("a", "b")])
    s_a, s_b = fx.zig_s
    val = chords.evaluate_diagram(real(one, [fx.zig], {"a": s_a, "b": s_b}), conn)
    split = chords.gln_ideal_element(one, ("a", "b"))[1][1]
    want = chords.evaluate_diagram(real(split, [fx.lobe, fx.rest], {}), conn)
    stats.gate("chord-ideal", abs(val - want), CHORD_TOL)


def axioms_check(stats: RunStats, seed: int, k: int, fx: OneshotFixtures) -> None:
    draw = inputs.draw_axioms(inputs.instance_rng(seed, "oneshot", k, inputs.AXIOMS, 0), k)
    model = fx.koszul if draw["koszul"] else fx.even
    p, q, r = (
        sum((model.monomial(c, *word) for c, word in terms), model.zero()) for terms in draw["polys"]
    )
    pp, pq, _ = draw["parities"]
    d = model.d
    br = phasespace.graded_bracket
    anti = br(p, q) + br(q, p).scale((-1) ** ((pp + d) * (pq + d)))
    leib = br(p, q * r) - br(p, q) * r - (q * br(p, r)).scale((-1) ** (pq * (pp + d)))
    jac = br(p, br(q, r)) - br(br(p, q), r) - br(q, br(p, r)).scale((-1) ** ((pp + d) * (pq + d)))
    for name, value in (("antisymmetry", anti), ("leibniz", leib), ("jacobi", jac)):
        stats.exact(f"bracket-axioms {name}", value.is_zero, True)
    if draw["koszul"]:
        _, ddp = phasespace.delta_and_nilpotency(fx.s_koszul, p)
        stats.exact("bracket-axioms nilpotency", ddp.is_zero, True)


ONESHOT_CHECKS = (goldman_check, main_theorem_check, gln_check, chord_4t_check, chord_ideal_check, axioms_check)


def oneshot_instance(stats: RunStats, seed: int, k: int, fixtures) -> None:
    for check in ONESHOT_CHECKS:
        check(stats, seed, k, fixtures)


# ---------------------------------------------------------------------------
# the workloads


@dataclass(frozen=True)
class Workload:
    """One kind of instance, with the fixed count its traced run uses."""

    name: str
    instance: object  # (stats, seed, k, fixtures) -> None, raises on failure
    trace_instances: int
    make_fixtures: object = None  # () -> fixtures shared by every instance

    def fixtures(self):
        return self.make_fixtures() if self.make_fixtures else None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("transport", transport_instance, trace_instances=2),
        Workload("adaptive", adaptive_instance, trace_instances=6),
        Workload("nested", nested_instance, trace_instances=8),
        Workload("oneshot", oneshot_instance, trace_instances=60, make_fixtures=OneshotFixtures),
    )
}


def run_one(workload: Workload, stats: RunStats, seed: int, k: int, fixtures) -> bool:
    """Run and time instance k; a failure is counted and its text kept."""
    stats.attempted += 1
    start = perf_counter()
    try:
        workload.instance(stats, seed, k, fixtures)
    except Exception as err:  # every failure is reported, none stops the run
        stats.failed += 1
        stats.errors.append(f"instance {k}: {type(err).__name__}: {err}")
        return False
    stats.times_s.append(perf_counter() - start)
    return True
