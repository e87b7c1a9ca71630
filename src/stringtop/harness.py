"""Suite orchestration: deterministic instance generation, checks, reports.

Every check is one entry of the ``CHECKS`` table, in suite order: its
statement, default instance count, tolerance, and an instance function
``(rng, k) -> residual`` for instance k. ``_run_one`` is the one loop over
instances: it redraws an instance whose PL positions land degenerately
(``TransversalityError``), sums the redraws, and keeps the worst residual;
a residual that is not finite (NaN compares false with everything) fails
the check with an error naming the instance.
Every check draws from its own generator, spawned from the suite seed and
the check's position in the table, so a selection of checks cannot change
any numerical result. Checks run one after another, so each runtime is
measured without contention. Reports validate against the bundled JSON
schema and rerun byte-identically apart from the runtime fields.

Importing this module builds only the torus. The fixed loops of the chord
checks are built on first use (``_chord_loops``), and fixtures that call
the crossing, concatenation or phase-space layers are built by the
instances that use them, on every call, so a defect in those layers fails
the checks that use them rather than the import. ``lierep``'s sign tables are
built when the package is imported: a defect there is an import error,
which no report can hold.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from importlib import resources
from time import perf_counter
from typing import Callable, Mapping

import numpy as np
from jsonschema import validate as _schema_validate
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from . import __version__
from .brackets import fundamental_identity_check, main_theorem_sides
from .chords import ChordDiagram, DiagramRealization, evaluate_diagram, four_t_combination, gln_ideal_element
from .fields import ConstantCommutingConnection, FieldConfig, FourierField
from .geometry import PLLoop, Torus, VariationField, _integer
from .grassmann import GradedCoefficient
from .holonomy import QuadratureError, gen_transport, transport, wilson
from .lierep import LieBasis, SuperMatrix, fuse_traces
from .phasespace import GradedPhaseModel, delta_and_nilpotency, graded_bracket
from .strings import (
    StringCycle,
    TransversalityError,
    _jacobi_sums,
    concatenate,
    goldman_torus,
    intersections,
    string_bracket,
)

TORUS2 = Torus(2)

# matrix sizes the checks cycle through, theta generators of the field
# configurations, and redraws allowed per instance for degenerate positions
N_LIST = (1, 2, 3)
N_THETA = 2
RETRY_CAP = 8


class RetryCapError(RuntimeError):
    """Instance regeneration hit the retry cap."""


# ---------------------------------------------------------------------------
# configuration and report types


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    counts: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        _integer(self.seed, "seed")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        for name, cnt in self.counts.items():
            if name not in CHECK_NAMES:
                raise ValueError(f"unknown check {name!r} in counts")
            _integer(cnt, f"count for {name!r}")
            if cnt < 1:
                raise ValueError(f"count for {name!r} must be at least 1")

    def count_for(self, check: str) -> int:
        return self.counts.get(check, CHECKS[check].count)

    def echo(self) -> dict:
        return {"seed": self.seed, "counts": {c: self.count_for(c) for c in CHECK_NAMES}}


@dataclass(frozen=True)
class CheckRecord:
    check: str
    statement: str
    instances: int
    retries: int
    max_residual: float | None
    tolerance: float
    passed: bool
    runtime_ms: float
    error: str | None = None

    def to_json_obj(self) -> dict:
        return {("pass" if k == "passed" else k): v for k, v in asdict(self).items()}


@dataclass(frozen=True)
class Report:
    records: tuple[CheckRecord, ...]
    config: dict
    version: str

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json_obj(self) -> dict:
        return {
            "version": self.version,
            "config": self.config,
            "pass": self.passed,
            "checks": [r.to_json_obj() for r in self.records],
        }

    def validate(self) -> None:
        _schema_validate(self.to_json_obj(), _report_schema())


def _report_schema() -> dict:
    text = resources.files("stringtop").joinpath("report_schema.json").read_text()
    return json.loads(text)


def strip_runtime(obj: dict) -> dict:
    """Copy of a report JSON object with runtime fields removed."""
    out = json.loads(json.dumps(obj))
    for rec in out.get("checks", ()):
        rec.pop("runtime_ms", None)
    return out


# ---------------------------------------------------------------------------
# deterministic instance generation


def gen_random_loop(rng, cls=None) -> PLLoop:
    """Random four-vertex rational loop on T^2, rejection-sampled away from zero segments."""
    closure = tuple(int(c) for c in (cls if cls is not None else rng.integers(-2, 3, size=2)))
    while True:
        verts = [
            tuple(
                Fraction(i * c, 4) + Fraction(int(rng.integers(-24, 25)), 128)
                for c in closure
            )
            for i in range(4)
        ]
        ahead = verts[1:] + [tuple(v + c for v, c in zip(verts[0], closure))]
        if any(a == b for a, b in zip(verts, ahead)):
            continue
        return PLLoop(TORUS2, verts, closure)


def _retrying(draw):
    """draw() again when PL positions land degenerately, up to RETRY_CAP retries."""
    retries = 0
    while True:
        try:
            return retries, draw()
        except TransversalityError:
            retries += 1
            if retries > RETRY_CAP:
                raise RetryCapError(f"instance regeneration exceeded {RETRY_CAP} retries")


def _crandn(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rand_conn(rng, n: int) -> ConstantCommutingConnection:
    d1 = np.diag(rng.uniform(-0.5, 0.5, n)).astype(complex)
    d2 = np.diag(rng.uniform(-0.5, 0.5, n)).astype(complex)
    if n > 1:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        d1 = q @ d1 @ q.T
        d2 = q @ d2 @ q.T
    return ConstantCommutingConnection([d1, d2])


def _rand_fourier(rng) -> FourierField:
    modes = ((1, 0), (0, 1), (1, 1))
    picked = rng.choice(len(modes), size=2, replace=False)
    return FourierField.from_dict(
        2, {modes[int(k)]: 0.3 * complex(_crandn(rng)) for k in picked}
    )


def _rand_config(rng, n: int, leg_term: bool = False) -> FieldConfig:
    # all terms odd: dx^1 theta^1 theta^2 and a bare dx^2, then with
    # leg_term a dx^1 dx^2 theta^1, the one term that a leg enters
    forms = [{"indices": (1,), "eps": (1, 2)}, {"indices": (2,)}]
    if leg_term:
        forms.append({"indices": (1, 2), "eps": (1,)})
    return FieldConfig.build(
        TORUS2,
        n,
        N_THETA,
        [dict(form, field=_rand_fourier(rng), lie=0.5 * _crandn(rng, n, n)) for form in forms],
        expect_parity=1,
    )


def _rand_variation(rng, loop: PLLoop) -> VariationField:
    """Random vertex displacements in [-1/8, 1/8]^2, multiples of 1/64."""
    disps = [[Fraction(int(rng.integers(-8, 9)), 64) for _ in range(2)] for _ in loop.vertices]
    return VariationField.from_displacements(loop, disps)


def _rand_class(rng, lo: int = -2, hi: int = 3) -> tuple[int, int]:
    return (int(rng.integers(lo, hi)), int(rng.integers(lo, hi)))


def _rand_line_class(rng) -> tuple[int, int]:
    """Nonzero class: a one-vertex line of class (0, 0) is a constant loop."""
    while True:
        cls = _rand_class(rng)
        if cls != (0, 0):
            return cls


def _rand_even_supermatrix(rng, n: int) -> SuperMatrix:
    masks = [m for m in range(1 << N_THETA) if m.bit_count() % 2 == 0]
    return SuperMatrix(n, N_THETA, {m: _crandn(rng, n, n) for m in masks})


def _rand_poly(model: GradedPhaseModel, rng, parity: int):
    names = model.names
    out = model.zero()
    for _ in range(3):
        while True:
            word = tuple(
                names[int(i)] for i in rng.integers(0, len(names), size=int(rng.integers(1, 4)))
            )
            term = model.monomial(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))), *word)
            if term.is_zero or term.parity == parity:
                break
        out = out + term
    return out


# fixed chord geometry: a self-crossing zigzag of class (1,0) whose first
# and last segments meet at (1/2,1/6), lines through that crossing, and
# the zigzag split at its self-crossing into a contractible lobe and the rest
_ZIG_S = (Fraction(2, 9), Fraction(7, 9))


@functools.cache
def _chord_loops() -> dict[str, PLLoop]:
    """The fixed loops of the chord checks by name, built on first use, so
    that a defect in ``PLLoop`` fails the checks that use them rather than
    the import."""
    return {
        "zig": PLLoop(TORUS2, [(0, 0), (Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4))], closure=(1, 0)),
        "vert": PLLoop(TORUS2, [(Fraction(1, 2), 0)], closure=(0, 1)),
        "line_a": PLLoop(TORUS2, [(0, 0)], closure=(1, 0)),
        "line_b": PLLoop(TORUS2, [(Fraction(1, 3), Fraction(1, 5))], closure=(0, 1)),
        "lobe": PLLoop(TORUS2, [(Fraction(1, 2), Fraction(1, 6)), (Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4))], closure=(0, 0)),
        "rest": PLLoop(TORUS2, [(Fraction(1, 2), Fraction(1, 6)), (1, 0)], closure=(1, 0)),
    }


# ---------------------------------------------------------------------------
# instances: each draws instance k from rng and returns its residual; exact
# integer/rational checks return 0.0 or 1.0


def _gln(rng, k: int) -> float:
    n = N_LIST[k % len(N_LIST)]
    if k % 5 == 4:
        mats = [_rand_even_supermatrix(rng, n) for _ in range(4)]
    else:
        mats = [SuperMatrix.from_body(_crandn(rng, n, n), 0) for _ in range(4)]
    a1, a2, b1, b2 = mats
    fused = fuse_traces(a1, a2, b1, b2, LieBasis(n))
    single = (a1 @ b2 @ b1 @ a2).trace()
    return fused.distance(single) / max(fused.norm(), single.norm(), 1.0)


def _pieces(loop: PLLoop, s: Fraction, t: Fraction):
    """Split [s, t] into per-segment pieces (i, lo, hi) with exact endpoints."""
    k = loop.num_segments
    if not 0 <= s <= t <= 1:
        raise ValueError("need 0 <= s <= t <= 1")
    pieces = []
    i = int(s * k)
    while Fraction(i, k) < t:
        lo = max(s, Fraction(i, k))
        hi = min(t, Fraction(i + 1, k))
        if lo < hi:
            pieces.append((i, lo, hi))
        i += 1
    return pieces


def transport_by_pieces(conn, loop: PLLoop, s=Fraction(0), t=Fraction(1)) -> np.ndarray:
    """Oracle for ``transport``: the path-ordered product over the pieces of [s, t].

    Each piece of one segment contributes exp(A(b - a)), its end points a
    and b formed as Fractions by ``point_at``. The product runs in path
    order and never merges exponentials, so it equals the connection's
    ``transport`` only because the direction matrices commute. Each factor
    is scipy's ``expm`` called here, not one the connection keeps, so the
    oracle shares no kept exponential with ``transport``.
    """
    out = np.eye(conn.n, dtype=complex)
    for _, lo, hi in _pieces(loop, Fraction(s), Fraction(t)):
        a = loop.point_at(lo)
        b = loop.point_at(hi)
        out = out @ expm(conn.matrix_of([float(y - x) for x, y in zip(a, b)]))
    return out


def _leg_values_at(variations, i: int, u: float) -> list[np.ndarray]:
    """The variation values at local coordinate u of segment i,
    interpolated between its two vertex displacements."""
    values = []
    for var in variations:
        a = np.array([float(c) for c in var.displacement(i)])
        b = np.array([float(c) for c in var.displacement(i + 1)])
        values.append(a + u * (b - a))
    return values


def insertion_matrix_at(config: FieldConfig, pos, vel, leg_values, n_legs: int) -> SuperMatrix:
    """M(t) at one point, from symbolic Grassmann products.

    Oracle for the slot basis of ``holonomy._Slots``: each form monomial
    takes the velocity in each of its slots in turn, with the leg elements
    W^mu = sum_i w_i v_i^mu in the others, multiplied out as
    ``GradedCoefficient`` products.
    """
    n_theta = config.n_theta
    n_gen = n_theta + n_legs
    comps: dict[int, np.ndarray] = {}
    w_elements = [
        GradedCoefficient(
            {1 << (n_theta + idx): complex(val[mu]) for idx, val in enumerate(leg_values) if val[mu] != 0},
            n_gen,
        )
        for mu in range(config.space.d)
    ]
    for mask, field, mat in config.terms:
        bits = config.form_degree_bits(mask)
        if not bits:
            continue
        fval = field.evaluate(pos)
        theta = GradedCoefficient({config.theta_mask(mask): 1.0}, n_gen)
        gc = GradedCoefficient({}, n_gen)
        for a in range(len(bits)):
            part = GradedCoefficient({0: 1}, n_gen)
            for b in range(len(bits)):
                if b != a:
                    part = part * w_elements[bits[b]]
            sign = -1.0 if a % 2 else 1.0
            gc = gc + (part * theta).scale(sign * vel[bits[a]] * fval)
        for gm, gv in gc.masks.items():
            comps[gm] = comps.get(gm, 0) + complex(gv) * mat
    return SuperMatrix(config.n, n_gen, comps)


# relative tolerance of the integrator, and a thousandth of it absolute
ODE_RTOL = 1e-13
# right-hand-side evaluations one integration may take: 10x the most that
# one transport-accuracy instance took over suite seeds 0-19 (1,748)
ODE_MAX_RHS = 17_480


def gen_transport_ode(conn, config: FieldConfig, loop: PLLoop, variations=()) -> SuperMatrix:
    """Oracle for ``gen_transport``: U' = U (A v + M(t)) integrated by an
    explicit Runge-Kutta method around the whole loop.

    Independent of the stepping: no step exponential, no slot basis and no
    extrapolation. ``scipy.integrate.solve_ivp`` (DOP853) integrates the
    component stack of U over each segment [i / K, (i + 1) / K], where the
    velocity is constant, and the segments are chained. Their start points
    and velocities are the floats of the exact ``Fraction`` vertices. M(t)
    is assembled from symbolic Grassmann products (``insertion_matrix_at``).

    A right-hand side that diverges would keep DOP853 stepping without
    end, so the integration raises ``QuadratureError`` past
    ``ODE_MAX_RHS`` evaluations over the whole loop.
    """
    n_gen = config.n_theta + len(variations)
    evaluations = 0
    k_seg = loop.num_segments
    u_mat = SuperMatrix.from_body(np.eye(config.n), n_gen)
    for i in range(k_seg):
        a, b = loop.vertex(i), loop.vertex(i + 1)
        start = np.array([float(x) for x in a])
        vel = np.array([float(k_seg * (y - x)) for x, y in zip(a, b)])
        lo = i / k_seg
        a_vel = SuperMatrix.from_body(conn.matrix_of(vel), n_gen)

        def rhs(tau, y):
            nonlocal evaluations
            evaluations += 1
            if evaluations > ODE_MAX_RHS:
                raise QuadratureError(f"the integrator took more than {ODE_MAX_RHS} right-hand-side evaluations")
            pos = start + (tau - lo) * vel
            legs = _leg_values_at(variations, i, tau * k_seg - i)
            m = insertion_matrix_at(config, pos, vel, legs, len(variations))
            u = SuperMatrix._of(y.reshape(u_mat.components.shape))
            return (u @ (a_vel + m)).components.ravel()

        sol = solve_ivp(
            rhs, (lo, (i + 1) / k_seg), u_mat.components.ravel(), method="DOP853", rtol=ODE_RTOL, atol=ODE_RTOL * 1e-3
        )
        if not sol.success:
            raise RuntimeError(sol.message)
        u_mat = SuperMatrix._of(sol.y[:, -1].reshape(u_mat.components.shape))
    return u_mat


def _holonomy(rng, k: int) -> float:
    conn = _rand_conn(rng, N_LIST[k % len(N_LIST)])
    loop = gen_random_loop(rng)
    u = transport(conn, loop)
    scale = max(float(np.max(np.abs(u))), 1.0)
    t = Fraction(int(rng.integers(1, 16)), 16)
    head = transport(conn, loop, Fraction(0), t)
    comp = head @ transport(conn, loop, t, Fraction(1))
    rot = loop.rotate_marked(int(rng.integers(0, loop.num_segments)))
    sub = loop.subdivide_segment(int(rng.integers(0, loop.num_segments)), Fraction(1, 3))
    gaps = (
        u - transport_by_pieces(conn, loop),
        head - transport_by_pieces(conn, loop, Fraction(0), t),
        u - comp,
        np.trace(u) - np.trace(transport_by_pieces(conn, rot)),
        u - transport_by_pieces(conn, sub),
        transport(conn, loop, t, t + 1) - transport_by_pieces(conn, loop, t) @ transport_by_pieces(conn, loop, Fraction(0), t),
    )
    return max(float(np.max(np.abs(g))) for g in gaps) / scale


def _gauge(rng, k: int) -> float:
    n = N_LIST[k % len(N_LIST)]
    conn = _rand_conn(rng, n)
    config = _rand_config(rng, n)
    loop = gen_random_loop(rng)
    g = expm(0.4 * _crandn(rng, n, n))
    w1 = wilson(conn, config, loop)
    w2 = wilson(conn.gauge(g), config.gauge(g), loop)
    return w1.distance(w2) / max(w1.norm(), 1.0)


def _fundamental(rng, k: int) -> float:
    n = N_LIST[k % len(N_LIST)]
    conn = _rand_conn(rng, n)
    config = _rand_config(rng, n)
    loop = gen_random_loop(rng)
    return fundamental_identity_check(conn, config, loop, _rand_variation(rng, loop))


def _transport_accuracy(rng, k: int) -> float:
    n = (2, 3)[k % 2]
    conn = _rand_conn(rng, n)
    config = _rand_config(rng, n, leg_term=True)
    loop = gen_random_loop(rng)
    legs = [_rand_variation(rng, loop)]
    ref = gen_transport_ode(conn, config, loop, variations=legs)
    return gen_transport(conn, config, loop, variations=legs).distance(ref) / ref.norm()


def _goldman(rng, k: int) -> float:
    c1 = _rand_class(rng, -3, 4)
    c2 = _rand_class(rng, -3, 4)
    l1 = gen_random_loop(rng, c1)
    l2 = gen_random_loop(rng, c2)
    br = string_bracket(StringCycle.from_loop(l1), StringCycle.from_loop(l2))
    n_cross, total = goldman_torus(c1, c2)
    expect = {total: n_cross} if n_cross else {}
    # the stored terms must be normal forms: re-normalizing them changes nothing
    return 0.0 if br.class_reduction() == expect and StringCycle(br.terms) == br else 1.0


def _rand_line(rng, cls) -> PLLoop:
    base = (Fraction(int(rng.integers(0, 97)), 97), Fraction(int(rng.integers(0, 89)), 89))
    return PLLoop(TORUS2, [base], closure=cls)


def _main_theorem(rng, k: int) -> float:
    conn = _rand_conn(rng, N_LIST[k % len(N_LIST)])
    lines = k % 3 != 2
    draw_class = _rand_line_class if lines else _rand_class
    c1 = draw_class(rng)
    c2 = (c1[0] * 2, c1[1] * 2) if k % 5 == 4 else draw_class(rng)
    if lines:
        l1, l2 = _rand_line(rng, c1), _rand_line(rng, c2)
    else:
        l1, l2 = gen_random_loop(rng, c1), gen_random_loop(rng, c2)
    lhs, rhs = main_theorem_sides(StringCycle.from_loop(l1), StringCycle.from_loop(l2), conn)
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _jacobi(rng, k: int) -> float:
    cycles = [
        StringCycle.from_loop(gen_random_loop(rng, _rand_class(rng))) for _ in range(3)
    ]
    residual, totals = _jacobi_sums(*cycles)
    # each summand {{x;y};z} must keep its class total (x.y)((x+y).z): a zero
    # residual whose outer brackets lost their crossings is not Jacobi's
    x, y, z = (cycle.terms[0][1].closure for cycle in cycles)
    want = []
    for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
        count, total = goldman_torus(p, q)
        want.append(count * goldman_torus(total, r)[0])
    return 0.0 if residual.is_zero and totals == want else 1.0


def _phase_model(k: int) -> GradedPhaseModel:
    """The model of bracket-axioms instance k: an even Darboux pair for
    even k, else a Koszul model, whose odd BV generator is xd c."""
    if k % 2 == 0:
        return GradedPhaseModel([("q", 0), ("p", 0)], {("q", "p"): Fraction(1)}, d=2)
    return GradedPhaseModel(
        [("x", 0), ("c", 1), ("xd", 1), ("cd", 0)],
        {("x", "xd"): Fraction(1), ("c", "cd"): Fraction(1)},
        d=1,
    )


def _bracket_axioms(rng, k: int) -> float:
    model = _phase_model(k)
    hi = 2 if any(model.parities) else 1
    pp, pq, pr = (int(x) for x in rng.integers(0, hi, size=3))
    p = _rand_poly(model, rng, pp)
    q = _rand_poly(model, rng, pq)
    r = _rand_poly(model, rng, pr)
    d = model.d
    anti = graded_bracket(p, q) + graded_bracket(q, p).scale((-1) ** ((pp + d) * (pq + d)))
    leib = (
        graded_bracket(p, q * r)
        - graded_bracket(p, q) * r
        - (q * graded_bracket(p, r)).scale((-1) ** (pq * (pp + d)))
    )
    jac = (
        graded_bracket(p, graded_bracket(q, r))
        - graded_bracket(graded_bracket(p, q), r)
        - graded_bracket(q, graded_bracket(p, r)).scale((-1) ** ((pp + d) * (pq + d)))
    )
    holds = anti.is_zero and leib.is_zero and jac.is_zero
    if k % 2:
        holds = holds and delta_and_nilpotency(model.monomial(1, "xd", "c"), p)[1].is_zero
    return 0.0 if holds else 1.0


def _chord_4t(rng, k: int) -> float:
    n = N_LIST[k % len(N_LIST)]
    conn = _rand_conn(rng, n)
    base = ChordDiagram(
        [(f"std:{n}", ("p", "q", "x")), (f"std:{n}", ("y",))],
        [("p", "q"), ("x", "y")],
    )
    s_a, s_b = _ZIG_S
    loops = _chord_loops()
    total = 0j
    for j, (sign, term) in enumerate(four_t_combination(base, "x", ("p", "q"))):
        s_x = s_a if j < 2 else s_b
        real = DiagramRealization(
            term, [loops["zig"], loops["vert"]], {"p": s_a, "q": s_b, "x": s_x, "y": Fraction(1, 6)}
        )
        total += sign * evaluate_diagram(real, conn)
    return abs(total)


def _chord_ideal(rng, k: int) -> float:
    n = N_LIST[k % len(N_LIST)]
    conn = _rand_conn(rng, n)
    loops = _chord_loops()
    line_a, line_b = loops["line_a"], loops["line_b"]
    # the one crossing of the two lines, and their concatenation there
    cross = intersections(line_a, line_b)[0]
    two = ChordDiagram([(f"std:{n}", ("p",)), (f"std:{n}", ("q",))], [("p", "q")])
    chorded = evaluate_diagram(
        DiagramRealization(two, [line_a, line_b], {"p": cross.s, "q": cross.s_bar}), conn
    )
    merged = gln_ideal_element(two, ("p", "q"))[1][1]
    cat = concatenate(line_a, line_b, cross)
    smoothed = evaluate_diagram(DiagramRealization(merged, [cat], {}), conn)
    s_a, s_b = _ZIG_S
    one = ChordDiagram([(f"std:{n}", ("a", "b"))], [("a", "b")])
    val = evaluate_diagram(DiagramRealization(one, [loops["zig"]], {"a": s_a, "b": s_b}), conn)
    split = gln_ideal_element(one, ("a", "b"))[1][1]
    want = evaluate_diagram(DiagramRealization(split, [loops["lobe"], loops["rest"]], {}), conn)
    return max(abs(chorded - smoothed), abs(val - want))


# ---------------------------------------------------------------------------
# the check table, in suite order: a check's position is its spawn key, so
# reordering the table changes every draw


@dataclass(frozen=True)
class Check:
    statement: str
    count: int
    tolerance: float
    instance: Callable[[np.random.Generator, int], float]


CHECKS = {
    "gln": Check(
        "basis-summed kappa contraction of two traces equals the fused single trace",
        150, 1e-10, _gln,
    ),
    "holonomy": Check(
        "transport's single exponential matches the path-ordered product over pieces, composes, and ignores marking and subdivision",
        12, 1e-8, _holonomy,
    ),
    "gauge": Check(
        "Wilson values are unchanged under constant gauge conjugation",
        10, 1e-9, _gauge,
    ),
    "fundamental": Check(
        "central-difference deformation derivative equals the obstruction insertion integral",
        4, 2e-6, _fundamental,
    ),
    "goldman": Check(
        "string bracket of random representatives reduces to the straight-line crossing count",
        40, 1e-12, _goldman,
    ),
    "main-theorem": Check(
        "bracket of two holonomy traces equals the trace over the string bracket",
        20, 1e-9, _main_theorem,
    ),
    "jacobi": Check(
        "eta-weighted cyclic double brackets vanish on chains",
        10, 1e-12, _jacobi,
    ),
    "bracket-axioms": Check(
        "graded antisymmetry, Leibniz, Jacobi, and differential nilpotency hold exactly",
        30, 1e-12, _bracket_axioms,
    ),
    "chord-4t": Check(
        "four-term chord combinations evaluate to zero",
        9, 1e-10, _chord_4t,
    ),
    "chord-ideal": Check(
        "chord contraction matches the reconnected trace in the standard representation",
        9, 1e-10, _chord_ideal,
    ),
    "transport-accuracy": Check(
        "generalized transport with one leg matches an independent Runge-Kutta integration",
        2, 1.5e-9, _transport_accuracy,
    ),
}

CHECK_NAMES = tuple(CHECKS)


# ---------------------------------------------------------------------------
# suite driver


def _run_one(cfg: SuiteConfig, name: str) -> CheckRecord:
    check = CHECKS[name]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(CHECK_NAMES.index(name),)))
    count = cfg.count_for(name)
    start = perf_counter()
    retries, worst, error = 0, 0.0, None
    try:
        for k in range(count):
            r, res = _retrying(lambda: check.instance(rng, k))
            retries += r
            if not math.isfinite(res):
                error = f"instance {k}: residual is {res}"
                break
            worst = max(worst, res)
    except RetryCapError as err:
        error = str(err)
    except Exception as err:  # one failing check must not end the suite
        error = f"{type(err).__name__}: {err}"
    done = error is None
    return CheckRecord(
        check=name,
        statement=check.statement,
        instances=count if done else 0,
        retries=retries if done else 0,
        max_residual=worst if done else None,
        tolerance=check.tolerance,
        passed=done and worst <= check.tolerance,
        runtime_ms=(perf_counter() - start) * 1e3,
        error=error,
    )


def run_suite(config: SuiteConfig, selection=None) -> Report:
    """Run the selected checks (all by default) and return a validated report."""
    if selection is None:
        names = list(CHECK_NAMES)
    else:
        unknown = sorted(set(selection) - set(CHECK_NAMES))
        if unknown:
            raise ValueError(f"unknown check name(s): {', '.join(unknown)}")
        names = [c for c in CHECK_NAMES if c in set(selection)]
    records = tuple(_run_one(config, name) for name in names)
    report = Report(records=records, config=config.echo(), version=__version__)
    report.validate()
    return report
