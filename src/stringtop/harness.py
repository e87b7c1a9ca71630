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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from time import perf_counter
from typing import Callable, Mapping

import numpy as np
from jsonschema import validate as _schema_validate
from scipy.linalg import expm

from . import __version__
from .brackets import fundamental_identity_check, main_theorem_sides
from .chords import ChordDiagram, DiagramRealization, evaluate_diagram, four_t_combination, gln_ideal_element
from .fields import ConstantCommutingConnection, FieldConfig, FourierField
from .geometry import PLLoop, Torus, VariationField
from .holonomy import _pieces, transport, wilson
from .lierep import LieBasis, SuperMatrix, fuse_traces
from .phasespace import GradedPhaseModel, delta_and_nilpotency, graded_bracket
from .strings import (
    StringCycle,
    TransversalityError,
    concatenate,
    goldman_torus,
    intersections,
    jacobi_residual,
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
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        for name, cnt in self.counts.items():
            if name not in CHECK_NAMES:
                raise ValueError(f"unknown check {name!r} in counts")
            if cnt < 1:
                raise ValueError(f"count for {name!r} must be at least 1")

    def count_for(self, check: str) -> int:
        return int(self.counts.get(check, CHECKS[check].count))

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
        return {
            "check": self.check,
            "statement": self.statement,
            "instances": self.instances,
            "retries": self.retries,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "runtime_ms": self.runtime_ms,
            "error": self.error,
        }


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


def _rand_config(rng, n: int) -> FieldConfig:
    # both terms odd: dx^1 theta^1 theta^2 and a bare dx^2
    return FieldConfig.build(
        TORUS2,
        n,
        N_THETA,
        [
            {"indices": (1,), "eps": (1, 2), "field": _rand_fourier(rng), "lie": 0.5 * _crandn(rng, n, n)},
            {"indices": (2,), "field": _rand_fourier(rng), "lie": 0.5 * _crandn(rng, n, n)},
        ],
        expect_parity=1,
    )


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
# and last segments meet at (1/2,1/6), and lines through that crossing
_ZIG = PLLoop(TORUS2, [(0, 0), (Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4))], closure=(1, 0))
_ZIG_S = (Fraction(2, 9), Fraction(7, 9))
_VERT = PLLoop(TORUS2, [(Fraction(1, 2), 0)], closure=(0, 1))
_LINE_A = PLLoop(TORUS2, [(0, 0)], closure=(1, 0))
_LINE_B = PLLoop(TORUS2, [(Fraction(1, 3), Fraction(1, 5))], closure=(0, 1))
# the one crossing of the two lines and their concatenation there; the
# zigzag split at its self-crossing into a contractible lobe and the rest
_CROSS = intersections(_LINE_A, _LINE_B)[0]
_CAT = concatenate(_LINE_A, _LINE_B, _CROSS)
_LOBE = PLLoop(TORUS2, [(Fraction(1, 2), Fraction(1, 6)), (Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4))], closure=(0, 0))
_REST = PLLoop(TORUS2, [(Fraction(1, 2), Fraction(1, 6)), (1, 0)], closure=(1, 0))

# phase models of the bracket axioms: an even Darboux pair, and a Koszul
# model with its odd BV generator s_koszul
_EVEN = GradedPhaseModel([("q", 0), ("p", 0)], {("q", "p"): Fraction(1)}, d=2)
_KOSZUL = GradedPhaseModel(
    [("x", 0), ("c", 1), ("xd", 1), ("cd", 0)],
    {("x", "xd"): Fraction(1), ("c", "cd"): Fraction(1)},
    d=1,
)
_S_KOSZUL = _KOSZUL.monomial(1, "xd", "c")


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


def transport_by_pieces(conn, loop: PLLoop, s=Fraction(0), t=Fraction(1)) -> np.ndarray:
    """Oracle for ``transport``: the path-ordered product over the pieces of [s, t].

    Each piece of one segment contributes exp(A(b - a)), its end points a
    and b formed as Fractions by ``point_at``. The product runs in path
    order and never merges exponentials, so it equals ``transport``'s
    single exponential only because the direction matrices commute.
    """
    out = np.eye(conn.n, dtype=complex)
    for _, lo, hi in _pieces(loop, Fraction(s), Fraction(t)):
        a = loop.point_at(lo)
        b = loop.point_at(hi)
        out = out @ expm(conn.matrix_of([float(y - x) for x, y in zip(a, b)]))
    return out


def _holonomy(rng, k: int) -> float:
    conn = _rand_conn(rng, N_LIST[k % len(N_LIST)])
    loop = gen_random_loop(rng)
    u = transport(conn, loop)
    scale = max(float(np.max(np.abs(u))), 1.0)
    t = Fraction(int(rng.integers(1, 16)), 16)
    head = transport(conn, loop, Fraction(0), t)
    comp = transport(conn, loop, t, Fraction(1)) @ head
    rot = loop.rotate_marked(int(rng.integers(0, loop.num_segments)))
    sub = loop.subdivide_segment(int(rng.integers(0, loop.num_segments)), Fraction(1, 3))
    gaps = (
        u - transport_by_pieces(conn, loop),
        head - transport_by_pieces(conn, loop, Fraction(0), t),
        u - comp,
        np.trace(u) - np.trace(transport_by_pieces(conn, rot)),
        u - transport_by_pieces(conn, sub),
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
    disps = [[Fraction(int(rng.integers(-8, 9)), 64) for _ in range(2)] for _ in loop.vertices]
    v = VariationField.from_displacements(loop, disps)
    return fundamental_identity_check(conn, config, loop, v)


def _goldman(rng, k: int) -> float:
    c1 = _rand_class(rng, -3, 4)
    c2 = _rand_class(rng, -3, 4)
    l1 = gen_random_loop(rng, c1)
    l2 = gen_random_loop(rng, c2)
    br = string_bracket(StringCycle.from_loop(l1), StringCycle.from_loop(l2))
    n_cross, total = goldman_torus(c1, c2)
    expect = {total: n_cross} if n_cross else {}
    return 0.0 if br.class_reduction() == expect else 1.0


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
    return 0.0 if jacobi_residual(*cycles).class_reduction() == {} else 1.0


def _bracket_axioms(rng, k: int) -> float:
    model = (_EVEN, _KOSZUL)[k % 2]
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
    if model is _KOSZUL:
        holds = holds and delta_and_nilpotency(_S_KOSZUL, p)[1].is_zero
    return 0.0 if holds else 1.0


def _chord_4t(rng, k: int) -> float:
    n = N_LIST[k % len(N_LIST)]
    conn = _rand_conn(rng, n)
    base = ChordDiagram(
        [(f"std:{n}", ("p", "q", "x")), (f"std:{n}", ("y",))],
        [("p", "q"), ("x", "y")],
    )
    s_a, s_b = _ZIG_S
    total = 0j
    for j, (sign, term) in enumerate(four_t_combination(base, "x", ("p", "q"))):
        s_x = s_a if j < 2 else s_b
        real = DiagramRealization(
            term, [_ZIG, _VERT], {"p": s_a, "q": s_b, "x": s_x, "y": Fraction(1, 6)}
        )
        total += sign * evaluate_diagram(real, conn)
    return abs(total)


def _chord_ideal(rng, k: int) -> float:
    n = N_LIST[k % len(N_LIST)]
    conn = _rand_conn(rng, n)
    two = ChordDiagram([(f"std:{n}", ("p",)), (f"std:{n}", ("q",))], [("p", "q")])
    chorded = evaluate_diagram(
        DiagramRealization(two, [_LINE_A, _LINE_B], {"p": _CROSS.s, "q": _CROSS.s_bar}), conn
    )
    merged = gln_ideal_element(two, ("p", "q"))[1][1]
    smoothed = evaluate_diagram(DiagramRealization(merged, [_CAT], {}), conn)
    s_a, s_b = _ZIG_S
    one = ChordDiagram([(f"std:{n}", ("a", "b"))], [("a", "b")])
    val = evaluate_diagram(DiagramRealization(one, [_ZIG], {"a": s_a, "b": s_b}), conn)
    split = gln_ideal_element(one, ("a", "b"))[1][1]
    want = evaluate_diagram(DiagramRealization(split, [_LOBE, _REST], {}), conn)
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
        "eta-weighted cyclic double brackets reduce to zero on classes",
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
