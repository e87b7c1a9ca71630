"""Suite orchestration: deterministic instance generation, checks, reports.

Every check draws from its own generator, spawned from the suite seed and
the check's fixed position, so a selection of checks cannot change any
numerical result. Checks run one after another, so each runtime is
measured without contention. Reports validate against the bundled JSON
schema and rerun byte-identically apart from the runtime fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from time import perf_counter
from typing import Mapping

import numpy as np
from jsonschema import validate as _schema_validate
from scipy.linalg import expm

from . import __version__
from .brackets import fundamental_identity_check, main_theorem_sides
from .chords import ChordDiagram, DiagramRealization, evaluate_diagram, four_t_combination, gln_ideal_element
from .fields import ConstantCommutingConnection, FieldConfig, FourierField
from .geometry import PLLoop, Torus, VariationField
from .holonomy import transport, wilson
from .lierep import LieBasis, SuperMatrix, fuse_traces
from .phasespace import GradedPhaseModel, delta_and_nilpotency, graded_bracket
from .strings import StringCycle, TransversalityError, goldman_torus, jacobi_residual, string_bracket

TORUS2 = Torus(2)

CHECK_NAMES = (
    "gln",
    "holonomy",
    "gauge",
    "fundamental",
    "goldman",
    "main-theorem",
    "jacobi",
    "bracket-axioms",
    "chord-4t",
    "chord-ideal",
)

_STATEMENTS = {
    "gln": "basis-summed kappa contraction of two traces equals the fused single trace",
    "holonomy": "transport composes, matches the commuting closed form, and ignores parametrization",
    "gauge": "Wilson values are unchanged under constant gauge conjugation",
    "fundamental": "central-difference deformation derivative equals the obstruction insertion integral",
    "goldman": "string bracket of random representatives reduces to the straight-line crossing count",
    "main-theorem": "bracket of two holonomy traces equals the trace over the string bracket",
    "jacobi": "eta-weighted cyclic double brackets reduce to zero on classes",
    "bracket-axioms": "graded antisymmetry, Leibniz, Jacobi, and differential nilpotency hold exactly",
    "chord-4t": "four-term chord combinations evaluate to zero",
    "chord-ideal": "chord contraction matches the reconnected trace in the standard representation",
}

# matrix sizes the checks cycle through, theta generators of the field
# configurations, and redraws allowed per instance for degenerate positions
N_LIST = (1, 2, 3)
N_THETA = 2
RETRY_CAP = 8

# (default instance count, tolerance); exact integer/rational checks report
# 0.0 or 1.0 against a positive tolerance
_DEFAULTS = {
    "gln": (150, 1e-10),
    "holonomy": (12, 1e-8),
    "gauge": (10, 1e-9),
    "fundamental": (4, 1e-4),
    "goldman": (40, 1e-12),
    "main-theorem": (20, 1e-9),
    "jacobi": (10, 1e-12),
    "bracket-axioms": (30, 1e-12),
    "chord-4t": (9, 1e-10),
    "chord-ideal": (9, 1e-10),
}


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
        return int(self.counts.get(check, _DEFAULTS[check][0]))

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"verification report  version {self.version}  seed {self.config['seed']}",
            f"{'check':<16}{'instances':>10}{'retries':>9}{'max residual':>14}{'tolerance':>11}{'time':>9}  status",
        ]
        for r in self.records:
            res = "-" if r.max_residual is None else f"{r.max_residual:.2e}"
            status = "pass" if r.passed else "FAIL"
            lines.append(
                f"{r.check:<16}{r.instances:>10}{r.retries:>9}{res:>14}"
                f"{r.tolerance:>11.1e}{r.runtime_ms:>7.0f}ms  {status}"
            )
            if r.error:
                lines.append(f"{'':16}  error: {r.error}")
        good = sum(1 for r in self.records if r.passed)
        lines.append(
            f"overall: {'pass' if self.passed else 'FAIL'} ({good}/{len(self.records)} checks)"
        )
        return "\n".join(lines)

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


def gen_random_loop(space, cls=None, vertex_count: int = 4, seed=0) -> PLLoop:
    """Random rational-vertex loop, rejection-sampled away from zero segments."""
    if vertex_count < 3:
        raise ValueError("vertex_count must be at least 3")
    rng = np.random.default_rng(seed)
    d = space.d
    if isinstance(space, Torus):
        closure = tuple(
            int(c) for c in (cls if cls is not None else rng.integers(-2, 3, size=d))
        )
    else:
        closure = (0,) * d
    while True:
        verts = []
        for i in range(vertex_count):
            vert = tuple(
                Fraction(i * c, vertex_count) + Fraction(int(rng.integers(-24, 25)), 128)
                for c in closure
            )
            verts.append(vert)
        ahead = verts[1:] + [tuple(v + c for v, c in zip(verts[0], closure))]
        if any(a == b for a, b in zip(verts, ahead)):
            continue
        return PLLoop(space, verts, closure if isinstance(space, Torus) else None)


_DEGENERATE_HINTS = ("collinear overlap", "vertex or marked point")


def _retrying(draw):
    """draw() again when PL positions land degenerately, up to RETRY_CAP retries."""
    retries = 0
    while True:
        try:
            return retries, draw()
        except TransversalityError:
            pass
        except ValueError as err:
            if not any(hint in str(err) for hint in _DEGENERATE_HINTS):
                raise
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


# fixed chord geometry: a self-crossing zigzag of class (1,0) whose first
# and last segments meet at (1/2,1/6), and lines through that crossing
_ZIG = PLLoop(TORUS2, [(0, 0), (Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4))], closure=(1, 0))
_ZIG_S = (Fraction(2, 9), Fraction(7, 9))
_VERT = PLLoop(TORUS2, [(Fraction(1, 2), 0)], closure=(0, 1))
_LINE_A = PLLoop(TORUS2, [(0, 0)], closure=(1, 0))
_LINE_B = PLLoop(TORUS2, [(Fraction(1, 3), Fraction(1, 5))], closure=(0, 1))


# ---------------------------------------------------------------------------
# check bodies: each returns (instances, retries, max_residual)


def _check_gln(cfg: SuiteConfig, rng) -> tuple[int, int, float]:
    count = cfg.count_for("gln")
    worst = 0.0
    for k in range(count):
        n = N_LIST[k % len(N_LIST)]
        basis = LieBasis(n)
        if k % 5 == 4:
            mats = [_rand_even_supermatrix(rng, n) for _ in range(4)]
        else:
            mats = [SuperMatrix.from_body(_crandn(rng, n, n), 0) for _ in range(4)]
        a1, a2, b1, b2 = mats
        fused = fuse_traces(a1, a2, b1, b2, basis)
        single = (a1 @ b2 @ b1 @ a2).trace()
        scale = max(fused.norm(), single.norm(), 1.0)
        worst = max(worst, fused.distance(single) / scale)
    return count, 0, worst


def _check_holonomy(cfg: SuiteConfig, rng) -> tuple[int, int, float]:
    count = cfg.count_for("holonomy")
    worst = 0.0
    for k in range(count):
        n = N_LIST[k % len(N_LIST)]
        conn = _rand_conn(rng, n)
        loop = gen_random_loop(TORUS2, None, 4, rng)
        u = transport(conn, loop)
        scale = max(float(np.max(np.abs(u))), 1.0)
        m = loop.lattice_class()
        closed = expm(m[0] * conn.mats[0] + m[1] * conn.mats[1])
        t = Fraction(int(rng.integers(1, 16)), 16)
        comp = transport(conn, loop, t, Fraction(1)) @ transport(conn, loop, Fraction(0), t)
        rot = loop.rotate_marked(int(rng.integers(0, loop.num_segments)))
        sub = loop.subdivide_segment(int(rng.integers(0, loop.num_segments)), Fraction(1, 3))
        worst = max(
            worst,
            float(np.max(np.abs(u - closed))) / scale,
            float(np.max(np.abs(u - comp))) / scale,
            abs(np.trace(u) - np.trace(transport(conn, rot))) / scale,
            float(np.max(np.abs(u - transport(conn, sub)))) / scale,
        )
    return count, 0, worst


def _check_gauge(cfg: SuiteConfig, rng) -> tuple[int, int, float]:
    count = cfg.count_for("gauge")
    worst = 0.0
    for k in range(count):
        n = N_LIST[k % len(N_LIST)]
        conn = _rand_conn(rng, n)
        config = _rand_config(rng, n)
        loop = gen_random_loop(TORUS2, None, 4, rng)
        g = expm(0.4 * _crandn(rng, n, n))
        w1 = wilson(conn, config, loop)
        w2 = wilson(conn.gauge(g), config.gauge(g), loop)
        worst = max(worst, w1.distance(w2) / max(w1.norm(), 1.0))
    return count, 0, worst


def _check_fundamental(cfg: SuiteConfig, rng) -> tuple[int, int, float]:
    count = cfg.count_for("fundamental")
    worst = 0.0
    for k in range(count):
        n = N_LIST[k % len(N_LIST)]
        conn = _rand_conn(rng, n)
        config = _rand_config(rng, n)
        loop = gen_random_loop(TORUS2, None, 4, rng)
        disps = [
            [Fraction(int(rng.integers(-8, 9)), 64) for _ in range(2)]
            for _ in loop.vertices
        ]
        v = VariationField.from_displacements(loop, disps)
        worst = max(worst, fundamental_identity_check(conn, config, loop, v))
    return count, 0, worst


def _check_goldman(cfg: SuiteConfig, rng) -> tuple[int, int, float]:
    count = cfg.count_for("goldman")
    worst = 0.0
    retries = 0

    for _ in range(count):
        def one():
            c1 = _rand_class(rng, -3, 4)
            c2 = _rand_class(rng, -3, 4)
            l1 = gen_random_loop(TORUS2, c1, 4, rng)
            l2 = gen_random_loop(TORUS2, c2, 4, rng)
            br = string_bracket(StringCycle.from_loop(l1), StringCycle.from_loop(l2))
            n_cross, total = goldman_torus(c1, c2)
            expect = {total: n_cross} if n_cross else {}
            return 0.0 if br.class_reduction() == expect else 1.0

        r, res = _retrying(one)
        retries += r
        worst = max(worst, res)
    return count, retries, worst


def _check_main_theorem(cfg: SuiteConfig, rng) -> tuple[int, int, float]:
    count = cfg.count_for("main-theorem")
    worst = 0.0
    retries = 0

    for k in range(count):
        def one():
            n = N_LIST[k % len(N_LIST)]
            conn = _rand_conn(rng, n)
            lines = k % 3 != 2
            draw_class = _rand_line_class if lines else _rand_class
            c1 = draw_class(rng)
            if k % 5 == 4:
                c2 = (c1[0] * 2, c1[1] * 2)
            else:
                c2 = draw_class(rng)
            if not lines:
                l1 = gen_random_loop(TORUS2, c1, 4, rng)
                l2 = gen_random_loop(TORUS2, c2, 4, rng)
            else:
                l1 = PLLoop(TORUS2, [(Fraction(int(rng.integers(0, 97)), 97), Fraction(int(rng.integers(0, 89)), 89))], closure=c1)
                l2 = PLLoop(TORUS2, [(Fraction(int(rng.integers(0, 97)), 97), Fraction(int(rng.integers(0, 89)), 89))], closure=c2)
            lhs, rhs = main_theorem_sides(
                StringCycle.from_loop(l1), StringCycle.from_loop(l2), conn
            )
            return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

        r, res = _retrying(one)
        retries += r
        worst = max(worst, res)
    return count, retries, worst


def _check_jacobi(cfg: SuiteConfig, rng) -> tuple[int, int, float]:
    count = cfg.count_for("jacobi")
    worst = 0.0
    retries = 0

    for _ in range(count):
        def one():
            cycles = []
            for _ in range(3):
                cls = _rand_class(rng)
                cycles.append(StringCycle.from_loop(gen_random_loop(TORUS2, cls, 4, rng)))
            reduced = jacobi_residual(*cycles).class_reduction()
            return 0.0 if reduced == {} else 1.0

        r, res = _retrying(one)
        retries += r
        worst = max(worst, res)
    return count, retries, worst


def _axiom_models() -> tuple[GradedPhaseModel, GradedPhaseModel]:
    even = GradedPhaseModel(
        [("q", 0), ("p", 0)], {("q", "p"): Fraction(1)}, d=2
    )
    koszul = GradedPhaseModel(
        [("x", 0), ("c", 1), ("xd", 1), ("cd", 0)],
        {("x", "xd"): Fraction(1), ("c", "cd"): Fraction(1)},
        d=1,
    )
    return even, koszul


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


def _check_bracket_axioms(cfg: SuiteConfig, rng) -> tuple[int, int, float]:
    count = cfg.count_for("bracket-axioms")
    worst = 0.0
    even, koszul = _axiom_models()
    s_koszul = koszul.monomial(1, "xd", "c")
    for k in range(count):
        model = (even, koszul)[k % 2]
        hi = 2 if any(model.parities) else 1
        pp, pq, pr = (int(x) for x in rng.integers(0, hi, size=3))
        p = _rand_poly(model, rng, pp)
        q = _rand_poly(model, rng, pq)
        r = _rand_poly(model, rng, pr)
        d = model.d
        anti = graded_bracket(p, q) + graded_bracket(q, p).scale(
            (-1) ** ((pp + d) * (pq + d))
        )
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
        if not (anti.is_zero and leib.is_zero and jac.is_zero):
            worst = max(worst, 1.0)
        if model is koszul:
            _, ddp = delta_and_nilpotency(s_koszul, p)
            if not ddp.is_zero:
                worst = max(worst, 1.0)
    return count, 0, worst


def _check_chord_4t(cfg: SuiteConfig, rng) -> tuple[int, int, float]:
    count = cfg.count_for("chord-4t")
    worst = 0.0
    s_a, s_b = _ZIG_S
    for k in range(count):
        n = N_LIST[k % len(N_LIST)]
        conn = _rand_conn(rng, n)
        base = ChordDiagram(
            [(f"std:{n}", ("p", "q", "x")), (f"std:{n}", ("y",))],
            [("p", "q"), ("x", "y")],
        )
        total = 0j
        for j, (sign, term) in enumerate(four_t_combination(base, "x", ("p", "q"))):
            s_x = s_a if j < 2 else s_b
            real = DiagramRealization(
                term, [_ZIG, _VERT], {"p": s_a, "q": s_b, "x": s_x, "y": Fraction(1, 6)}
            )
            total += sign * evaluate_diagram(real, conn)
        worst = max(worst, abs(total))
    return count, 0, worst


def _check_chord_ideal(cfg: SuiteConfig, rng) -> tuple[int, int, float]:
    from .strings import concatenate, intersections

    count = cfg.count_for("chord-ideal")
    worst = 0.0
    pt = intersections(_LINE_A, _LINE_B)[0]
    cat = concatenate(_LINE_A, _LINE_B, pt)
    s_a, s_b = _ZIG_S
    lobe = PLLoop(TORUS2, [(Fraction(1, 2), Fraction(1, 6)), (Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4))], closure=(0, 0))
    rest = PLLoop(TORUS2, [(Fraction(1, 2), Fraction(1, 6)), (1, 0)], closure=(1, 0))
    for k in range(count):
        n = N_LIST[k % len(N_LIST)]
        conn = _rand_conn(rng, n)
        two = ChordDiagram([(f"std:{n}", ("p",)), (f"std:{n}", ("q",))], [("p", "q")])
        chorded = evaluate_diagram(
            DiagramRealization(two, [_LINE_A, _LINE_B], {"p": pt.s, "q": pt.s_bar}), conn
        )
        merged = gln_ideal_element(two, ("p", "q"))[1][1]
        smoothed = evaluate_diagram(DiagramRealization(merged, [cat], {}), conn)
        worst = max(worst, abs(chorded - smoothed))
        one = ChordDiagram([(f"std:{n}", ("a", "b"))], [("a", "b")])
        val = evaluate_diagram(DiagramRealization(one, [_ZIG], {"a": s_a, "b": s_b}), conn)
        split = gln_ideal_element(one, ("a", "b"))[1][1]
        want = evaluate_diagram(DiagramRealization(split, [lobe, rest], {}), conn)
        worst = max(worst, abs(val - want))
    return count, 0, worst


_CHECKS = {
    "gln": _check_gln,
    "holonomy": _check_holonomy,
    "gauge": _check_gauge,
    "fundamental": _check_fundamental,
    "goldman": _check_goldman,
    "main-theorem": _check_main_theorem,
    "jacobi": _check_jacobi,
    "bracket-axioms": _check_bracket_axioms,
    "chord-4t": _check_chord_4t,
    "chord-ideal": _check_chord_ideal,
}


# ---------------------------------------------------------------------------
# suite driver


def _run_one(cfg: SuiteConfig, name: str) -> CheckRecord:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(CHECK_NAMES.index(name),)))
    tol = _DEFAULTS[name][1]
    start = perf_counter()
    try:
        instances, retries, worst = _CHECKS[name](cfg, rng)
    except RetryCapError as err:
        error = str(err)
    except Exception as err:  # one failing check must not end the suite
        error = f"{type(err).__name__}: {err}"
    else:
        return CheckRecord(
            check=name,
            statement=_STATEMENTS[name],
            instances=instances,
            retries=retries,
            max_residual=worst,
            tolerance=tol,
            passed=worst <= tol,
            runtime_ms=(perf_counter() - start) * 1e3,
        )
    return CheckRecord(
        check=name,
        statement=_STATEMENTS[name],
        instances=0,
        retries=0,
        max_residual=None,
        tolerance=tol,
        passed=False,
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
