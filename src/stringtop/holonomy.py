"""Parallel transport and generalized (insertion-decorated) transport.

Transports are path-ordered products along a PL loop, earliest factor
leftmost:  U(s, u) U(u, t) = U(s, t).

Plain transport of a constant flat connection has a closed form on every
straight segment, exp(A(delta x)); the full transport is the ordered
product of those per-(partial-)segment exponentials and is exact up to
machine rounding. No step subdivision is involved.

Generalized transport inserts a matrix-valued Grassmann field C along the
path, resummed into an effective connection: the one-step factor on a
sub-interval of width h is the symmetric (Strang) sandwich

    exp(A v h/2) . exp(M(t_mid) h) . exp(A v h/2),

where v is the segment velocity and M(t) is the pairing of C's degree-k
terms with one velocity factor and k-1 "leg" generators: substituting
dx^mu -> gammadot^mu dt + W^mu into the ascending form monomial and
keeping the part linear in dt,

    M(t) = sum_terms f(gamma(t)) sum_a (-1)^{a-1} gammadot^{mu_a}
           W^{mu_1} .. (hat a) .. W^{mu_k} theta_S E,

with W^mu = sum_i w_i v_i^mu(t) built from the supplied variation fields
on extra Grassmann generators w_i placed after the thetas. Form degree
zero terms carry no dt factor and never enter the transport.

The symmetric step makes the error expansion even in h, so one Richardson
level in h^2 is applied by default; with a tolerance set, steps double
until two successive extrapolated values agree, up to a hard cap per
segment (then ``QuadratureError``). Midpoint nodes lie strictly inside
segments, so the corner discontinuities of PL velocities are never
sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from stringtop.fields import FieldConfig, FlatConnection
from stringtop.geometry import PLLoop, VariationField
from stringtop.grassmann import GradedCoefficient, merge_sign
from stringtop.lierep import SuperMatrix


class QuadratureError(RuntimeError):
    """Step doubling hit the cap before reaching the requested tolerance."""


@dataclass(frozen=True)
class TransportPlan:
    """Discretization plan for generalized transports.

    steps: sub-intervals per covered segment piece (before extrapolation).
    richardson: extrapolation levels; 1 combines S and 2S values as
        (4 T_{2S} - T_S) / 3, valid because the scheme's error is even in h.
    tol: if set, double steps until successive extrapolated values agree
        to this distance.
    max_steps: per-segment cap on the doubling.
    """

    steps: int = 64
    richardson: int = 1
    tol: float | None = None
    max_steps: int = 16384

    def __post_init__(self):
        if self.steps < 1 or self.max_steps < self.steps:
            raise ValueError("bad step counts")
        if self.richardson not in (0, 1):
            raise ValueError("richardson must be 0 or 1")


DEFAULT_PLAN = TransportPlan()


# ---------------------------------------------------------------------------
# path pieces


def _pieces(loop: PLLoop, s: Fraction, t: Fraction):
    """Split [s, t] into per-segment pieces with exact endpoints."""
    k = loop.num_segments
    s = Fraction(s)
    t = Fraction(t)
    if not 0 <= s <= t <= 1:
        raise ValueError("need 0 <= s <= t <= 1")
    pieces = []
    i = int(s * k)
    if i == k:
        i = k - 1
    while Fraction(i, k) < t:
        lo = max(s, Fraction(i, k))
        hi = min(t, Fraction(i + 1, k))
        if lo < hi:
            pieces.append((i, lo, hi))
        i += 1
    return pieces


def _piece_floats(loop: PLLoop, piece):
    """Float geometry of one piece: start point, velocity, span."""
    i, lo, hi = piece
    start = np.array([float(c) for c in loop.point_at(lo)])
    vel = np.array([float(c) for c in loop.segment_velocity(i)])
    return start, vel, float(hi - lo)


# ---------------------------------------------------------------------------
# plain transport (exact)


def transport(conn: FlatConnection, loop: PLLoop, s=Fraction(0), t=Fraction(1)) -> np.ndarray:
    """Ordered product of per-piece exponentials exp(A(delta x)); exact."""
    n = conn.n
    out = np.eye(n, dtype=complex)
    if conn.is_zero:
        return out
    for i, lo, hi in _pieces(loop, s, t):
        a = loop.point_at(lo)
        b = loop.point_at(hi)
        delta = [float(y - x) for x, y in zip(a, b)]
        out = out @ expm(conn.matrix_of(delta))
    return out


# ---------------------------------------------------------------------------
# insertion matrices


def _leg_values(variations: Sequence[VariationField], loop: PLLoop, piece, u: float):
    """Float value of each variation field at local coordinate u of the piece."""
    i, _, _ = piece
    values = []
    for var in variations:
        if var.is_tangent:
            values.append(
                np.array([float(c) for c in loop.segment_velocity(i)])
            )
            continue
        a = np.array([float(c) for c in var.displacement(i)])
        b = np.array([float(c) for c in var.displacement(i + 1)])
        values.append(a + u * (b - a))
    return values


def insertion_matrix(
    config: FieldConfig,
    pos: np.ndarray,
    vel: np.ndarray,
    leg_values: Sequence[np.ndarray],
    n_legs: int,
) -> SuperMatrix:
    """M(t): C's form slots fed one velocity and k-1 leg generators."""
    n_theta = config.n_theta
    n_gen = n_theta + n_legs
    d = config.space.d
    comps: dict[int, np.ndarray] = {}
    w_elements: list[GradedCoefficient] | None = None
    for mask, field, mat in config.terms:
        bits = config.form_degree_bits(mask)
        k = len(bits)
        if k == 0:
            continue
        fval = field.evaluate(pos)
        if fval == 0:
            continue
        theta = GradedCoefficient.from_masks(
            {config.theta_mask(mask): 1.0}, n_gen
        )
        if k == 1:
            gc = theta.scale(fval * vel[bits[0]])
        else:
            if w_elements is None:
                w_elements = [
                    GradedCoefficient.from_masks(
                        {
                            1 << (n_theta + idx): complex(val[mu])
                            for idx, val in enumerate(leg_values)
                            if val[mu] != 0
                        },
                        n_gen,
                    )
                    for mu in range(d)
                ]
            gc = GradedCoefficient.zero(n_gen)
            for a in range(k):
                speed = vel[bits[a]]
                if speed == 0:
                    continue
                part = GradedCoefficient.one(n_gen)
                for b in range(k):
                    if b == a:
                        continue
                    part = part * w_elements[bits[b]]
                    if part.is_zero:
                        break
                if part.is_zero:
                    continue
                sign = -1.0 if a % 2 else 1.0
                gc = gc + (part * theta).scale(sign * speed * fval)
        if gc.is_zero:
            continue
        for gm, gv in gc.masks.items():
            val = complex(gv)
            if gm in comps:
                comps[gm] = comps[gm] + val * mat
            else:
                comps[gm] = val * mat
    return SuperMatrix(config.n, n_gen, comps)


def _exp_series(m: SuperMatrix) -> SuperMatrix:
    """exp(M) summed directly; the Grassmann part is nilpotent and the body
    part arrives pre-scaled by a small step width, so the series is short."""
    acc = SuperMatrix.identity(m.n, m.n_gen)
    term = acc
    for k in range(1, 60):
        term = (term @ m) * (1.0 / k)
        norm = term.norm()
        if norm == 0.0:
            break
        acc = acc + term
        if norm < 1e-17 * max(1.0, acc.norm()):
            break
    else:
        raise QuadratureError("insertion exponential failed to converge")
    return acc


# ---------------------------------------------------------------------------
# generalized transport


def _needs_stepping(config: FieldConfig | None) -> bool:
    return config is not None and any(
        len(config.form_degree_bits(m)) >= 1 for m, _, _ in config.terms
    )


def _midpoint_grid(
    conn: FlatConnection,
    loop: PLLoop,
    s: Fraction,
    t: Fraction,
    steps: int,
    variations: Sequence[VariationField],
    configs: Sequence[FieldConfig],
):
    """Walk the midpoint grid of [s, t] once, sampling several fields.

    Per piece yields (h, A(v), mats) where mats[c][j] is M(t_j) of
    configs[c] at the j-th midpoint of the piece; every caller of this
    walk therefore samples the same nodes and leg values.
    """
    n_legs = len(variations)
    k_seg = loop.num_segments
    for piece in _pieces(loop, s, t):
        i, lo, _ = piece
        start, vel, span = _piece_floats(loop, piece)
        h = span / steps
        u_loc0 = float(lo) * k_seg - i  # local coordinate of the piece start
        du = h * k_seg
        mats: list[list[SuperMatrix]] = [[] for _ in configs]
        for j in range(steps):
            pos = start + (j + 0.5) * h * vel
            legs = _leg_values(variations, loop, piece, u_loc0 + (j + 0.5) * du)
            for out, config in zip(mats, configs):
                out.append(insertion_matrix(config, pos, vel, legs, n_legs))
        yield h, conn.matrix_of(vel), mats


def _gen_transport_fixed(
    conn: FlatConnection,
    config: FieldConfig,
    loop: PLLoop,
    s: Fraction,
    t: Fraction,
    steps: int,
    variations: Sequence[VariationField],
) -> SuperMatrix:
    n_gen = config.n_theta + len(variations)
    u_mat = SuperMatrix.identity(config.n, n_gen)
    for h, a_vel, (inserts,) in _midpoint_grid(conn, loop, s, t, steps, variations, (config,)):
        e_half = SuperMatrix.from_body(expm(a_vel * (h / 2)), n_gen)
        e_full = SuperMatrix.from_body(expm(a_vel * h), n_gen)
        u_mat = u_mat @ e_half
        for j, m_ins in enumerate(inserts):
            u_mat = u_mat @ _exp_series(m_ins * h)
            u_mat = u_mat @ (e_full if j + 1 < steps else e_half)
    return u_mat


def _with_richardson(evaluate, plan: TransportPlan):
    """Run ``evaluate(steps)`` under the plan's extrapolation/tolerance policy."""

    def level(steps):
        if plan.richardson == 0:
            return evaluate(steps)
        coarse = evaluate(steps)
        fine = evaluate(2 * steps)
        return fine * (4.0 / 3.0) - coarse * (1.0 / 3.0)

    steps = plan.steps
    value = level(steps)
    if plan.tol is None:
        return value
    while True:
        if 2 * steps > plan.max_steps:
            raise QuadratureError(
                f"no convergence to tol={plan.tol} within {plan.max_steps} steps/segment"
            )
        steps *= 2
        nxt = level(steps)
        if nxt.distance(value) <= plan.tol:
            return nxt
        value = nxt


def gen_transport(
    conn: FlatConnection,
    config: FieldConfig | None,
    loop: PLLoop,
    s=Fraction(0),
    t=Fraction(1),
    plan: TransportPlan = DEFAULT_PLAN,
    variations: Sequence[VariationField] = (),
) -> SuperMatrix:
    """Path-ordered transport with C-insertions resummed, on [s, t].

    The result lives in the Grassmann algebra on n_theta + len(variations)
    generators: thetas first, one leg generator per variation field after
    them.
    """
    if config is None:
        if variations:
            raise ValueError("variations require a field configuration")
        return SuperMatrix.from_body(transport(conn, loop, s, t), 0)
    if conn.n != config.n:
        raise ValueError("connection and field configuration sizes differ")
    if not _needs_stepping(config):
        body = transport(conn, loop, s, t)
        return SuperMatrix.from_body(body, config.n_theta + len(variations))
    return _with_richardson(
        lambda steps: _gen_transport_fixed(conn, config, loop, s, t, steps, variations),
        plan,
    )


def wilson(
    conn: FlatConnection,
    config: FieldConfig | None,
    loop: PLLoop,
    plan: TransportPlan = DEFAULT_PLAN,
    variations: Sequence[VariationField] = (),
) -> GradedCoefficient:
    """Trace of the full-loop generalized transport."""
    return gen_transport(conn, config, loop, Fraction(0), Fraction(1), plan, variations).trace()


def insertion_derivative(
    conn: FlatConnection,
    config: FieldConfig | None,
    loop: PLLoop,
    eta: FieldConfig,
    plan: TransportPlan = DEFAULT_PLAN,
    variations: Sequence[VariationField] = (),
) -> GradedCoefficient:
    """integral_0^1 tr[ U(0,tau) M_eta(tau) U(tau,1) ] dtau, one pass.

    U is the generalized transport of ``config``; the insertion field
    ``eta`` is paired exactly like C-terms (one velocity factor, legs for
    the remaining slots). Evaluated with prefix/suffix transport arrays on
    the same midpoint grid as the transports themselves.
    """
    if config is None:
        config = FieldConfig(eta.space, eta.n, eta.n_theta, ())
    if eta.n != config.n or eta.n_theta != config.n_theta:
        raise ValueError("insertion field shape differs from transport field")
    n = config.n
    n_gen = config.n_theta + len(variations)

    def fixed(steps: int) -> GradedCoefficient:
        factors: list[SuperMatrix] = []
        halves: list[tuple[SuperMatrix, SuperMatrix]] = []
        m_etas: list[SuperMatrix] = []
        widths: list[float] = []
        grid = _midpoint_grid(
            conn, loop, Fraction(0), Fraction(1), steps, variations, (config, eta)
        )
        for h, a_vel, (m_cs, m_es) in grid:
            e_half = SuperMatrix.from_body(expm(a_vel * (h / 2)), n_gen)
            for m_c in m_cs:
                g_half = _exp_series(m_c * (h / 2))
                first = e_half @ g_half
                second = g_half @ e_half
                factors.append(first @ second)
                halves.append((first, second))
            m_etas.extend(m_es)
            widths.extend([h] * steps)
        total_steps = len(factors)
        suffix = [SuperMatrix.identity(n, n_gen)] * (total_steps + 1)
        for j in range(total_steps - 1, -1, -1):
            suffix[j] = factors[j] @ suffix[j + 1]
        out = GradedCoefficient.zero(n_gen)
        prefix = SuperMatrix.identity(n, n_gen)
        for j in range(total_steps):
            first, second = halves[j]
            sandwich = prefix @ first @ m_etas[j] @ second @ suffix[j + 1]
            out = out + sandwich.trace().scale(widths[j])
            prefix = prefix @ factors[j]
        return out

    return _with_richardson(fixed, plan)


def extract_leg_coefficient(
    value: GradedCoefficient, n_theta: int, n_legs: int
) -> GradedCoefficient:
    """Coefficient of the full leg monomial w_1 .. w_m, legs-left convention.

    Values are stored in the canonical algebra (ascending generator order);
    the coefficient of the presentation  w_1 .. w_m theta_S c_S  picks up
    the sign of commuting the leg block past theta_S.
    """
    leg_mask = ((1 << n_legs) - 1) << n_theta
    comps: dict[int, object] = {}
    for mask, val in value.masks.items():
        if mask & leg_mask != leg_mask:
            continue
        theta_part = mask & ~leg_mask
        if theta_part >> n_theta:
            continue
        comps[theta_part] = merge_sign(leg_mask, theta_part) * val
    return GradedCoefficient.from_masks(comps, n_theta)


# ---------------------------------------------------------------------------
# two-patch gluing


@dataclass(frozen=True)
class PatchSchedule:
    """Assignment of patches to parameter intervals of one loop.

    boundaries: times 0 = b_0 < b_1 < ... < b_m = 1 (exact rationals);
    patches[i] is the patch index (0 or 1) used on [b_i, b_{i+1}];
    overlap: half-width of the window around each interior boundary inside
    which both patches are valid (crossing times may move within it).
    """

    boundaries: tuple[Fraction, ...]
    patches: tuple[int, ...]
    overlap: Fraction = Fraction(1, 20)

    def __post_init__(self):
        bs = self.boundaries
        if bs[0] != 0 or bs[-1] != 1 or any(a >= b for a, b in zip(bs, bs[1:])):
            raise ValueError("boundaries must increase from 0 to 1")
        if len(self.patches) != len(bs) - 1:
            raise ValueError("need one patch per interval")
        if any(p not in (0, 1) for p in self.patches):
            raise ValueError("patch indices must be 0 or 1")
        for a, b in zip(self.patches, self.patches[1:]):
            if a == b:
                raise ValueError("consecutive intervals must switch patches")

    def moved(self, index: int, delta: Fraction) -> "PatchSchedule":
        """Move interior boundary ``index`` by delta, within the overlap."""
        if not 1 <= index <= len(self.boundaries) - 2:
            raise ValueError("only interior boundaries can move")
        if abs(delta) > self.overlap:
            raise ValueError("move exceeds the overlap window")
        bs = list(self.boundaries)
        bs[index] = bs[index] + delta
        return PatchSchedule(tuple(bs), self.patches, self.overlap)


class TwoPatchConnection:
    """Flat connection given in two local gauges with a constant transition.

    Patch data (A_i, C_i) are related on overlaps by the constant
    transition t12 (patch 0 to patch 1):  X_1 = t21 X_0 t12 with
    t21 = t12^{-1}. The cocycle condition and the compatibility of both
    connection and insertion fields are validated at construction.
    """

    def __init__(
        self,
        conn0: FlatConnection,
        conn1: FlatConnection,
        t12: np.ndarray,
        t21: np.ndarray | None = None,
        config0: FieldConfig | None = None,
        config1: FieldConfig | None = None,
        tol: float = 1e-10,
    ) -> None:
        self.conns = (conn0, conn1)
        self.configs = (config0, config1)
        self.t12 = np.asarray(t12, dtype=complex)
        self.t21 = np.linalg.inv(self.t12) if t21 is None else np.asarray(t21, dtype=complex)
        self.n = conn0.n
        cocycle = float(np.max(np.abs(self.t12 @ self.t21 - np.eye(self.n))))
        if cocycle > tol:
            raise ValueError(f"transition cocycle violated: |t12 t21 - 1| = {cocycle:.3e}")
        for mu, (a0, a1) in enumerate(zip(conn0.mats, conn1.mats)):
            residual = float(np.max(np.abs(a1 - self.t21 @ a0 @ self.t12)))
            if residual > tol * max(1.0, float(np.max(np.abs(a0)))):
                raise ValueError(
                    f"connections incompatible on overlap (direction {mu + 1}, "
                    f"residual {residual:.3e})"
                )
        if (config0 is None) != (config1 is None):
            raise ValueError("provide insertion fields for both patches or neither")
        if config0 is not None and config1 is not None:
            gauged = config0.gauge(self.t21)
            diff = gauged + config1.scale(-1.0)
            if not diff.is_zero and diff.norm() > tol * max(1.0, config0.norm()):
                raise ValueError("insertion fields incompatible on overlap")

    def transition(self, from_patch: int, to_patch: int) -> np.ndarray:
        if (from_patch, to_patch) == (0, 1):
            return self.t12
        if (from_patch, to_patch) == (1, 0):
            return self.t21
        raise ValueError("transition requires a patch switch")


def glued_wilson(
    tp: TwoPatchConnection,
    loop: PLLoop,
    schedule: PatchSchedule,
    plan: TransportPlan = DEFAULT_PLAN,
) -> GradedCoefficient:
    """Trace of the transport glued across patches at the scheduled crossings.

    U = prod_i [ hol_{p_i}(b_i, b_{i+1}) t_{p_i p_{i+1}} ], trace taken
    after the final interval (the loop starts and ends in the same patch,
    so no transition is inserted at the endpoints).
    """
    if schedule.patches[0] != schedule.patches[-1]:
        raise ValueError("loop must start and end in the same patch")
    n_theta = 0
    for cfg in tp.configs:
        if cfg is not None:
            n_theta = cfg.n_theta
    u_mat = SuperMatrix.identity(tp.n, n_theta)
    for idx, patch in enumerate(schedule.patches):
        lo = schedule.boundaries[idx]
        hi = schedule.boundaries[idx + 1]
        seg = gen_transport(
            tp.conns[patch], tp.configs[patch], loop, lo, hi, plan
        )
        if seg.n_gen != n_theta:
            seg = seg.with_generators(n_theta)
        u_mat = u_mat @ seg
        if idx + 1 < len(schedule.patches):
            t_mat = SuperMatrix.from_body(
                tp.transition(patch, schedule.patches[idx + 1]), n_theta
            )
            u_mat = u_mat @ t_mat
    return u_mat.trace()
