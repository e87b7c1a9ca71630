"""Reference implementations that tests compare the package against.

Nothing in ``stringtop`` calls these. Each one computes by explicit
enumeration what the package computes through an identity, so the tests
check that identity rather than one route against itself. Some are
views and helpers that only tests need, kept here rather than in the
package: symbolic supermatrix entries, exact segments, velocities and
variation values, the fundamental identity across finite-difference
steps, and, in the last section, field-configuration arithmetic.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from stringtop.brackets import fundamental_identity_paths
from stringtop.chords import DiagramRealization, parse_rep
from stringtop.fields import ConstantCommutingConnection, FieldConfig, FieldTerm, FourierField
from stringtop.geometry import PLLoop, VariationField
from stringtop.grassmann import GradedCoefficient
from stringtop.holonomy import _pieces, _piece_floats, transport
from stringtop.lierep import LieBasis, SuperMatrix
from stringtop.strings import IntersectionPoint, TransversalityError


def supermatrix_entries(m: SuperMatrix) -> list[list[GradedCoefficient]]:
    """Oracle view: the entries of m as GradedCoefficients, for products
    summed entry by entry in the Grassmann algebra instead of on stacks."""
    return [
        [GradedCoefficient.from_masks(dict(enumerate(m.components[:, i, j])), m.n_gen) for j in range(m.n)]
        for i in range(m.n)
    ]


def kappa_form(x: np.ndarray, y: np.ndarray) -> complex:
    """kappa extended bilinearly: tr(x y)."""
    return complex(np.trace(np.asarray(x) @ np.asarray(y)))


def casimir_tensor(basis: LieBasis) -> np.ndarray:
    """sum_ab kappa^{ab} E_a (x) E_b as an integer n^2 x n^2 matrix."""
    n = basis.n
    out = np.zeros((n * n, n * n), dtype=np.int64)
    for a in range(basis.dim):
        b = basis.dual(a)
        i, j = basis.unit(a)
        k, l = basis.unit(b)
        # rows indexed (r,s), columns (u,v); E_a acts on the first
        # factor, E_b on the second
        out[i * n + k, j * n + l] += 1
    return out


def swap_tensor(basis: LieBasis) -> np.ndarray:
    """The flip operator v (x) w -> w (x) v on C^n (x) C^n."""
    n = basis.n
    out = np.zeros((n * n, n * n), dtype=np.int64)
    for r in range(n):
        for s in range(n):
            out[r * n + s, s * n + r] = 1
    return out


def swap_via_casimir(
    v: Sequence[complex], w: Sequence[complex], basis: LieBasis
) -> tuple[np.ndarray, np.ndarray]:
    """Apply sum_ab kappa^{ab} E_a (x) E_b to v (x) w by explicit summation.

    The output tensor is rank one and equals w (x) v; it is returned
    factored as a pair (first factor, second factor) via the pivot
    row/column of its largest entry.
    """
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    n = basis.n
    if v.shape != (n,) or w.shape != (n,):
        raise ValueError(f"vectors must have length {n}")
    tensor = np.zeros((n, n), dtype=complex)
    for a in range(basis.dim):
        b = basis.dual(a)
        tensor += np.outer(basis.matrix(a) @ v, basis.matrix(b) @ w)
    if not tensor.any():
        return np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    r0, s0 = np.unravel_index(np.argmax(np.abs(tensor)), tensor.shape)
    first = tensor[:, s0]
    second = tensor[r0, :] / tensor[r0, s0]
    return first, second


def fourier_values(field: FourierField, points: np.ndarray) -> np.ndarray:
    """Oracle: one field at the (m, d) points, its own modes phased,
    exponentiated, weighted and summed; ``fields.FourierStack`` shares the
    waves of every mode among the fields of a stack."""
    freqs = np.array([f for f, _ in field.terms], dtype=float).reshape(-1, field.d)
    coeffs = np.array([c for _, c in field.terms], dtype=complex)
    phases = (points[..., None, :] * freqs).sum(axis=-1)
    return (np.exp(2j * np.pi * phases) * coeffs).sum(axis=-1)


def eval_field(
    config: FieldConfig, point: Sequence, vectors: Sequence[Sequence]
) -> SuperMatrix:
    """Evaluate the degree-k part on k vectors at a point.

    Terms whose form degree differs from len(vectors) contribute nothing;
    selecting the degree is the caller's job. The form monomial pairs with
    the vectors through det[v_b^{mu_a}].
    """
    k = len(vectors)
    vecs = [np.array([float(c) for c in v]) for v in vectors]
    comps: dict[int, np.ndarray] = {}
    for mask, field, mat in config.terms:
        bits = config.form_degree_bits(mask)
        if len(bits) != k:
            continue
        if k == 0:
            pairing = 1.0
        else:
            rows = np.array([[vecs[b][mu] for b in range(k)] for mu in bits])
            pairing = float(np.linalg.det(rows)) if k > 1 else float(rows[0, 0])
        value = field.evaluate(point) * pairing
        if value == 0:
            continue
        tm = config.theta_mask(mask)
        if tm in comps:
            comps[tm] = comps[tm] + value * mat
        else:
            comps[tm] = value * mat
    return SuperMatrix(config.n, config.n_theta, comps)


# ---------------------------------------------------------------------------
# step-by-step generalized transport, one SuperMatrix product per factor
#
# The package runs the transport on stacks of component stacks, a block of
# midpoints at a time: one Taylor series on the block's regular matrices,
# the half steps applied to each component, and the step factors multiplied
# pairwise. These functions take one midpoint at a time instead: the
# insertion matrix is assembled from GradedCoefficient products, its
# exponential is a Taylor series of SuperMatrix products, and the
# path-ordered product is a left-to-right chain of SuperMatrix products
# (with one full step exp(A v h) between the midpoints of a piece in
# ``gen_transport_stepwise``). They take a fixed step count and apply no
# Richardson extrapolation.


def _leg_values_at(variations: Sequence[VariationField], piece, u: float):
    i, _, _ = piece
    values = []
    for var in variations:
        a = np.array([float(c) for c in var.displacement(i)])
        b = np.array([float(c) for c in var.displacement(i + 1)])
        values.append(a + u * (b - a))
    return values


def insertion_matrix_at(
    config: FieldConfig, pos, vel, leg_values: Sequence[np.ndarray], n_legs: int
) -> SuperMatrix:
    """M(t) at one midpoint, from symbolic Grassmann products."""
    n_theta = config.n_theta
    n_gen = n_theta + n_legs
    comps: dict[int, np.ndarray] = {}
    w_elements = [
        GradedCoefficient.from_masks(
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
        theta = GradedCoefficient.from_masks({config.theta_mask(mask): 1.0}, n_gen)
        gc = GradedCoefficient.from_masks({}, n_gen)
        for a in range(len(bits)):
            part = GradedCoefficient.from_masks({0: 1}, n_gen)
            for b in range(len(bits)):
                if b != a:
                    part = part * w_elements[bits[b]]
            sign = -1.0 if a % 2 else 1.0
            gc = gc + (part * theta).scale(sign * vel[bits[a]] * fval)
        for gm, gv in gc.masks.items():
            comps[gm] = comps.get(gm, 0) + complex(gv) * mat
    return SuperMatrix(config.n, n_gen, comps)


def body_left(e: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Oracle: e g for (b, n, n) body matrices e, one per midpoint, and
    (b, |S|, n, n) component stacks g; e multiplies every component, one
    small matmul per midpoint. The package shares one e per piece
    (``holonomy._half_steps``)."""
    b, size, n, _ = g.shape
    rows = e @ g.transpose(0, 2, 1, 3).reshape(b, n, size * n)
    return rows.reshape(b, n, size, n).transpose(0, 2, 1, 3)


def body_right(g: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Oracle: g e likewise, one small matmul per midpoint on the unit
    columns of g."""
    b, size, n, _ = g.shape
    return (g.reshape(b, size * n, n) @ e).reshape(b, size, n, n)


def exp_series(m: SuperMatrix) -> SuperMatrix:
    """exp(M) as a Taylor series of SuperMatrix products."""
    acc = SuperMatrix.from_body(np.eye(m.n), m.n_gen)
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
        raise RuntimeError("insertion exponential failed to converge")
    return acc


def _midpoints(conn, loop, s, t, steps, variations, configs):
    """Per piece: (h, A(v), [[M_c(t_j) for each config c] for each midpoint j])."""
    k_seg = loop.num_segments
    for piece in _pieces(loop, s, t):
        i, lo, _ = piece
        start, vel, span = _piece_floats(loop, piece)
        h = span / steps
        u_loc0 = float(lo) * k_seg - i
        rows = []
        for j in range(steps):
            pos = start + (j + 0.5) * h * vel
            legs = _leg_values_at(variations, piece, u_loc0 + (j + 0.5) * h * k_seg)
            rows.append([insertion_matrix_at(c, pos, vel, legs, len(variations)) for c in configs])
        yield h, conn.matrix_of(vel), rows


def gen_transport_stepwise(
    conn: ConstantCommutingConnection,
    config: FieldConfig,
    loop: PLLoop,
    s=Fraction(0),
    t=Fraction(1),
    steps: int = 64,
    variations: Sequence[VariationField] = (),
) -> SuperMatrix:
    """Strang-split transport, one SuperMatrix product per factor."""
    n_gen = config.n_theta + len(variations)
    u_mat = SuperMatrix.from_body(np.eye(config.n), n_gen)
    for h, a_vel, rows in _midpoints(conn, loop, Fraction(s), Fraction(t), steps, variations, (config,)):
        e_half = SuperMatrix.from_body(expm(a_vel * (h / 2)), n_gen)
        e_full = SuperMatrix.from_body(expm(a_vel * h), n_gen)
        u_mat = u_mat @ e_half
        for j, (m_ins,) in enumerate(rows):
            u_mat = u_mat @ exp_series(m_ins * h)
            u_mat = u_mat @ (e_full if j + 1 < steps else e_half)
    return u_mat


def gen_transport_ode(
    conn: ConstantCommutingConnection,
    config: FieldConfig,
    loop: PLLoop,
    s=Fraction(0),
    t=Fraction(1),
    variations: Sequence[VariationField] = (),
    rtol: float = 1e-12,
) -> SuperMatrix:
    """U' = U (A v + M(t)) integrated by an explicit Runge-Kutta method.

    Independent of the stepping: no splitting, no step exponential and no
    extrapolation. ``scipy.integrate.solve_ivp`` (DOP853) integrates the
    component stack of U over each piece, where the velocity is constant,
    and the pieces are chained. M(t) is assembled from symbolic Grassmann
    products (``insertion_matrix_at``).
    """
    n_gen = config.n_theta + len(variations)
    k_seg = loop.num_segments
    u_mat = SuperMatrix.from_body(np.eye(config.n), n_gen)
    for piece in _pieces(loop, Fraction(s), Fraction(t)):
        i, lo, hi = piece
        start, vel, _ = _piece_floats(loop, piece)
        a_vel = SuperMatrix.from_body(conn.matrix_of(vel), n_gen)

        def rhs(tau, y):
            pos = start + (tau - float(lo)) * vel
            legs = _leg_values_at(variations, piece, tau * k_seg - i)
            m = insertion_matrix_at(config, pos, vel, legs, len(variations))
            u = SuperMatrix._of(y.reshape(u_mat.components.shape))
            return (u @ (a_vel + m)).components.ravel()

        sol = solve_ivp(
            rhs, (float(lo), float(hi)), u_mat.components.ravel(), method="DOP853", rtol=rtol, atol=rtol * 1e-3
        )
        if not sol.success:
            raise RuntimeError(sol.message)
        u_mat = SuperMatrix._of(sol.y[:, -1].reshape(u_mat.components.shape))
    return u_mat


def insertion_derivative_stepwise(
    conn: ConstantCommutingConnection,
    config: FieldConfig,
    loop: PLLoop,
    eta: FieldConfig,
    steps: int = 64,
    variations: Sequence[VariationField] = (),
) -> GradedCoefficient:
    """sum_j h tr[U(0, t_j-) M_eta(t_j) U(t_j+, 1)] with prefix and suffix products.

    The midpoint quadrature of the insertion integral, with M_eta sampled
    between the two half steps of each Strang factor: a second
    discretization, independent of the epsilon route of the package, that
    agrees with it only up to the plan's error.
    """
    n, n_gen = config.n, config.n_theta + len(variations)
    factors, halves, m_etas, widths = [], [], [], []
    for h, a_vel, rows in _midpoints(conn, loop, Fraction(0), Fraction(1), steps, variations, (config, eta)):
        e_half = SuperMatrix.from_body(expm(a_vel * (h / 2)), n_gen)
        for m_c, m_e in rows:
            g_half = exp_series(m_c * (h / 2))
            first = e_half @ g_half
            second = g_half @ e_half
            factors.append(first @ second)
            halves.append((first, second))
            m_etas.append(m_e)
            widths.append(h)
    suffix = [SuperMatrix.from_body(np.eye(n), n_gen)] * (len(factors) + 1)
    for j in range(len(factors) - 1, -1, -1):
        suffix[j] = factors[j] @ suffix[j + 1]
    out = GradedCoefficient.from_masks({}, n_gen)
    prefix = SuperMatrix.from_body(np.eye(n), n_gen)
    for j, (first, second) in enumerate(halves):
        sandwich = prefix @ first @ m_etas[j] @ second @ suffix[j + 1]
        out = out + sandwich.trace().scale(widths[j])
        prefix = prefix @ factors[j]
    return out


def epsilon_config(config: FieldConfig, eta: FieldConfig) -> FieldConfig:
    """C + epsilon eta, epsilon = theta_a theta_b on two new thetas a, b
    placed after C's; every term is rebuilt from its index tuples."""
    n_theta = config.n_theta
    specs = []
    for cfg, extra in ((config, ()), (eta, (n_theta + 1, n_theta + 2))):
        for mask, field, mat in cfg.terms:
            thetas = tuple(b + 1 for b in range(n_theta) if cfg.theta_mask(mask) >> b & 1)
            indices = tuple(mu + 1 for mu in cfg.form_degree_bits(mask))
            specs.append({"indices": indices, "eps": thetas + extra, "field": field, "lie": mat})
    return FieldConfig.build(config.space, config.n, n_theta + 2, specs)


def epsilon_part(value: GradedCoefficient, n_theta: int, n_legs: int) -> GradedCoefficient:
    """The coefficient of epsilon in a value over the generators of
    ``epsilon_config`` plus n_legs legs: theta_S theta_a theta_b w_L is
    epsilon theta_S w_L, since epsilon is even."""
    a, b = n_theta + 1, n_theta + 2
    out = {}
    for indices, v in value.terms().items():
        if a in indices and b in indices:
            out[tuple(i if i <= n_theta else i - 2 for i in indices if i not in (a, b))] = v
    return GradedCoefficient(out, n_theta + n_legs)


def insertion_derivative_epsilon_stepwise(
    conn: ConstantCommutingConnection,
    config: FieldConfig,
    loop: PLLoop,
    eta: FieldConfig,
    steps: int = 64,
    variations: Sequence[VariationField] = (),
) -> GradedCoefficient:
    """The epsilon-part of the stepwise Wilson loop of C + epsilon eta: the
    discretization of ``holonomy.insertion_derivative``, one SuperMatrix
    product per factor."""
    joint = epsilon_config(config, eta)
    u_mat = gen_transport_stepwise(conn, joint, loop, steps=steps, variations=variations)
    return epsilon_part(u_mat.trace(), config.n_theta, len(variations))


def variation_value_at(v: VariationField, t: Fraction) -> tuple:
    """Oracle: the exact value of v at t, which ``holonomy`` samples in floats.

    The displacements at the two ends of t's segment are interpolated
    affinely.
    """
    i, u = segment_of(v.loop, t)
    return tuple(x + u * (y - x) for x, y in zip(v.displacement(i), v.displacement(i + 1)))


# -- the fundamental identity across finite-difference steps ------------------


def fundamental_identity_residuals(conn, config, loop, v, eps_schedule, refine=False) -> list[float]:
    """Oracle: |Path1 - Path2| of ``fundamental_identity_paths`` at each eps of a schedule.

    With refine, Path 1 takes one elimination step on eps and eps/2,
    (4 D(eps/2) - D(eps)) / 3, which cancels the eps^2 term of the central
    difference D.
    """
    out = []
    for eps in eps_schedule:
        d1, p2 = fundamental_identity_paths(conn, config, loop, v, eps=eps)
        if refine:
            half, _ = fundamental_identity_paths(conn, config, loop, v, eps=eps / 2)
            d1 = (half.scale(4.0) - d1).scale(1.0 / 3.0)
        out.append(d1.distance(p2))
    return out


def halving_orders(residuals: Sequence[float], floor: float = 5e-9) -> list[float]:
    """log2 ratios of successive residuals, skipping noise-floor entries.

    Entries below the floor are already quadrature-limited; a ratio against
    them would understate the finite-difference order.
    """
    return [math.log2(a / b) for a, b in zip(residuals, residuals[1:]) if a > floor and b > floor]


# -- the exact geometry layer on Fractions ------------------------------------
#
# Oracles for ``PLLoop.normal_form``, the ``PLLoop`` transformations,
# ``strings.intersections`` and ``strings.concatenate``, which compute the
# same values on integers over a common denominator, and the exact segment
# and velocity views that only tests read.


def segment_of(loop: PLLoop, t: Fraction) -> tuple[int, Fraction]:
    """Segment index and local coordinate u in [0,1] for t in [0,1]."""
    t = Fraction(t)
    tn, td = t.numerator, t.denominator
    if not 0 <= tn <= td:
        raise ValueError("parameter must lie in [0, 1]")
    k = loop.num_segments
    i, rem = divmod(tn * k, td)
    if i == k:
        return k - 1, Fraction(1)
    return i, Fraction(rem, td)


def segment(loop: PLLoop, i: int) -> tuple:
    """The end points (vertex(i), vertex(i + 1)) of segment i, as Fractions."""
    return loop.vertex(i), loop.vertex(i + 1)


def segment_velocity(loop: PLLoop, i: int) -> tuple:
    """Velocity on segment i: K * (P_{i+1} - P_i), constant there."""
    a, b = segment(loop, i)
    k = Fraction(loop.num_segments)
    return tuple(k * (y - x) for x, y in zip(a, b))


def velocity_at(loop: PLLoop, t: Fraction) -> tuple:
    """Right-sided velocity at t (segment velocity of the segment containing t)."""
    i, _ = segment_of(loop, t)
    return segment_velocity(loop, i)


def rotate_marked_fraction(loop: PLLoop, k: int) -> PLLoop:
    """Oracle: ``PLLoop.rotate_marked`` from Fraction vertices, through the constructor."""
    n = loop.num_segments
    k = k % n
    verts = [loop.vertex(k + i) for i in range(n)]
    return PLLoop(loop.space, verts, loop.closure)


def reverse_fraction(loop: PLLoop) -> PLLoop:
    """Oracle: ``PLLoop.reverse`` from Fraction vertices, through the constructor."""
    n = loop.num_segments
    verts = [loop.vertices[0]] + [
        tuple(a - c for a, c in zip(loop.vertex(n - i), loop.closure)) for i in range(1, n)
    ]
    return PLLoop(loop.space, verts, tuple(-c for c in loop.closure))


def subdivide_segment_fraction(loop: PLLoop, i: int, u: Fraction) -> PLLoop:
    """Oracle: ``PLLoop.subdivide_segment`` from Fraction vertices, through the constructor."""
    i = i % loop.num_segments
    a, b = segment(loop, i)
    mid = tuple(x + u * (y - x) for x, y in zip(a, b))
    verts = list(loop.vertices)
    verts.insert(i + 1, mid)
    return PLLoop(loop.space, verts, loop.closure)


def normal_form_rotations(loop: PLLoop) -> tuple:
    """Oracle: (least of all K translated rotations, closure), built in full.

    Every rotation's K vertices are formed as Fractions, and each rotation
    is translated by the floor of its first vertex.
    """
    n = loop.num_segments
    candidates = []
    for r in range(n):
        verts = [loop.vertex(r + i) for i in range(n)]
        shift = tuple(Fraction(c.numerator // c.denominator) for c in verts[0])
        candidates.append(tuple(tuple(a - b for a, b in zip(p, shift)) for p in verts))
    return (min(candidates), loop.closure)


def _cross(u, v) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def _segment_crossing(p0, dp, q0, dq, label):
    """Interior crossing parameters (t, r) of two segments, or None."""
    den = _cross(dp, dq)
    diff = (q0[0] - p0[0], q0[1] - p0[1])
    if den == 0:
        if _cross(diff, dp) != 0:
            return None
        # collinear: compare parameter ranges along the first segment
        axis = 0 if dp[0] != 0 else 1
        t0 = diff[axis] / dp[axis]
        t1 = (diff[axis] + dq[axis]) / dp[axis]
        if min(t0, t1) <= 1 and max(t0, t1) >= 0:
            raise TransversalityError(f"collinear overlap between segments {label}")
        return None
    t = _cross(diff, dq) / den
    r = _cross(diff, dp) / den
    if t < 0 or t > 1 or r < 0 or r > 1:
        return None
    if t in (0, 1) or r in (0, 1):
        raise TransversalityError(f"segments {label} cross at a vertex or marked point")
    return t, r


def _lift_box(loop: PLLoop):
    pts = [loop.vertex(i) for i in range(loop.num_segments + 1)]
    lo = tuple(min(p[k] for p in pts) for k in range(2))
    hi = tuple(max(p[k] for p in pts) for k in range(2))
    return lo, hi


def _deck_offsets(loop: PLLoop, other: PLLoop):
    (alo, ahi), (blo, bhi) = _lift_box(loop), _lift_box(other)
    ranges = [range(math.ceil(alo[k] - bhi[k]), math.floor(ahi[k] - blo[k]) + 1) for k in range(2)]
    return [(l1, l2) for l1 in ranges[0] for l2 in ranges[1]]


def intersections_fraction(loop: PLLoop, other: PLLoop) -> list[IntersectionPoint]:
    """Oracle: every segment pair against every deck offset of the whole-lift boxes.

    The same crossings, in the same order and with the same errors, as
    ``strings.intersections``, solved with Fraction 2x2 linear algebra.
    """
    k1, k2 = loop.num_segments, other.num_segments
    offsets = _deck_offsets(loop, other)
    found = []
    for i in range(k1):
        p0, p1 = segment(loop, i)
        dp = tuple(b - a for a, b in zip(p0, p1))
        for j in range(k2):
            q0, q1 = segment(other, j)
            dq = tuple(b - a for a, b in zip(q0, q1))
            for lam in offsets:
                q0l = tuple(c + o for c, o in zip(q0, lam))
                hit = _segment_crossing(p0, dp, q0l, dq, f"({i}, {j})")
                if hit is None:
                    continue
                t, r = hit
                found.append(
                    IntersectionPoint(
                        s=(i + t) / k1,
                        s_bar=(j + r) / k2,
                        sign=1 if _cross(dp, dq) > 0 else -1,
                        offset=lam,
                    )
                )
    found.sort(key=lambda p: (p.s, p.s_bar))
    return found


def concatenate_fraction(loop: PLLoop, other: PLLoop, p: IntersectionPoint) -> PLLoop:
    """Oracle: ``strings.concatenate`` with every vertex formed as a Fraction.

    The crossing point is ``point_at(p.s)``, checked against the second
    loop's ``point_at(p.s_bar)`` plus the offset; the result goes through
    the ``PLLoop`` constructor.
    """
    point = loop.point_at(p.s)
    if tuple(c + o for c, o in zip(other.point_at(p.s_bar), p.offset)) != point:
        raise ValueError("stale intersection point: the loops do not meet at (s, s_bar, offset)")
    k1, k2 = loop.num_segments, other.num_segments
    i = segment_of(loop, p.s)[0]
    j = segment_of(other, p.s_bar)[0]
    # after the first circuit the path sits at p + closure; the second lift
    # is translated there: tau = offset + closure of the first loop
    tau = tuple(o + c for o, c in zip(p.offset, loop.closure))
    verts = [point]
    verts += [loop.vertex(i + m) for m in range(1, k1 + 1)]
    verts += [tuple(a + c for a, c in zip(point, loop.closure))]
    verts += [tuple(a + c for a, c in zip(other.vertex(j + m), tau)) for m in range(1, k2 + 1)]
    closure = tuple(a + b for a, b in zip(loop.closure, other.closure))
    return PLLoop(loop.space, verts, closure)


def canonical_rotations(loop: PLLoop) -> PLLoop:
    """Oracle: ``PLLoop.canonical`` built from ``normal_form_rotations``."""
    verts, closure = normal_form_rotations(loop)
    return PLLoop(loop.space, verts, closure)


# ---------------------------------------------------------------------------
# chord diagrams by explicit basis enumeration


def evaluate_diagram_enumerated(realization: DiagramRealization, conn) -> complex:
    """Oracle: ``chords.evaluate_diagram`` summed over every basis assignment.

    Each arc takes every pair (E_a, E_a*) with E_a* the kappa-dual unit, so
    the sum runs over n^(2 arcs) assignments; each adds the product over
    circles of tr(R(E) U R(E) U ...) along the traversal order. The
    package contracts per-arc Casimir tensors instead.
    """
    diag = realization.diagram
    if any(parse_rep(c.rep) != conn.n for c in diag.circles):
        raise ValueError("representation size differs from the connection")
    basis = LieBasis(conn.n)
    hops = []
    for idx, loop in enumerate(realization.loops):
        ss = [realization.params[l] for l in realization.ordered_endpoints(idx)]
        if not ss:
            hops.append([transport(conn, loop)])
            continue
        segs = [transport(conn, loop, s, t) for s, t in zip(ss, ss[1:])]
        segs.append(transport(conn, loop, ss[-1], Fraction(1)) @ transport(conn, loop, Fraction(0), ss[0]))
        hops.append(segs)
    total = 0j
    for assignment in itertools.product(range(basis.dim), repeat=len(diag.arcs)):
        ins: dict[str, np.ndarray] = {}
        for (p, q), a in zip(diag.arcs, assignment):
            ins[p] = basis.matrix(a)
            ins[q] = basis.matrix(basis.dual(a))
        val = 1 + 0j
        for idx in range(len(diag.circles)):
            prod = np.eye(conn.n, dtype=complex)
            for label, hop in itertools.zip_longest(realization.ordered_endpoints(idx), hops[idx]):
                prod = prod @ (hop if label is None else ins[label] @ hop)
            val *= complex(np.trace(prod))
        total += val
    return total


# ---------------------------------------------------------------------------
# field configuration arithmetic
#
# Tests compare obstruction fields term by term with these; the package
# itself only builds, gauges and simplifies configurations.


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    """The n x n matrix unit E_ij, 1-based: a ``lie`` part for test terms."""
    out = np.zeros((n, n), dtype=complex)
    out[i - 1, j - 1] = 1.0
    return out


def constant_field(value: complex) -> FourierField:
    """The constant field value on T^2: a ``field`` for test terms."""
    return FourierField.from_dict(2, {(0, 0): value})


def coeff_norm(field: FourierField) -> float:
    """l1 norm of the Fourier coefficients."""
    return sum(abs(v) for _, v in field.terms)


def config_sum(a: FieldConfig, b: FieldConfig) -> FieldConfig:
    if (a.n, a.n_theta) != (b.n, b.n_theta):
        raise ValueError("incompatible field configurations")
    return FieldConfig(a.space, a.n, a.n_theta, a.terms + b.terms).simplify()


def config_scale(config: FieldConfig, s: complex) -> FieldConfig:
    return FieldConfig(
        config.space, config.n, config.n_theta, [FieldTerm(m, f, s * mat) for m, f, mat in config.terms]
    )


def config_is_zero(config: FieldConfig) -> bool:
    return not config.simplify().terms


def config_norm(config: FieldConfig) -> float:
    """Largest coeff_norm(f) * max |E| over the terms f E."""
    return max((coeff_norm(f) * float(np.max(np.abs(m))) for _, f, m in config.terms), default=0.0)
