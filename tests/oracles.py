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
from scipy.linalg import expm

from stringtop.brackets import fundamental_identity_paths
from stringtop.chords import DiagramRealization, parse_rep
from stringtop.fields import ConstantCommutingConnection, FieldConfig, FieldTerm, FourierField
from stringtop.geometry import PLLoop, Torus, VariationField
from stringtop.grassmann import GradedCoefficient
from stringtop.harness import _leg_values_at, insertion_matrix_at
from stringtop.holonomy import transport
from stringtop.lierep import LieBasis, SuperMatrix
from stringtop.strings import IntersectionPoint, TransversalityError


def supermatrix_entries(m: SuperMatrix) -> list[list[GradedCoefficient]]:
    """Oracle view: the entries of m as GradedCoefficients, for products
    summed entry by entry in the Grassmann algebra instead of on stacks."""
    return [
        [GradedCoefficient(dict(enumerate(m.components[:, i, j])), m.n_gen) for j in range(m.n)]
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
# steps at a time: one Taylor series on the block's regular matrices for
# all its step exponentials, multiplied pairwise. These functions take one
# node at a time instead: the insertion matrix is assembled from
# GradedCoefficient products (``harness.insertion_matrix_at``), each
# exponential is a Taylor series of SuperMatrix products, and the
# path-ordered product is a left-to-right chain of SuperMatrix products.
# They take a fixed step count and apply no Richardson extrapolation.

# Gauss nodes of the fourth-order commutator-free step, and its weights
GAUSS_NODES = (0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6)
ALPHA = (0.25 + math.sqrt(3) / 6, 0.25 - math.sqrt(3) / 6)


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


def _steps(conn, loop, steps, variations, configs, nodes):
    """Per segment of the whole loop: (h, A(v), [[[M_c(t_j + x h) for each
    config c] for each node x] for each step j]), the start point and
    velocity the floats of the exact vertices."""
    k_seg = loop.num_segments
    h = 1 / k_seg / steps
    for i in range(k_seg):
        start = np.array([float(c) for c in loop.vertex(i)])
        vel = np.array([float(c) for c in segment_velocity(loop, i)])
        rows = []
        for j in range(steps):
            at_nodes = []
            for x in nodes:
                pos = start + (j + x) * h * vel
                legs = _leg_values_at(variations, i, (j + x) * h * k_seg)
                at_nodes.append([insertion_matrix_at(c, pos, vel, legs, len(variations)) for c in configs])
            rows.append(at_nodes)
        yield h, conn.matrix_of(vel), rows


def gen_transport_stepwise(
    conn: ConstantCommutingConnection,
    config: FieldConfig,
    loop: PLLoop,
    steps: int = 16,
    variations: Sequence[VariationField] = (),
) -> SuperMatrix:
    """The fourth-order commutator-free transport around the whole loop,
    one SuperMatrix product per factor: per step
    U exp(h(alpha_1 K_1 + alpha_2 K_2)) exp(h(alpha_2 K_1 + alpha_1 K_2)),
    K_i = A v + M(t + c_i h)."""
    n_gen = config.n_theta + len(variations)
    u_mat = SuperMatrix.from_body(np.eye(config.n), n_gen)
    for h, a_vel, rows in _steps(conn, loop, steps, variations, (config,), GAUSS_NODES):
        a_vel = SuperMatrix.from_body(a_vel, n_gen)
        for (m_1,), (m_2,) in rows:
            k_1, k_2 = a_vel + m_1, a_vel + m_2
            u_mat = u_mat @ exp_series((k_1 * ALPHA[0] + k_2 * ALPHA[1]) * h)
            u_mat = u_mat @ exp_series((k_1 * ALPHA[1] + k_2 * ALPHA[0]) * h)
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

    The midpoint quadrature of the insertion integral on Strang-split
    factors exp(A v h/2) exp(M(t_j) h) exp(A v h/2), with M_eta sampled
    between the two halves of each factor: a second-order discretization,
    independent of the epsilon route and of the step of the package, that
    agrees with the integral only up to its own error.
    """
    n, n_gen = config.n, config.n_theta + len(variations)
    factors, halves, m_etas, widths = [], [], [], []
    for h, a_vel, rows in _steps(conn, loop, steps, variations, (config, eta), (0.5,)):
        e_half = SuperMatrix.from_body(expm(a_vel * (h / 2)), n_gen)
        for ((m_c, m_e),) in rows:
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
    out = GradedCoefficient({}, n_gen)
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
    epsilon theta_S w_L, since epsilon is even. In masks: keep the terms
    with both epsilon bits, drop those bits and shift the leg bits down."""
    eps, low = 0b11 << n_theta, (1 << n_theta) - 1
    out = {}
    for m, v in value.masks.items():
        if m & eps == eps:
            out[(m & low) | (m >> (n_theta + 2) << n_theta)] = v
    return GradedCoefficient(out, n_theta + n_legs)


def insertion_derivative_epsilon_stepwise(
    conn: ConstantCommutingConnection,
    config: FieldConfig,
    loop: PLLoop,
    eta: FieldConfig,
    steps: int = 16,
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
# ``strings.intersections``, ``strings.concatenate`` and the bracket's
# terms, which compute the same values on integers over a common
# denominator, and the exact segment and velocity views that only tests read.


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


def least_lift_rotations(den: int, pts: tuple, closure: tuple[int, ...]) -> tuple:
    """Oracle: ``geometry._least_lift`` of a reduced lift, through ``canonical_rotations``."""
    return canonical_rotations(PLLoop._from_lift(Torus(2), den, pts)).integer_lift()


def bracket_terms_fraction(a, abar, crossings=None, origins=None):
    """Oracle: ``strings._bracket_terms`` through the three ``Fraction`` oracles above.

    One (sign times coefficients, closure, den, rows) term per crossing of
    ``intersections_fraction``: the crossing is spliced by
    ``concatenate_fraction``, normalized by ``canonical_rotations``, and
    read back as its closure and integer lift. It finds every crossing
    itself, so it ignores ``crossings`` and records no ``origins``: under
    it, ``jacobi_residual`` inherits nothing.
    """
    for m, gamma in a.terms:
        for mbar, gammabar in abar.terms:
            for p in intersections_fraction(gamma, gammabar):
                loop = canonical_rotations(concatenate_fraction(gamma, gammabar, p))
                yield m * mbar * p.sign, loop.closure, *loop.integer_lift()


def goldman_torus_fraction(c1: Sequence[int], c2: Sequence[int]) -> tuple[int, tuple[int, int]]:
    """Oracle: ``strings.goldman_torus`` solved in ``Fraction``s, unscaled.

    Solves b1 + t c1 = b2 + r c2 + lam for t, r by Cramer's rule from
    b1 = 0 and b2 = (1/97, 1/89), with the deck ranges taken from the
    rational bounds by ceil and floor.
    """
    c1 = (int(c1[0]), int(c1[1]))
    c2 = (int(c2[0]), int(c2[1]))
    total = (c1[0] + c2[0], c1[1] + c2[1])
    if c1 == (0, 0) or c2 == (0, 0):
        return 0, total
    b2 = (Fraction(1, 97), Fraction(1, 89))
    den = c1[0] * c2[1] - c1[1] * c2[0]
    if den == 0:
        return 0, total
    count = 0
    l1_range = range(
        math.ceil(min(0, c1[0]) - max(0, c2[0]) - b2[0]),
        math.floor(max(0, c1[0]) - min(0, c2[0]) - b2[0]) + 1,
    )
    l2_range = range(
        math.ceil(min(0, c1[1]) - max(0, c2[1]) - b2[1]),
        math.floor(max(0, c1[1]) - min(0, c2[1]) - b2[1]) + 1,
    )
    for l1 in l1_range:
        for l2 in l2_range:
            rhs = (b2[0] + l1, b2[1] + l2)
            t = (c2[1] * rhs[0] - c2[0] * rhs[1]) / den
            r = (c1[1] * rhs[0] - c1[0] * rhs[1]) / den
            if 0 <= t < 1 and 0 <= r < 1:
                count += 1 if den > 0 else -1
    return count, total


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
# graded polynomials on coefficients of their own type
#
# ``phasespace`` keeps integer numerators over one denominator and merges
# normal keys through a memoized table. These functions take and return
# {normal key: coefficient} dicts, compute each coefficient with the
# coefficients' own arithmetic (``Fraction``, and the model's
# ``omega`` values), and order each product word by counting inversions.


def graded_word_normal_form(parities: Sequence[int], word: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(sign, ascending key) of a word of variable indices: the sign is
    (-1)^(inversions among odd factors), and 0 when an odd variable repeats."""
    odd = [i for i in word if parities[i]]
    if len(set(odd)) < len(odd):
        return 0, ()
    inversions = sum(1 for a, b in itertools.combinations(odd, 2) if a > b)
    return (-1) ** inversions, tuple(sorted(word))


def _graded_accumulate(acc: dict, key: tuple[int, ...], coeff) -> None:
    prev = acc.get(key)
    total = coeff if prev is None else prev + coeff
    if total == 0:
        acc.pop(key, None)
    else:
        acc[key] = total


def graded_terms_sum(a: dict, b: dict) -> dict:
    acc = dict(a)
    for key, coeff in b.items():
        _graded_accumulate(acc, key, coeff)
    return dict(sorted(acc.items()))


def graded_terms_scale(a: dict, scalar) -> dict:
    """scalar times a; an int scalar counts as a Fraction."""
    scalar = Fraction(scalar) if isinstance(scalar, int) else scalar
    return {key: scalar * coeff for key, coeff in a.items() if scalar * coeff != 0}


def _graded_products(parities: Sequence[int], pairs: list) -> dict:
    """Sum of c times the normal form of the word k1 k2, over (c, k1, k2)."""
    acc: dict = {}
    for coeff, k1, k2 in pairs:
        sign, key = graded_word_normal_form(parities, k1 + k2)
        if sign:
            _graded_accumulate(acc, key, coeff if sign > 0 else -coeff)
    return dict(sorted(acc.items()))


def graded_terms_product(parities: Sequence[int], a: dict, b: dict) -> dict:
    return _graded_products(parities, [(c1 * c2, k1, k2) for k1, c1 in a.items() for k2, c2 in b.items()])


def _graded_derivative(parities: Sequence[int], a: dict, i: int, right: bool) -> list:
    """(coefficient, key) terms of P d/dz_i (``right``) or of d/dz_i P."""
    out = []
    for key, coeff in a.items():
        for u, idx in enumerate(key):
            if idx != i:
                continue
            passed = key[u + 1 :] if right else key[:u]
            odd = parities[i] and sum(parities[x] for x in passed) % 2
            out.append((-coeff if odd else coeff, key[:u] + key[u + 1 :]))
    return out


def graded_terms_bracket(model, p: dict, q: dict) -> dict:
    """sum_ij (P d_i) omega^{ij} (d_j Q), with the model's ``omega`` values."""
    parities = model.parities
    pairs = []
    for (i, j), w in model.omega.items():
        left = [(cp * w, kp) for cp, kp in _graded_derivative(parities, p, i, right=True)]
        for cq, kq in _graded_derivative(parities, q, j, right=False):
            pairs.extend((cpw * cq, kp, kq) for cpw, kp in left)
    return _graded_products(parities, pairs)


# ---------------------------------------------------------------------------
# field configuration arithmetic
#
# Tests compare obstruction fields term by term with these; the package
# itself only builds and gauges configurations.


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


def config_simplify(config: FieldConfig) -> FieldConfig:
    """Merge terms sharing (monomial, coefficient field); the constructor
    then drops the terms whose matrices cancel."""
    grouped: dict[tuple, FieldTerm] = {}
    for mask, field, mat in config.terms:
        old = grouped.get((mask, field))
        grouped[(mask, field)] = FieldTerm(mask, field, mat if old is None else old.mat + mat)
    return FieldConfig(config.space, config.n, config.n_theta, list(grouped.values()))


def config_sum(a: FieldConfig, b: FieldConfig) -> FieldConfig:
    if (a.n, a.n_theta) != (b.n, b.n_theta):
        raise ValueError("incompatible field configurations")
    return config_simplify(FieldConfig(a.space, a.n, a.n_theta, a.terms + b.terms))


def config_scale(config: FieldConfig, s: complex) -> FieldConfig:
    return FieldConfig(
        config.space, config.n, config.n_theta, [FieldTerm(m, f, s * mat) for m, f, mat in config.terms]
    )


def config_is_zero(config: FieldConfig) -> bool:
    return not config_simplify(config).terms


def config_norm(config: FieldConfig) -> float:
    """Largest coeff_norm(f) * max |E| over the terms f E."""
    return max((coeff_norm(f) * float(np.max(np.abs(m))) for _, f, m in config.terms), default=0.0)
