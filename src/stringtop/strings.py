"""Transversal loop intersections, concatenation, and the surface bracket.

Everything here is exact: intersections of PL segments are solved with
rational 2x2 linear algebra, torus crossings are enumerated over the
finitely many deck translations that can bring two lift bounding boxes
together, and formal cycles carry integer coefficients on
rotation-normalized loops. Non-transversal contact (overlapping segments,
crossings at vertices or marked points) raises ``TransversalityError``
instead of being perturbed away silently.

The degree-0 bracket of two cycles on a surface sums, over transversal
intersection points p of their representatives, the loop concatenated at
p weighted by the orientation sign of the crossing frame. An independent
straight-line counting oracle for torus classes is provided for
cross-checking; it shares no code with the bracket path beyond integer
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from stringtop.geometry import PLLoop, Torus


class TransversalityError(ValueError):
    """Loops touch non-transversally; the caller must perturb and retry."""


@dataclass(frozen=True)
class IntersectionPoint:
    """One transversal crossing of two loops.

    s, s_bar: loop parameters of the crossing on each loop;
    point: crossing location on the first loop's lift;
    sign: orientation of the (velocity, bar-velocity) frame, +1 or -1;
    offset: deck translation with gamma(s) = gammabar(s_bar) + offset
    (zero on a chart).
    """

    s: Fraction
    s_bar: Fraction
    point: tuple[Fraction, ...]
    sign: int
    offset: tuple[int, ...]


def _cross(u, v) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def _segment_crossing(p0, dp, q0, dq, label):
    """Interior crossing parameters (t, r) of two segments, or None.

    Segments are p0 + t dp and q0 + r dq with t, r in [0, 1]. Collinear
    overlap and boundary contact (a crossing at t or r in {0, 1}) raise
    TransversalityError; disjoint or parallel-apart segments return None.
    """
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
        raise TransversalityError(
            f"segments {label} cross at a vertex or marked point"
        )
    return t, r


def _lift_box(loop: PLLoop):
    pts = [loop.vertex(i) for i in range(loop.num_segments + 1)]
    lo = tuple(min(p[k] for p in pts) for k in range(2))
    hi = tuple(max(p[k] for p in pts) for k in range(2))
    return lo, hi


def _deck_offsets(loop: PLLoop, other: PLLoop):
    if not isinstance(loop.space, Torus):
        return [(0, 0)]
    (alo, ahi), (blo, bhi) = _lift_box(loop), _lift_box(other)
    ranges = [
        range(math.ceil(alo[k] - bhi[k]), math.floor(ahi[k] - blo[k]) + 1)
        for k in range(2)
    ]
    return [(l1, l2) for l1 in ranges[0] for l2 in ranges[1]]


def intersections(loop: PLLoop, other: PLLoop) -> list[IntersectionPoint]:
    """All transversal crossings of two loops, exact, sorted by (s, s_bar).

    On the torus the crossings of the quotient loops are enumerated as
    crossings of the first lift with every relevant deck translate of the
    second; the translation is recorded in ``offset``. Self-intersections
    of a single loop are not this function's business: passing the same
    geometric loop twice is a total overlap and raises.
    """
    if loop.space != other.space:
        raise ValueError("loops live on different spaces")
    if loop.space.d != 2:
        raise ValueError("intersections are implemented for d = 2 only")
    k1, k2 = loop.num_segments, other.num_segments
    offsets = _deck_offsets(loop, other)
    found = []
    for i in range(k1):
        p0, p1 = loop.segment(i)
        dp = tuple(b - a for a, b in zip(p0, p1))
        for j in range(k2):
            q0, q1 = other.segment(j)
            dq = tuple(b - a for a, b in zip(q0, q1))
            for lam in offsets:
                q0l = tuple(c + o for c, o in zip(q0, lam))
                hit = _segment_crossing(p0, dp, q0l, dq, f"({i}, {j})")
                if hit is None:
                    continue
                t, r = hit
                point = tuple(a + t * d for a, d in zip(p0, dp))
                found.append(
                    IntersectionPoint(
                        s=(i + t) / k1,
                        s_bar=(j + r) / k2,
                        point=point,
                        sign=1 if _cross(dp, dq) > 0 else -1,
                        offset=lam,
                    )
                )
    found.sort(key=lambda p: (p.s, p.s_bar))
    return found


def concatenate(loop: PLLoop, other: PLLoop, p: IntersectionPoint) -> PLLoop:
    """The loop that runs around ``loop`` from p and then around ``other``.

    The marked point of the result is p. Vertex lists are spliced at the
    exact crossing parameters; on the torus the second lift is translated
    so the two circuits join, and the closure vectors add.
    """
    if loop.point_at(p.s) != p.point:
        raise ValueError("stale intersection point: not on the first loop")
    shifted = tuple(c + o for c, o in zip(other.point_at(p.s_bar), p.offset))
    if shifted != p.point:
        raise ValueError("stale intersection point: not on the second loop")
    k1, k2 = loop.num_segments, other.num_segments
    i = loop.segment_of(p.s)[0]
    j = other.segment_of(p.s_bar)[0]
    # after the first circuit the path sits at p + closure; the second lift
    # is translated there: tau = offset + closure of the first loop
    tau = tuple(o + c for o, c in zip(p.offset, loop.closure))
    verts = [p.point]
    verts += [loop.vertex(i + m) for m in range(1, k1 + 1)]
    verts += [tuple(a + c for a, c in zip(p.point, loop.closure))]
    verts += [
        tuple(a + c for a, c in zip(other.vertex(j + m), tau))
        for m in range(1, k2 + 1)
    ]
    closure = tuple(a + b for a, b in zip(loop.closure, other.closure))
    return PLLoop(loop.space, verts, closure)


# ---------------------------------------------------------------------------
# formal cycles


def _combine(terms) -> tuple[tuple[int, PLLoop], ...]:
    """Sum the coefficients of normal-form loops per key; drop zeros; sort by key."""
    combined: dict[tuple, tuple[int, PLLoop]] = {}
    for coeff, loop in terms:
        key = (loop.vertices, loop.closure)
        total = combined[key][0] if key in combined else 0
        combined[key] = (total + int(coeff), loop)
    return tuple((c, l) for _, (c, l) in sorted(combined.items()) if c != 0)


class StringCycle:
    """Formal integer combination of loops, each stored rotation-normalized.

    A stored loop is its own normal form, so its (vertices, closure) is its
    key: only the constructor normalizes, and sums, scalings, equality and
    hashing work on the stored keys.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space, terms: Iterable[tuple[int, PLLoop]] = ()) -> None:
        canonical = []
        for coeff, loop in terms:
            if loop.space != space:
                raise ValueError("cycle terms live on different spaces")
            verts, closure = loop.normal_form()
            canonical.append((coeff, PLLoop(space, verts, closure)))
        self.space = space
        self.terms = _combine(canonical)

    @classmethod
    def _of(cls, space, terms) -> "StringCycle":
        """Cycle of terms whose loops are already normal forms."""
        cycle = cls.__new__(cls)
        cycle.space = space
        cycle.terms = _combine(terms)
        return cycle

    @classmethod
    def from_loop(cls, loop: PLLoop, coeff: int = 1) -> "StringCycle":
        return cls(loop.space, [(coeff, loop)])

    @classmethod
    def zero(cls, space) -> "StringCycle":
        return cls(space, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "StringCycle") -> "StringCycle":
        if self.space != other.space:
            raise ValueError("cycles live on different spaces")
        return StringCycle._of(self.space, self.terms + other.terms)

    def scale(self, k: int) -> "StringCycle":
        return StringCycle._of(self.space, [(k * c, l) for c, l in self.terms])

    def __neg__(self) -> "StringCycle":
        return self.scale(-1)

    def __sub__(self, other: "StringCycle") -> "StringCycle":
        return self + (-other)

    def _keys(self) -> tuple:
        return tuple((c, l.vertices, l.closure) for c, l in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StringCycle):
            return NotImplemented
        return self.space == other.space and self._keys() == other._keys()

    def __hash__(self):
        return hash((self.space, self._keys()))

    def class_reduction(self) -> dict[tuple[int, ...], int]:
        """Coefficients per free homotopy class; torus only."""
        if not isinstance(self.space, Torus):
            raise ValueError("class reduction is defined on the torus")
        out: dict[tuple[int, ...], int] = {}
        for coeff, loop in self.terms:
            cls = loop.lattice_class()
            out[cls] = out.get(cls, 0) + coeff
        return {k: v for k, v in out.items() if v != 0}

    def __repr__(self) -> str:
        return f"StringCycle({self.space.kind}, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# the bracket


def degree_zero_prefactor(bar_degree: int, degree: int, d: int) -> int:
    """Bracket prefactor (-1)^{bar_degree (d + degree)}; +1 at degree 0."""
    return -1 if (bar_degree * (d + degree)) % 2 else 1


def jacobi_eta(parity_a: int, parity_c: int, d: int) -> int:
    """Cyclic-sum sign (-1)^{(|a|+d)(|c|+d)}; +1 at degree 0 in d = 2."""
    return -1 if ((parity_a + d) * (parity_c + d)) % 2 else 1


def string_bracket(a: StringCycle, abar: StringCycle) -> StringCycle:
    """Degree-0 bracket: signed concatenations over all crossings, bilinear."""
    if a.space != abar.space:
        raise ValueError("cycles live on different spaces")
    pref = degree_zero_prefactor(0, 0, a.space.d)
    out = []
    for m, gamma in a.terms:
        for mbar, gammabar in abar.terms:
            for p in intersections(gamma, gammabar):
                out.append((pref * m * mbar * p.sign, concatenate(gamma, gammabar, p)))
    return StringCycle(a.space, out)


def jacobi_residual(a: StringCycle, b: StringCycle, c: StringCycle) -> StringCycle:
    """Signed cyclic sum eta(x,z) {{x;y};z}; zero on classes, not on chains.

    The chain-level result depends on where concatenations happen, so only
    its class reduction is contractually zero; callers report both.
    """
    d = a.space.d
    out = StringCycle.zero(a.space)
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        out = out + string_bracket(string_bracket(x, y), z).scale(jacobi_eta(0, 0, d))
    return out


# ---------------------------------------------------------------------------
# independent torus oracle


def goldman_torus(c1: Sequence[int], c2: Sequence[int]) -> tuple[int, tuple[int, int]]:
    """Signed crossing count of straight torus lines of two classes.

    Counts solutions of b1 + t c1 = b2 + r c2 + lam over deck vectors lam
    with t, r in [0, 1), from fixed generic base points, summing frame
    signs. Returns (count, componentwise class sum).

    This is an oracle: it shares nothing with the bracket machinery and no
    bracket computation calls it; checks compare ``string_bracket`` class
    reductions against it, so it must stay independent of ``intersections``.
    """
    c1 = (int(c1[0]), int(c1[1]))
    c2 = (int(c2[0]), int(c2[1]))
    total = (c1[0] + c2[0], c1[1] + c2[1])
    if c1 == (0, 0) or c2 == (0, 0):
        return 0, total
    b2 = (Fraction(1, 97), Fraction(1, 89))
    den = c1[0] * c2[1] - c1[1] * c2[0]
    if den == 0:
        # parallel classes: distinct parallel lines never cross
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
