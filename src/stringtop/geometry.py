"""The flat torus, piecewise-linear loops, and loop variations.

The model space is the flat torus R^2 / Z^2, the surface on which the
string bracket is Goldman's bracket. A loop is a closed piecewise-linear
path given by the vertices of one lift to R^2, with exact rational
coordinates, plus an integer closure vector: the lift ends at
vertices[0] + closure. The closure is the homotopy/homology class of the
loop.

Parametrization is uniform in t: with K segments, t in [i/K, (i+1)/K]
traverses segment i affinely. Points at rational t are exact, and the
velocity on segment i is K times its edge.

A loop is stored as its integer lift only: ``integer_lift`` gives the
K + 1 lift vertices as integer tuples over one common denominator, and
``lift_point`` and ``edge`` read points and segment edges off it in
integers. The constructor turns rational vertices into that lift;
``PLLoop._from_lift`` builds a loop from the integers directly, as
concatenations and the transformations do, and ``canonical`` stores its
rotated lift with the constant-segment check alone. The
``Fraction`` vertices are a view formed on demand. ``canonical`` and
``normal_form`` share one least rotation (``least_rotation``) over the
integer lift.

Loop deformations are carried by ``VariationField``: a displacement vector
per vertex, interpolated affinely along segments. Deforming by a rational
epsilon stays inside the exact PL category and never changes the closure
word.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Torus:
    """The flat torus R^2 / Z^2, coordinates understood mod 1.

    d is the dimension, and it must be 2: every bracket in the package is
    a surface bracket.
    """

    d: int

    def __post_init__(self):
        if self.d != 2:
            raise ValueError("dimension must be 2")


def _rat(x) -> Fraction:
    """x as a Fraction: the one coercion of coordinates and loop parameters.

    Only a ``Fraction`` or an ``int`` is exact, so anything else (a float,
    whose binary value 0.1 is not 1/10, or a string) raises ``TypeError``.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational: pass a Fraction or an int")


Point = tuple[Fraction, ...]


def _as_point(coords: Iterable, d: int) -> Point:
    pt = tuple(_rat(c) for c in coords)
    if len(pt) != d:
        raise ValueError(f"point has {len(pt)} coordinates, expected {d}")
    return pt


def least_rotation(seq: Sequence) -> int:
    """Start index of a lexicographically least rotation of ``seq``; 0 if empty.

    A least rotation starts at a least item. O(K) when the least item is
    unique; with c tied starts their c rotations are compared, O(cK). Tied
    rotations that are equal (a periodic sequence) give the first start.
    """
    first = min(seq, default=None)
    if seq.count(first) == 1:
        return seq.index(first)
    starts = (i for i, item in enumerate(seq) if item == first)
    return min(starts, key=lambda i: seq[i:] + seq[:i], default=0)


class PLLoop:
    """Closed piecewise-linear loop, one lift, exact rational vertices.

    The loop is stored as its integer lift only (``integer_lift``): the
    K + 1 lift vertices P_0..P_K over one common denominator, where P_K is
    P_0 plus the closure. The constructor takes the K vertices as rationals;
    ``_from_lift`` takes the integers directly; both go through one
    validator. Consecutive vertices must differ (no zero-length segments,
    and in particular no constant loops). ``vertices`` is a ``Fraction``
    view of the lift, formed on first use.
    """

    __slots__ = ("space", "closure", "_lift", "_vertices")

    def __init__(
        self,
        space: Torus,
        vertices: Sequence[Iterable],
        closure: Sequence[int] | None = None,
    ) -> None:
        d = space.d
        verts = tuple(_as_point(v, d) for v in vertices)
        closure = (0,) * d if closure is None else tuple(closure)
        ints = tuple(int(c) for c in closure)
        if ints != closure:
            raise ValueError(f"closure vector {closure} is not integral")
        if len(ints) != d:
            raise ValueError("closure vector has wrong dimension")
        if not verts:
            raise ValueError("loop needs at least one vertex")
        den = math.lcm(*(c.denominator for p in verts for c in p))
        pts = [tuple(c.numerator * (den // c.denominator) for c in p) for p in verts]
        pts.append(tuple(a + den * m for a, m in zip(pts[0], ints)))
        self._store(space, ints, den, tuple(pts))

    @classmethod
    def _from_lift(cls, space: Torus, den: int, pts: tuple[tuple[int, ...], ...]) -> "PLLoop":
        """The loop whose lift is pts / den, validated on the integers.

        pts holds the K + 1 lift vertices times den > 0 as int tuples, the
        last one being the first plus den times the closure. The common
        factor gcd(den, every coordinate) is divided out, so the stored lift
        is the one the constructor gives for the same vertices: den becomes
        the lcm of the vertex denominators.
        """
        g = math.gcd(den, *itertools.chain.from_iterable(pts))
        if g > 1:
            den //= g
            pts = tuple(tuple(c // g for c in p) for p in pts)
        if len(pts) < 2:
            raise ValueError("loop needs at least one vertex")
        closure = tuple(b - a for a, b in zip(pts[0], pts[-1]))
        if any(c % den for c in closure):
            raise ValueError("closure vector is not integral")
        closure = tuple(c // den for c in closure)
        if len(closure) != space.d:
            raise ValueError("closure vector has wrong dimension")
        loop = cls.__new__(cls)
        loop._store(space, closure, den, pts)
        return loop

    def _store(self, space: Torus, closure: tuple[int, ...], den: int, pts: tuple) -> None:
        """Reject constant segments, then set the loop to the lift (den, pts)."""
        if any(map(operator.eq, pts, pts[1:])):
            raise ValueError("consecutive vertices coincide (constant segments are not allowed)")
        self.space = space
        self.closure = closure
        self._lift = (den, pts)
        self._vertices = None

    @property
    def vertices(self) -> tuple[Point, ...]:
        """The K lift vertices as Fractions, formed from the lift on first use."""
        if self._vertices is None:
            den, pts = self._lift
            self._vertices = tuple(tuple(Fraction(c, den) for c in p) for p in pts[:-1])
        return self._vertices

    @property
    def num_segments(self) -> int:
        return len(self._lift[1]) - 1

    def vertex(self, i: int) -> Point:
        """Vertex of the lift, extended periodically: P_{i+K} = P_i + closure."""
        verts = self.vertices
        wraps, idx = divmod(i, len(verts))
        base = verts[idx]
        if wraps == 0:
            return base
        return tuple(c + wraps * m for c, m in zip(base, self.closure))

    def edge(self, i: int) -> tuple[int, ...]:
        """P_{i+1} - P_i for 0 <= i < K: the edge of segment i times den, in integers."""
        pts = self._lift[1]
        return tuple(map(operator.sub, pts[i + 1], pts[i]))

    def point_at(self, t: Fraction) -> Point:
        """The lift point at t in [0, 1], formed from ``Fraction`` vertices (see ``lift_point``)."""
        t = _rat(t)
        if not 0 <= t <= 1:
            raise ValueError("parameter must lie in [0, 1]")
        i, u = divmod(t * self.num_segments, 1)
        a, b = self.vertex(i), self.vertex(i + 1)
        return tuple(x + u * (y - x) for x, y in zip(a, b))

    # -- transformations ---------------------------------------------------

    def rotate_marked(self, k: int) -> "PLLoop":
        """Move the marked point (parameter 0) to the current vertex k."""
        den, pts = self._lift
        k %= len(pts) - 1
        step = tuple(den * m for m in self.closure)
        rows = pts[k:-1] + tuple(tuple(map(operator.add, p, step)) for p in pts[: k + 1])
        return PLLoop._from_lift(self.space, den, rows)

    def reverse(self) -> "PLLoop":
        """Orientation reversal, re-based at the original marked point.

        Lift vertex i of the reversal is P_{K-i} - closure.
        """
        den, pts = self._lift
        step = tuple(den * m for m in self.closure)
        rows = tuple(tuple(map(operator.sub, p, step)) for p in reversed(pts))
        return PLLoop._from_lift(self.space, den, rows)

    def subdivide_segment(self, i: int, u: Fraction = Fraction(1, 2)) -> "PLLoop":
        """Insert a vertex at local coordinate u of segment i.

        The geometric loop is unchanged; only the PL structure (and hence
        the uniform parametrization) is refined.
        """
        u = _rat(u)
        if not 0 < u < 1:
            raise ValueError("subdivision point must be interior to the segment")
        den, pts = self._lift
        i %= len(pts) - 1
        un, ud = u.numerator, u.denominator
        rows = [tuple(c * ud for c in p) for p in pts]
        rows.insert(i + 1, tuple(a * ud + un * (b - a) for a, b in zip(pts[i], pts[i + 1])))
        return PLLoop._from_lift(self.space, den * ud, tuple(rows))

    # -- class invariants ---------------------------------------------------

    def integer_lift(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, pts): the lift over its common denominator, as integers.

        den is the lcm of the vertex denominators; pts holds the K + 1
        lift vertices times den, the last one being vertices[0] + closure.
        """
        return self._lift

    def lift_point(self, t: Fraction) -> tuple[int, tuple[int, ...]]:
        """(den', x'): the lift point at t in [0, 1] as x' / den', in integers.

        With (den, P_0..P_K) the integer lift and t = tn/td in lowest terms,
        divmod(tn K, td) = (i, rem) picks segment i and local coordinate
        rem/td, so the point is (P_i td + rem (P_{i+1} - P_i)) / (den td),
        or P_i / den at a vertex (rem = 0). The same point as ``point_at``,
        without forming a ``Fraction``.
        """
        t = _rat(t)
        tn, td = t.numerator, t.denominator
        if not 0 <= tn <= td:
            raise ValueError("parameter must lie in [0, 1]")
        den, pts = self._lift
        i, rem = divmod(tn * (len(pts) - 1), td)
        if not rem:
            return den, pts[i]
        (ax, ay), (bx, by) = pts[i], pts[i + 1]
        return den * td, (ax * td + rem * (bx - ax), ay * td + rem * (by - ay))

    def normal_form(self) -> tuple:
        """Canonical form under marked-point rotation (and deck translation).

        Two loops describe the same unmarked geometric loop exactly when
        their normal forms agree. The normal form is (least candidate,
        closure), the vertices of ``canonical`` (see ``_least_lift``).

        The library compares loops by ``canonical``; this view stays
        because the benchmark tracer (``perfbench/tracing.py``) names it.
        """
        return self.canonical().vertices, self.closure

    def _least_lift(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, rows): the integer lift of the normal form.

        The candidates are the K rotations (vertex(r), ..., vertex(r + K - 1)),
        each first translated by the floor of its initial vertex, into
        [0,1)^2, so rotations past the wrap, which differ by the closure
        translation, do not affect the result. rows are the K + 1 lift
        vertices of the least candidate times den, the first in [0, den)^2.

        The least candidate is found without building the candidates. Let
        P_0..P_K be the integer lift over its denominator den > 0, and give
        vertex i the token (P_i mod den, P_{i+1} - P_i). The token
        sequences starting at r and at q compare in the same order as
        candidates r and q:

        - the point entries of the first tokens are the candidates' first
          vertices times den;
        - once the first m vertices agree, vertex m + 1 is vertex m plus
          the edge of token m, so the edges decide; the point entries of
          token m agree, since P_{r+m} and P_{q+m} differ from the equal
          vertices m by lattice vectors times den;
        - when all K vertices agree, the last edges, which both close up
          at vertex 0 + closure, agree too: equal token sequences are
          equal candidates.

        Scaling by den > 0 keeps every order, so the least rotation of the
        cyclic token sequence (``least_rotation``) is a least candidate,
        and rotations that tie give equal candidates.
        """
        den, pts = self._lift
        tokens = [(x % den, y % den, u - x, v - y) for (x, y), (u, v) in zip(pts, pts[1:])]
        r = least_rotation(tokens)
        # rows r..K-1, then rows 0..r past the wrap, translated into [0, den)^2
        x, y = pts[r]
        sx, sy = x - x % den, y - y % den
        bx, by = den * self.closure[0] - sx, den * self.closure[1] - sy
        rows = tuple([(x - sx, y - sy) for x, y in pts[r:-1]] + [(x + bx, y + by) for x, y in pts[: r + 1]])
        return den, rows

    def canonical(self) -> "PLLoop":
        """The loop whose vertices are the normal form, built on the integers.

        The loop is stored from ``_least_lift`` through ``_store`` alone,
        without the gcd and closure passes of ``_from_lift``: rotating the
        rows and translating them by den times a lattice vector keeps
        gcd(den, coordinates) = 1 and keeps the closure, so those passes
        would prove nothing new. ``_store`` still rejects constant segments.
        Every call runs one least rotation; ``StringCycle`` keeps its stored
        loops canonical, so it calls this only on loops it is given.
        """
        loop = PLLoop.__new__(PLLoop)
        loop._store(self.space, self.closure, *self._least_lift())
        return loop

    def __repr__(self) -> str:
        return (
            f"PLLoop(torus d={self.space.d}, "
            f"K={self.num_segments}, closure={self.closure})"
        )


class VariationField:
    """A deformation direction for a PL loop.

    It assigns a displacement vector to each vertex and interpolates
    affinely along segments; ``deform`` realizes the deformed loop at a
    rational epsilon.
    """

    __slots__ = ("loop", "displacements")

    def __init__(self, loop: PLLoop, displacements: Sequence[Iterable]) -> None:
        self.loop = loop
        d = loop.space.d
        disp = tuple(_as_point(v, d) for v in displacements)
        if len(disp) != loop.num_segments:
            raise ValueError("need exactly one displacement per vertex")
        self.displacements = disp

    @classmethod
    def from_displacements(cls, loop: PLLoop, disps: Sequence[Iterable]) -> "VariationField":
        return cls(loop, disps)

    def displacement(self, i: int) -> Point:
        """Displacement at vertex i (periodic: same at i and i + K)."""
        return self.displacements[i % self.loop.num_segments]

    def deform(self, eps: Fraction) -> PLLoop:
        """The loop moved by eps times this field; closure is unchanged."""
        eps = _rat(eps)
        verts = [
            tuple(a + eps * b for a, b in zip(p, v))
            for p, v in zip(self.loop.vertices, self.displacements)
        ]
        return PLLoop(self.loop.space, verts, self.loop.closure)
