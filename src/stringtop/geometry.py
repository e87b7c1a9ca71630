"""Flat spaces, piecewise-linear loops, and loop variations.

Two model spaces are supported: a single affine chart R^d and the flat
torus R^d / Z^d, both with d >= 2. A loop is a closed piecewise-linear
path given by the vertices of one lift to R^d, with exact rational
coordinates, plus an integer closure vector: the lift ends at
vertices[0] + closure. On a chart the closure must vanish; on the torus it
is the homotopy/homology class of the loop.

Parametrization is uniform in t: with K segments, t in [i/K, (i+1)/K]
traverses segment i affinely. All point and velocity evaluations at
rational t are exact.

The exact layer of the string bracket works on integers: ``integer_lift``
gives the K + 1 lift vertices as integer tuples over one common
denominator, cached on the (immutable) loop. A loop can also be built
from such a lift (``PLLoop._from_lift``), as concatenations and canonical
loops are; its ``Fraction`` vertices are then formed only on demand.
``canonical`` and ``normal_form`` share one least rotation (Booth 1980)
over the integer lift.

Loop deformations are carried by ``VariationField``: a displacement vector
per vertex, interpolated affinely along segments. Deforming by a rational
epsilon stays inside the exact PL category and never changes the closure
word. A second, evaluation-only flavor represents the velocity field of
the loop itself (discontinuous at corners, so not realizable by vertex
displacements); it exists so that contractions with gamma' can be tested
exactly.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Chart:
    """A single affine chart R^d."""

    d: int
    kind: str = "chart"

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("dimension must be at least 2")


@dataclass(frozen=True)
class Torus:
    """The flat torus R^d / Z^d, coordinates understood mod 1."""

    d: int
    kind: str = "torus"

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("dimension must be at least 2")


Space = Chart | Torus


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        # floats are accepted for convenience but snapped to the nearest
        # rational with denominator at most 10**12 (0.1 becomes 1/10, not
        # its binary value); callers who care pass Fraction or "p/q" strings
        return Fraction(x).limit_denominator(10**12)
    raise TypeError(f"cannot interpret {x!r} as a rational coordinate")


Point = tuple[Fraction, ...]


def _as_point(coords: Iterable, d: int) -> Point:
    pt = tuple(_rat(c) for c in coords)
    if len(pt) != d:
        raise ValueError(f"point has {len(pt)} coordinates, expected {d}")
    return pt


def _add(p: Point, q: Sequence[Fraction]) -> Point:
    return tuple(a + b for a, b in zip(p, q))


def _sub(p: Point, q: Sequence[Fraction]) -> Point:
    return tuple(a - b for a, b in zip(p, q))


def _scale(p: Sequence[Fraction], s: Fraction) -> Point:
    return tuple(s * a for a in p)


def least_rotation(seq: Sequence) -> int:
    """Start index of a lexicographically least rotation of ``seq`` (Booth 1980).

    Linear time over any totally ordered items. When several rotations tie
    (a periodic sequence) any of them may be returned; they are equal.
    """
    doubled = list(seq) * 2
    fail = [-1] * len(doubled)
    k = 0
    for j in range(1, len(doubled)):
        item = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and item != doubled[k + i + 1]:
            if item < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if item != doubled[k + i + 1]:  # here i == -1
            if item < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


class PLLoop:
    """Closed piecewise-linear loop, one lift, exact rational vertices.

    vertices[i] for i in 0..K-1, and the lift closes at
    vertices[0] + closure. Consecutive vertices must differ (no zero-length
    segments, and in particular no constant loops). A loop built from an
    integer lift (``_from_lift``) forms its ``Fraction`` vertices on first
    use.
    """

    __slots__ = ("space", "_vertices", "closure", "_lift", "_normal")

    def __init__(
        self,
        space: Space,
        vertices: Sequence[Iterable],
        closure: Sequence[int] | None = None,
    ) -> None:
        self.space = space
        d = space.d
        self._vertices: tuple[Point, ...] = tuple(_as_point(v, d) for v in vertices)
        closure = (0,) * d if closure is None else tuple(closure)
        self.closure: tuple[int, ...] = tuple(int(c) for c in closure)
        if self.closure != closure:
            raise ValueError(f"closure vector {closure} is not integral")
        if len(self.closure) != d:
            raise ValueError("closure vector has wrong dimension")
        if isinstance(space, Chart) and any(self.closure):
            raise ValueError("loops on a chart must have zero closure")
        if not self._vertices:
            raise ValueError("loop needs at least one vertex")
        k = len(self._vertices)
        for i in range(k):
            if self.vertex(i) == self.vertex(i + 1):
                raise ValueError(
                    "consecutive vertices coincide (constant segments are not allowed)"
                )
        self._lift = None
        self._normal = None

    @classmethod
    def _from_lift(cls, space: Space, den: int, pts: tuple[tuple[int, ...], ...]) -> "PLLoop":
        """The loop whose lift is pts / den, validated on the integers.

        pts holds the K + 1 lift vertices times den > 0 as int tuples, the
        last one being the first plus den times the closure. The common
        factor gcd(den, every coordinate) is divided out, so the stored lift
        is the one ``integer_lift`` gives for the same vertices. (The lifts
        of ``canonical`` and ``strings.concatenate`` are already reduced:
        their den is the lcm of the denominators of vertices they contain.)
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
        if isinstance(space, Chart) and any(closure):
            raise ValueError("loops on a chart must have zero closure")
        if any(map(operator.eq, pts, pts[1:])):
            raise ValueError("consecutive vertices coincide (constant segments are not allowed)")
        loop = cls.__new__(cls)
        loop.space = space
        loop._vertices = None
        loop.closure = closure
        loop._lift = (den, pts)
        loop._normal = None
        return loop

    @property
    def vertices(self) -> tuple[Point, ...]:
        """The K lift vertices as Fractions, formed from the lift on first use."""
        if self._vertices is None:
            den, pts = self._lift
            self._vertices = tuple(tuple(Fraction(c, den) for c in p) for p in pts[:-1])
        return self._vertices

    @property
    def num_segments(self) -> int:
        if self._vertices is None:
            return len(self._lift[1]) - 1
        return len(self._vertices)

    def vertex(self, i: int) -> Point:
        """Vertex of the lift, extended periodically: P_{i+K} = P_i + closure."""
        k = len(self.vertices)
        wraps, idx = divmod(i, k)
        base = self.vertices[idx]
        if wraps == 0:
            return base
        return tuple(c + wraps * m for c, m in zip(base, self.closure))

    def segment(self, i: int) -> tuple[Point, Point]:
        return self.vertex(i), self.vertex(i + 1)

    def segment_velocity(self, i: int) -> Point:
        """Velocity on segment i: K * (P_{i+1} - P_i), constant there."""
        a, b = self.segment(i)
        k = Fraction(self.num_segments)
        return tuple(k * (y - x) for x, y in zip(a, b))

    def segment_of(self, t: Fraction) -> tuple[int, Fraction]:
        """Segment index and local coordinate u in [0,1] for t in [0,1]."""
        t = _rat(t)
        tn, td = t.numerator, t.denominator
        if not 0 <= tn <= td:
            raise ValueError("parameter must lie in [0, 1]")
        k = self.num_segments
        i, rem = divmod(tn * k, td)
        if i == k:
            return k - 1, Fraction(1)
        return i, Fraction(rem, td)

    def point_at(self, t: Fraction) -> Point:
        i, u = self.segment_of(t)
        a, b = self.segment(i)
        return tuple(x + u * (y - x) for x, y in zip(a, b))

    def velocity_at(self, t: Fraction) -> Point:
        """Right-sided velocity at t (segment velocity of the segment containing t)."""
        i, _ = self.segment_of(t)
        return self.segment_velocity(i)

    # -- transformations ---------------------------------------------------

    def translate(self, vec: Sequence) -> "PLLoop":
        v = _as_point(vec, self.space.d)
        return PLLoop(self.space, [_add(p, v) for p in self.vertices], self.closure)

    def rotate_marked(self, k: int) -> "PLLoop":
        """Move the marked point (parameter 0) to the current vertex k."""
        n = self.num_segments
        k = k % n
        verts = [self.vertex(k + i) for i in range(n)]
        return PLLoop(self.space, verts, self.closure)

    def reverse(self) -> "PLLoop":
        """Orientation reversal, re-based at the original marked point."""
        n = self.num_segments
        verts = [self.vertices[0]] + [
            _sub(self.vertex(n - i), self.closure) for i in range(1, n)
        ]
        return PLLoop(self.space, verts, tuple(-c for c in self.closure))

    def subdivide_segment(self, i: int, u: Fraction = Fraction(1, 2)) -> "PLLoop":
        """Insert a vertex at local coordinate u of segment i.

        The geometric loop is unchanged; only the PL structure (and hence
        the uniform parametrization) is refined.
        """
        u = _rat(u)
        if not 0 < u < 1:
            raise ValueError("subdivision point must be interior to the segment")
        i = i % self.num_segments
        a, b = self.segment(i)
        mid = tuple(x + u * (y - x) for x, y in zip(a, b))
        verts = list(self.vertices)
        verts.insert(i + 1, mid)
        return PLLoop(self.space, verts, self.closure)

    # -- class invariants ---------------------------------------------------

    def lattice_class(self) -> tuple[int, ...]:
        """Closure vector; on the torus this is the free homotopy class."""
        return self.closure

    def integer_lift(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, pts): the lift over its common denominator, as integers.

        den is the lcm of the vertex denominators; pts holds the K + 1
        lift vertices times den, the last one being vertices[0] + closure.
        Cached: a loop is never changed after construction.
        """
        if self._lift is None:
            den = math.lcm(*(c.denominator for p in self._vertices for c in p))
            pts = [tuple(c.numerator * (den // c.denominator) for c in p) for p in self._vertices]
            pts.append(tuple(a + den * m for a, m in zip(pts[0], self.closure)))
            self._lift = (den, tuple(pts))
        return self._lift

    def normal_form(self) -> tuple:
        """Canonical form under marked-point rotation (and deck translation).

        Two loops describe the same unmarked geometric loop exactly when
        their normal forms agree. The candidates are the K rotations
        (vertex(r), ..., vertex(r + K - 1)); on the torus each is first
        translated by the floor of its initial vertex, into [0,1)^d, so
        rotations past the wrap, which differ by the closure translation,
        do not affect the result. The normal form is (least candidate,
        closure), and it is cached.

        The least candidate is found without building the candidates. Let
        P_0..P_K be the integer lift (``integer_lift``) over its denominator
        den > 0, and give vertex i the token (P_i mod den on the torus, P_i
        on a chart; P_{i+1} - P_i). The token sequences starting at r and
        at q compare in the same order as candidates r and q:

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
        and rotations that tie give equal candidates. Only the winner is
        turned into ``Fraction`` vertices.
        """
        if self._normal is None:
            den, rows = self._least_lift()
            verts = tuple(tuple(Fraction(a, den) for a in p) for p in rows[:-1])
            self._normal = (verts, self.closure)
        return self._normal

    def _least_lift(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, rows): the integer lift of the normal form (see ``normal_form``).

        rows are the K + 1 lift vertices of the least rotation times den, on
        the torus translated so that the first lies in [0, den)^d.
        """
        den, pts = self.integer_lift()
        torus = isinstance(self.space, Torus)
        tokens = [
            (*(map(den.__rmod__, p) if torus else p), *map(operator.sub, q, p))
            for p, q in zip(pts, pts[1:])
        ]
        r = least_rotation(tokens)
        # rows r..K-1, then rows 0..r past the wrap, translated into [0, den)^d
        shift = tuple(c - c % den for c in pts[r]) if torus else (0,) * self.space.d
        back = tuple(den * m - s for m, s in zip(self.closure, shift))
        rows = tuple(tuple(map(operator.sub, p, shift)) for p in pts[r:-1])
        rows += tuple(tuple(map(operator.add, p, back)) for p in pts[: r + 1])
        return den, rows

    def canonical(self) -> "PLLoop":
        """The loop whose vertices are the normal form, built on the integers."""
        return PLLoop._from_lift(self.space, *self._least_lift())

    def same_loop(self, other: "PLLoop") -> bool:
        return self.space == other.space and self.normal_form() == other.normal_form()

    def __repr__(self) -> str:
        return (
            f"PLLoop({self.space.kind} d={self.space.d}, "
            f"K={self.num_segments}, closure={self.closure})"
        )


class VariationField:
    """A deformation direction for a PL loop.

    The standard flavor assigns a displacement vector to each vertex and
    interpolates affinely along segments; ``deform`` realizes the deformed
    loop at a rational epsilon. The ``tangent`` flavor evaluates to the
    loop's own velocity field and cannot deform (corner velocities are
    two-sided); it exists for exact contraction checks.
    """

    __slots__ = ("loop", "displacements", "is_tangent")

    def __init__(
        self,
        loop: PLLoop,
        displacements: Sequence[Iterable] | None,
        is_tangent: bool = False,
    ) -> None:
        self.loop = loop
        self.is_tangent = is_tangent
        if is_tangent:
            self.displacements = None
            if displacements is not None:
                raise ValueError("tangent variation takes no displacement data")
            return
        if displacements is None:
            raise ValueError("displacement list required")
        d = loop.space.d
        disp = tuple(_as_point(v, d) for v in displacements)
        if len(disp) != loop.num_segments:
            raise ValueError("need exactly one displacement per vertex")
        self.displacements = disp

    @classmethod
    def from_displacements(cls, loop: PLLoop, disps: Sequence[Iterable]) -> "VariationField":
        return cls(loop, disps)

    @classmethod
    def constant(cls, loop: PLLoop, vec: Iterable) -> "VariationField":
        v = tuple(vec)
        return cls(loop, [v] * loop.num_segments)

    @classmethod
    def tangent(cls, loop: PLLoop) -> "VariationField":
        return cls(loop, None, is_tangent=True)

    def displacement(self, i: int) -> Point:
        """Displacement at vertex i (periodic: same at i and i + K)."""
        assert self.displacements is not None
        return self.displacements[i % self.loop.num_segments]

    def value_at(self, t: Fraction) -> Point:
        if self.is_tangent:
            return self.loop.velocity_at(t)
        i, u = self.loop.segment_of(t)
        a = self.displacement(i)
        b = self.displacement(i + 1)
        return tuple(x + u * (y - x) for x, y in zip(a, b))

    def deform(self, eps: Fraction) -> PLLoop:
        """The loop moved by eps times this field; closure is unchanged."""
        if self.is_tangent:
            raise ValueError("tangent variations cannot deform the loop")
        eps = _rat(eps)
        verts = [
            _add(p, _scale(v, eps))
            for p, v in zip(self.loop.vertices, self.displacements)
        ]
        return PLLoop(self.loop.space, verts, self.loop.closure)
