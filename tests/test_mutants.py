"""Mutants that the default suite must catch.

Each mutant is a deliberate error, applied in process with ``monkeypatch``
(never by rewriting source), and names the checks of
``run_suite(SuiteConfig())`` that must FAIL under it; every other check
must still pass. A mutant that passes the suite shows a tolerance too
loose to see the error, or a check that cannot see it at all; such a
mutant is a strict xfail naming the work meant to catch it, so that the
day it is caught the xfail fails and is promoted to a plain entry.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from stringtop import brackets, holonomy, strings
from stringtop.harness import SuiteConfig, run_suite
from stringtop.lierep import LieBasis

from oracles import config_scale, config_sum


def lie_splitting(monkeypatch):
    """E^2 G in place of the Strang step E G E: first order in h."""
    body_left = holonomy._body_left
    monkeypatch.setattr(holonomy, "_body_left", lambda e, g: body_left(e @ e, g))
    monkeypatch.setattr(holonomy, "_body_right", lambda g, e: g)


def no_richardson(monkeypatch):
    """The Richardson level dropped: the fine grid alone."""
    monkeypatch.setattr(
        holonomy, "_with_richardson", lambda evaluate, plan: evaluate(plan.steps << plan.richardson)
    )


def truncated_exponential(monkeypatch):
    """Each step exponential cut to 1 + M h."""

    def first_order(slots, coeffs):
        out = slots.dense(coeffs)
        out[:, 0] += np.eye(slots.n)
        return out

    monkeypatch.setattr(holonomy._Slots, "exp", first_order)


def negated_crossing_weight(monkeypatch):
    """Each crossing of the observable bracket weighted by -sign."""
    monkeypatch.setattr(brackets, "wilson_intersection_weight", lambda sign: -sign)


def pairing_sign_plus(monkeypatch):
    """The deformation/insertion pairing sign flipped to +1."""
    monkeypatch.setattr(brackets, "loop_form_pairing_sign", lambda: 1)


def obstruction_without_cc(monkeypatch):
    """B = dC + AC + CA without its C C term. B is quadratic in C, so its
    linear part is 2 B(C) - B(2 C) / 2 (exact: the scalings are powers of 2)."""
    obstruction = brackets.field_obstruction

    def linear(config, conn):
        doubled = obstruction(config_scale(config, 2.0), conn)
        return config_sum(config_scale(obstruction(config, conn), 2.0), config_scale(doubled, -0.5))

    monkeypatch.setattr(brackets, "field_obstruction", linear)


def displacement_from_zero(monkeypatch):
    """Plain transport reads x(s) at 0: U(s, t) becomes U(0, t)."""
    displacement = holonomy._displacement
    monkeypatch.setattr(
        holonomy, "_displacement", lambda loop, s, t, wrap=False: displacement(loop, Fraction(0), t, wrap)
    )


def casimir_without_dual(monkeypatch):
    """The Casimir pairs each basis element with itself, not its kappa-dual."""
    monkeypatch.setattr(LieBasis, "dual", lambda self, a: a)


def first_crossing(monkeypatch):
    """The bracket concatenates at the first crossing, whatever the crossing."""
    concatenate = strings.concatenate
    monkeypatch.setattr(
        strings, "concatenate", lambda loop, other, p: concatenate(loop, other, strings.intersections(loop, other)[0])
    )


MUTANTS = {
    "lie-splitting": (lie_splitting, {"fundamental"}),
    "no-richardson": (no_richardson, {"fundamental"}),
    "truncated-exponential": (truncated_exponential, {"fundamental"}),
    "negated-crossing-weight": (negated_crossing_weight, {"main-theorem"}),
    "pairing-sign-plus": (pairing_sign_plus, {"fundamental"}),
    "obstruction-without-cc": (obstruction_without_cc, {"fundamental"}),
    "displacement-from-zero": (displacement_from_zero, {"holonomy", "main-theorem", "chord-ideal"}),
    "casimir-without-dual": (casimir_without_dual, {"chord-ideal"}),
    # every suite connection commutes, so each crossing of a main-theorem
    # pair fuses the same trace; the non-abelian holonomy of ROADMAP item 3
    # is meant to make main-theorem see it
    "first-crossing": (first_crossing, {"main-theorem"}),
}
CAUGHT_BY_NOTHING_YET = {"first-crossing": "ROADMAP item 3: non-abelian holonomy on the punctured torus"}


def failing_checks() -> set[str]:
    return {r.check for r in run_suite(SuiteConfig()).records if not r.passed}


def test_the_unmutated_suite_passes():
    assert failing_checks() == set()


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=CAUGHT_BY_NOTHING_YET[name]))
        if name in CAUGHT_BY_NOTHING_YET
        else name
        for name in MUTANTS
    ],
)
def test_the_suite_catches_the_mutant(monkeypatch, name):
    apply, caught_by = MUTANTS[name]
    apply(monkeypatch)
    assert failing_checks() == caught_by
