"""Mutants of the stepping that the default suite must catch.

Each mutant is a deliberate error, applied in process with ``monkeypatch``
(never by rewriting source), and names the checks of
``run_suite(SuiteConfig())`` that must FAIL under it; every other check
must still pass. A mutant that passes the suite shows a tolerance too
loose to see the error.
"""

from __future__ import annotations

import numpy as np
import pytest

from stringtop import holonomy
from stringtop.harness import SuiteConfig, run_suite


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


MUTANTS = {
    "lie-splitting": (lie_splitting, {"fundamental"}),
    "no-richardson": (no_richardson, {"fundamental"}),
    "truncated-exponential": (truncated_exponential, {"fundamental"}),
}


def failing_checks() -> set[str]:
    return {r.check for r in run_suite(SuiteConfig()).records if not r.passed}


def test_the_unmutated_suite_passes():
    assert failing_checks() == set()


@pytest.mark.parametrize("name", MUTANTS)
def test_the_suite_catches_the_mutant(monkeypatch, name):
    apply, caught_by = MUTANTS[name]
    apply(monkeypatch)
    assert failing_checks() == caught_by
