"""Tests for the suite runner: every check runs and passes on default settings."""

from __future__ import annotations

import dataclasses

import pytest

from stringtop.harness import CHECK_NAMES, SuiteConfig, _run_one


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_every_check_passes_at_count_one(name):
    record = _run_one(SuiteConfig(counts={name: 1}), name)
    assert record.error is None
    assert record.instances == 1
    assert record.passed, record


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_main_theorem_draws_no_constant_lines(seed):
    # seeds whose draws include one-vertex lines, which need a nonzero class
    record = _run_one(SuiteConfig(seed=seed, counts={"main-theorem": 5}), "main-theorem")
    assert record.passed, record


def test_checks_run_in_sequence_without_a_workers_field():
    assert "workers" not in {f.name for f in dataclasses.fields(SuiteConfig)}
    assert "workers" not in SuiteConfig().echo()
