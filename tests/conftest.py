"""Shared fixtures, closed forms and the acceptance summary hook."""

import math

import numpy as np
import pytest

from divlab import _quad
from divlab.fields import (
    AUTO,
    make_capillary_field,
    make_counterexample_field,
    make_twisting_field,
    stream_bump_field,
)

ACCEPTANCE_LINES = []

# the residual gate whose budget flows the stream bump tube (top flux
# 0.6000000000000001) at rtol exactly 1e-10, where its values were frozen
GATE_AT_RTOL_1E10 = 6.000000000000001e-08


def record_criterion(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def rim_lens_ratio(r: float) -> float:
    """Exact fraction of the disk of radius r about a point of the unit
    circle that lies inside the unit disk: A(r) / (pi r^2), with the lens
    area A(r) = r^2 acos(r/2) + acos(1 - r^2/2) - (r/2) sqrt(4 - r^2)."""
    lens = (r * r * math.acos(0.5 * r) + math.acos(1.0 - 0.5 * r * r)
            - 0.5 * r * math.sqrt(4.0 - r * r))
    return lens / (math.pi * r * r)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def refine_levels(monkeypatch):
    """The n of every call of a level function by `_quad._refine`, in
    order: a level cut into several calls appears once per call."""
    levels, refine = [], _quad._refine

    def counting_refine(level, *args, **kwargs):
        return refine(lambda rows, n: levels.append(n) or level(rows, n),
                      *args, **kwargs)

    monkeypatch.setattr(_quad, "_refine", counting_refine)
    return levels


@pytest.fixture(scope="session")
def stream_bump():
    return stream_bump_field()


@pytest.fixture(scope="session")
def twisting8():
    return make_twisting_field(8)


@pytest.fixture(scope="session")
def twisting12():
    return make_twisting_field(12)


@pytest.fixture(scope="session")
def capillary():
    return make_capillary_field(1.0)


@pytest.fixture(scope="session")
def counterexample_auto():
    return make_counterexample_field(4, AUTO)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260819)
