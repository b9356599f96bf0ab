"""Embedded adaptive Runge-Kutta integration (Dormand-Prince 4(5)).

`_dp_steps`, the one step controller and the one place that raises
`StiffFailure`, advances a state of any shape with a common adaptive step
(error controlled by the worst component across the batch); the flow
tube consumes its accepted steps directly.  `rk45_event` integrates a
single trajectory with bisection-refined event detection on top of it.
A 0-d state is accepted: it takes the same steps as a one-component
array, bit for bit.  The state's type picks the arithmetic once per
integration: the converter `float` wraps every rhs return of a 0-d
state, so its steps run on Python floats (IEEE doubles like numpy's,
without ufunc dispatch), and `np.asarray` wraps those of any other shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


# an event function within this of zero counts as crossed
EVENT_TOL = 1e-12
# accepted and rejected steps together before an integration gives up
MAX_STEPS = 200_000


class StiffFailure(RuntimeError):
    """Step size underflowed, or the step budget ran out, at time t."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
# (stage, weight) pairs of the nonzero fifth- and fourth-order weights
_B5 = ((0, 35 / 384), (2, 500 / 1113), (3, 125 / 192), (4, -2187 / 6784),
       (5, 11 / 84))
_B4 = ((0, 5179 / 57600), (2, 7571 / 16695), (3, 393 / 640),
       (4, -92097 / 339200), (5, 187 / 2100), (6, 1 / 40))


def _converter(y) -> Callable:
    """`float` for a 0-d state, `np.asarray` for any other shape."""
    return float if np.ndim(y) == 0 else np.asarray


def _check_finite(t0: float, t1: float, y) -> None:
    # a NaN endpoint makes every step NaN, which no step-size test catches
    if not (math.isfinite(t0) and math.isfinite(t1)
            and np.all(np.isfinite(y))):
        raise ValueError(f"integration from t={t0} to {t1} needs finite "
                         "endpoints and a finite initial state")


def _stages(f: Callable, t: float, y, h: float, as_state: Callable,
            k1=None) -> list:
    ks = [k1 if k1 is not None else as_state(f(t, y))]
    for i, arow in enumerate(_A):
        acc = arow[0] * ks[0]
        for j in range(1, len(arow)):
            acc = acc + arow[j] * ks[j]
        ks.append(as_state(f(t + _C[i + 1] * h, y + h * acc)))
    return ks


def _error_ratio(local, y, y5, rtol: float, atol: float) -> float:
    """The worst |y5 - y4| / (atol + rtol * max(|y|, |y5|))."""
    if isinstance(local, float):
        scale = atol + rtol * max(abs(y), abs(y5))
        if scale == 0.0:    # numpy's x / 0: nan for 0 and nan, else inf
            return math.inf if abs(local) > 0.0 else math.nan
        return abs(local) / scale
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
    return float(np.max(np.abs(local) / scale)) if local.size else 0.0


def dp_step(f: Callable, t: float, y, h: float) -> float | np.ndarray:
    """One fixed fifth-order step; used by the event bisection."""
    as_state = _converter(y)
    y = as_state(y)
    ks = _stages(f, t, y, h, as_state)
    return y + h * sum(b * ks[i] for i, b in _B5)


def _dp_steps(f: Callable, t0: float, y, t1: float,
              rtol: float, atol: float, max_steps: int):
    """The one Dormand-Prince step controller: yields (t, y, h, y_new,
    local_error, nrejected) for each accepted step from (t, y) to
    (t + h, y_new) on the way from t0 to t1, where local_error is the
    step's embedded estimate y5 - y4, one entry per state component.
    Summed along the solution, |local_error| is the standard estimate of
    the global error while the flow does not amplify it (Hairer, Norsett
    & Wanner, Solving ODEs I, II.4).  A step is accepted when its embedded
    error, the worst |y5 - y4| / (atol + rtol * max(|y|, |y5|)), is at
    most 1.
    The converter chosen from the initial state (`float` for a 0-d state,
    `np.asarray` otherwise) wraps it and every rhs return, so a 0-d state
    yields Python floats and any other state arrays.
    Non-finite endpoints or initial state, and negative, non-finite or
    all-zero tolerances, raise ValueError before the first call of f."""
    _check_finite(t0, t1, y)
    if not (0.0 <= rtol < math.inf and 0.0 <= atol < math.inf) \
            or rtol == atol == 0.0:
        raise ValueError(f"tolerances must be finite and non-negative, not "
                         f"both zero; got rtol={rtol}, atol={atol}")
    as_state = _converter(y)
    y = as_state(y)
    t = float(t0)
    span = t1 - t0
    direction = 1.0 if span > 0 else -1.0
    h = span / 100.0
    nrejected = 0
    k1 = as_state(f(t, y))
    for _ in range(max_steps):
        remaining = t1 - t
        if direction * remaining <= 0.0:
            return
        if direction * h > direction * remaining:
            h = remaining
        ks = _stages(f, t, y, h, as_state, k1=k1)
        y5 = y + h * sum(b * ks[i] for i, b in _B5)
        k7 = as_state(f(t + h, y5))
        ks.append(k7)
        y4 = y + h * sum(b * ks[i] for i, b in _B4)
        local = y5 - y4
        err = _error_ratio(local, y, y5, rtol, atol)
        if err <= 1.0:
            yield t, y, h, y5, local, nrejected
            t += h
            y = y5
            k1 = k7  # first-same-as-last
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
            h *= grow
        else:
            nrejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)
        if abs(h) < 1e-14 * max(1.0, abs(span)):
            raise StiffFailure(f"step underflow at t={t}", t)
    raise StiffFailure(f"exceeded {max_steps} steps at t={t}", t)


@dataclass
class OdeResult:
    t: float
    y: float | np.ndarray
    naccepted: int
    nrejected: int
    status: str = "final"    # "event" when the event fired


def rk45_event(f: Callable, t0: float, y0, event: Callable,
               t_max: float, rtol: float = 1e-9, atol: float = 1e-12,
               max_steps: int = MAX_STEPS) -> OdeResult:
    """Integrate until event(t, y) crosses zero, refining by bisection.

    Stops at the first sign change of the event function along accepted
    steps; each bisection iteration replays a fixed fifth-order step from
    the bracketing state, so the located crossing inherits the
    integrator's accuracy.
    """
    y = np.array(y0, dtype=float)
    # checked here too: the event is evaluated before the first step
    _check_finite(t0, t_max, y)
    y = _converter(y)(y)
    g_prev = float(event(float(t0), y))
    if abs(g_prev) <= EVENT_TOL:
        return OdeResult(float(t0), y, 0, 0, status="event")
    res = OdeResult(float(t0), y, 0, 0)
    for t, y, h, y5, _, res.nrejected in _dp_steps(f, t0, y, t_max, rtol,
                                                   atol, max_steps):
        g_new = float(event(t + h, y5))
        if g_prev * g_new <= 0.0:
            tc, yc = _bisect_event(f, t, y, h, event, g_prev)
            return OdeResult(tc, yc, res.naccepted + 1, res.nrejected,
                             status="event")
        g_prev = g_new
        res.t, res.y = t + h, y5
        res.naccepted += 1
    return res


def _bisect_event(f, t0, y0, h, event, g0):
    # bisect the step fraction so the bracket works for either sign of h
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        ym = dp_step(f, t0, y0, mid * h)
        gm = float(event(t0 + mid * h, ym))
        if abs(gm) <= EVENT_TOL or (hi - lo) <= 1e-16:
            return t0 + mid * h, ym
        if g0 * gm <= 0.0:
            hi = mid
        else:
            lo = mid
    return t0 + mid * h, ym
