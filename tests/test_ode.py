"""Dormand-Prince integration: endpoints and initial state are checked
before the right-hand side is ever called."""

import math

import numpy as np
import pytest

from divlab import _ode


def _counting_rhs():
    calls = []

    def f(t, y):
        calls.append(t)
        return -y
    return f, calls


def _flow(f, t0, y0, t1, rtol=1e-9, atol=1e-12):
    # the batched RK45 path the flow tube drives: the step controller's
    # accepted steps, consumed to the end
    for _ in _ode._dp_steps(f, t0, y0, t1, rtol, atol, 200):
        pass


@pytest.mark.parametrize("t0,t1,y0", [
    (math.nan, 0.0, np.ones(3)),
    (0.0, math.nan, np.ones(3)),
    (0.0, math.inf, np.ones(3)),
    (0.0, 1.0, np.array([1.0, math.nan, 1.0])),
], ids=["nan-t0", "nan-t1", "inf-t1", "nan-y0"])
@pytest.mark.parametrize("integrator", ["dp_steps", "rk45_event"])
def test_non_finite_input_is_rejected_before_any_rhs_call(integrator,
                                                          t0, t1, y0):
    f, calls = _counting_rhs()
    with pytest.raises(ValueError, match="finite"):
        if integrator == "dp_steps":
            _flow(f, t0, y0, t1)
        else:
            _ode.rk45_event(f, t0, y0, lambda t, y: y[0] - 2.0, t_max=t1,
                            max_steps=200)
    assert calls == []


# the step controller checks its tolerances before the first rhs call; a
# negative rtol used to reach err ** -0.2 and die with a complex-number
# TypeError, and zero tolerances divide by a zero error scale
@pytest.mark.parametrize("rtol,atol", [
    (-1.0, 1e-12), (math.nan, 1e-12), (1e-9, math.inf), (1e-9, -1e-12),
    (0.0, 0.0),
], ids=["negative-rtol", "nan-rtol", "inf-atol", "negative-atol",
        "both-zero"])
@pytest.mark.parametrize("integrator", ["dp_steps", "rk45_event"])
def test_bad_tolerance_is_rejected_before_any_rhs_call(integrator, rtol,
                                                       atol):
    f, calls = _counting_rhs()
    with pytest.raises(ValueError, match="tolerances"):
        if integrator == "dp_steps":
            _flow(f, 0.0, np.ones(1), 5.0, rtol=rtol, atol=atol)
        else:
            _ode.rk45_event(f, 0.0, np.ones(1), lambda t, y: y[0] - 0.5,
                            t_max=5.0, rtol=rtol, atol=atol)
    assert calls == []


# the separable profile rho psi' = gamma psi^2 of `rigidity.separable_demo`
# integrates a 0-d state: the same controller, step for step, as the
# one-component array it replaced, on Python floats in place of arrays
@pytest.mark.parametrize("gamma,rho0,psi0,event,atol", [
    (1.0, 1.0, 1.0, "blow-up", 1e-8),
    (0.5, 2.0, 1.0, "blow-up", 1e-8),
    (0.5, 2.0, 1.0, "slope-cap", 1e-12),
], ids=["default-blow-up", "capped-blow-up", "capped-slope-cap"])
def test_scalar_state_steps_like_a_one_component_array(gamma, rho0, psi0,
                                                        event, atol):
    def rhs(rho, y):
        return gamma * y * y / rho

    def g(rho, y):
        psi = float(np.ravel(y)[0])
        return psi - 1e12 if event == "blow-up" else \
            gamma * psi ** 2 / rho - rho

    t_max = 2.0 * rho0 * math.exp(1.0 / (gamma * psi0))
    runs = [_ode.rk45_event(rhs, rho0, y0, g, t_max=t_max, rtol=1e-10,
                            atol=atol)
            for y0 in (np.array([psi0]), np.array(psi0))]
    assert [np.shape(r.y) for r in runs] == [(1,), ()]
    vector, scalar = runs
    assert vector.status == scalar.status == "event"
    assert scalar.t == vector.t
    assert type(scalar.y) is float
    assert scalar.y == float(vector.y[0])
    assert (scalar.naccepted, scalar.nrejected) == \
        (vector.naccepted, vector.nrejected)
    assert scalar.naccepted > 100


def _separable(rho, y):
    return 0.5 * y * y / rho


# every accepted step of a 0-d state carries Python floats, bit for bit the
# values a one-component array carries; that array state still yields arrays
def test_scalar_state_yields_python_floats():
    scalar, vector = (list(_ode._dp_steps(_separable, 1.0, y0, 5.0, 1e-10,
                                          1e-8, 500))
                      for y0 in (np.array(1.0), np.array([1.0])))
    assert len(scalar) == len(vector) > 10
    for (t, y, h, y5, local, nrej), (tv, yv, hv, y5v, localv, nrejv) in \
            zip(scalar, vector):
        assert {type(y), type(y5), type(local)} == {float}
        assert {type(yv), type(y5v), type(localv)} == {np.ndarray}
        assert (t, h, nrej) == (tv, hv, nrejv)
        assert (y, y5, local) == (yv[0], y5v[0], localv[0])


@pytest.mark.parametrize("h", [1e-3, 0.1, 0.7, -0.25])
def test_dp_step_on_a_scalar_matches_a_one_component_array(h):
    scalar = _ode.dp_step(_separable, 1.0, np.array(1.5), h)
    vector = _ode.dp_step(_separable, 1.0, np.array([1.5]), h)
    assert type(scalar) is float and vector.shape == (1,)
    assert scalar.hex() == float(vector[0]).hex()


def _nan_past_half(t, y):
    return -y if t < 0.5 else math.nan * y


def _still(t, y):
    return 0.0 * y


# an rhs that turns NaN, and a zero state at atol 0 (every error ratio is
# 0 / 0), are rejected step after step alike for both state shapes
@pytest.mark.parametrize("rhs,psi0,atol", [
    (_nan_past_half, 1.0, 1e-12), (_still, 0.0, 0.0),
], ids=["nan-past-half", "zero-scale"])
def test_scalar_and_array_states_fail_at_the_same_t(rhs, psi0, atol):
    failures = []
    for y0 in (np.array(psi0), np.array([psi0])):
        with np.errstate(invalid="ignore"), \
                pytest.raises(_ode.StiffFailure) as info:
            _flow(rhs, 0.0, y0, 1.0, atol=atol)
        failures.append((str(info.value), info.value.t))
    assert failures[0] == failures[1]
    assert "underflow" in failures[0][0]
