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
# one-component array it replaced
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
    assert float(scalar.y) == float(vector.y[0])
    assert (scalar.naccepted, scalar.nrejected) == \
        (vector.naccepted, vector.nrejected)
    assert scalar.naccepted > 100
