"""Grids, FD divergence, the annulus flux residual, mollification,
convexity transport."""

import dataclasses
import math

import numpy as np
import pytest

from divlab import _quad
from divlab.calculus import (
    GridSpec,
    annulus_flux_residual,
    bump_test,
    jensen_check,
    make_mollifier,
    mollify,
    numeric_divergence,
)
from divlab.fields import (
    constant_field,
    make_counterexample_field,
    phi_quadratic,
    bump,
    bump_with_d1,
    stream_bump_field,
)
from divlab.blowup import rescale
from divlab.report import PASS


# ---------------------------------------------------------------------------
# grids

def test_gridspec_axes():
    g = GridSpec(box=((1e-3, 1e3), (-1.0, 10.0)), resolution=(7, 5),
                 spacing=("log", "uniform"))
    ax, az = g.axes()
    assert ax[0] == pytest.approx(1e-3) and ax[-1] == pytest.approx(1e3)
    assert np.allclose(np.diff(np.log(ax)), np.log(ax[1] / ax[0]))
    assert np.allclose(np.diff(az), az[1] - az[0])
    assert g.points().shape == (35, 2)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(box=((-1.0, 1.0),), resolution=(4,), spacing=("log",))
    with pytest.raises(ValueError):
        GridSpec(box=((0.0, 1.0),), resolution=(4, 4))
    with pytest.raises(ValueError):
        GridSpec(box=((0.0, 1.0),), resolution=(4,), spacing=("cubic",))


# ---------------------------------------------------------------------------
# finite-difference divergence

def test_fd_divergence_zero_on_constant():
    f = constant_field([2.0, -3.0])
    pts = np.array([[0.1, 0.2], [5.0, -7.0]])
    assert np.all(numeric_divergence(f, pts, h=1e-4) == 0.0)


def test_fd_divergence_small_on_stream_bump(stream_bump, rng):
    pts = np.stack([rng.uniform(-2.0, 2.0, 64), rng.uniform(1.1, 1.9, 64)],
                   axis=1)
    res = np.max(np.abs(numeric_divergence(stream_bump, pts, h=1e-4)))
    assert res < 5e-6


def test_fd_divergence_is_second_order(stream_bump):
    pts = np.array([[0.3, 1.4], [-0.7, 1.6], [1.1, 1.3]])
    r1 = np.max(np.abs(numeric_divergence(stream_bump, pts, h=2e-3)))
    r2 = np.max(np.abs(numeric_divergence(stream_bump, pts, h=1e-3)))
    assert 2.5 < r1 / r2 < 6.0


def test_fd_divergence_refuses_non_smooth_neighborhoods():
    f = make_counterexample_field(4)
    near_interface = np.array([[1.0, 0.0, 0.0, 1e-6]])
    with pytest.raises(ValueError, match="non-smooth"):
        numeric_divergence(f, near_interface, h=1e-4)


# ---------------------------------------------------------------------------
# the annulus flux residual

# with its divergence read as zero, the capillary field's residual is
# minus its flux, which the divergence theorem puts at (2/R) times the
# annulus area: the divergence term is what balances it
def test_annulus_divergence_term_counts(capillary):
    blind = dataclasses.replace(
        capillary, analytic_div=lambda p: np.zeros(p.shape[0]))
    residual = annulus_flux_residual(blind, (0.1, -0.2), 0.2, 0.6,
                                     rtol=1e-9)
    assert residual == pytest.approx(-2.0 * math.pi * (0.36 - 0.04),
                                     rel=1e-9)
    with pytest.raises(ValueError, match="r_inner < r_outer"):
        annulus_flux_residual(capillary, (0.0, 0.0), 2.0, 0.5, rtol=1e-9)


# the test bump's value and gradient as two passes, one distance and one
# profile evaluation each: the fused pass must reproduce them bit for bit
def _separate_value(psi, pts):
    s = np.linalg.norm(pts - psi.center, axis=1) / psi.radius
    return psi.height * bump(s)


def _separate_gradient(psi, pts):
    d = pts - psi.center
    s = np.linalg.norm(d, axis=1) / psi.radius
    fac = np.zeros_like(s)
    m = s > 0.0
    sm = s[m]
    fac[m] = (psi.height * bump_with_d1(sm)[1]
              / (psi.radius * sm * psi.radius))
    return fac[:, None] * d


def _same_bits(a, b):
    # equal including the sign of every zero
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.mark.parametrize("center, radius, height", [
    ((0.0, 0.0), 0.5, 1.0),
    ((0.0, 0.0), 0.75, -2.5),
    ((0.3, -0.2), 0.25, 1.0),
    ((1.0, 1.0), 1.0, 3.0),
    ((0.1, 0.2, -0.3), 0.4, -1.0),
])
def test_bump_value_and_gradient_match_separate_passes(center, radius,
                                                       height):
    psi = bump_test(center, radius, height)
    dim = len(center)
    rng = np.random.default_rng(20260819)
    c = np.asarray(center)
    e = np.eye(dim)[0]
    edge = np.array([
        c,                                      # s = 0
        c + radius * 2.0 ** -60 * e,            # s below 2**-55
        c + radius * 2.0 ** -54 * e,            # just above it
        c + radius * e,                         # s = 1 at a zero center
        c - radius * e,
        c + 2.0 * radius * e,                   # outside the support
    ])
    pts = np.concatenate([
        edge, c + radius * rng.uniform(-1.5, 1.5, size=(4000, dim))])
    value, grad = psi.value_and_gradient(pts)
    assert _same_bits(value, _separate_value(psi, pts))
    assert _same_bits(grad, _separate_gradient(psi, pts))
    if not np.any(c):
        assert value[0] == value[1] == value[3] == value[4] == 0.0
        assert np.all(grad[[0, 1, 3, 4, 5]] == 0.0)
    assert np.count_nonzero(value) > 500


def test_flux_residual_vanishes_on_an_annulus(stream_bump, capillary):
    # the stream bump's support, centered at (0, 1.5) with semi-axes 2 and
    # 0.5, holds the inner circle and is cut by the outer one; the
    # capillary field's divergence is nonzero inside the disk and balances
    # its flux through the two circles
    assert abs(annulus_flux_residual(stream_bump, (0.0, 1.5), 0.3, 0.8,
                                     rtol=1e-9)) < 1e-12
    assert abs(annulus_flux_residual(capillary, (0.1, -0.2), 0.2, 0.6,
                                     rtol=1e-9)) < 1e-12


def test_flux_residual_needs_declared_divergence(stream_bump):
    # a mollified field declares no divergence; the residual refuses it
    # instead of finite-differencing the convolution inside the quadrature
    smooth = mollify(stream_bump, make_mollifier(0.05, 2))
    with pytest.raises(ValueError, match="divergence information"):
        annulus_flux_residual(smooth, (0.0, 1.5), 0.3, 0.8, rtol=1e-9)


# ---------------------------------------------------------------------------
# mollification

def test_mollifier_unit_mass():
    # the rule's weights are snapped to unit sum; the recorded defect is
    # the fixed rule's kernel mass minus 1 before the snap, the same at
    # every epsilon since the rule scales with it
    for dim, defect in [(2, 5.8897e-05), (3, 9.5634e-05), (4, 1.4547e-04)]:
        for eps in (0.05, 0.5):
            k = make_mollifier(eps, dim)
            assert abs(float(np.sum(k.weights)) - 1.0) < 1e-12
            assert k.mass_defect == pytest.approx(defect, rel=1e-4)


def test_mollify_nearly_preserves_constants():
    f = constant_field([1.0, -2.0])
    k = make_mollifier(0.1, 2)
    vals = mollify(f, k).eval(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert np.max(np.abs(vals - np.array([1.0, -2.0]))) < 1e-8


def test_mollify_commutes_with_translation(stream_bump):
    k = make_mollifier(0.05, 2)
    shift = np.array([0.4, -0.3])
    a = mollify(rescale(stream_bump, -shift, 1.0), k)
    b = rescale(mollify(stream_bump, k), -shift, 1.0)
    pts = np.array([[0.3, 1.2], [1.0, 1.6], [-0.2, 0.9]])
    assert np.max(np.abs(a.eval(pts) - b.eval(pts))) < 1e-13


# rule 3: a convolution's field call holds at most MAX_CALL_NODES shifted
# nodes (3,120 points of the 2D kernel's 168 nodes at the default cap),
# and its values do not depend on how the points are cut
def test_mollify_keeps_each_field_call_under_the_cap(stream_bump,
                                                     monkeypatch):
    calls = []
    counted = dataclasses.replace(
        stream_bump,
        eval=lambda pts: calls.append(len(pts)) or stream_bump.eval(pts))
    k = make_mollifier(0.05, 2)
    pts = np.random.default_rng(3).uniform((-1.5, 0.5), (1.5, 2.5),
                                           (5000, 2))
    whole = mollify(counted, k).eval(pts)
    assert len(calls) == 2 and max(calls) <= _quad.MAX_CALL_NODES
    monkeypatch.setattr(_quad, "MAX_CALL_NODES", 10_000)
    calls.clear()
    assert np.array_equal(mollify(counted, k).eval(pts), whole)
    assert max(calls) <= 10_000


def test_mollify_rejects_mismatched_inputs(capillary):
    k3 = make_mollifier(0.1, 3)
    with pytest.raises(ValueError):
        mollify(constant_field([1.0, 0.0]), k3)
    k2 = make_mollifier(0.1, 2)
    with pytest.raises(ValueError):
        mollify(capillary, k2)


# ---------------------------------------------------------------------------
# convexity transport

def _unit_grid():
    return GridSpec(box=((-1.0, 1.0), (-1.0, 1.0)), resolution=(21, 21))


def test_jensen_check_constant_vertical_field():
    rep = jensen_check(constant_field([0.0, 1.0]), phi_quadratic,
                       make_mollifier(0.05, 2), _unit_grid())
    assert rep.verdict == PASS
    by_name = {c.name: c for c in rep.checks}
    assert by_name["pointwise gauge domination"].margin == pytest.approx(0.5)
    assert by_name["mollified gauge domination"].margin == pytest.approx(
        0.5, abs=1e-7)


def test_jensen_check_precondition_failure():
    # a horizontal unit field never dominates phi(speed) = 1/2
    rep = jensen_check(constant_field([1.0, 0.0]), phi_quadratic,
                       make_mollifier(0.05, 2), _unit_grid())
    names = [c.name for c in rep.checks]
    assert names == ["PRECONDITION_FAILED:pointwise gauge domination"]
    assert rep.checks[0].margin == pytest.approx(-0.5)
