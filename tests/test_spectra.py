"""QR trails, windowed exponent estimators, integral separation, continuous oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmstab import glm, linalg, problems, spectra
from glmstab.errors import (ConfigError, NumericalError, OrthogonalityLost,
                            WindowOutOfRange, ZeroVector)


def _exp_trail(rate, h, n, t0=0.0):
    """Vector trail whose every log increment is rate * h."""
    ts = t0 + h * np.arange(n + 1)
    return spectra.vector_trail_from_values(np.exp(rate * ts)[:, np.newaxis], h, t0)


# -- trails -------------------------------------------------------------------


def test_vector_trail_rejects_zero():
    with pytest.raises(ZeroVector):
        spectra.vector_trail_from_values(np.zeros((1, 2)), 0.1)
    with pytest.raises(ZeroVector):
        spectra.vector_trail_from_values(np.array([[1.0], [0.0], [2.0]]), 0.1)


def test_vector_trail_of_one_value_is_empty():
    trail = spectra.vector_trail_from_values(np.array([[3.0, 4.0]]), 0.1)
    assert trail.frame is None
    assert trail.n_steps == 0 and trail.n_modes == 1
    assert trail.logs().shape == (0, 1)


def test_matrix_trail_log_oracle():
    trail = spectra.new_matrix_trail(2, 0.5)
    phi = np.diag([2.0, 0.5])
    for _ in range(3):
        spectra.qr_advance_series(trail, phi[np.newaxis])
    assert trail.n_steps == 3
    assert trail.n_modes == 2
    want = np.tile([math.log(2.0), math.log(0.5)], (3, 1))
    assert np.allclose(trail.logs(), want, atol=1e-15)


def test_rotation_steps_log_nothing():
    trail = spectra.new_matrix_trail(2, 0.1)
    spectra.qr_advance_series(trail, problems.rotation(0.7)[np.newaxis])
    assert np.allclose(trail.logs(), 0.0, atol=1e-15)
    assert np.allclose(trail.frame.T @ trail.frame, np.eye(2), atol=1e-14)


def test_log_sum_is_log_abs_det():
    rng = np.random.default_rng(7)
    phis = rng.standard_normal((6, 3, 3)) + 2.0 * np.eye(3)
    trail = spectra.new_matrix_trail(3, 0.1)
    spectra.qr_advance_series(trail, phis)
    prod = np.eye(3)
    for phi in phis:
        prod = phi @ prod
    assert float(np.sum(trail.logs())) == pytest.approx(
        math.log(abs(np.linalg.det(prod))), abs=1e-10)


def test_vector_trail_from_values_logs():
    values = np.append(np.exp(0.3 * np.arange(4.0)), math.exp(0.9 + 0.5))[:, np.newaxis]
    trail = spectra.vector_trail_from_values(values, 1.0)
    assert trail.n_steps == 4
    logs = trail.logs()
    assert logs.shape == (4, 1)
    assert np.allclose(logs[:3, 0], 0.3, atol=1e-13)
    assert logs[3, 0] == pytest.approx(0.5, abs=1e-13)


def test_vector_trail_scale_invariance():
    values = np.exp(np.cumsum(np.array([0.0, 0.4, -0.2, 0.1])))[:, np.newaxis]
    a = spectra.vector_trail_from_values(values, 0.5)
    b = spectra.vector_trail_from_values(7.0 * values, 0.5)
    assert np.allclose(a.logs(), b.logs(), atol=1e-14)


# -- windowed estimators --------------------------------------------------------


def test_mu_appr_constant_rate_consistent_modes():
    # the sum anchor and the time reference must match for a constant rate to be
    # recovered exactly; mismatched combinations rescale by (m - js)/(m - n0ref)
    trail = _exp_trail(-0.37, 0.25, 40)
    for denominator, sum_start in (("t0", "origin"), ("N0", "window")):
        est = spectra.mu_appr(trail, 10, 20, denominator=denominator,
                              sum_start=sum_start)
        assert est.mu[0] == pytest.approx(-0.37, abs=1e-12)
    # mismatched anchors keep the sign but rescale: max over m of rate*(m-10)/m
    est = spectra.mu_appr(trail, 10, 20, denominator="t0", sum_start="window")
    assert est.mu[0] == pytest.approx(-0.37 / 11.0, abs=1e-12)


def test_mu_appr_piecewise_oracle():
    # increments (1, 1, -1, -1) at h=1: origin-anchored averages 1, 1, 1/3, 0
    values = np.exp(np.concatenate([[0.0], np.cumsum([1.0, 1.0, -1.0, -1.0])]))
    trail = spectra.vector_trail_from_values(values[:, np.newaxis], 1.0)
    est = spectra.mu_appr(trail, 0, 4)
    assert est.mu[0] == pytest.approx(1.0, abs=1e-14)
    assert est.argmax_t[0] == 1.0          # first position attaining the max
    est = spectra.mu_appr(trail, 1, 3)
    assert est.mu[0] == pytest.approx(1.0, abs=1e-14)
    assert est.argmax_t[0] == 2.0
    est = spectra.mu_appr(trail, 2, 2, denominator="N0", sum_start="window")
    assert est.mu[0] == pytest.approx(-1.0, abs=1e-14)
    assert est.argmax_t[0] == 3.0


def test_mu_appr_window_validation():
    trail = _exp_trail(0.1, 0.1, 10)
    with pytest.raises(WindowOutOfRange):
        spectra.mu_appr(trail, -1, 2)
    with pytest.raises(WindowOutOfRange):
        spectra.mu_appr(trail, 0, 0)
    with pytest.raises(WindowOutOfRange):
        spectra.mu_appr(trail, 5, 6)
    with pytest.raises(ConfigError):
        spectra.mu_appr(trail, 0, 5, denominator="midpoint")
    with pytest.raises(ConfigError):
        spectra.mu_appr(trail, 0, 5, sum_start="end")


def test_lyapunov_endpoints_constant_rate():
    trail = _exp_trail(0.42, 0.2, 30)
    ends = spectra.lyapunov_endpoints(trail)
    assert ends.eta[0] == pytest.approx(0.42, abs=1e-12)
    assert ends.mu[0] == pytest.approx(0.42, abs=1e-12)
    assert ends.burn_in == 15
    with pytest.raises(WindowOutOfRange):               # no steps leave no tail
        spectra.lyapunov_endpoints(spectra.new_matrix_trail(2, 0.2))


@settings(max_examples=50, deadline=None)
@given(incs=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=30))
def test_lyapunov_endpoints_ordered(incs):
    values = np.exp(np.concatenate([[0.0], np.cumsum(incs)]))[:, np.newaxis]
    trail = spectra.vector_trail_from_values(values, 0.5)
    ends = spectra.lyapunov_endpoints(trail)
    assert ends.eta[0] <= ends.mu[0] + 1e-12


def test_sacker_sell_closed_form():
    # increments integrate b + a cos t; on a grid hitting the optimum phase the
    # extreme H-window averages are b +- 2 a sin(H/2) / H exactly
    b, a = -0.3, 0.8
    h = 2.0 * math.pi / 100.0
    ts = h * np.arange(120)
    values = np.exp(b * ts + a * np.sin(ts))[:, np.newaxis]
    trail = spectra.vector_trail_from_values(values, h)
    H = 10.0 * h                      # m = 10, optimum at n = 45 and n = 95
    est = spectra.sacker_sell_window(trail, H)
    swing = 2.0 * a * math.sin(0.5 * H) / H
    assert spectra.window_steps(H, h, trail.n_steps) == 10
    assert est.beta[0] == pytest.approx(b + swing, abs=1e-10)
    assert est.alpha[0] == pytest.approx(b - swing, abs=1e-10)
    assert est.alpha[0] <= est.beta[0]


def test_sacker_sell_window_validation():
    trail = _exp_trail(0.1, 0.1, 20)
    with pytest.raises(WindowOutOfRange):
        spectra.sacker_sell_window(trail, 0.1)      # m = 1 < 2
    with pytest.raises(WindowOutOfRange):
        spectra.sacker_sell_window(trail, 0.8)      # 3m = 24 > 20
    # the same width check that the spectrum command runs before integrating
    assert spectra.window_steps(0.8, 0.1, 24) == 8
    with pytest.raises(WindowOutOfRange):
        spectra.window_steps(0.8, 0.1, 23)
    with pytest.raises(ConfigError):      # was a ZeroDivisionError
        spectra.window_steps(0.8, 0.0, 24)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("H", [math.nan, math.inf, -math.inf])
def test_sacker_sell_window_rejects_non_finite(H):
    trail = _exp_trail(0.1, 0.1, 48)
    with pytest.raises(ConfigError):
        spectra.sacker_sell_window(trail, H)


# -- integral separation ---------------------------------------------------------


def test_integral_separation_separated():
    n, h = 200, 0.1
    logs = np.column_stack([np.full(n, 0.25 * h), np.full(n, 0.05 * h)])
    rep = spectra.integral_separation_logs(logs, h, 0, 1)
    assert rep.kind == "separated"
    assert rep.a == pytest.approx(0.2, abs=1e-13)
    assert rep.b == pytest.approx(0.0, abs=1e-12)
    assert rep.min_window_avg == pytest.approx(0.2, abs=1e-13)


def test_integral_separation_same_mode_is_bounded():
    trail = _exp_trail(0.3, 0.1, 50)
    logs = np.hstack([trail.logs(), trail.logs()])
    rep = spectra.integral_separation_logs(logs, 0.1, 0, 1)
    assert rep.kind == "bounded-average"
    assert rep.eps == 0.0
    assert rep.M == 0.0


def test_integral_separation_small_oscillation():
    n, h = 400, 0.1
    t = h * np.arange(n)
    gap = 0.03 * np.cos(t) * h          # zero-mean, swings well under a0
    logs = np.column_stack([gap, np.zeros(n)])
    rep = spectra.integral_separation_logs(logs, h, 0, 1, a0=0.05, T0=1.0)
    assert rep.kind == "bounded-average"
    assert rep.eps <= 0.05
    assert rep.M > 0.0


def test_integral_separation_inconclusive():
    n, h = 100, 0.1
    gap = np.concatenate([np.full(n // 2, 0.2 * h), np.full(n // 2, -0.2 * h)])
    logs = np.column_stack([gap, np.zeros(n)])
    rep = spectra.integral_separation_logs(logs, h, 0, 1, a0=0.05, T0=1.0)
    assert rep.kind == "inconclusive"
    assert rep.min_window_avg < 0.05
    assert rep.max_abs_window_avg > 0.05


def test_integral_separation_interface():
    trail = _exp_trail(0.1, 0.1, 30)
    rep = spectra.integral_separation_logs(trail.logs(), trail.h, 0, 0)
    assert rep.kind == "bounded-average"
    with pytest.raises(WindowOutOfRange):
        spectra.integral_separation_logs(np.zeros((5, 2)), 0.1, 0, 1, T0=1.0)


# -- continuous QR oracle ----------------------------------------------------------


def test_oracle_constant_triangular_is_exact():
    prob = problems.constant_problem([[2.0, 1.0], [0.0, 1.0]])
    oracle = spectra.continuous_qr_oracle(prob, 1.0, 0.01)
    assert np.allclose(oracle.b_diag, np.tile([2.0, 1.0], (101, 1)), atol=1e-13)
    # Simpson on a constant is exact, both parities of the node count
    assert np.allclose(spectra.integrate_diag(oracle, 0.0, 0.5), [1.0, 0.5], atol=1e-13)
    assert np.allclose(spectra.integrate_diag(oracle, 0.0, 0.51), [1.02, 0.51], atol=1e-13)
    with pytest.raises(WindowOutOfRange):
        spectra.integrate_diag(oracle, 0.0, 2.0)


def test_integrate_diag_one_interval_is_a_trapezoid():
    # a single grid interval has no Simpson pair: the trapezoid of its two nodes
    h = 0.1
    b_diag = np.array([[1.0, -2.0], [3.0, 0.5], [7.0, 4.0]])
    oracle = spectra.OracleTrail(ts=0.2 + h * np.arange(3), b_diag=b_diag,
                                 h_fine=h)
    for i in (0, 1):
        got = spectra.integrate_diag(oracle, oracle.ts[i], oracle.ts[i + 1])
        assert np.array_equal(got, 0.5 * h * (b_diag[i] + b_diag[i + 1]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_a, t_b", [(math.nan, 0.5), (0.0, math.nan),
                                      (-math.inf, 0.5), (0.0, math.inf)])
def test_integrate_diag_rejects_non_finite(t_a, t_b):
    oracle = spectra.continuous_qr_oracle(problems.constant_problem([[2.0, 1.0], [0.0, 1.0]]),
                                          1.0, 0.01)
    with pytest.raises(ConfigError):
        spectra.integrate_diag(oracle, t_a, t_b)


def test_oracle_recovers_rotated_triangular_rates():
    # continuous QR undoes the rotation: b_diag(t) = a_i cos t + b_i
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = problems.RotatingCosineParams(a1=1.2, a2=1.2, b1=-0.14, b2=-0.15, beta=10.0)
    prob = problems.rotating_cosine_problem(p)
    oracle = spectra.continuous_qr_oracle(prob, 5.0, 1e-3)
    want = np.column_stack([p.a1 * np.cos(oracle.ts) + p.b1,
                            p.a2 * np.cos(oracle.ts) + p.b2])
    assert float(np.max(np.abs(oracle.b_diag - want))) < 1e-6


def test_oracle_orthogonality_guard():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = problems.RotatingCosineParams(a1=1.2, a2=1.2, b1=-0.14, b2=-0.15,
                                          beta=10.0, omega_rate=2.0 * math.pi / 0.5)
    prob = problems.rotating_cosine_problem(p)
    with pytest.raises(OrthogonalityLost):
        spectra.continuous_qr_oracle(prob, 2.0, 0.1)
    with pytest.raises(OrthogonalityLost):       # a NaN frame fails the drift test
        spectra.continuous_qr_oracle(
            problems.constant_problem([[math.nan, 0.0], [0.0, 1.0]]), 1.0, 0.1)


@pytest.mark.parametrize("fail_at", [1, 5])
def test_lapack_info_raises_at_once(monkeypatch, fail_at):
    # both QR chains (linalg.qr_chain under the trail and the oracle) raise
    # NumericalError at the step whose dgeqrf reports info != 0, naming it, and the
    # matrix trail keeps the frame and logs it had before the call
    real, calls = linalg.dgeqrf, []

    def dgeqrf(m):
        packed, tau, work, info = real(m)
        calls.append(None)
        return packed, tau, work, -1 if len(calls) >= fail_at else info

    prob = problems.constant_problem([[0.3, 1.0], [-1.0, 0.2]])
    phis = glm.transition_batch(glm.get_tableau("bdf2"), prob, 0, 20, 0.1)
    trail = spectra.qr_advance_series(spectra.new_matrix_trail(4, 0.1), phis[:3])
    frame, logs = trail.frame.copy(), trail.logs().copy()
    monkeypatch.setattr(linalg, "dgeqrf", dgeqrf)
    for chain, step in ((lambda: spectra.qr_advance_series(trail, phis[3:]), 3),
                        (lambda: spectra.continuous_qr_oracle(prob, 1.0, 0.05), 0)):
        calls.clear()
        with pytest.raises(NumericalError) as exc:
            chain()
        assert type(exc.value) is NumericalError
        assert str(exc.value).endswith(f"in step {step + fail_at - 1}: info=-1")
        assert len(calls) == fail_at
    assert np.array_equal(trail.frame, frame)
    assert np.array_equal(trail.logs(), logs)
