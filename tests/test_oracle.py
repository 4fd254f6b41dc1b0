"""The continuous-QR oracle against the per-step loop it replaced.

`reference_oracle` is continuous_qr_oracle as first written: A(t) evaluated by
prob.coefficient inside the RK4 loop, the skew projection through np.tril,
linalg.qr_positive for every re-orthonormalization and the diagonal rates taken
per step. The oracle must give the same nodes, rates and final frame bit for
bit, and fail at the same step with the same typed error.
"""

import math

import numpy as np
import pytest

from glmstab import linalg, problems, spectra
from glmstab.errors import ConfigError, OrthogonalityLost, RankDeficient

pytestmark = pytest.mark.filterwarnings("error")


def _skew_projection(w):
    low = np.tril(w, k=-1)
    return low - low.T


def reference_oracle(prob, t_final, h_fine, t0=0.0, q0=None, drift_tol=1e-6):
    """Per-step reference: (ts, b_diag, q_final)."""
    d = prob.d
    q = np.eye(d) if q0 is None else np.asarray(q0, dtype=float).copy()
    n = int(round((t_final - t0) / h_fine))
    ts = t0 + h_fine * np.arange(n + 1)
    b_diag = np.empty((n + 1, d))

    def rate(qm, t):
        w = qm.T @ prob.coefficient(t) @ qm
        return qm @ _skew_projection(w)

    b_diag[0] = np.diag(q.T @ prob.coefficient(ts[0]) @ q)
    for idx in range(n):
        t = ts[idx]
        k1 = rate(q, t)
        k2 = rate(q + 0.5 * h_fine * k1, t + 0.5 * h_fine)
        k3 = rate(q + 0.5 * h_fine * k2, t + 0.5 * h_fine)
        k4 = rate(q + h_fine * k3, t + h_fine)
        q = q + (h_fine / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        drift = float(np.max(np.abs(q.T @ q - np.eye(d))))
        if not drift <= drift_tol:
            raise OrthogonalityLost(
                f"frame drift {drift:.3e} exceeds {drift_tol:.1e} at t={ts[idx + 1]:.6g}")
        q = linalg.qr_positive(q).q
        b_diag[idx + 1] = np.diag(q.T @ prob.coefficient(ts[idx + 1]) @ q)
    return ts, b_diag, q


CRITERION_8 = problems.RotatingCosineParams(a1=1.2, a2=1.2, b1=-0.14, b2=-0.15,
                                            beta=10.0)
UNEQUAL = problems.RotatingCosineParams(a1=1.0, a2=1.5, b1=-0.1, b2=-0.3, beta=2.0,
                                        omega_rate=0.8)


def _no_batch(prob):
    """The same problem without coefficient_batch: batch() stacks coefficient()."""
    return problems.LinearProblem(d=prob.d, coefficient=prob.coefficient)


CASES = {
    "criterion-8": (problems.rotating_cosine_problem(CRITERION_8), 40.0, 0.01, 0.0, None),
    "criterion-7": (problems.rotating_cosine_problem(CRITERION_8), 5.0, 1e-3, 0.0, None),
    "t0-and-q0": (problems.rotating_cosine_problem(UNEQUAL), 10.7, 0.01, 0.7,
                  problems.rotation(0.3)),
    "scalar-cosine": (problems.scalar_cosine_problem(
        problems.ScalarCosineParams(D=1.0, L=-0.5)), 6.0, 0.01, 0.3, None),
    "constant-3x3": (problems.constant_problem(
        [[0.3, 1.0, -2.0], [0.5, -1.0, 0.1], [1.0, 2.0, 3.0]]), 3.0, 0.01, 0.0, None),
    "stacked-fallback": (_no_batch(problems.rotating_cosine_problem(UNEQUAL)), 4.0, 0.02,
                         0.25, None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_oracle_matches_reference_bits(case):
    prob, t_final, h_fine, t0, q0 = CASES[case]
    ts, b_diag, q_final = reference_oracle(prob, t_final, h_fine, t0=t0, q0=q0)
    got = spectra.continuous_qr_oracle(prob, t_final, h_fine, t0=t0, q0=q0)
    assert np.array_equal(got.ts, ts)
    assert np.array_equal(got.b_diag, b_diag)
    assert np.array_equal(got.q_final, q_final)
    assert got.h_fine == h_fine


@pytest.mark.parametrize("prob", [
    problems.rotating_cosine_problem(CRITERION_8),
    problems.rotating_cosine_problem(UNEQUAL),
    problems.rotating_cosine_problem(problems.RotatingCosineParams(
        a1=1.2, a2=1.2, b1=-0.14, b2=-0.15, beta=10.0, resonant_h=0.5)),
    problems.scalar_cosine_problem(problems.ScalarCosineParams(D=1.0, L=-0.5)),
    problems.constant_problem([[2.0, 1.0], [0.0, 1.0]]),
], ids=["rotating-cosine"] * 3 + ["scalar-cosine", "constant"])
def test_batch_equals_stacked_coefficients(prob):
    # the oracle's three node sets: nodes, midpoints and step ends
    h = 0.0123
    ts = 0.7 + h * np.arange(500)
    for nodes in (ts, ts[:-1] + 0.5 * h, ts[:-1] + h):
        want = np.stack([prob.coefficient(t) for t in nodes])
        assert np.array_equal(prob.batch(nodes), want)


def _both_raise(exc, *args, **kwargs):
    with pytest.raises(exc) as ref:
        reference_oracle(*args, **kwargs)
    with pytest.raises(exc) as got:
        spectra.continuous_qr_oracle(*args, **kwargs)
    assert str(got.value) == str(ref.value)


def test_oracle_fails_like_reference():
    resonant = problems.rotating_cosine_problem(problems.RotatingCosineParams(
        a1=1.2, a2=1.2, b1=-0.14, b2=-0.15, beta=10.0, resonant_h=0.5))
    _both_raise(OrthogonalityLost, resonant, 2.0, 0.1)
    # a rank-one frame stays rank one; only a huge drift_tol lets it reach the QR
    prob = problems.rotating_cosine_problem(CRITERION_8)
    _both_raise(RankDeficient, prob, 1.0, 0.1, q0=np.ones((2, 2)), drift_tol=1e300)
    _both_raise(RankDeficient, prob, 1.0, 0.1, q0=np.zeros((2, 2)), drift_tol=1e300)


# Seed 71 of the benchmark's oracle_separation workload: beta near 10 at
# h_fine = 0.012, where the RK4 error in the rates reaches about 4e-6 over 1e4 steps.
SEED_71 = problems.RotatingCosineParams(
    a1=1.0590026766566125, a2=1.0590026766566125, b1=-0.13799705147844554,
    b2=-0.16037145133552452, beta=9.845720085450031, omega_rate=1.322158506189751)
SEED_71_H = 0.011996079152800699


def test_oracle_rates_converge_at_fourth_order():
    prob = problems.rotating_cosine_problem(SEED_71)
    t_final = 417 * SEED_71_H
    errs = []
    for h_fine in (SEED_71_H, SEED_71_H / 2.0, SEED_71_H / 4.0):
        oracle = spectra.continuous_qr_oracle(prob, t_final, h_fine)
        want = np.column_stack([SEED_71.a1 * np.cos(oracle.ts) + SEED_71.b1,
                                SEED_71.a2 * np.cos(oracle.ts) + SEED_71.b2])
        errs.append(float(np.max(np.abs(oracle.b_diag - want))))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    assert all(14.0 <= r <= 18.0 for r in ratios), (errs, ratios)


def test_oracle_rejects_misshapen_frame():
    prob = problems.rotating_cosine_problem(CRITERION_8)
    with pytest.raises(ConfigError):
        spectra.continuous_qr_oracle(prob, 1.0, 0.1, q0=np.eye(3))
    with pytest.raises(ConfigError):
        spectra.continuous_qr_oracle(prob, 1.0, 0.1, q0=np.ones((2, 1)))


@pytest.mark.parametrize("t_final, h_fine", [(1.0, -0.1), (1.0, 0.0), (1.0, math.nan),
                                             (1.0, math.inf), (1.0, 5.0), (0.0, 0.1),
                                             (-1.0, 0.1), (math.inf, 0.1)])
def test_oracle_rejects_bad_step_or_span(t_final, h_fine):
    # h_fine = -0.1 used to end in numpy's "negative dimensions", h_fine = 0 in a
    # division by zero; a span that rounds to no fine step has nothing to integrate
    prob = problems.constant_problem([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ConfigError):
        spectra.continuous_qr_oracle(prob, t_final, h_fine)


def test_oracle_one_fine_step():
    prob = problems.constant_problem([[1.0, 0.0], [0.0, 2.0]])
    oracle = spectra.continuous_qr_oracle(prob, 0.1, 0.1)
    assert np.array_equal(oracle.ts, [0.0, 0.1])
    assert np.allclose(oracle.b_diag, [[1.0, 2.0], [1.0, 2.0]], atol=1e-15)
