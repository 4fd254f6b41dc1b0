"""The continuous-QR oracle against the per-step loop it replaced.

`reference_oracle` is continuous_qr_oracle as first written: A(t) evaluated one
time at a time inside the RK4 loop, the skew projection through np.tril,
linalg.qr_positive for every re-orthonormalization and the diagonal rates taken
per step. The oracle must give the same nodes and rates bit for bit, and fail at
the same step with the same OrthogonalityLost.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glmstab import linalg, problems, spectra
from glmstab.errors import ConfigError, OrthogonalityLost

pytestmark = pytest.mark.filterwarnings("error")


def _skew_projection(w):
    low = np.tril(w, k=-1)
    return low - low.T


def _at(prob, t):
    """A(t) at one time: the one-element batch."""
    return prob.batch(np.array([t]))[0]


def reference_oracle(prob, t_final, h_fine, t0=0.0, drift_tol=1e-6, drifts=None):
    """Per-step reference from the identity frame: (ts, b_diag); each step's drift is
    appended to drifts if given."""
    d = prob.d
    q = np.eye(d)
    n = int(round((t_final - t0) / h_fine))
    ts = t0 + h_fine * np.arange(n + 1)
    b_diag = np.empty((n + 1, d))

    def rate(qm, t):
        w = qm.T @ _at(prob, t) @ qm
        return qm @ _skew_projection(w)

    b_diag[0] = np.diag(q.T @ _at(prob, ts[0]) @ q)
    for idx in range(n):
        t = ts[idx]
        k1 = rate(q, t)
        k2 = rate(q + 0.5 * h_fine * k1, t + 0.5 * h_fine)
        k3 = rate(q + 0.5 * h_fine * k2, t + 0.5 * h_fine)
        k4 = rate(q + h_fine * k3, t + h_fine)
        q = q + (h_fine / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        drift = float(np.max(np.abs(q.T @ q - np.eye(d))))
        if drifts is not None:
            drifts.append(drift)
        if not drift <= drift_tol:
            raise OrthogonalityLost(
                f"frame drift {drift:.3e} exceeds {drift_tol:.1e} at t={ts[idx + 1]:.6g}")
        q = linalg.qr_positive(q)[0]
        b_diag[idx + 1] = np.diag(q.T @ _at(prob, ts[idx + 1]) @ q)
    return ts, b_diag


CRITERION_8 = problems.RotatingCosineParams(a1=1.2, a2=1.2, b1=-0.14, b2=-0.15,
                                            beta=10.0)
UNEQUAL = problems.RotatingCosineParams(a1=1.0, a2=1.5, b1=-0.1, b2=-0.3, beta=2.0,
                                        omega_rate=0.8)


def _stacked(prob):
    """The same problem with a batch that stacks one-time values, time by time."""
    return problems.LinearProblem(
        d=prob.d, batch=lambda ts: np.stack([_at(prob, t) for t in ts]))


# Every case starts from I. LAPACK's raw R diagonals come out negative near I, so
# the oracle's raw frames differ from the reference's by column signs, which the
# rates must not see
CASES = {
    "criterion-8": (problems.rotating_cosine_problem(CRITERION_8), 40.0, 0.01, 0.0),
    "criterion-7": (problems.rotating_cosine_problem(CRITERION_8), 5.0, 1e-3, 0.0),
    # a start time off zero
    "t0-and-q0": (problems.rotating_cosine_problem(UNEQUAL), 10.7, 0.01, 0.7),
    "scalar-cosine": (problems.scalar_cosine_problem(
        problems.ScalarCosineParams(D=1.0, L=-0.5)), 6.0, 0.01, 0.3),
    "constant-3x3": (problems.constant_problem(
        [[0.3, 1.0, -2.0], [0.5, -1.0, 0.1], [1.0, 2.0, 3.0]]), 3.0, 0.01, 0.0),
    "stacked-fallback": (_stacked(problems.rotating_cosine_problem(UNEQUAL)), 4.0, 0.02,
                         0.25),
    # 3600 steps: three full blocks of spectra._QR_BLOCK and a partial fourth
    "four-blocks": (problems.rotating_cosine_problem(UNEQUAL), 36.0, 0.01, 0.0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_oracle_matches_reference_bits(case):
    prob, t_final, h_fine, t0 = CASES[case]
    ts, b_diag = reference_oracle(prob, t_final, h_fine, t0=t0)
    got = spectra.continuous_qr_oracle(prob, t_final, h_fine, t0=t0)
    assert np.array_equal(got.ts, ts)
    assert np.array_equal(got.b_diag, b_diag)
    assert got.h_fine == h_fine


@pytest.mark.parametrize("prob", [
    problems.rotating_cosine_problem(CRITERION_8),
    problems.rotating_cosine_problem(UNEQUAL),
    problems.rotating_cosine_problem(problems.RotatingCosineParams(
        a1=1.2, a2=1.2, b1=-0.14, b2=-0.15, beta=10.0, omega_rate=2.0 * math.pi / 0.5)),
    problems.scalar_cosine_problem(problems.ScalarCosineParams(D=1.0, L=-0.5)),
    problems.constant_problem([[2.0, 1.0], [0.0, 1.0]]),
], ids=["rotating-cosine"] * 3 + ["scalar-cosine", "constant"])
def test_batch_equals_stacked_coefficients(prob):
    # row i of an n-element batch is the one-element batch at ts[i], bit for bit:
    # start_rk4 reads A(t) one time at a time, transition_batch and the oracle batched.
    # The times are the oracle's three node sets: nodes, midpoints and step ends
    h = 0.0123
    ts = 0.7 + h * np.arange(500)
    for nodes in (ts, ts[:-1] + 0.5 * h, ts[:-1] + h):
        got = prob.batch(nodes)
        assert got.shape == (len(nodes), prob.d, prob.d)
        for t, row in zip(nodes, got):
            assert row.tobytes() == _at(prob, t).tobytes()


def _both_raise(prob, t_final, h_fine, drift_tol=1e-6):
    """The OrthogonalityLost message of the oracle, with spectra.DRIFT_TOL patched
    to drift_tol, checked equal to the reference's."""
    with pytest.raises(OrthogonalityLost) as ref:
        reference_oracle(prob, t_final, h_fine, drift_tol=drift_tol)
    with mock.patch.object(spectra, "DRIFT_TOL", drift_tol), \
            pytest.raises(OrthogonalityLost) as got:
        spectra.continuous_qr_oracle(prob, t_final, h_fine)
    assert str(got.value) == str(ref.value)
    return str(got.value)


def test_oracle_fails_like_reference():
    resonant = problems.rotating_cosine_problem(problems.RotatingCosineParams(
        a1=1.2, a2=1.2, b1=-0.14, b2=-0.15, beta=10.0, omega_rate=2.0 * math.pi / 0.5))
    _both_raise(resonant, 2.0, 0.1)


# A(t) = omega(t) J, J the rotation generator, with omega growing linearly in t: an RK4
# step's frame drift grows with h omega, so each step sets a new largest drift
SPIN_UP = problems.LinearProblem(d=2, batch=lambda ts: np.stack(
    [(5.0 + 0.5 * t) * np.array([[0.0, -1.0], [1.0, 0.0]]) for t in ts]))
SPIN_UP_SPAN = (30.0, 0.01)         # 3000 steps, three blocks


@pytest.fixture(scope="module")
def spin_up_drifts():
    drifts = []
    reference_oracle(SPIN_UP, *SPIN_UP_SPAN, drift_tol=math.inf, drifts=drifts)
    return drifts


@pytest.mark.parametrize("step", [1, 1023, 1024, 1025, 2500])
def test_orthogonality_lost_at_the_same_step(step, spin_up_drifts):
    # drift_tol is the largest drift before the chosen step, so that step is the first
    # to fail: the first step, around the end of the first block, in the third block
    assert spectra._QR_BLOCK == 1024
    drifts = spin_up_drifts
    tol = max(drifts[:step - 1], default=0.5 * drifts[0])
    assert drifts[step - 1] > tol
    message = _both_raise(SPIN_UP, *SPIN_UP_SPAN, drift_tol=tol)
    assert message.endswith(f"at t={step * SPIN_UP_SPAN[1]:.6g}")


def _oracle_rk4_step(q, a_node, a_mid, a_end, h):
    """One RK4 step written as continuous_qr_oracle takes it: k1-k4 and the frame
    before its QR."""
    lower = np.tri(len(q), k=-1, dtype=bool)
    low = np.zeros_like(q)

    def rate(qm, a):
        w = np.dot(np.dot(qm.T, a), qm)
        np.copyto(low, w, where=lower)
        return np.dot(qm, low - low.T)

    half, sixth = 0.5 * h, h / 6.0
    k1 = rate(q, a_node)
    k2 = rate(q + half * k1, a_mid)
    k3 = rate(q + half * k2, a_mid)
    k4 = rate(q + h * k3, a_end)
    pre = np.empty_like(q)
    np.add(k1, np.multiply(2.0, k2, pre), pre)
    np.add(pre, np.multiply(2.0, k3), pre)
    np.add(pre, k4, pre)
    np.add(q, np.multiply(sixth, pre, pre), pre)
    return k1, k2, k3, k4, pre


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), grade=st.floats(0.0, 5.0),
       h=st.floats(1e-4, 0.05))
def test_rk4_step_commutes_with_column_signs(seed, d, grade, h):
    # the oracle chains LAPACK's unflipped Q: a step from Q S must be the step from Q,
    # times S, with the same pre-QR drift, for a +-1 diagonal S
    rng = np.random.default_rng(seed)
    graded = rng.standard_normal((d, d)) * np.exp(rng.uniform(-grade, grade, d))
    q = np.ascontiguousarray(linalg.householder_qr(graded)[1])    # C-ordered, as kept
    coeffs = [rng.standard_normal((d, d)) * np.exp(rng.uniform(-grade, grade, (d, d)))
              for _ in range(3)]
    s = rng.choice([-1.0, 1.0], d)
    plain = _oracle_rk4_step(q, *coeffs, h)
    signed = _oracle_rk4_step(q * s, *coeffs, h)
    for got, want in zip(signed, plain):
        assert np.array_equal(got, want * s)
    pres = np.stack([plain[-1], signed[-1]])
    drift = np.abs(np.matmul(pres.transpose(0, 2, 1), pres) - np.eye(d))
    assert np.array_equal(drift[1], drift[0])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), frac=st.floats(0.5, 1.0),
       grade=st.floats(0.0, 5.0), shrink=st.booleans())
def test_frames_within_drift_pass_rank_guard(seed, d, frac, grade, shrink):
    # why the oracle checks only the drift: a frame F with max|F^T F - I| <= DRIFT_TOL
    # has every eigenvalue of F^T F within d * DRIFT_TOL of 1 (Gershgorin), so
    # min|R_ii| >= sigma_min(F) > 0.99, far above linalg.RANK_TOL * max|F|.
    # F = Q + s E, with s setting the drift near frac * DRIFT_TOL; shrink pulls one
    # column of Q straight in, so sigma_min falls by about half the drift
    rng = np.random.default_rng(seed)
    q = linalg.householder_qr(rng.standard_normal((d, d)))[1]
    if shrink:
        e = -np.outer(q[:, 0], np.eye(d)[0])
    else:
        e = rng.standard_normal((d, d)) * np.exp(rng.uniform(-grade, grade, (d, d)))
    # the drift of Q + s E is at most s a + s^2 b
    a, b = np.abs(q.T @ e + e.T @ q).max(), np.abs(e.T @ e).max()
    target = frac * spectra.DRIFT_TOL
    s = 2.0 * target / (a + math.sqrt(a * a + 4.0 * b * target))
    f = q + s * e
    drift = np.abs(np.matmul(f.T, f) - np.eye(d)).max()
    assume(drift <= spectra.DRIFT_TOL)
    diag = linalg.householder_qr(f)[0].diagonal()
    assert linalg.rank_guard(f[np.newaxis], diag[np.newaxis]) == 1
    assert np.abs(diag).min() > 0.99


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


@pytest.mark.parametrize("t_final, h_fine", [(1.0, -0.1), (1.0, 0.0), (1.0, math.nan),
                                             (1.0, math.inf), (1.0, 5.0), (0.0, 0.1),
                                             (-1.0, 0.1), (math.inf, 0.1)])
def test_oracle_rejects_bad_step_or_span(t_final, h_fine):
    # h_fine = -0.1 used to end in numpy's "negative dimensions", h_fine = 0 in a
    # division by zero; a span that rounds to no fine step has nothing to integrate
    prob = problems.constant_problem([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ConfigError):
        spectra.continuous_qr_oracle(prob, t_final, h_fine)


def test_oracle_step_count_too_large_to_hold():
    # 2e301 fine steps pass the span check, but no array can index them; the count
    # is past the index range, so nothing is allocated
    prob = problems.constant_problem([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ConfigError, match="cannot hold an oracle run"):
        spectra.continuous_qr_oracle(prob, 20.0, 1e-300)


def test_oracle_one_fine_step():
    prob = problems.constant_problem([[1.0, 0.0], [0.0, 2.0]])
    oracle = spectra.continuous_qr_oracle(prob, 0.1, 0.1)
    assert np.array_equal(oracle.ts, [0.0, 0.1])
    assert np.allclose(oracle.b_diag, [[1.0, 2.0], [1.0, 2.0]], atol=1e-15)
