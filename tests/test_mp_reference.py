"""The float references and transitions against 30-digit ones: host-independent truth.

mpmath evaluates the rotated-frame closed form of the rotating-cosine system
(y = Q^T x is upper triangular, y' = B y) with mp.quad for its variation-of-constants
integral, the scalar cosine equation's exponential, and the transition matrices
Phi(n; h) from each tableau, at 30 significant digits and from the same float inputs.
The float results must agree to a few ulps of the result; each bound below is about
twice to eight times the largest error measured.
"""

import math

import mpmath
import numpy as np
import pytest

from glmstab import cli, glm, problems

mp = mpmath.mp.clone()
mp.dps = 30

TIMES = (0.5, 3.0, 10.0, 37.3, 100.0)
ROTATING_BOUND = 4e-15      # relative 2-norm error; measured at most 1.09e-15
SCALAR_BOUND = 4e-15        # relative error, measured at most 1.79e-15: the float
                            # rounding of omega t and the exponent's growth with t
EPS = np.finfo(float).eps
PHI_BOUND = 8.0             # max|Phi - Phi_mp| <= this eps cond(S) max(1, max|Phi|);
                            # measured at most 1.08


def mp_rotating(p, t, x0, t0=0.0):
    """x(t) of the rotating-cosine system at 30 digits, as two Python floats."""
    w, t, t0 = mp.mpf(p.omega_rate), mp.mpf(t), mp.mpf(t0)
    a1, a2, b1, b2, beta = (mp.mpf(v) for v in (p.a1, p.a2, p.b1, p.b2, p.beta))
    x1, x2 = mp.mpf(x0[0]), mp.mpf(x0[1])
    c0, s0 = mp.cos(w * t0), mp.sin(w * t0)
    y1, y2 = c0 * x1 + s0 * x2, -s0 * x1 + c0 * x2          # Q(t0)^T x0

    def m(a, b, s):         # the integral of a cos + b from t0 to s
        return a * (mp.sin(s) - mp.sin(t0)) + b * (s - t0)

    if y2 != 0 and beta != 0:
        integral, err = mp.quad(lambda s: mp.exp(m(a2, b2, s) - m(a1, b1, s)), [t0, t],
                                error=True)
        assert err <= mp.mpf(10) ** -25 * abs(integral)
        y1 += beta * y2 * integral
    y1, y2 = mp.exp(m(a1, b1, t)) * y1, mp.exp(m(a2, b2, t)) * y2
    c, s = mp.cos(w * t), mp.sin(w * t)
    return float(c * y1 - s * y2), float(s * y1 + c * y2)


@pytest.mark.parametrize("x0", [(1.0, 0.0), (0.6, 0.8)])
def test_reference_batch_against_30_digits(x0):
    p = problems.RotatingCosineParams(**cli.TABLE1_PROBLEM)
    got = problems.reference_batch(p, np.array(TIMES), x0=x0)
    want = np.array([mp_rotating(p, t, x0) for t in TIMES])
    rel = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert rel.max() <= ROTATING_BOUND, rel


def test_scalar_cosine_reference_against_30_digits():
    # criterion 4's coefficient 0.3 cos(2 pi t / h) - 0.1 at h = 0.5, and its frozen twin
    for omega in (2.0 * math.pi / 0.5, 0.0):
        p = problems.ScalarCosineParams(D=0.3, L=-0.1, omega=omega)
        got = problems.scalar_cosine_reference(p, np.array(TIMES))
        d, l, w = mp.mpf(p.D), mp.mpf(p.L), mp.mpf(p.omega)
        want = np.array([float(mp.exp((d / w) * mp.sin(w * t) + l * t) if w
                               else mp.exp((d + l) * mp.mpf(t))) for t in TIMES])
        rel = np.abs(got - want) / want
        assert rel.max() <= SCALAR_BOUND, (omega, rel)


def mp_rotating_A(p, t):
    """A(t) = Q(t) B(t) Q(t)^T + omega_rate J of the rotating-cosine system at 30
    digits, at the float time t."""
    w, t = mp.mpf(p.omega_rate), mp.mpf(t)
    c, s = mp.cos(w * t), mp.sin(w * t)
    q = mp.matrix([[c, -s], [s, c]])
    b = mp.matrix([[p.a1 * mp.cos(t) + p.b1, p.beta], [0, p.a2 * mp.cos(t) + p.b2]])
    return q * b * q.T + w * mp.matrix([[0, -1], [1, 0]])


def mp_kron_eye(m, d):
    """m (x) I_d as an mp.matrix, from a float array m."""
    out = mp.zeros(m.shape[0] * d, m.shape[1] * d)
    for i, j in np.ndindex(m.shape):
        for e in range(d):
            out[i * d + e, j * d + e] = mp.mpf(m[i, j])
    return out


def mp_transition(tab, p, n, h):
    """(Phi(n; h), S) rounded to floats: Phi = V (x) I + h (D (x) I) M S^-1 (U (x) I)
    at 30 digits, S = I - h (C (x) I) M, and M the block diagonal of A at the float
    stage times glm.stage_times returns. Exact stage times would not do: t_n rounds
    near t = 307, which alone moves Phi by up to 12 eps cond(S)."""
    d, r = 2, tab.r
    m = mp.zeros(r * d, r * d)
    for i, t in enumerate(glm.stage_times(tab, n, h)):
        a = mp_rotating_A(p, t)
        for x, y in np.ndindex(d, d):
            m[i * d + x, i * d + y] = a[x, y]
    h_mp = mp.mpf(h)
    s = mp.eye(r * d) - h_mp * mp_kron_eye(tab.C, d) * m
    phi = (mp_kron_eye(tab.V, d)
           + h_mp * mp_kron_eye(tab.D, d) * m * mp.inverse(s) * mp_kron_eye(tab.U, d))
    return np.array(phi.tolist(), dtype=float), np.array(s.tolist(), dtype=float)


@pytest.mark.parametrize("method", ["bdf2", "ab2", "be"])
@pytest.mark.parametrize("h", [0.75, 0.075, 0.0075])
def test_transitions_against_30_digits(method, h):
    # the table-1 problem; n = 4095 ends a run_linear chunk, at t ~ 307 for h = 0.075
    tab = glm.get_tableau(method)
    p = problems.RotatingCosineParams(**cli.TABLE1_PROBLEM)
    got = glm.transition_batch(tab, problems.rotating_cosine_problem(p), 0, 4096, h)
    for n in (0, 7, 4095):
        want, s = mp_transition(tab, p, n, h)
        err = np.abs(got[n] - want).max()
        scale = np.linalg.cond(s) * max(1.0, np.abs(want).max())
        assert err <= PHI_BOUND * EPS * scale, (n, err / (EPS * scale))
