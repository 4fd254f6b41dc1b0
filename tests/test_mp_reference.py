"""The float references against a 30-digit one: host-independent truth.

mpmath evaluates the rotated-frame closed form of the rotating-cosine system
(y = Q^T x is upper triangular, y' = B y) with mp.quad for its variation-of-constants
integral, and the scalar cosine equation's exponential, at 30 significant digits and
from the same float inputs. The float references must agree to a few ulps of the
result; each bound below is about twice to four times the largest error measured.
"""

import math

import mpmath
import numpy as np
import pytest

from glmstab import cli, problems

mp = mpmath.mp.clone()
mp.dps = 30

TIMES = (0.5, 3.0, 10.0, 37.3, 100.0)
ROTATING_BOUND = 4e-15      # relative 2-norm error; measured at most 1.09e-15
SCALAR_BOUND = 4e-15        # relative error, measured at most 1.79e-15: the float
                            # rounding of omega t and the exponent's growth with t


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
