"""Python-level calls per step in the per-step loops, counted under sys.setprofile.

The propagation of run_linear and the frame trail reach their kernels through C
calls only: ndarray.dot, ufuncs and the LAPACK routines. A Python function called
per step, a numpy dispatcher such as np.dot's among them, shows up as 'call' events
that grow with the step count. Counting them over n, 2n and 3n steps inside one
chunk or block makes the check independent of host speed.
"""

import sys

import numpy as np
import pytest

from glmstab import glm, problems, spectra

N = 150      # steps; 3 N stays inside one run_linear chunk and one QR block

BDF2 = glm.get_tableau("bdf2")
PROB = problems.rotating_cosine_problem(problems.RotatingCosineParams(
    a1=1.2, a2=1.2, b1=-0.14, b2=-0.15, beta=10.0))
H = 0.075
PHIS = glm.transition_batch(BDF2, PROB, 0, 3 * N, H)


def python_calls(fn, n):
    """Python 'call' events while fn(n) runs; C calls are 'c_call' events."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    sys.setprofile(profile)
    try:
        fn(n)
    finally:
        sys.setprofile(None)
    return count


def calls_per_step(fn):
    """The calls that each step adds, asserted to be the same for every step."""
    fn(N)                                   # first-call imports and caches
    counts = [python_calls(fn, m * N) for m in (1, 2, 3)]
    assert counts[2] - counts[1] == counts[1] - counts[0], counts
    return (counts[1] - counts[0]) / N


LOOPS = {
    "run_linear": lambda n: glm.run_linear(BDF2, PROB, np.array([1.0, 0.0, 0.9, 0.1]),
                                           n, H),
    "qr_advance_series": lambda n: spectra.qr_advance_series(
        spectra.new_matrix_trail(4, H), PHIS[:n]),
}


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_propagation_and_trail_add_no_python_call_per_step(loop):
    assert calls_per_step(LOOPS[loop]) == 0


def test_oracle_adds_a_fixed_count_per_step():
    # per step: rk4 and its four rate calls, and at most np.copyto's dispatcher in
    # each rate (numpy 2 wraps np.copyto in one)
    per_step = calls_per_step(
        lambda n: spectra.continuous_qr_oracle(PROB, n * 0.01, 0.01))
    assert per_step == int(per_step) and 5 <= per_step <= 9, per_step
