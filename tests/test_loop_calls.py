"""Python-level calls per step in the per-step loops, counted under sys.setprofile.

The propagation of run_linear and the frame trail reach their kernels through C
calls only: ndarray.dot, ufuncs and the LAPACK routines. A Python function called
per step, a numpy dispatcher such as np.dot's among them, shows up as 'call' events
that grow with the step count. Counting them over n, 2n and 3n steps inside one
chunk or block makes the check independent of host speed. The CSV writer is held
to the same standard per line, for C calls too: its fields are formatted by
whole-array numpy calls.
"""

import sys

import numpy as np
import pytest

from glmstab import cli, glm, problems, spectra

N = 150      # steps; 3 N stays inside one run_linear chunk and one QR block

BDF2 = glm.get_tableau("bdf2")
PROB = problems.rotating_cosine_problem(problems.RotatingCosineParams(
    a1=1.2, a2=1.2, b1=-0.14, b2=-0.15, beta=10.0))
H = 0.075
PHIS = glm.transition_batch(BDF2, PROB, 0, 3 * N, H)


def python_calls(fn, n, events=("call",)):
    """Python 'call' events while fn(n) runs; C calls are 'c_call' events."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in events

    sys.setprofile(profile)
    try:
        fn(n)
    finally:
        sys.setprofile(None)
    return count


def calls_per_step(fn, events=("call",)):
    """The calls that each step adds, asserted to be the same for every step."""
    fn(N)                                   # first-call imports and caches
    counts = [python_calls(fn, m * N, events) for m in (1, 2, 3)]
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


def test_csv_writer_adds_no_call_per_line(tmp_path):
    # 3 N lines stay inside one block; every value is in the range of the
    # vectorized formatter, so none falls back to % formatting. C calls count
    # too: a builtin such as math.log10 or abs applied per value adds them. The
    # blocks go through _write_csv into a file, so the file layer is held to it too
    assert 3 * N <= cli._LINES_PER_BLOCK
    rng = np.random.default_rng(7)
    cols = [rng.uniform(-9.0, 9.0, 3 * N) * 10.0 ** rng.integers(-6, 16, 3 * N)
            for _ in range(4)]
    path, header = tmp_path / "lines.csv", ["key", "n", "a", "b", "c", "d"]
    assert calls_per_step(lambda n: cli._write_csv(path, header, cli._csv_blocks(
        b"7.5000000000000000e-01,", 0, *(c[:n] for c in cols))), ("call", "c_call")) == 0
    assert path.read_bytes().count(b"\r\n") == 1 + 3 * N
