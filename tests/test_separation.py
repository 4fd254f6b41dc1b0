"""The integral-separation classifier against the quadratic scan it replaced.

`reference_separation` is integral_separation_logs as first written: the extreme
window averages over every width of at least m0 = ceil(T0 / h) steps, and the
fitted offsets b and M over every window of the trail. The classifier scans only
widths below 2 m0 and takes b and M from a running minimum, so the window
averages agree to rounding and b and M to rounding in sums of size
max|cs| + n h |avg|.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmstab import spectra

pytestmark = pytest.mark.filterwarnings("error")


def reference_separation(logs, h, i, j, a0=0.05, T0=1.0):
    """O(n^2) reference: (kind, min_avg, max_abs_avg, a, b, eps, M)."""
    logs = np.atleast_2d(np.asarray(logs, dtype=float))
    n = logs.shape[0]
    m0 = max(int(math.ceil(T0 / h)), 1)
    gap = logs[:, i] - logs[:, j]
    cs = np.concatenate([[0.0], np.cumsum(gap)])

    min_avg = math.inf
    max_abs_avg = 0.0
    for width in range(m0, n + 1):
        sums = cs[width:] - cs[:-width]
        span = width * h
        min_avg = min(min_avg, float(np.min(sums)) / span)
        max_abs_avg = max(max_abs_avg, float(np.max(np.abs(sums))) / span)

    nan = math.nan
    if min_avg >= a0:
        b = 0.0
        for width in range(1, n + 1):
            sums = cs[width:] - cs[:-width]
            b = max(b, float(np.max(width * h * min_avg - sums)))
        return "separated", min_avg, max_abs_avg, min_avg, b, nan, nan
    if max_abs_avg <= a0:
        eps = max_abs_avg
        m_bound = 0.0
        for width in range(1, n + 1):
            sums = cs[width:] - cs[:-width]
            m_bound = max(m_bound, float(np.max(np.abs(sums))) - eps * width * h)
        return "bounded-average", min_avg, max_abs_avg, nan, nan, eps, max(m_bound, 0.0)
    return "inconclusive", min_avg, max_abs_avg, nan, nan, nan, nan


def _gap_family(kind, n, h, rng):
    """Per-step gap increments of one family, scaled by the step h."""
    t = h * np.arange(n)
    if kind == "positive-mean":
        rate = rng.uniform(0.02, 0.5) + rng.uniform(0.0, 0.05) * np.cos(rng.uniform(0.5, 3.0) * t)
    elif kind == "zero-mean":
        rate = rng.uniform(0.0, 0.2) * rng.standard_normal(n)
    elif kind == "oscillating":
        rate = rng.uniform(0.0, 0.3) * np.cos(rng.uniform(0.2, 4.0) * t + rng.uniform(0, 6.3))
    else:   # mixed: a positive stretch, then a drifting negative one
        cut = int(rng.integers(1, n + 1))
        rate = np.where(np.arange(n) < cut, rng.uniform(0.0, 0.4), -rng.uniform(0.0, 0.4))
        rate = rate + rng.uniform(0.0, 0.1) * rng.standard_normal(n)
    return rate * h


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["positive-mean", "zero-mean", "oscillating", "mixed"]),
       n=st.integers(1, 300), h=st.sampled_from([0.01, 0.05, 0.1, 0.3, 1.0]),
       T0=st.sampled_from([0.05, 0.5, 1.0, 2.5]), a0=st.sampled_from([0.005, 0.05, 0.2]))
def test_separation_matches_quadratic_reference(seed, family, n, h, T0, a0):
    m0 = max(int(math.ceil(T0 / h)), 1)
    n = max(n, m0)
    rng = np.random.default_rng(seed)
    other = h * rng.uniform(-0.1, 0.1, n)
    logs = np.column_stack([other + _gap_family(family, n, h, rng), other])
    kind, min_avg, max_abs_avg, a, b, eps, M = reference_separation(logs, h, 0, 1, a0, T0)
    rep = spectra.integral_separation_logs(logs, h, 0, 1, a0=a0, T0=T0)

    assert rep.min_window_avg == pytest.approx(min_avg, rel=1e-12, abs=1e-300)
    assert rep.max_abs_window_avg == pytest.approx(max_abs_avg, rel=1e-12, abs=1e-300)
    near = (abs(min_avg - a0) <= 1e-12 * abs(a0) or abs(max_abs_avg - a0) <= 1e-12 * abs(a0))
    if not near:
        assert rep.kind == kind
    if rep.kind != kind:
        return
    cs = np.concatenate([[0.0], np.cumsum(logs[:, 0] - logs[:, 1])])
    tol = 1e-12 * (1.0 + float(np.max(np.abs(cs)))
                   + n * h * max(abs(min_avg), max_abs_avg))
    if kind == "separated":
        assert rep.a == pytest.approx(a, rel=1e-12)
        assert abs(rep.b - b) <= tol
        assert rep.b >= 0.0
    elif kind == "bounded-average":
        assert rep.eps == pytest.approx(eps, rel=1e-12, abs=1e-300)
        assert abs(rep.M - M) <= tol
        assert rep.M >= 0.0


@pytest.mark.parametrize("T0", [0.1, 1.0, 3.0])
def test_separation_window_bound_edges(T0):
    # trails from m0 steps, the shortest allowed, up to past 2 m0
    h = 0.1
    m0 = int(math.ceil(T0 / h))
    rng = np.random.default_rng(11)
    for n in range(m0, 2 * m0 + 3):
        logs = np.column_stack([h * (0.1 + 0.3 * rng.standard_normal(n)), np.zeros(n)])
        for a0 in (0.01, 0.5, 5.0):
            kind, min_avg, max_abs_avg, *_ = reference_separation(logs, h, 0, 1, a0, T0)
            rep = spectra.integral_separation_logs(logs, h, 0, 1, a0=a0, T0=T0)
            assert rep.kind == kind
            assert rep.min_window_avg == pytest.approx(min_avg, rel=1e-12)
            assert rep.max_abs_window_avg == pytest.approx(max_abs_avg, rel=1e-12)


def test_separation_of_a_1e5_step_trail():
    # criterion 7's trail length and step; the quadratic scan could not classify it
    n, h = 100_000, 0.075
    t = h * np.arange(n + 1)
    modes = [(1.2, -0.14, 0.002), (1.2, -0.15, 0.0)]
    logs = np.column_stack([a * np.diff(np.sin(t)) + b * h + c * np.diff(np.sin(t + 1.0))
                            for a, b, c in modes])
    start = time.perf_counter()
    rep = spectra.integral_separation_logs(logs, h, 0, 1, a0=0.005, T0=1.0)
    same = spectra.integral_separation_logs(logs, h, 0, 0, a0=0.005, T0=1.0)
    elapsed = time.perf_counter() - start
    # gap 0.01 + 0.002 cos(t + 1): long-window averages within [0.008, 0.01]
    assert rep.kind == "separated"
    assert 0.008 - 1e-9 <= rep.a <= 0.01 + 1e-9
    assert 0.0 <= rep.b <= 0.004 + 1e-9
    assert same.kind == "bounded-average"
    assert same.eps == 0.0 and same.M == 0.0
    assert elapsed < 1.0
