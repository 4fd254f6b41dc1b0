"""The step-axis estimators against their first, row-major versions, bit for bit.

A trail keeps its logs mode-major, and the estimators reduce its running sums
along the contiguous step axis. The references below are the versions that
read the (n_steps, n_modes) logs row by row: running sums down axis 0, the
scanned positions picked by fancy indexing, min, max and argmax over axis 0.
Every output must keep its bytes, on drawn logs that take in signed zeros,
infinities, NaN and values near the float range's ends, and with free room past
n_steps that the estimators must not read.

One bit may differ: the sign of a NaN that min or max returns. inf - inf makes
x86's default NaN, whose sign bit is set; numpy's vectorized min and max along a
contiguous axis return a NaN with the sign bit clear, where the strided axis-0
reduction returned the NaN it met. No output shows that bit (JSON writes null
for any NaN, and "%.16e" formats both as "nan"), so lyapunov_endpoints' and
sacker_sell_window's NaNs are compared as NaN. mu_appr picks its values by
index, and keeps every bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from glmstab import spectra


def reference_cumlogs(trail):
    logs = np.ascontiguousarray(trail.logs())      # row-major, as the trail kept them
    cs = np.zeros((logs.shape[0] + 1, logs.shape[1]))
    np.cumsum(logs, axis=0, out=cs[1:])
    return cs


def reference_mu_appr(trail, n0, n, denominator="t0", sum_start="origin"):
    cs = reference_cumlogs(trail)
    js = 0 if sum_start == "origin" else n0
    t_ref = trail.t0 if denominator == "t0" else trail.t0 + n0 * trail.h
    positions = np.arange(n0 + 1, n0 + n + 1)
    ts = trail.t0 + positions * trail.h
    sums = cs[positions] - cs[js]
    ratios = sums / (ts - t_ref)[:, np.newaxis]
    best = np.argmax(ratios, axis=0)
    mu = ratios[best, np.arange(ratios.shape[1])]
    return mu, ts[best]


def reference_lyapunov_endpoints(trail):
    n, burn_in = trail.n_steps, trail.n_steps // 2
    cs = reference_cumlogs(trail)
    positions = np.arange(burn_in + 1, n + 1)
    ratios = cs[positions] / (positions * trail.h)[:, np.newaxis]
    return np.min(ratios, axis=0), np.max(ratios, axis=0), burn_in


def reference_sacker_sell_window(trail, H):
    m = spectra.window_steps(H, trail.h, trail.n_steps)
    cs = reference_cumlogs(trail)
    span = m * trail.h
    avgs = (cs[m:] - cs[:-m]) / span
    return np.min(avgs, axis=0), np.max(avgs, axis=0)


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300])


def drawn_logs(seed, n, modes, special_frac, scale):
    """Log increments of n steps: standard normals times 10**scale, with a share
    special_frac of the entries replaced by values drawn from SPECIALS."""
    rng = np.random.default_rng(seed)
    logs = rng.standard_normal((n, modes)) * 10.0 ** scale
    hit = rng.random((n, modes)) < special_frac
    logs[hit] = rng.choice(SPECIALS, int(hit.sum()))
    return logs


def assert_same_bytes(got, want, any_nan=False):
    """Equal shapes, dtypes and bytes; with any_nan, every NaN counts as np.nan."""
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape and g.dtype == w.dtype
        if any_nan:
            g, w = (np.where(np.isnan(x), np.nan, x) for x in (g, w))
        assert g.tobytes() == w.tobytes()


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000), modes=st.integers(1, 6),
       special_frac=st.sampled_from([0.0, 0.001, 0.05, 0.5]),
       scale=st.sampled_from([-300, -3, 0, 3, 300]),
       h=st.sampled_from([0.075, 1e-3, 0.5]), t0=st.sampled_from([0.0, -2.5, 10.0]),
       room=st.integers(0, 40), data=st.data())
def test_estimators_match_row_major_references(seed, n, modes, special_frac, scale, h,
                                               t0, room, data):
    logs = drawn_logs(seed, n, modes, special_frac, scale)
    trail = spectra.QrTrail(h=h, t0=t0, frame=None, logs=logs)
    assert np.array_equal(trail.logs(), logs, equal_nan=True)
    # the same logs with free room past n_steps, NaN-filled, as a grown buffer has
    roomy = spectra.QrTrail(h=h, t0=t0, frame=None,
                            logs=np.concatenate([logs, np.full((room, modes), np.nan)]))
    roomy.n_steps = n
    for t in (trail, roomy):
        check_against_references(t, trail, data)


def check_against_references(t, trail, data):
    """t's estimates against the references' on trail, the same logs; inf - inf
    and the like warn in both, so the comparison runs with warnings off."""
    n, h = trail.n_steps, trail.h
    with np.errstate(all="ignore"):
        n0 = data.draw(st.integers(0, n - 1), label="n0")
        width = data.draw(st.integers(1, n - n0), label="n")
        for denominator in spectra.DENOMINATOR_MODES:
            for sum_start in spectra.SUM_START_MODES:
                est = spectra.mu_appr(t, n0, width, denominator, sum_start)
                assert_same_bytes((est.mu, est.argmax_t),
                                  reference_mu_appr(trail, n0, width, denominator,
                                                    sum_start))
        if n >= 2:
            ends = spectra.lyapunov_endpoints(t)
            assert_same_bytes((ends.eta, ends.mu, ends.burn_in),
                              reference_lyapunov_endpoints(trail), any_nan=True)
        if n >= 6:
            H = data.draw(st.integers(2, n // 3), label="window steps") * h
            ss = spectra.sacker_sell_window(t, H)
            assert_same_bytes((ss.alpha, ss.beta), reference_sacker_sell_window(trail, H),
                              any_nan=True)

