"""The blocked matrix QR trail against the slow per-step reference loop.

`reference_trail` is the trail as first written: np.linalg.qr on phi @ frame, a
sign flip to a positive R diagonal, the rank guard, one log row per step; only
the guard is written NaN-safe, so that a non-finite product fails it. The
blocked `spectra.qr_advance_series` must reproduce it bit for bit, including
where it stops on a failing step.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmstab import glm, linalg, problems, spectra
from glmstab.errors import ConfigError, NumericalError, RankDeficient


def householder_qr(m):
    """Raw reduced QR of a tall or square m by the library's LAPACK dgeqrf + dorgqr,
    the calls of qr_chain's steps: (packed, q), R in packed's upper triangle and q
    with LAPACK's column signs, the bits of np.linalg.qr."""
    packed, tau, _, info = linalg.dgeqrf(m)
    q, _, info_q = linalg.dorgqr(packed, tau)
    assert info == info_q == 0
    return packed, q


def reference_trail(frame, phis, rank_tol=1e-14):
    """Per-step reference: (logs, frame, error message or None).

    On a failing step the logs and frame are those before it, as the trail keeps
    them, and the message is the RankDeficient text, naming the step (phis[0] is
    step 0).
    """
    rows = []
    for phi in phis:
        m = phi @ frame
        q, r = np.linalg.qr(m)
        d = np.sign(np.diag(r))
        d[d == 0.0] = 1.0
        q = q * d[np.newaxis, :]
        r = r * d[:, np.newaxis]
        scale = np.max(np.abs(m))
        dmin = np.min(np.abs(np.diag(r)))
        if not dmin > rank_tol * scale:
            return (np.reshape(rows, (-1, frame.shape[1])), frame,
                    f"QR diagonal {dmin:.3e} below tolerance {rank_tol:.1e} * {scale:.3e}"
                    f" in step {len(rows)}")
        frame = q
        rows.append(np.log(np.diag(r)))
    return np.reshape(rows, (-1, frame.shape[1])), frame, None


def _blocked(frame, phis, slices=None):
    """The library trail from frame over phis (in consecutive slices): (logs, frame,
    message)."""
    frame = np.array(frame, dtype=float)
    trail = spectra.QrTrail(h=0.1, t0=0.0, frame=frame,
                            logs=np.empty((0, frame.shape[1])))
    bounds = np.cumsum([0] + list(slices or [len(phis)]))
    message = None
    try:
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            spectra.qr_advance_series(trail, phis[lo:hi])
    except RankDeficient as exc:
        message = str(exc)
    assert trail.n_steps == len(trail.logs())
    return trail.logs(), trail.frame, message


def _assert_same(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


def _criterion7_phis(n):
    p = problems.RotatingCosineParams(a1=1.2, a2=1.2, b1=-0.14, b2=-0.15, beta=10.0)
    return glm.transition_batch(glm.get_tableau("bdf2"), problems.rotating_cosine_problem(p),
                                0, n, 0.075)


def test_criterion7_problem_in_uneven_slices():
    phis = _criterion7_phis(20_000)
    lengths = [0, 1, 1023, 1024, 1025, 5000]
    slices = []
    while sum(slices) < len(phis):
        slices.append(min(lengths[len(slices) % len(lengths)], len(phis) - sum(slices)))
    want = reference_trail(np.eye(4), phis)
    assert want[2] is None
    got = _blocked(np.eye(4), phis, slices)
    _assert_same(got, want)
    _assert_same(got, _blocked(np.eye(4), phis))       # and one call over the series


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kd=st.integers(1, 6), n=st.integers(0, 60),
       grade=st.floats(0.0, 20.0))
def test_graded_stacks_match_reference(seed, kd, n, grade):
    rng = np.random.default_rng(seed)
    cols = np.exp(rng.uniform(-grade, grade, (n, 1, kd)))
    phis = (rng.standard_normal((n, kd, kd)) + np.eye(kd)) * cols
    frame = np.linalg.qr(rng.standard_normal((kd, kd)))[0]
    _assert_same(_blocked(frame, phis), reference_trail(frame, phis))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), grade=st.floats(0.0, 20.0))
def test_qr_positive_matches_numpy_qr_bit_for_bit(seed, n, grade):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) * np.exp(rng.uniform(-grade, grade, n))
    q, r = np.linalg.qr(m)
    packed, q_raw = householder_qr(m)
    assert np.array_equal(q_raw, q) and np.array_equal(np.triu(packed), r)
    d = np.sign(np.diag(r))
    d[d == 0.0] = 1.0
    if not np.min(np.abs(np.diag(r))) > 1e-14 * np.max(np.abs(m)):
        with pytest.raises(RankDeficient):
            linalg.qr_positive(m)
        return
    q_pos, r_pos = linalg.qr_positive(m)
    assert np.array_equal(q_pos, q * d[np.newaxis, :])
    assert np.array_equal(r_pos, r * d[:, np.newaxis])


@pytest.mark.filterwarnings("error")      # only the typed error may reach the caller
@pytest.mark.parametrize("bad", [
    np.array([[1.0, 2.0, 0.0, 0.0], [2.0, 4.0, 0.0, 0.0],
              [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),     # rank 3
    np.zeros((4, 4)),
    np.full((4, 4), math.nan),
    np.diag([math.inf, 1.0, 1.0, 1.0]),
], ids=["rank-deficient", "zero", "nan", "inf"])
@pytest.mark.parametrize("at", [0, 700, 1500])
def test_failing_step_stops_where_reference_does(bad, at):
    phis = _criterion7_phis(2500)
    phis[at] = bad
    with np.errstate(invalid="ignore", over="ignore"):   # the reference's own matmul
        want = reference_trail(np.eye(4), phis)
    assert want[2] is not None and len(want[0]) == at
    got = _blocked(np.eye(4), phis, [300, 1000, 1200])
    _assert_same(got, want)


def test_single_steps_match_series():
    phis = _criterion7_phis(50)
    trail = spectra.new_matrix_trail(4, 0.075)
    for phi in phis:
        spectra.qr_advance_series(trail, phi[np.newaxis])
    assert trail.n_steps == 50
    _assert_same((trail.logs(), trail.frame, None), reference_trail(np.eye(4), phis))


def test_empty_series_leaves_trail_unchanged():
    trail = spectra.new_matrix_trail(4, 0.075)
    spectra.qr_advance_series(trail, np.empty((0, 4, 4)))
    assert trail.n_steps == 0 and trail.logs().shape == (0, 4)
    assert np.array_equal(trail.frame, np.eye(4))
    spectra.qr_advance_series(trail, _criterion7_phis(3))
    logs, frame = trail.logs(), trail.frame.copy()
    spectra.qr_advance_series(trail, np.empty((0, 4, 4)))
    assert trail.n_steps == 3
    assert np.array_equal(trail.logs(), logs) and np.array_equal(trail.frame, frame)


@pytest.mark.parametrize("shape", [(3, 3, 3), (3, 4), (2, 4, 4, 1), (2, 4, 3), (4,)])
def test_misshaped_series_is_rejected_before_any_step(shape):
    trail = spectra.new_matrix_trail(4, 0.075)
    spectra.qr_advance_series(trail, _criterion7_phis(3))
    logs, frame = trail.logs().copy(), trail.frame.copy()
    with pytest.raises(ConfigError, match=r"\(n, 4, 4\)"):
        spectra.qr_advance_series(trail, np.ones(shape))
    assert trail.n_steps == 3 and trail._buf.shape[1] == 3
    assert np.array_equal(trail.logs(), logs) and np.array_equal(trail.frame, frame)


@pytest.mark.parametrize("phis", [np.ones((2, 1, 1)), np.empty((0, 1, 1)), np.ones((3, 2, 2))])
def test_vector_trail_is_rejected_before_any_step(phis):
    # a trail of a w-sequence has no frame: a typed error, not numpy's AttributeError
    trail = spectra.vector_trail_from_values(np.ones((5, 2)) + np.arange(5.0)[:, None], 0.1)
    logs, buf = trail.logs().copy(), trail._buf
    with pytest.raises(ConfigError, match="vector trail"):
        spectra.qr_advance_series(trail, phis)
    assert trail.n_steps == 4 and trail.frame is None and trail._buf is buf
    assert trail.logs().tobytes() == logs.tobytes()


def test_logs_taken_earlier_survive_later_advances():
    # the logs live in one mode-major buffer whose capacity doubles: an advance that
    # fits writes past the history in place, one that does not copies it once
    phis = _criterion7_phis(100)
    trail = spectra.new_matrix_trail(4, 0.075)
    spectra.qr_advance_series(trail, phis[:10])       # capacity 10: full
    first = trail.logs()
    kept = first.copy()
    spectra.qr_advance_series(trail, phis[10:15])     # reallocates, to 20
    assert not np.shares_memory(first, trail.logs())
    second = trail.logs()
    spectra.qr_advance_series(trail, phis[15:18])     # fits: no copy of the history
    third = trail.logs()
    assert np.shares_memory(second, third)
    spectra.qr_advance_series(trail, phis[18:])
    assert np.array_equal(first, kept) and np.array_equal(second, third[:15])
    assert first.shape == (10, 4) and second.shape == (15, 4) and third.shape == (18, 4)
    _assert_same((trail.logs(), trail.frame, None), reference_trail(np.eye(4), phis))


@pytest.mark.parametrize("fits", [True, False], ids=["in-place", "reallocating"])
def test_failed_advance_keeps_the_contract(monkeypatch, fits):
    # RankDeficient keeps the steps before the failing one; a LAPACK NumericalError
    # (here in the second block of the call) leaves n_steps, logs() and frame as
    # they were. Logs written past n_steps by the failed call are overwritten by the
    # next one, which then ends where one clean call does.
    phis = _criterion7_phis(3000)
    trail = spectra.new_matrix_trail(4, 0.075)
    for lo, hi in ((0, 1500), (1500, 1600)) if fits else ((0, 50),):
        spectra.qr_advance_series(trail, phis[lo:hi])     # fits: n 1600, capacity 3000
    n, logs, frame = trail.n_steps, trail.logs(), trail.frame.copy()
    rest, kept = phis[n:n + spectra._QR_BLOCK + 100], logs.copy()

    real, calls = linalg.dgeqrf, []

    def dgeqrf(m):
        packed, tau, work, info = real(m)
        calls.append(None)
        return packed, tau, work, -1 if len(calls) > spectra._QR_BLOCK + 10 else info

    monkeypatch.setattr(linalg, "dgeqrf", dgeqrf)
    with pytest.raises(NumericalError):
        spectra.qr_advance_series(trail, rest)
    monkeypatch.undo()
    assert np.shares_memory(trail.logs(), logs) == fits
    assert trail.n_steps == n and np.array_equal(trail.logs(), kept)
    assert np.array_equal(logs, kept) and np.array_equal(trail.frame, frame)

    bad = rest.copy()
    bad[30] = 0.0
    with pytest.raises(RankDeficient, match=f"in step {n + 30}$") as exc:
        spectra.qr_advance_series(trail, bad)
    want = reference_trail(np.eye(4), np.concatenate([phis[:n], bad]))
    _assert_same((trail.logs(), trail.frame, str(exc.value)), want)
    assert trail.n_steps == n + 30 and np.array_equal(logs, kept)

    spectra.qr_advance_series(trail, rest[30:])
    want = _blocked(np.eye(4), phis[:n + len(rest)])
    _assert_same((trail.logs(), trail.frame, None), want)


# -- the exact facts the trail's raw-Q chain relies on ---------------------------

@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), data=st.data(),
       grade=st.floats(0.0, 30.0), zero_col=st.integers(-1, 5), zero_last_row=st.booleans())
def test_householder_qr_is_column_sign_equivariant(seed, rows, data, grade, zero_col,
                                                   zero_last_row):
    cols = data.draw(st.integers(1, rows))
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols)) * np.exp(rng.uniform(-grade, grade, cols))
    if 0 <= zero_col < cols:
        m[zero_col + 1:, zero_col] = 0.0     # a zero subcolumn: that reflector has tau = 0
    if zero_last_row:
        m[-1] = 0.0
    s = rng.choice([-1.0, 1.0], cols)
    packed, q = householder_qr(m)
    packed_s, q_s = householder_qr(m * s)
    assert np.array_equal(q_s, q)
    assert np.array_equal(packed_s.diagonal(), packed.diagonal() * s)
    upper = np.triu(np.ones((rows, cols), dtype=bool))     # R scaled by s, reflectors kept
    assert np.array_equal(packed_s, np.where(upper, packed * s, packed))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), data=st.data(),
       grade=st.floats(0.0, 20.0))
def test_matmul_commutes_with_column_signs(seed, d, data, grade):
    k = data.draw(st.integers(1, d))
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((d, d)) * np.exp(rng.uniform(-grade, grade, d))
    _, q = householder_qr(rng.standard_normal((d, k)))    # Fortran-ordered, as chained
    s = rng.choice([-1.0, 1.0], k)
    for frame in (q, np.ascontiguousarray(q)):
        for product in (np.dot, np.matmul):     # the trail steps through np.dot
            assert np.array_equal(product(phi, frame * s), product(phi, frame) * s)


@pytest.mark.parametrize("frame", [
    np.diag([-1.0, 1.0, -1.0, -1.0]),
    np.linalg.qr(np.arange(8.0).reshape(4, 2) ** 2 + np.eye(4, 2))[0],
], ids=["negated-columns", "tall-4x2"])
@pytest.mark.parametrize("at", [2 * spectra._QR_BLOCK, 2 * spectra._QR_BLOCK + 5, None])
def test_reference_from_signed_and_tall_frames(frame, at):
    # the failing step opens (or falls early in) the third block, so the frame kept
    # carries the signs of every step of the first two
    phis = _criterion7_phis(2 * spectra._QR_BLOCK + 40)
    if at is not None:
        phis[at] = 0.0
    want = reference_trail(frame, phis)
    assert (want[2] is None) == (at is None)
    _assert_same(_blocked(frame, phis), want)
    _assert_same(_blocked(frame, phis, [700, len(phis) - 700]), want)
