"""Discrete QR trails and Lyapunov / Sacker-Sell spectral diagnostics.

A matrix trail propagates an orthonormal frame Q_n through transition matrices,
Phi Q_n = Q_{n+1} R_n with positive R diagonals, accumulating ln(R_n)_ii per mode.
A vector trail is the one-mode specialization driven by the w-sequence norms. All
exponent estimators consume the accumulated log-increments; windows are expressed
in step counts (N0 burn-in, N window length).

QrTrail is single-owner mutable state: advance functions mutate in place and return
it for chaining. Matrix trails and the continuous-QR oracle step by linalg.qr_chain.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import linalg
from .errors import ConfigError, OrthogonalityLost, WindowOutOfRange, ZeroVector
from .glm import span_steps
from .problems import LinearProblem


class QrTrail:
    __slots__ = ("h", "t0", "frame", "n_steps", "_buf")

    def __init__(self, h: float, t0: float, frame: Optional[np.ndarray], logs: np.ndarray):
        self.h, self.t0 = h, t0
        self.frame = frame      # (d, m) orthonormal frame; None for a vector trail
        self.n_steps = logs.shape[0]
        # (n_modes, capacity) log increments per step, mode-major; steps past n_steps
        # are free room. A one-mode trail's logs are not copied.
        self._buf = np.ascontiguousarray(logs.T)

    @property
    def n_modes(self) -> int:
        return self._buf.shape[0]

    def logs(self) -> np.ndarray:
        """The per-step log increments, one row per step, shape (n_steps, n_modes):
        a view, which later advances leave unchanged."""
        return self._buf[:, :self.n_steps].T


def new_matrix_trail(dim: int, h: float, t0: float = 0.0) -> QrTrail:
    """A matrix trail of no steps from the identity frame of size dim."""
    return QrTrail(h=h, t0=t0, frame=np.eye(dim), logs=np.empty((0, dim)))


# Steps per block of the two QR chains: bounds their buffers and the work past a failure.
_QR_BLOCK = 1024
DRIFT_TOL = 1e-6        # the oracle's bound on max|F^T F - I|, F a frame before its QR
DENOMINATOR_MODES = ("t0", "N0")            # mu_appr's time reference ...
SUM_START_MODES = ("origin", "window")      # ... and where its log-sum starts


def qr_advance_series(trail: QrTrail, phis: np.ndarray) -> QrTrail:
    """Advance a matrix trail through phis in order, one discrete QR step per phi.

    The trail ends bit for bit where stepping qr_positive one phi at a time leaves
    it; on a step that fails the rank guard it keeps the steps before and raises
    RankDeficient, and a nonzero LAPACK info NumericalError, the trail unchanged; both
    name the failing step n, the trail's step from Q_n to Q_{n+1}. The steps run
    through linalg.qr_chain, ndarray.dot itself the step, a C call with no numpy
    dispatcher; the rank guard (linalg.rank_guard), the logs and the signs are taken
    per block, vectorized, and the logs written into the trail's buffer in place.
    """
    phis = np.asarray(phis, dtype=float)
    n = end = trail.n_steps
    if n + len(phis) > trail._buf.shape[1]:     # at least double: O(n) copying in all
        buf = np.empty((trail.n_modes, max(2 * trail._buf.shape[1], n + len(phis))))
        buf[:, :n] = trail._buf[:, :n]
        trail._buf = buf
    # the raw frame (trail.frame is q * sign), the running signs
    q, sign = trail.frame, np.ones(trail.n_modes)
    ms = np.empty((min(len(phis), _QR_BLOCK),) + q.shape)   # phi @ Q_n, for the guard
    # a non-finite phi makes the product warn; the guard below turns it into RankDeficient
    with np.errstate(invalid="ignore", over="ignore"):
        for diags, qs in linalg.qr_chain(q, np.ndarray.dot, phis, ms, n):
            good = linalg.rank_guard(ms[:len(diags)], diags)
            trail._buf[:, end:end + good] = np.log(np.abs(diags[:good])).T
            end += good
            sign *= np.prod(np.copysign(1.0, diags[:good]), axis=0)
            q = qs[good]
            if good < len(diags):
                break
    trail.frame = np.multiply(q, sign, out=np.empty(q.shape))
    trail.n_steps = end
    if end - n < len(phis):       # the failing step is the next one
        raise linalg.rank_deficient(ms[good], diags[good], f" in step {end}")
    return trail


def vector_trail_from_values(values: np.ndarray, h: float, t0: float = 0.0) -> QrTrail:
    """Vector trail over a whole w-sequence at once (values shaped (n_states, d))."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    norms = np.linalg.norm(values, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVector(f"w vanished at index {int(np.argmin(norms > 0.0))}")
    return QrTrail(h=h, t0=t0, frame=None, logs=np.diff(np.log(norms))[:, np.newaxis])


def _cumlogs(trail: QrTrail) -> np.ndarray:
    """Running sums of the logs from 0, shaped (n_modes, n_steps + 1)."""
    cs = np.zeros((trail.n_modes, trail.n_steps + 1))
    np.cumsum(trail._buf[:, :trail.n_steps], axis=1, out=cs[:, 1:])
    return cs


class LyapunovEstimate:
    __slots__ = ("mu", "argmax_t")

    def __init__(self, mu: np.ndarray, argmax_t: np.ndarray):
        self.mu = mu                # per mode
        self.argmax_t = argmax_t    # time where the running max is attained, per mode


def mu_appr(trail: QrTrail, n0: int, n: int, denominator: str = "t0",
            sum_start: str = "origin") -> LyapunovEstimate:
    """Windowed upper Lyapunov-exponent estimate.

    Scans positions m = n0+1 .. n0+n and maximizes S(m) / (t_m - t_ref) per mode,
    where S(m) sums the log increments from the origin (sum_start="origin", default)
    or from the window start n0 (sum_start="window"), and t_ref is t0
    (denominator="t0", default) or t_{n0} (denominator="N0").
    """
    if n0 < 0 or n < 1:
        raise WindowOutOfRange(f"need n0 >= 0 and n >= 1, got n0={n0}, n={n}")
    if trail.n_steps < n0 + n:
        raise WindowOutOfRange(
            f"window needs {n0 + n} steps, trail has {trail.n_steps}")
    if denominator not in DENOMINATOR_MODES:
        raise ConfigError(f"unknown denominator mode {denominator!r}")
    if sum_start not in SUM_START_MODES:
        raise ConfigError(f"unknown sum_start mode {sum_start!r}")
    cs = _cumlogs(trail)
    js = 0 if sum_start == "origin" else n0
    t_ref = trail.t0 if denominator == "t0" else trail.t0 + n0 * trail.h
    ts = trail.t0 + np.arange(n0 + 1, n0 + n + 1) * trail.h
    ratios = np.subtract(cs[:, n0 + 1:n0 + n + 1], cs[:, js:js + 1])
    ratios /= ts - t_ref
    best = np.argmax(ratios, axis=1)
    return LyapunovEstimate(mu=ratios[np.arange(len(best)), best], argmax_t=ts[best])


class LyapunovEndpoints:
    __slots__ = ("eta", "mu", "burn_in")

    def __init__(self, eta: np.ndarray, mu: np.ndarray, burn_in: int):
        self.eta, self.mu, self.burn_in = eta, mu, burn_in


def lyapunov_endpoints(trail: QrTrail) -> LyapunovEndpoints:
    """Min/max of origin-anchored running averages over the tail after a burn-in of
    half the steps (n // 2); a trail of no steps leaves no tail (WindowOutOfRange)."""
    n, burn_in = trail.n_steps, trail.n_steps // 2
    if burn_in >= n:
        raise WindowOutOfRange(f"burn_in {burn_in} leaves no tail in {n} steps")
    ratios = _cumlogs(trail)[:, burn_in + 1:]
    ratios /= np.arange(burn_in + 1, n + 1) * trail.h
    return LyapunovEndpoints(eta=np.min(ratios, axis=1), mu=np.max(ratios, axis=1),
                             burn_in=burn_in)


class SackerSellEstimate:
    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: np.ndarray, beta: np.ndarray):
        self.alpha, self.beta = alpha, beta


def window_steps(H: float, h: float, n_steps: int) -> int:
    """Steps m = round(H / h) of a window H on a trail of n_steps steps of size h.
    h <= 0 or H / h not finite raises ConfigError; m < 2 or n_steps < 3 m,
    WindowOutOfRange."""
    if not (h > 0.0 and math.isfinite(H / h)):
        raise ConfigError(f"window H={H} at h={h} needs h > 0 and H / h finite")
    m = int(round(H / h))
    if m < 2:
        raise WindowOutOfRange(f"window H={H} shorter than 2 steps at h={h}")
    if n_steps < 3 * m:
        raise WindowOutOfRange(f"{n_steps} steps hold fewer than 3 windows of {m} steps")
    return m


def sacker_sell_window(trail: QrTrail, H: float) -> SackerSellEstimate:
    """Spectral-interval endpoints: extreme averages per mode over windows of H."""
    m = window_steps(H, trail.h, trail.n_steps)
    cs = _cumlogs(trail)
    avgs = np.subtract(cs[:, m:], cs[:, :-m])
    avgs /= m * trail.h
    return SackerSellEstimate(alpha=np.min(avgs, axis=1), beta=np.max(avgs, axis=1))


class IntegralSeparationReport:
    __slots__ = ("kind", "a", "b", "eps", "M", "min_window_avg", "max_abs_window_avg")

    def __init__(self, kind: str, a: float = math.nan, b: float = math.nan,
                 eps: float = math.nan, M: float = math.nan,
                 min_window_avg: float = math.nan, max_abs_window_avg: float = math.nan):
        self.kind = kind        # "separated" | "bounded-average" | "inconclusive"
        self.a = a              # fitted separation rate (separated)
        self.b = b              # fitted offset (separated)
        self.eps = eps          # fitted drift bound (bounded-average)
        self.M = M              # fitted oscillation bound (bounded-average)
        self.min_window_avg = min_window_avg
        self.max_abs_window_avg = max_abs_window_avg


def _max_rise(g: np.ndarray) -> float:
    """max over i < j of g[j] - g[i], from one running minimum."""
    return float(np.max(g[1:] - np.minimum.accumulate(g[:-1])))


def integral_separation_logs(logs: np.ndarray, h: float, i: int, j: int,
                             a0: float = 0.05, T0: float = 1.0) -> IntegralSeparationReport:
    """Classify the mode pair (i, j) by the behavior of its log-increment gap.

    logs holds one row of log increments per step of size h, as a trail's logs()
    returns them. Separated: every window of length >= T0 has average gap >= a0;
    reports the fitted pair (a, b) with a the worst long-window average and b the
    largest defect of the integral bound over all windows. Bounded-average:
    long-window averages stay within a0 of zero in modulus; reports (eps, M).
    Otherwise inconclusive. h and T0 must be finite and positive (ConfigError).

    With m0 = ceil(T0 / h) steps, the extreme averages over windows of m0 or more
    steps are reached at widths below 2 m0: a longer window splits into two windows
    of at least m0 steps, and its average lies between theirs. So only those widths
    are scanned, and b and M, maxima of g_j - g_i over i < j for a linear-in-time g,
    come from one running minimum: O(n m0) in the trail length n, not O(n^2).
    """
    if not (math.isfinite(h) and h > 0.0 and math.isfinite(T0) and T0 > 0.0):
        raise ConfigError(f"h and T0 must be finite and positive, got h={h}, T0={T0}")
    logs = np.atleast_2d(np.asarray(logs, dtype=float))
    n = logs.shape[0]
    m0 = max(int(math.ceil(T0 / h)), 1)
    if m0 > n:
        raise WindowOutOfRange(f"T0={T0} needs {m0} steps, trail has {n}")
    gap = logs[:, i] - logs[:, j]
    cs = np.concatenate([[0.0], np.cumsum(gap)])

    min_avg = math.inf
    max_abs_avg = 0.0
    for width in range(m0, min(2 * m0, n + 1)):
        sums = cs[width:] - cs[:-width]
        span = width * h
        lo, hi = float(np.min(sums)), float(np.max(sums))
        min_avg = min(min_avg, lo / span)
        max_abs_avg = max(max_abs_avg, max(hi, -lo) / span)

    k = h * np.arange(n + 1)
    if min_avg >= a0:
        # offset: largest defect of sum >= a * span over ALL windows
        b = max(0.0, _max_rise(min_avg * k - cs))
        return IntegralSeparationReport(
            kind="separated", a=min_avg, b=b,
            min_window_avg=min_avg, max_abs_window_avg=max_abs_avg)
    if max_abs_avg <= a0:
        eps = max_abs_avg
        m_bound = max(0.0, _max_rise(cs - eps * k), _max_rise(-cs - eps * k))
        return IntegralSeparationReport(
            kind="bounded-average", eps=eps, M=m_bound,
            min_window_avg=min_avg, max_abs_window_avg=max_abs_avg)
    return IntegralSeparationReport(
        kind="inconclusive",
        min_window_avg=min_avg, max_abs_window_avg=max_abs_avg)


class OracleTrail:
    __slots__ = ("ts", "b_diag", "h_fine")

    def __init__(self, ts: np.ndarray, b_diag: np.ndarray, h_fine: float):
        self.ts = ts            # (n+1,)
        self.b_diag = b_diag    # (n+1, d) instantaneous diagonal rates
        self.h_fine = h_fine


def continuous_qr_oracle(prob: LinearProblem, t_final: float, h_fine: float,
                         t0: float = 0.0) -> OracleTrail:
    """Continuous QR reduction oracle: integrate Q' = Q S(Q, A) by RK4 on a fine grid.

    S is the skew projection of Q^T A Q (strictly lower part reflected), so the upper
    triangular factor's diagonal rates are B_ii = (Q^T A Q)_ii, recorded at every node.
    The frame starts at I and is re-orthonormalized each step. A frame F before its
    QR with drift max|F^T F - I| beyond DRIFT_TOL, or a non-finite one, raises
    OrthogonalityLost, a nonzero LAPACK info NumericalError at once, and a step count
    (glm.span_steps(h_fine, t_final, t0)) too large to hold ConfigError.

    The drift check is the only one: a frame that passes it passes linalg.rank_guard.
    By Gershgorin, every eigenvalue of F^T F lies within d * DRIFT_TOL of 1, so
    min|R_ii| >= sigma_min(F) > 0.99 for d <= 1e4, far above linalg.RANK_TOL * max|F|.

    A(t) comes from three prob.batch calls up front (nodes, midpoints, step ends). The
    steps run through linalg.qr_chain, checked per block, vectorized, raising as a
    per-step check would. An RK4 step writes its products and sums with out= into
    buffers allocated once, through ndarray.dot and ufuncs, which no numpy dispatcher
    wraps. The rates come from one batched product over the raw frames kept at the
    nodes: diag(F^T A F) does not depend on F's column signs.
    """
    d = prob.d
    eye = np.eye(d)
    n = span_steps(h_fine, t_final, t0)
    try:
        frames = np.empty((n + 1, d, d))     # the raw frame at every node, C-ordered
        ts = t0 + h_fine * np.arange(n + 1)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"cannot hold an oracle run of {n:.3g} steps: {exc}") from exc
    a_nodes = prob.batch(ts)
    a_mid = prob.batch(ts[:-1] + 0.5 * h_fine)
    a_end = prob.batch(ts[:-1] + h_fine)
    half, sixth = 0.5 * h_fine, h_fine / 6.0
    lower = np.tri(d, k=-1, dtype=bool)
    low = np.zeros((d, d))               # strictly lower part of w; the rest stays zero
    qta, w, skew, stage, k1, k2, k3, k4 = np.empty((8, d, d))     # one step's work

    def rate(qm: np.ndarray, a: np.ndarray, out: np.ndarray) -> None:
        qm.T.dot(a, qta).dot(qm, w)
        np.copyto(low, w, where=lower)
        qm.dot(np.subtract(low, low.T, skew), out)   # Q times the skew projection of w

    def rk4(idx: int, qm: np.ndarray, out: np.ndarray) -> None:
        frames[idx] = qm     # the node's raw frame; numpy sums a C copy with the rates
        qm = frames[idx]     # faster than LAPACK's Fortran-ordered Q
        rate(qm, a_nodes[idx], k1)
        rate(np.add(qm, np.multiply(half, k1, stage), stage), a_mid[idx], k2)
        rate(np.add(qm, np.multiply(half, k2, stage), stage), a_mid[idx], k3)
        rate(np.add(qm, np.multiply(h_fine, k3, stage), stage), a_end[idx], k4)
        # qm + sixth * (k1 + 2 k2 + 2 k3 + k4), operation by operation in that order
        np.add(k1, np.multiply(2.0, k2, out), out)
        np.add(out, np.multiply(2.0, k3, k3), out)
        np.add(out, k4, out)
        np.add(qm, np.multiply(sixth, out, out), out)

    buf = np.empty((min(n, _QR_BLOCK), d, d))     # the block's frames before the QR
    q, lo = eye, 0                      # raw frame; block's first step
    # steps past a failing one may overflow; the check below discards them
    with np.errstate(invalid="ignore", over="ignore"):
        for diags, qs in linalg.qr_chain(q, rk4, range(n), buf):
            pres = buf[:len(diags)]
            drift = np.abs(np.matmul(pres.transpose(0, 2, 1), pres) - eye).max(axis=(1, 2))
            bad = np.flatnonzero(~(drift <= DRIFT_TOL))      # a NaN frame fails too
            if bad.size:
                raise OrthogonalityLost(f"frame drift {drift[bad[0]]:.3e} exceeds "
                                        f"{DRIFT_TOL:.1e} at t={ts[lo + bad[0] + 1]:.6g}")
            lo, q = lo + len(pres), qs[-1]
    frames[n] = q
    b_diag = np.matmul(np.matmul(frames.transpose(0, 2, 1), a_nodes), frames)
    return OracleTrail(ts=ts, b_diag=b_diag.diagonal(axis1=1, axis2=2).copy(),
                       h_fine=h_fine)


def integrate_diag(oracle: OracleTrail, t_a: float, t_b: float) -> np.ndarray:
    """Integral of the oracle's diagonal rates over [t_a, t_b] (composite Simpson).

    Endpoints must (nearly) coincide with oracle grid nodes. Simpson covers the
    even count of intervals from t_a; an odd count adds the trapezoid of the last
    interval, which is all a count of 1 gets. An endpoint that is not finite
    raises ConfigError.
    """
    ra, rb = ((t - oracle.ts[0]) / oracle.h_fine for t in (t_a, t_b))
    if not (math.isfinite(ra) and math.isfinite(rb)):
        raise ConfigError(f"integration endpoints [{t_a}, {t_b}] must be finite")
    ia, ib = int(round(ra)), int(round(rb))
    if not (0 <= ia < ib <= len(oracle.ts) - 1):
        raise WindowOutOfRange(f"[{t_a}, {t_b}] outside oracle span")
    seg = oracle.b_diag[ia: ib + 1]
    n_even = (ib - ia) // 2 * 2
    h = oracle.h_fine
    if n_even == 0:
        return 0.5 * h * (seg[0] + seg[1])
    w = np.ones(n_even + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    total = (h / 3.0) * (w[:, np.newaxis] * seg[:n_even + 1]).sum(axis=0)
    if n_even < ib - ia:
        total = total + 0.5 * h * (seg[-2] + seg[-1])
    return total
