"""Discrete QR trails and Lyapunov / Sacker-Sell spectral diagnostics.

A matrix trail propagates an orthonormal frame Q_n through transition matrices,
Phi Q_n = Q_{n+1} R_n with positive R diagonals, accumulating ln(R_n)_ii per mode.
A vector trail is the one-mode specialization driven by the w-sequence norms. All
exponent estimators consume the accumulated log-increments; windows are expressed
in step counts (N0 burn-in, N window length).

QrTrail is single-owner mutable state: advance functions mutate in place and return
the trail for chaining.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgeqrf, dorgqr

from . import linalg
from .errors import (ConfigError, NumericalError, OrthogonalityLost, WindowOutOfRange,
                     ZeroVector)
from .problems import LinearProblem


@dataclass
class QrTrail:
    h: float
    t0: float
    frame: Optional[np.ndarray]    # (d, m) orthonormal frame; None for a vector trail
    increments: np.ndarray         # (n_steps, n_modes) log increments, one row per step

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def n_modes(self) -> int:
        return self.increments.shape[1]

    def logs(self) -> np.ndarray:
        """Accumulated per-step log increments, shape (n_steps, n_modes)."""
        return self.increments


def new_matrix_trail(dim: int, h: float, t0: float = 0.0,
                     frame: Optional[np.ndarray] = None) -> QrTrail:
    if frame is None:
        frame = np.eye(dim)
    frame = np.array(frame, dtype=float)
    return QrTrail(h=h, t0=t0, frame=frame, increments=np.empty((0, frame.shape[1])))


# Steps per block of qr_advance_series: bounds its scratch buffers and the work done
# past a failing step.
_QR_BLOCK = 1024


def qr_advance_series(trail: QrTrail, phis: np.ndarray) -> QrTrail:
    """Advance a matrix trail through phis in order, one discrete QR step per phi.

    The trail ends bit for bit where stepping qr_positive one phi at a time leaves
    it; on a failing step it keeps every step before it and qr_positive raises
    RankDeficient for that step.

    The steps chain LAPACK's raw Q (dgeqrf + dorgqr on phi @ Q), unflipped: for a
    +-1 diagonal S, Householder QR factors M S exactly as Q, R S, and phi (Q S) is
    exactly (phi Q) S, so the raw chain has the same Q, |R_ii| and guard decisions,
    and the positive-diagonal frame is the raw Q times the running product of the
    signs of diag R, applied once at the end. The rank guard of qr_positive, the
    logs and the signs are taken per block of steps, vectorized.
    """
    phis = np.asarray(phis, dtype=float)
    d, k = trail.frame.shape
    ms = np.empty((min(len(phis), _QR_BLOCK), d, k))   # products phi @ Q_n, for the guard
    logs = np.empty((len(phis), k))    # this call's log increments
    q = trail.frame                    # the raw frame; trail.frame is q * sign
    sign = np.ones(k)
    done = 0
    # a non-finite phi makes matmul warn; the guard below turns it into RankDeficient
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, len(phis), _QR_BLOCK):
            block = phis[lo:lo + _QR_BLOCK]
            n = len(block)
            packs, qs = [], [q]        # the block's packed factors and raw frames
            for phi, m in zip(block, ms):
                np.matmul(phi, q, out=m)
                packed, tau, _, info = dgeqrf(m)
                if info == 0:
                    q, _, info = dorgqr(packed, tau)
                if info != 0:
                    raise NumericalError(f"LAPACK QR returned info={info}")
                packs.append(packed)
                qs.append(q)
            diags = np.diagonal(np.stack(packs), axis1=1, axis2=2)
            absd = np.abs(diags)
            # qr_positive's guard at its default rank_tol, negated the same way
            ok = np.min(absd, axis=1) > 1e-14 * np.max(np.abs(ms[:n]), axis=(1, 2))
            good = n if ok.all() else int(np.argmin(ok))
            np.log(absd[:good], out=logs[lo:lo + good])
            sign *= np.prod(np.copysign(1.0, diags[:good]), axis=0)
            q = qs[good]
            done = lo + good
            if good < n:
                break
    trail.frame = np.multiply(q, sign, out=np.empty((d, k)))
    trail.increments = np.concatenate([trail.increments, logs[:done]])
    if done < len(phis):
        linalg.qr_positive(ms[good])       # fails the same guard: raises RankDeficient
        raise AssertionError("block rank guard disagrees with qr_positive")
    return trail


def vector_trail_from_values(values: np.ndarray, h: float, t0: float = 0.0) -> QrTrail:
    """Vector trail over a whole w-sequence at once (values shaped (n_states, d))."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    norms = np.linalg.norm(values, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVector(f"w vanished at index {int(np.argmin(norms > 0.0))}")
    return QrTrail(h=h, t0=t0, frame=None,
                   increments=np.diff(np.log(norms))[:, np.newaxis])


def _cumlogs(trail: QrTrail) -> np.ndarray:
    logs = trail.logs()
    cs = np.zeros((logs.shape[0] + 1, logs.shape[1]))
    np.cumsum(logs, axis=0, out=cs[1:])
    return cs


@dataclass
class LyapunovEstimate:
    mu: np.ndarray           # per mode
    argmax_t: np.ndarray     # time where the running max is attained, per mode
    n0: int
    n: int
    denominator: str
    sum_start: str
    h: float
    t0: float


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
    if denominator not in ("t0", "N0"):
        raise ConfigError(f"unknown denominator mode {denominator!r}")
    if sum_start not in ("origin", "window"):
        raise ConfigError(f"unknown sum_start mode {sum_start!r}")
    cs = _cumlogs(trail)
    js = 0 if sum_start == "origin" else n0
    t_ref = trail.t0 if denominator == "t0" else trail.t0 + n0 * trail.h
    positions = np.arange(n0 + 1, n0 + n + 1)
    ts = trail.t0 + positions * trail.h
    sums = cs[positions] - cs[js]
    ratios = sums / (ts - t_ref)[:, np.newaxis]
    best = np.argmax(ratios, axis=0)
    mu = ratios[best, np.arange(ratios.shape[1])]
    return LyapunovEstimate(
        mu=mu, argmax_t=ts[best], n0=n0, n=n, denominator=denominator,
        sum_start=sum_start, h=trail.h, t0=trail.t0,
    )


@dataclass
class LyapunovEndpoints:
    eta: np.ndarray
    mu: np.ndarray
    burn_in: int


def lyapunov_endpoints(trail: QrTrail, burn_in: Optional[int] = None) -> LyapunovEndpoints:
    """Min/max of origin-anchored running averages over the tail after burn-in."""
    n = trail.n_steps
    if burn_in is None:
        burn_in = n // 2
    if burn_in >= n:
        raise WindowOutOfRange(f"burn_in {burn_in} leaves no tail in {n} steps")
    cs = _cumlogs(trail)
    positions = np.arange(burn_in + 1, n + 1)
    ratios = cs[positions] / (positions * trail.h)[:, np.newaxis]
    return LyapunovEndpoints(eta=np.min(ratios, axis=0), mu=np.max(ratios, axis=0),
                             burn_in=burn_in)


@dataclass
class SackerSellEstimate:
    alpha: np.ndarray
    beta: np.ndarray
    H: float
    m_steps: int


def sacker_sell_window(trail: QrTrail, H: float) -> SackerSellEstimate:
    """Windowed spectral-interval endpoints: extreme H-window averages per mode.

    Needs H >= 2h and a trail at least 3 windows long; an H/h that is not finite
    raises ConfigError.
    """
    ratio = H / trail.h
    if not math.isfinite(ratio):
        raise ConfigError(f"window H={H} at h={trail.h} must be finite")
    m = int(round(ratio))
    if m < 2:
        raise WindowOutOfRange(f"window H={H} shorter than 2 steps at h={trail.h}")
    n = trail.n_steps
    if n < 3 * m:
        raise WindowOutOfRange(f"trail of {n} steps shorter than 3 windows ({3 * m})")
    cs = _cumlogs(trail)
    span = m * trail.h
    avgs = (cs[m:] - cs[:-m]) / span
    return SackerSellEstimate(alpha=np.min(avgs, axis=0), beta=np.max(avgs, axis=0),
                              H=H, m_steps=m)


@dataclass
class IntegralSeparationReport:
    pair: tuple
    kind: str                # "separated" | "bounded-average" | "inconclusive"
    a: float = math.nan      # fitted separation rate (separated)
    b: float = math.nan      # fitted offset (separated)
    eps: float = math.nan    # fitted drift bound (bounded-average)
    M: float = math.nan      # fitted oscillation bound (bounded-average)
    min_window_avg: float = math.nan
    max_abs_window_avg: float = math.nan
    a0: float = math.nan
    T0: float = math.nan


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
            pair=(i, j), kind="separated", a=min_avg, b=b,
            min_window_avg=min_avg, max_abs_window_avg=max_abs_avg, a0=a0, T0=T0)
    if max_abs_avg <= a0:
        eps = max_abs_avg
        m_bound = max(0.0, _max_rise(cs - eps * k), _max_rise(-cs - eps * k))
        return IntegralSeparationReport(
            pair=(i, j), kind="bounded-average", eps=eps, M=m_bound,
            min_window_avg=min_avg, max_abs_window_avg=max_abs_avg, a0=a0, T0=T0)
    return IntegralSeparationReport(
        pair=(i, j), kind="inconclusive",
        min_window_avg=min_avg, max_abs_window_avg=max_abs_avg, a0=a0, T0=T0)


@dataclass
class OracleTrail:
    ts: np.ndarray           # (n+1,)
    b_diag: np.ndarray       # (n+1, d) instantaneous diagonal rates
    q_final: np.ndarray
    h_fine: float


def continuous_qr_oracle(prob: LinearProblem, t_final: float, h_fine: float,
                         t0: float = 0.0, q0: Optional[np.ndarray] = None,
                         drift_tol: float = 1e-6) -> OracleTrail:
    """Continuous QR reduction oracle: integrate Q' = Q S(Q, A) by RK4 on a fine grid.

    S is the skew projection of Q^T A Q (strictly lower part reflected), so the upper
    triangular factor's diagonal rates are B_ii = (Q^T A Q)_ii; those are recorded at
    every node. The frame is re-orthonormalized each step; drift beyond drift_tol, or a
    non-finite frame, before re-orthonormalization raises OrthogonalityLost, and a
    rank-deficient frame raises RankDeficient. A step h_fine that is not finite and
    positive, or a span without one such step, raises ConfigError.

    A(t) comes from three prob.batch calls up front (nodes, midpoints, step ends), and
    the rates from one batched product over the frames kept at the nodes.
    """
    d = prob.d
    eye = np.eye(d)
    q = eye if q0 is None else np.asarray(q0, dtype=float)
    if q.shape != (d, d):
        raise ConfigError(f"oracle frame q0 must be {d}x{d}, got shape {q.shape}")
    if not (math.isfinite(h_fine) and h_fine > 0.0):
        raise ConfigError(f"oracle step h_fine must be finite and positive, got {h_fine}")
    steps = (t_final - t0) / h_fine
    if not (math.isfinite(steps) and round(steps) >= 1):
        raise ConfigError(f"oracle span [{t0}, {t_final}] must be finite and hold "
                          f"at least one step of {h_fine}")
    n = int(round(steps))
    ts = t0 + h_fine * np.arange(n + 1)
    a_nodes = prob.batch(ts)
    a_mid = prob.batch(ts[:-1] + 0.5 * h_fine)
    a_end = prob.batch(ts[:-1] + h_fine)
    frames = np.empty((n + 1, d, d))     # the frame at every node, C-ordered
    frames[0] = q
    q = frames[0]
    half, sixth = 0.5 * h_fine, h_fine / 6.0
    lower = np.tri(d, k=-1, dtype=bool)
    low = np.zeros((d, d))               # strictly lower part of w; the rest stays zero

    def rate(qm: np.ndarray, a: np.ndarray) -> np.ndarray:
        w = qm.T @ a @ qm
        np.copyto(low, w, where=lower)
        return qm @ (low - low.T)        # Q times the skew projection of w

    for idx in range(n):
        k1 = rate(q, a_nodes[idx])
        k2 = rate(q + half * k1, a_mid[idx])
        k3 = rate(q + half * k2, a_mid[idx])
        k4 = rate(q + h_fine * k3, a_end[idx])
        q = q + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        drift = float(np.abs(q.T @ q - eye).max())
        if not drift <= drift_tol:         # a NaN frame fails too
            raise OrthogonalityLost(
                f"frame drift {drift:.3e} exceeds {drift_tol:.1e} at t={ts[idx + 1]:.6g}")
        packed, q_raw = linalg.householder_qr(q)
        diag = packed.diagonal()
        # qr_positive's rank guard at its default rank_tol, negated the same way
        if not np.abs(diag).min() > 1e-14 * np.abs(q).max():
            linalg.qr_positive(q)          # fails the same guard: raises RankDeficient
        q = np.multiply(q_raw, np.copysign(1.0, diag), out=frames[idx + 1])
    b_diag = np.matmul(np.matmul(frames.transpose(0, 2, 1), a_nodes), frames)
    return OracleTrail(ts=ts, b_diag=b_diag.diagonal(axis1=1, axis2=2).copy(),
                       q_final=q.copy(), h_fine=h_fine)


def integrate_diag(oracle: OracleTrail, t_a: float, t_b: float) -> np.ndarray:
    """Integral of the oracle's diagonal rates over [t_a, t_b] (composite Simpson).

    Endpoints must (nearly) coincide with oracle grid nodes; the node count in
    between is made even by splitting the last interval with a trapezoid if needed.
    An endpoint that is not finite raises ConfigError.
    """
    ra, rb = ((t - oracle.ts[0]) / oracle.h_fine for t in (t_a, t_b))
    if not (math.isfinite(ra) and math.isfinite(rb)):
        raise ConfigError(f"integration endpoints [{t_a}, {t_b}] must be finite")
    ia, ib = int(round(ra)), int(round(rb))
    if not (0 <= ia < ib <= len(oracle.ts) - 1):
        raise WindowOutOfRange(f"[{t_a}, {t_b}] outside oracle span")
    seg = oracle.b_diag[ia: ib + 1]
    n_int = ib - ia
    h = oracle.h_fine
    if n_int % 2 == 0:
        w = np.ones(n_int + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return (h / 3.0) * (w[:, np.newaxis] * seg).sum(axis=0)
    if n_int == 1:
        return 0.5 * h * (seg[0] + seg[1])
    head = integrate_diag(oracle, t_a, t_b - h)
    return head + 0.5 * h * (seg[-2] + seg[-1])
