"""General linear methods on nonautonomous problems.

A method is the quadruple (U, V, C, D) with stage abscissae xi: per step from the
supervector X_n = (x_n, ..., x_{n+k-1}),

    G_n     = (U (x) I_d) X_n + h (C (x) I_d) F_n,        stages
    X_{n+1} = (V (x) I_d) X_n + h (D (x) I_d) F_n,        update

where F_n stacks f(g_{n,i}, t_n + xi_i h). For linear problems x' = A(t) x the step
is an explicit matrix recursion X_{n+1} = Phi(n;h) X_n with

    Phi(n;h) = (V (x) I) + h (D (x) I) M_n [I - h (C (x) I) M_n]^{-1} (U (x) I),

M_n = blockdiag(A(t_n + xi_i h)). Strict stability (unit eigenvalue of V simple, the
rest strictly inside the unit circle) is what makes the underlying one-step behavior
extractable; validation lives here.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import linalg
from .errors import (
    ConfigError,
    NewtonDiverged,
    NotStrictlyStable,
    NumericalError,
    ParameterOutsideGap,
    StageSingular,
)
from .problems import LinearProblem

UNIT_EIG_TOL = 1e-8     # |eig - 1| below this counts as the unit eigenvalue
STABLE_MARGIN = 1e-6    # all other eigenvalues need modulus <= 1 - STABLE_MARGIN
DIVERGENCE_FACTOR = 1e12    # run_linear's guard: ||X_n|| <= this * max(1, ||X_0||)
_RUN_CHUNK = 4096       # steps per transition_batch call in run_linear
NEWTON_TOL = 1e-12      # run_nonlinear's stage residual bound, times max(1, |U X_n|)
NEWTON_MAX_ITERS = 25   # Newton iterations per step before NewtonDiverged
GAP_Z_CAP = 100.0       # stability_gap's scan: z up to GAP_Z_CAP, on the grid of
GAP_SCAN_STEP = 0.01    # running sums of GAP_SCAN_STEP
_GAP_CHUNK = 1024       # grid points per batched solve and eigvals in stability_gap
_TRACE_MARGIN = 1e-8    # _scan_stable's trace bound must clear 1 + 1e-12 by this * max|M|


class GlmTableau:
    """A method's quadruple and abscissae, the arrays reshaped to float64 at
    construction: U (r, k), V (k, k), C (r, r), D (k, r) and xi (r,), the stage
    abscissae in units of h."""

    __slots__ = ("k", "r", "order", "U", "V", "C", "D", "xi")

    def __init__(self, k: int, r: int, order: int, U, V, C, D, xi):
        self.k = k                  # number of supervector blocks
        self.r = r                  # number of stages
        self.order = order          # classical order p
        self.U = np.asarray(U, dtype=float).reshape(r, k)
        self.V = np.asarray(V, dtype=float).reshape(k, k)
        self.C = np.asarray(C, dtype=float).reshape(r, r)
        self.D = np.asarray(D, dtype=float).reshape(k, r)
        self.xi = np.asarray(xi, dtype=float).reshape(r)


def check_strictly_stable(v: np.ndarray) -> np.ndarray:
    """Validate strict stability of an update matrix V; returns its eigenvalues.

    Exactly one eigenvalue within UNIT_EIG_TOL of 1, all others of modulus at most
    1 - STABLE_MARGIN; anything else, a NaN or inf entry included, NotStrictlyStable.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise NotStrictlyStable(f"V has a non-finite entry: {v.tolist()}")
    eigs = np.linalg.eigvals(v)
    unit = np.abs(eigs - 1.0) < UNIT_EIG_TOL
    if int(np.sum(unit)) != 1:
        raise NotStrictlyStable(
            f"need exactly one unit eigenvalue, found {int(np.sum(unit))} in {eigs}"
        )
    rest = np.abs(eigs[~unit])
    if rest.size and float(np.max(rest)) > 1.0 - STABLE_MARGIN:
        raise NotStrictlyStable(
            f"non-unit eigenvalue modulus {float(np.max(rest)):.12f} exceeds "
            f"{1.0 - STABLE_MARGIN:.6f} in {eigs}"
        )
    return eigs


# The built-in methods by name, as GlmTableau fields; each get_tableau builds fresh
# arrays from these lists.
_TABLEAUS = {
    # two-step BDF: one implicit stage g = x_{n+2}
    "bdf2": dict(k=2, r=1, order=2,
                 U=[[-1.0 / 3.0, 4.0 / 3.0]],
                 V=[[0.0, 1.0], [-1.0 / 3.0, 4.0 / 3.0]],
                 C=[[2.0 / 3.0]],
                 D=[[0.0], [2.0 / 3.0]],
                 xi=[2.0]),
    # two-step Adams-Bashforth: two explicit stages at the history points
    "ab2": dict(k=2, r=2, order=2,
                U=[[1.0, 0.0], [0.0, 1.0]],
                V=[[0.0, 1.0], [0.0, 1.0]],
                C=[[0.0, 0.0], [0.0, 0.0]],
                D=[[0.0, 0.0], [-0.5, 1.5]],
                xi=[0.0, 1.0]),
    # backward Euler
    "be": dict(k=1, r=1, order=1,
               U=[[1.0]], V=[[1.0]], C=[[1.0]], D=[[1.0]],
               xi=[1.0]),
}


def get_tableau(name: str) -> GlmTableau:
    """The built-in method of that name ("bdf2", "ab2" or "be"), its V checked by
    check_strictly_stable."""
    try:
        fields = _TABLEAUS[name]
    except KeyError:
        raise ConfigError(f"unknown method {name!r}; choose from {sorted(_TABLEAUS)}")
    tab = GlmTableau(**fields)
    check_strictly_stable(tab.V)
    return tab


class Trajectory:
    """A sampled discrete trajectory of supervectors X_n, blocks (x_n,...,x_{n+k-1})."""

    __slots__ = ("h", "t0", "d", "k", "states", "diverged_at")

    def __init__(self, h: float, t0: float, d: int, k: int, states: np.ndarray,
                 diverged_at: Optional[int] = None):
        self.h, self.t0 = h, t0
        self.d, self.k = d, k
        self.states = states                # (n_states, k*d)
        self.diverged_at = diverged_at

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.states.shape[0])

    def blocks(self) -> np.ndarray:
        """States reshaped to (n_states, k, d)."""
        return self.states.reshape(self.states.shape[0], self.k, self.d)

    def first_blocks(self) -> np.ndarray:
        return self.states[:, : self.d]

    def last_blocks(self) -> np.ndarray:
        return self.states[:, -self.d:]


def span_steps(h: float, t_final: float, t0: float) -> int:
    """Steps of size h from t0 to t_final; ConfigError unless h and the span are
    finite and positive and the span holds a finite number, at least one, of steps."""
    if not (math.isfinite(h) and h > 0.0):
        raise ConfigError(f"h must be finite and positive, got {h}")
    if not (math.isfinite(t_final - t0) and t_final > t0):
        raise ConfigError(f"t_final {t_final} must exceed t0 {t0}, both finite")
    steps = (t_final - t0) / h
    if not (math.isfinite(steps) and round(steps) >= 1):
        raise ConfigError(f"span [{t0}, {t_final}] must hold a finite number, at "
                          f"least one, of steps of h = {h}")
    return int(round(steps))


def stage_times(tab: GlmTableau, n, h: float, t0: float = 0.0) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    return t0 + (n[..., np.newaxis] + tab.xi) * h


def _kron_eye(m: np.ndarray, d: int) -> np.ndarray:
    """np.kron(m, np.eye(d)) as one broadcast product: the same bits, less set-up."""
    p, q = m.shape
    big = m[:, np.newaxis, :, np.newaxis] * np.eye(d)[:, np.newaxis, :]
    return big.reshape(p * d, q * d)


def _sum_of_products(lhs: np.ndarray, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = the sum over e of lhs[e] * rhs[e] (broadcast), added in ascending e to a
    zero start; the einsum order, so the bits of a dense contraction."""
    term = np.empty_like(out)
    for e in range(len(lhs)):
        np.multiply(lhs[e], rhs[e], out=term)
        np.add(out if e else 0.0, term, out=out)
    return out


def _stage_singular(s: np.ndarray, u_big: np.ndarray, n0: int) -> StageSingular:
    """The StageSingular error for the stack s of stage matrices of steps n0, n0 + 1,
    ... whose batched solve failed: solved one at a time, it names the first singular
    step. Only the failure path pays for this."""
    for i, s_n in enumerate(s):
        try:
            np.linalg.solve(s_n, u_big)
        except np.linalg.LinAlgError as exc:
            return StageSingular(f"stage system singular in step {n0 + i}: {exc}")
    return StageSingular(f"stage system singular in steps {n0} to {n0 + len(s) - 1}")


def transition_batch(tab: GlmTableau, prob: LinearProblem, n0: int, count: int,
                     h: float, t0: float = 0.0) -> np.ndarray:
    """Transition matrices Phi(n;h) for n = n0 .. n0+count-1, shape (count, kd, kd).

    The stage systems go to one batched LAPACK solve. The two products after it,
    M T and (D (x) I)(M T), are sums of elementwise products over the contraction
    index (_sum_of_products), with the step index last so each product runs along
    it. Every term of D (x) I is kept, zeros included, so inf and NaN spread as
    through the dense product; the bits are those of einsum.
    """
    d, k, r = prob.d, tab.k, tab.r
    eye = np.eye(d)
    ts = stage_times(tab, np.arange(n0, n0 + count), h, t0)      # (count, r)
    a_all = prob.batch(ts.ravel()).reshape(count, r, d, d)
    # S = I - h (C (x) I) M as (count, r, d, r, d), block by block
    s = np.empty((count, r, d, r, d))
    for i in range(r):
        for j in range(r):
            block, ident = s[:, i, :, j], (eye if i == j else 0.0)
            if tab.C[i, j] != 0.0:
                np.multiply(a_all[:, j], h * tab.C[i, j], out=block)
                np.subtract(ident, block, out=block)
            else:
                block[...] = ident
    u_big = _kron_eye(tab.U, d)                                  # (rd, kd)
    s = s.reshape(count, r * d, r * d)
    try:
        t_sol = np.linalg.solve(s, np.broadcast_to(u_big, (count,) + u_big.shape))
    except np.linalg.LinAlgError as exc:
        raise _stage_singular(s, u_big, n0) from exc
    # (M T)[i, x, m] = sum over e of A_i[x, e] T_i[e, m], as (r, d, kd, count)
    t_sol = t_sol.reshape(count, r, d, k * d).transpose(2, 1, 3, 0)
    mt = _sum_of_products(a_all.transpose(3, 1, 2, 0)[:, :, :, np.newaxis],
                          t_sol[:, :, np.newaxis], np.empty((r, d, k * d, count)))
    mt = mt.reshape(r * d, k * d, count)
    del s, t_sol                         # freed before the two (kd, kd, count) buffers
    # Phi = (V (x) I) + h (D (x) I) M T, as (kd, kd, count)
    phi = _sum_of_products(_kron_eye(tab.D, d).T[:, :, np.newaxis, np.newaxis],
                           mt[:, np.newaxis], np.empty((k * d, k * d, count)))
    np.multiply(phi, h, out=phi)
    np.add(_kron_eye(tab.V, d)[..., np.newaxis], phi, out=phi)
    return np.ascontiguousarray(phi.transpose(2, 0, 1))


def run_linear(tab: GlmTableau, prob: LinearProblem, x0_super: np.ndarray,
               n_steps: int, h: float, t0: float = 0.0,
               keep_transitions: bool = False,
               on_chunk: Optional[Callable[[int, np.ndarray], None]] = None):
    """Propagate the supervector recursion for n_steps.

    The trajectory is frozen (diverged flag + truncation) as soon as the norm exceeds
    DIVERGENCE_FACTOR * max(1, ||X_0||) or becomes non-finite; everything computed up
    to that point stays available. Returns the Trajectory, or (Trajectory, Phi-array)
    when keep_transitions is set. A start that is not finite raises NumericalError,
    a step count too large to hold ConfigError.

    Each chunk of _RUN_CHUNK steps is propagated first and guarded after: a step whose
    vectorized norm is not clearly below the guard is re-checked with
    np.linalg.norm, in order, so the first failing step and the states are the
    same as with a per-step check. Then on_chunk(base, phis) gets the Phi of the
    chunk's kept steps base, base + 1, ... (if any), as keep_transitions does.
    """
    kd = tab.k * prob.d
    x0_super = np.asarray(x0_super, dtype=float).reshape(kd)
    if not np.isfinite(x0_super).all():
        raise NumericalError(
            f"the start supervector is not finite: {x0_super.tolist()}")
    try:
        states = np.empty((n_steps + 1, kd))
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"cannot hold a run of {n_steps:.3g} steps: {exc}") from exc
    states[0] = x0_super
    guard = DIVERGENCE_FACTOR * max(1.0, float(np.linalg.norm(x0_super)))
    clear = guard * (1.0 - 1e-12)
    phis = np.empty((n_steps, kd, kd)) if keep_transitions else None

    diverged_at = None
    n_done = 0
    for base in range(0, n_steps, _RUN_CHUNK):
        cnt = min(_RUN_CHUNK, n_steps - base)
        block = transition_batch(tab, prob, base, cnt, h, t0)
        new = states[base + 1: base + cnt + 1]
        # steps past a divergence may overflow; they are cut off below
        with np.errstate(over="ignore", invalid="ignore"):
            for phi, x, out in zip(block, states[base: base + cnt], new):
                phi.dot(x, out)         # np.dot's C method, without its dispatcher
            norms = np.sqrt(np.einsum("ij,ij->i", new, new))
            for i in np.flatnonzero(~(norms <= clear)).tolist():
                norm = float(np.linalg.norm(new[i]))
                if not math.isfinite(norm) or norm > guard:
                    diverged_at = base + i + 1
                    break
        n_done = base + cnt if diverged_at is None else diverged_at - 1
        if n_done > base:                   # the hand-off of the kept steps
            if keep_transitions:
                phis[base: n_done] = block[: n_done - base]
            if on_chunk is not None:
                on_chunk(base, block[: n_done - base])
        if diverged_at is not None:
            break

    traj = Trajectory(h=h, t0=t0, d=prob.d, k=tab.k, states=states[: n_done + 1],
                      diverged_at=diverged_at)
    if keep_transitions:
        return traj, phis[: n_done]
    return traj


def start_rk4(prob_or_f, x0, t0: float, h: float, k: int) -> np.ndarray:
    """Classical RK4 starting procedure: supervector (x_0, x_1, ..., x_{k-1}).

    A start that overflows comes back non-finite, without a warning; run_linear
    raises NumericalError on it."""
    if isinstance(prob_or_f, LinearProblem):
        def f(x, t):
            return prob_or_f.batch(np.array([t], dtype=float))[0] @ x
    else:
        f = prob_or_f
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    blocks = [x]
    t = t0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k - 1):
            k1 = f(x, t)
            k2 = f(x + 0.5 * h * k1, t + 0.5 * h)
            k3 = f(x + 0.5 * h * k2, t + 0.5 * h)
            k4 = f(x + h * k3, t + h)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            blocks.append(x)
    return np.concatenate(blocks)


def lte_series(tab: GlmTableau, phis: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Vectorized restart defects for n = 0..len(phis)-1.

    refs holds reference values on the grid, shape (m, d) with m >= len(phis)+k, so
    defect n takes rows n..n+k-1 as exact history, one step by phis[n], and the
    2-norm of the newest block against row n+k. The defect scales like h^{p+1};
    divide by h for the per-step-rate convention.
    """
    n = phis.shape[0]
    k = tab.k
    d = refs.shape[1]
    if refs.shape[0] < n + k:
        raise ValueError(f"need {n + k} reference rows, got {refs.shape[0]}")
    hist = np.stack([refs[i: i + n] for i in range(k)], axis=1).reshape(n, k * d)
    stepped = np.einsum("npq,nq->np", phis, hist)
    defect = stepped[:, -d:] - refs[k: k + n]
    return np.linalg.norm(defect, axis=1)


def tau_max(lte_values: np.ndarray) -> float:
    """Largest finite consecutive LTE ratio LTE_{n+1}/LTE_n, NaN if there is none.

    A ratio over an exact-zero defect, or one that overflows, is not finite, so it
    never counts.
    """
    lte_values = np.asarray(lte_values, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        taus = lte_values[1:] / lte_values[:-1]
    finite = taus[np.isfinite(taus)]
    return float(np.max(finite)) if finite.size else math.nan


def run_nonlinear(tab: GlmTableau, f: Callable, jac: Callable, x0_super, n_steps: int,
                  h: float) -> Trajectory:
    """Integrate the GLM on x' = f(x,t) from t = 0 for n_steps, stages by at most
    NEWTON_MAX_ITERS Newton iterations to a relative residual of NEWTON_TOL, from an
    explicit-Euler predictor off the newest block. The state dimension is
    x0_super.size // tab.k.

    f and jac write into a stage vector and a block-diagonal Jacobian allocated once;
    a 2-norm is sqrt(v . v), np.linalg.norm's formula for a real vector, without its
    Python wrapper."""
    x0_super = np.asarray(x0_super, dtype=float)
    k, r = tab.k, tab.r
    d = x0_super.size // k
    u_big, c_big, v_big, d_big = (_kron_eye(m, d) for m in (tab.U, tab.C, tab.V, tab.D))
    eye_rd = np.eye(r * d)
    all_ts = stage_times(tab, np.arange(n_steps), h)             # (n_steps, r)
    states = np.empty((n_steps + 1, k * d))
    states[0] = x0_super.reshape(k * d)
    stages = [slice(i * d, (i + 1) * d) for i in range(r)]
    fg = np.empty(r * d)                 # f at the stages
    jblk = np.zeros((r * d, r * d))      # the stage Jacobians; off their blocks zero
    for n, ts in enumerate(all_ts):
        x_cur = states[n]
        base = u_big @ x_cur

        x_last = x_cur[-d:]
        f_last = f(x_last, (n + k - 1) * h)
        g = np.empty(r * d)
        for i, st in enumerate(stages):
            g[st] = x_last + (tab.xi[i] - (k - 1)) * h * f_last

        scale = max(1.0, math.sqrt(base.dot(base)))
        for _ in range(NEWTON_MAX_ITERS):
            for i, st in enumerate(stages):
                fg[st] = f(g[st], ts[i])
            resid = g - base - h * (c_big @ fg)
            if math.sqrt(resid.dot(resid)) <= NEWTON_TOL * scale:
                break                   # fg is f at the converged stages
            for i, st in enumerate(stages):
                jblk[st, st] = jac(g[st], ts[i])
            g = g - linalg.solve(eye_rd - h * (c_big @ jblk), resid)
        else:
            raise NewtonDiverged(
                f"stage Newton exceeded {NEWTON_MAX_ITERS} iterations at step {n} "
                f"(residual {math.sqrt(resid.dot(resid)):.3e})"
            )

        states[n + 1] = v_big @ x_cur + h * (d_big @ fg)
    return Trajectory(h=h, t0=0.0, d=d, k=k, states=states)


def scalar_transition(tab: GlmTableau, z) -> np.ndarray:
    """k x k transition of the method on the frozen scalar test equation, hx' = z x.

    A 1-D array of z gives one transition per z, shape (n, k, k), with the same bits
    as one call per z.
    """
    z = np.asarray(z, dtype=float)[..., np.newaxis, np.newaxis]
    s = np.eye(tab.r) - z * tab.C
    t_sol = np.linalg.solve(s, np.broadcast_to(tab.U, s.shape[:-1] + (tab.k,)))
    return tab.V + z * (tab.D @ t_sol)


def spectral_radius(tab: GlmTableau, z: float) -> float:
    """Spectral radius of scalar_transition(tab, z), inf where I - z C is singular."""
    try:
        return float(np.max(np.abs(np.linalg.eigvals(scalar_transition(tab, z)))))
    except np.linalg.LinAlgError:
        return math.inf


def _scan_stable(tab: GlmTableau, z: np.ndarray) -> np.ndarray:
    """spectral_radius(tab, z) <= 1 + 1e-12 on a 1-D grid, with eigvals run only where
    the trace bound cannot decide.

    Each eigenvalue has modulus at most rho(M), so rho(M) >= |tr M| / k. A z where
    that bound exceeds 1 + 1e-12 + _TRACE_MARGIN * max|M| is unstable without an
    eigensolve, and LAPACK would say so too: np.linalg.eigvals is dgeev, whose
    eigenvalues are exact for M + E with ||E||_2 <= p(k) eps ||M||_2 and p(k) a
    modest polynomial (LAPACK Users' Guide, 3rd ed., section 4.8). Its balancing is
    a permutation and a power-of-two diagonal similarity, which keep tr M exactly,
    and the Schur form is an orthogonal similarity, so the computed eigenvalues sum
    to tr M within about p(k) k^2 eps max|M|, far below 1e-8 max|M| for any small k.
    The bound exceeds 1 only where max|M| > 1 (|tr M| / k <= max|M|), so the margin
    also covers rounding the trace and the moduli; the largest computed modulus is
    then above 1 + 1e-12, the verdict spectral_radius gives. Every other point (a
    non-finite M or bound, a bound inside the margin) goes to eigvals, and a chunk
    whose solve or eigvals raises is redone one z at a time by spectral_radius, so
    every point's verdict is spectral_radius's.
    """
    try:
        m = scalar_transition(tab, z)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.abs(np.trace(m, axis1=-2, axis2=-1)) / tab.k
            margin = 1.0 + 1e-12 + _TRACE_MARGIN * np.max(np.abs(m), axis=(-2, -1))
        undecided = np.flatnonzero(~((bound > margin) & (bound < math.inf)))
        stable = np.zeros(len(z), dtype=bool)
        if undecided.size:
            rho = np.max(np.abs(np.linalg.eigvals(m[undecided])), axis=-1)
            stable[undecided] = rho <= 1.0 + 1e-12
        return stable
    except np.linalg.LinAlgError:
        return np.array([spectral_radius(tab, zi) <= 1.0 + 1e-12 for zi in z])


def stability_gap(tab: GlmTableau) -> float:
    """Length of the instability gap (0, delta) of the frozen scalar recursion.

    Scans the spectral radius of the scalar-test transition for z > 0 and returns the
    first z where it re-enters the closed unit disk (to ~1e-10 by bisection), or
    infinity (capped search) if the recursion never restabilizes below GAP_Z_CAP.
    The grid is the running sum of GAP_SCAN_STEP (np.cumsum, in order), scanned
    _GAP_CHUNK points per batch by _scan_stable: a point whose trace bound
    |tr M| / k clears 1 by the margin is unstable without an eigensolve, and
    np.linalg.eigvals decides the rest (ab2's points below z = 2/3, most of bdf2's
    and be's first chunk, where |tr M| / k <= 1). The 80-step bisection
    compares spectral_radius with 1 + 1e-12 at each midpoint and stops once a step
    leaves the bracket unchanged.
    """
    cap = GAP_Z_CAP + 1e-12
    grid = np.cumsum(np.full(int(cap / GAP_SCAN_STEP) + 2, GAP_SCAN_STEP))
    grid = grid[:np.searchsorted(grid, cap, side="right")]
    for base in range(0, len(grid), _GAP_CHUNK):
        stable = np.flatnonzero(_scan_stable(tab, grid[base: base + _GAP_CHUNK]))
        if stable.size:
            i = base + int(stable[0])
            lo, hi = (float(grid[i - 1]) if i else 1e-9), float(grid[i])
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                inside = spectral_radius(tab, mid) <= 1.0 + 1e-12
                bracket = (lo, mid) if inside else (mid, hi)
                if bracket == (lo, hi):
                    break
                lo, hi = bracket
            return 0.5 * (lo + hi)
    return math.inf


def require_inside_gap(tab: GlmTableau, D: float, L: float, h: float) -> float:
    """Validate resonant counterexample parameters against the method's gap.

    Needs 0 < D+L < delta/2 and 0 < h (D+L) < delta; returns delta or raises
    ParameterOutsideGap.
    """
    delta = stability_gap(tab)
    s = D + L
    if not (0.0 < s and (math.isinf(delta) or s < 0.5 * delta)):
        raise ParameterOutsideGap(
            f"D+L = {s:.6g} outside (0, delta/2) with delta = {delta:.6g}")
    if not (0.0 < h * s and (math.isinf(delta) or h * s < delta)):
        raise ParameterOutsideGap(
            f"h*(D+L) = {h * s:.6g} outside (0, delta) with delta = {delta:.6g}")
    return delta
