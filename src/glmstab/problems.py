"""Test problems: rotating-cosine planar family, scalar cosine equation, tanh-forced
scalar ODE, and exact/reference solutions for them.

The rotating-cosine family is x' = A(t) x with

    A(t) = Q(t) B(t) Q(t)^T + omega_rate * J,
    B(t) = [[a1 cos t + b1, beta], [0, a2 cos t + b2]],
    Q(t) = rotation by angle omega(t) = omega_rate * t,  J = [[0,-1],[1,0]].

In the rotated frame y = Q^T x the system is upper triangular (y' = B y), which gives
closed-form solutions: the second component integrates directly and the first follows
by variation of constants with a composite Gauss-Legendre quadrature. The paper's
resonant step h sets omega_rate = 2*pi/h, so the rotation is invisible on the grid.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError, QuadratureUnderResolved

J = np.array([[0.0, -1.0], [1.0, 0.0]])

# Fixed-order Gauss-Legendre rule used inside each quadrature panel: the bits of
# np.polynomial.legendre.leggauss(10), written out so numpy.polynomial stays unloaded.
_GL_NODES = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244, -0.4333953941292472,
    -0.14887433898163122, 0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
    0.8650633666889845, 0.9739065285171717])
_GL_WEIGHTS = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982, 0.2692667193099965,
    0.2955242247147528, 0.2955242247147528, 0.2692667193099965, 0.219086362515982,
    0.1494513491505804, 0.06667134430868814])
_REF_CHUNK = 16         # times per propagate_exact call in reference_batch
QUAD_PANELS = 64        # panels of tanh_reference and reference_batch (and doubled)


class RotatingCosineParams:
    __slots__ = ("a1", "a2", "b1", "b2", "beta", "omega_rate")

    def __init__(self, a1: float, a2: float, b1: float, b2: float, beta: float,
                 omega_rate: float = 1.0):
        self.a1, self.a2 = a1, a2
        self.b1, self.b2 = b1, b2
        self.beta, self.omega_rate = beta, omega_rate
        if not (self.a1 > 0.0 and self.a2 > 0.0):
            warnings.warn(f"cosine amplitudes should be positive, got a1={self.a1}, a2={self.a2}")
        if not (self.b2 < self.b1 < 0.0):
            warnings.warn(f"offsets should satisfy b2 < b1 < 0, got b1={self.b1}, b2={self.b2}")


class ScalarCosineParams:
    __slots__ = ("D", "L", "omega")

    def __init__(self, D: float, L: float, omega: float = 1.0):
        self.D, self.L, self.omega = D, L, omega


class TanhForcedParams:
    __slots__ = ("a",)

    def __init__(self, a: float):
        self.a = a


class LinearProblem:
    """A linear nonautonomous system x' = A(t) x.

    batch maps a time vector (n,) to the (n, d, d) stack of A(t), and is the one way
    to read A(t): a single time t is batch(np.array([t]))[0].
    """

    __slots__ = ("d", "batch")

    def __init__(self, d: int, batch: Callable[[np.ndarray], np.ndarray]):
        self.d, self.batch = d, batch


def rotation(angle):
    """Planar rotation matrix; vectorized over an angle array to (n,2,2)."""
    angle = np.asarray(angle, dtype=float)
    c, s = np.cos(angle), np.sin(angle)
    out = np.empty(angle.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def rotating_cosine_A(p: RotatingCosineParams, t):
    """Coefficient matrix A(t); accepts scalar t or an array (vectorized).

    Entry (i, l) is the sum over j (outer) and k (inner) of (Q_ij B_jk) Q_lk, every
    term kept and added in that order to a zero start, plus omega_rate J_il: the order
    of a dense einsum. As elementwise products, a scalar t and an array of times give
    the same bits. The constant entries of B (beta and the zero below the diagonal)
    stay scalars.
    """
    t = np.asarray(t, dtype=float)[()]      # a scalar t stays a cheap numpy scalar
    w = p.omega_rate
    c, s, ct = np.cos(w * t), np.sin(w * t), np.cos(t)
    q = ((c, -s), (s, c))
    b = ((p.a1 * ct + p.b1, p.beta), (0.0, p.a2 * ct + p.b2))
    wj = w * J
    out = np.empty(np.shape(t) + (2, 2))
    for i in range(2):
        for l in range(2):
            acc = 0.0
            for j in range(2):
                for k in range(2):
                    acc = acc + q[i][j] * b[j][k] * q[l][k]
            out[..., i, l] = acc + wj[i, l]
    return out


def rotating_cosine_problem(p: RotatingCosineParams) -> LinearProblem:
    return LinearProblem(d=2, batch=lambda ts: rotating_cosine_A(p, ts))


def _panel_quadrature(f, lo, hi, panels, scratch=None):
    """Composite fixed-order Gauss-Legendre integral of a vectorized integrand.

    lo/hi may be arrays (broadcast against each other). f(s, out) writes the integrand
    on the full (targets, panels, nodes) grid s into out, and may overwrite s. Both
    grids are views of scratch, a flat float array of at least twice the grid's size
    that a caller may reuse, or else of a new one. Returns an array shaped like lo/hi.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    edges = np.linspace(0.0, 1.0, panels + 1)
    width = (hi - lo)[..., np.newaxis] * (edges[1:] - edges[:-1])  # (..., panels)
    mid_lo = lo[..., np.newaxis] + (hi - lo)[..., np.newaxis] * edges[:-1]
    half, size = 0.5 * width[..., np.newaxis], 2 * width.size * _GL_NODES.size
    s, vals = (np.empty(size) if scratch is None else scratch[:size]).reshape(
        (2,) + width.shape + _GL_NODES.shape)
    # nodes mapped into each panel: (..., panels, q)
    np.add(mid_lo[..., np.newaxis], np.multiply(half, _GL_NODES + 1.0, out=s), out=s)
    f(s, vals)
    vals *= np.multiply(half, _GL_WEIGHTS, out=s)
    return np.sum(vals, axis=(-2, -1))


def propagate_exact(p: RotatingCosineParams, t_from, x_from, dt, quad_points,
                    scratch=None):
    """Exact flow of the rotating-cosine system from (t_from, x_from) over dt.

    Vectorized over leading axes of t_from/x_from (x_from[..., 2]). quad_points is
    the number of quadrature panels for the variation-of-constants integral; it only
    matters when the second rotated component is nonzero. scratch: _panel_quadrature's.
    """
    t_from = np.asarray(t_from, dtype=float)
    x_from = np.asarray(x_from, dtype=float)
    t_to = t_from + dt
    w = p.omega_rate
    y_from = np.einsum("...ji,...j->...i", rotation(w * t_from), x_from)  # Q^T x
    y1, y2 = y_from[..., 0], y_from[..., 1]

    sin_from, sin_to = np.sin(t_from), np.sin(t_to)
    m1 = p.a1 * (sin_to - sin_from) + p.b1 * (t_to - t_from)
    m2 = p.a2 * (sin_to - sin_from) + p.b2 * (t_to - t_from)
    y2_to = y2 * np.exp(np.where(y2 == 0.0, 0.0, m2))   # no 0 * inf

    if np.any(y2 != 0.0) and p.beta != 0.0:
        def integrand(s, out):  # exp(-m1(s)) y2(s) / y2(t_from), broadcast over panels
            if p.a2 - p.a1:         # else the sine term is a signed zero: it adds no bit
                np.subtract(np.sin(s, out=out), sin_from[..., None, None], out=out)
                np.multiply(p.a2 - p.a1, out, out=out)
            np.subtract(s, t_from[..., np.newaxis, np.newaxis], out=s)
            np.multiply(p.b2 - p.b1, s, out=s)
            np.exp(np.add(out, s, out=out) if p.a2 - p.a1 else s, out=out)

        integral = _panel_quadrature(integrand, t_from, t_to, quad_points, scratch)
        y1_to = np.exp(m1) * (y1 + p.beta * y2 * integral)
    else:
        y1_to = np.exp(m1) * y1

    y_to = np.stack([y1_to, y2_to], axis=-1)
    return np.einsum("...ij,...j->...i", rotation(w * t_to), y_to)


def reference_batch(p: RotatingCosineParams, ts, x0=(1.0, 0.0), t0=0.0):
    """Reference solution x(t) of the rotating-cosine system at a vector of times; (n,2).

    Uses the triangular closed form in the rotated frame. When the second rotated
    component of x0 and beta are nonzero, the variation-of-constants integral is
    checked by doubling QUAD_PANELS, _REF_CHUNK times per propagate_exact call: the
    first time whose doubled-panel result moves by more than 1e-10 relative, or by
    NaN, raises QuadratureUnderResolved, and the doubled-panel results are
    returned. A vectorized norm clears the times clearly inside the bound; any
    other time is re-checked with np.linalg.norm, in order, so the values and the
    error are those of one check per time. Without the integral, the first time
    whose value is not finite raises NumericalError. Overflow raises no warning:
    only the typed error reports it.
    """
    ts = np.asarray(ts, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    y2_0 = float(np.einsum("ji,j->i", rotation(p.omega_rate * t0), x0)[1])
    if y2_0 == 0.0 or p.beta == 0.0:
        x_from = np.broadcast_to(x0, ts.shape + (2,))
        with np.errstate(over="ignore", invalid="ignore"):
            out = propagate_exact(p, np.full(ts.shape, t0), x_from, ts - t0, QUAD_PANELS)
        if not np.isfinite(out).all():
            bad = np.flatnonzero(~np.isfinite(out).all(axis=-1))[0]
            raise NumericalError(f"the exact solution is not finite at t={ts[bad]}")
        return out
    out = np.empty(ts.shape + (2,))
    # the two grids of a chunk's fine call, reused by every chunk and both calls
    scratch = np.empty(2 * _REF_CHUNK * 2 * QUAD_PANELS * _GL_NODES.size)
    for base in range(0, len(ts), _REF_CHUNK):
        t = ts[base: base + _REF_CHUNK]
        t_from, x_from = np.full(t.shape, t0), np.broadcast_to(x0, t.shape + (2,))
        with np.errstate(over="ignore", invalid="ignore"):
            coarse = propagate_exact(p, t_from, x_from, t - t0, QUAD_PANELS, scratch)
            fine = propagate_exact(p, t_from, x_from, t - t0, 2 * QUAD_PANELS, scratch)
            moved = np.linalg.norm(fine - coarse, axis=-1)
            scale = np.maximum(np.linalg.norm(fine, axis=-1), 1.0)
            for i in np.flatnonzero(~(moved <= 0.5e-10 * scale)).tolist():
                scale_i = max(float(np.linalg.norm(fine[i])), 1.0)
                moved_i = float(np.linalg.norm(fine[i] - coarse[i]))
                if not moved_i <= 1e-10 * scale_i:
                    raise QuadratureUnderResolved(
                        f"panel doubling moved the result by {moved_i / scale_i:.3e} "
                        f"(rel) at t={t[i]}")
        out[base: base + len(t)] = fine
    return out


def scalar_cosine_problem(p: ScalarCosineParams) -> LinearProblem:
    return LinearProblem(
        d=1, batch=lambda ts: (p.D * np.cos(p.omega * ts) + p.L)[:, np.newaxis, np.newaxis])


def scalar_cosine_reference(p: ScalarCosineParams, t):
    """Exact solution of x' = (D cos(omega t) + L) x with x(0) = 1.

    The first time whose value is not finite raises NumericalError; overflow raises
    no warning, only the typed error reports it."""
    t = np.asarray(t)
    with np.errstate(over="ignore", invalid="ignore"):
        if p.omega == 0.0:
            out = np.exp((p.D + p.L) * t)
        else:
            out = np.exp((p.D / p.omega) * np.sin(p.omega * t) + p.L * t)
    if not np.isfinite(out).all():
        bad = np.flatnonzero(~np.isfinite(out))[0]
        raise NumericalError(f"the exact solution is not finite at t={np.ravel(t)[bad]}")
    return out


def constant_problem(a) -> LinearProblem:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return LinearProblem(d=a.shape[0],
                         batch=lambda ts: np.broadcast_to(a, (len(ts),) + a.shape))


def tanh_rhs(p: TanhForcedParams, x, t):
    """Right-hand side of the tanh-forced scalar ODE x' = a x + tanh(t^2)."""
    return p.a * x + np.tanh(t * t)


def tanh_jac(p: TanhForcedParams, x, t):
    return np.array([[p.a]])


def tanh_reference(p: TanhForcedParams, t):
    """Variation-of-constants solution of the tanh-forced equation with x(0) = 0, on
    QUAD_PANELS."""
    def integrand(s, out):
        out[...] = np.exp(p.a * (t - s)) * np.tanh(s * s)

    return float(_panel_quadrature(integrand, 0.0, t, QUAD_PANELS))


ROTATING_KEYS = ("a1", "a2", "b1", "b2", "beta", "omega_rate")


def rotating_config(cfg: dict):
    """Parse a problem config dict into (params, t0, x0).

    Recognized keys: a1, a2, b1, b2, beta (required), omega_rate, t0, x0.
    Missing or unknown keys and non-finite values: ConfigError.
    """
    missing = [k for k in ("a1", "a2", "b1", "b2", "beta") if k not in cfg]
    if missing:
        raise ConfigError(f"problem config missing keys: {missing}")
    unknown = [k for k in cfg if k not in ROTATING_KEYS + ("t0", "x0")]
    if unknown:
        raise ConfigError(f"problem config has unknown keys: {unknown}")
    try:
        kwargs = {k: float(cfg[k]) for k in ROTATING_KEYS if k in cfg}
        t0 = float(cfg.get("t0", 0.0))
        x0 = np.asarray(cfg.get("x0", (1.0, 0.0)), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad problem parameter: {exc}") from exc
    if x0.shape != (2,):
        raise ConfigError(f"x0 must have two components, got shape {x0.shape}")
    nonfinite = [k for k, v in [*kwargs.items(), ("t0", t0), ("x0", x0)]
                 if not np.isfinite(v).all()]
    if nonfinite:
        raise ConfigError(f"problem parameters {nonfinite} must be finite")
    return RotatingCosineParams(**kwargs), t0, x0
