"""Underlying one-step behavior of a strictly stable method.

The update matrix V of a strictly stable method splits as P^{-1} V P =
blkdiag(1, E22) with rho(E22) < 1. The first row of P^{-1} (the "unit row") turns
the supervector trail into the scalar-per-component w-sequence

    w_n = sum_j p1j x_n^{(j)},

which follows the underlying one-step dynamics after an O(rho(E22)^n) initialization
transient. The split here is deterministic: a single reflector brings the unit
eigenvector to the leading coordinate, a 1 x (k-1) Sylvester row kills the coupling
block, and columns are normalized (leading column scaled so its largest entry is +1,
trailing columns to unit norm with positive leading sign).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import glm
from .errors import DegenerateFit

SPLIT_RESIDUAL_TOL = 1e-10


@dataclass
class SpectralSplit:
    P: np.ndarray
    Pinv: np.ndarray
    E22: np.ndarray          # (k-1, k-1); empty for one-step methods
    unit_row: np.ndarray     # first row of Pinv


@dataclass
class WSequence:
    values: np.ndarray       # (n_states, d)
    h: float
    t0: float


def _unit_eigvec(v: np.ndarray) -> np.ndarray:
    """Null vector of V - I via SVD, scaled so its largest-modulus entry is +1."""
    _, _, vt = np.linalg.svd(v - np.eye(v.shape[0]))
    vec = vt[-1]
    idx = int(np.argmax(np.abs(vec)))
    return vec / vec[idx]


def spectral_split(v_or_tab) -> SpectralSplit:
    """Split V into its unit mode and the strictly contracting remainder.

    Accepts a tableau or a bare update matrix. Raises NotStrictlyStable when the
    spectrum does not qualify.
    """
    v = v_or_tab.V if isinstance(v_or_tab, glm.GlmTableau) else np.asarray(v_or_tab, dtype=float)
    glm.check_strictly_stable(v)
    k = v.shape[0]
    if k == 1:
        return SpectralSplit(P=np.eye(1), Pinv=np.eye(1), E22=np.empty((0, 0)),
                             unit_row=np.array([1.0]))

    vec = _unit_eigvec(v)
    vhat = vec / np.linalg.norm(vec)
    u = vhat - np.eye(k)[:, 0]
    if np.linalg.norm(u) < 1e-12:
        q = np.eye(k)
    else:
        q = np.eye(k) - 2.0 * np.outer(u, u) / float(u @ u)
    m = q.T @ v @ q            # [[1, c], [~0, M22]]
    c = m[0, 1:]
    m22 = m[1:, 1:]
    # row Sylvester: z (I - M22) = -c
    z = np.linalg.solve((np.eye(k - 1) - m22).T, -c)
    t = np.eye(k)
    t[0, 1:] = z
    p = q @ t

    # column normalization: leading column largest entry -> +1, rest unit norm with
    # positive leading significant entry
    lead = p[:, 0]
    p[:, 0] = lead / lead[int(np.argmax(np.abs(lead)))]
    for j in range(1, k):
        col = p[:, j] / np.linalg.norm(p[:, j])
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0.0:
            col = -col
        p[:, j] = col

    pinv = np.linalg.inv(p)
    full = pinv @ v @ p
    e22 = full[1:, 1:]
    target = np.zeros_like(full)
    target[0, 0] = 1.0
    target[1:, 1:] = e22
    resid = float(np.max(np.abs(full - target)))
    if resid > SPLIT_RESIDUAL_TOL:
        raise DegenerateFit(f"split residual {resid:.3e} exceeds {SPLIT_RESIDUAL_TOL:.1e}")
    return SpectralSplit(P=p, Pinv=pinv, E22=e22, unit_row=pinv[0].copy())


def extract_w(traj: glm.Trajectory, split: SpectralSplit) -> WSequence:
    """w-sequence of a trajectory: unit-row contraction of each supervector."""
    blocks = traj.blocks()                      # (n, k, d)
    values = np.einsum("j,njd->nd", split.unit_row, blocks)
    return WSequence(values=values, h=traj.h, t0=traj.t0)


@dataclass
class DecayFit:
    gamma: float            # fitted per-step contraction factor
    prefactor: float
    n_used: int
    exact_match: bool = False


def initialization_decay(traj_a: glm.Trajectory, traj_b: glm.Trajectory,
                         split: SpectralSplit, min_samples: int = 10,
                         max_samples: Optional[int] = None) -> DecayFit:
    """Least-squares decay fit of the transformed difference of two trajectories.

    Transforms X_n^A - X_n^B by (P^{-1} (x) I_d) and fits log-norms against step
    index. Two identical starts are reported as an exact match; fewer than
    min_samples nonzero norms (underflow) raises DegenerateFit.
    """
    n = min(traj_a.states.shape[0], traj_b.states.shape[0])
    d = traj_a.d
    diff = (traj_a.states[:n] - traj_b.states[:n]).reshape(n, split.P.shape[0], d)
    trans = np.einsum("ij,njd->nid", split.Pinv, diff).reshape(n, -1)
    norms = np.linalg.norm(trans, axis=1)
    if float(np.max(norms)) == 0.0:
        return DecayFit(gamma=0.0, prefactor=0.0, n_used=n, exact_match=True)
    # underflow truncates the usable prefix; fit on the run before the first zero
    zero_idx = np.nonzero(norms == 0.0)[0]
    stop = int(zero_idx[0]) if zero_idx.size else n
    if max_samples is not None:
        stop = min(stop, max_samples)
    if stop < min_samples:
        raise DegenerateFit(f"only {stop} usable samples before underflow, need {min_samples}")
    idx = np.arange(stop)
    slope, intercept = np.polyfit(idx, np.log(norms[:stop]), 1)
    return DecayFit(gamma=float(np.exp(slope)), prefactor=float(np.exp(intercept)),
                    n_used=stop)
