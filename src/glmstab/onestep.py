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

import numpy as np

from . import glm
from .errors import DegenerateFit

SPLIT_RESIDUAL_TOL = 1e-10


class SpectralSplit:
    __slots__ = ("P", "Pinv", "E22", "unit_row")

    def __init__(self, P: np.ndarray, Pinv: np.ndarray, E22: np.ndarray,
                 unit_row: np.ndarray):
        self.P, self.Pinv = P, Pinv
        self.E22 = E22              # (k-1, k-1); empty for one-step methods
        self.unit_row = unit_row    # first row of Pinv


class WSequence:
    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = values        # (n_states, d)


def _unit_eigvec(v: np.ndarray) -> np.ndarray:
    """Null vector of V - I via SVD, scaled so its largest-modulus entry is +1."""
    _, _, vt = np.linalg.svd(v - np.eye(v.shape[0]))
    vec = vt[-1]
    idx = int(np.argmax(np.abs(vec)))
    return vec / vec[idx]


def spectral_split(tab: glm.GlmTableau) -> SpectralSplit:
    """Split the tableau's V into its unit mode and the strictly contracting remainder.

    Raises NotStrictlyStable when the spectrum does not qualify.
    """
    v = tab.V
    glm.check_strictly_stable(v)
    k = v.shape[0]
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
    return WSequence(values=values)
