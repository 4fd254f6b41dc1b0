"""Small dense linear-algebra kernel.

Thin wrappers over numpy/scipy with deterministic conventions and explicit failure
modes: Householder QR on direct LAPACK calls and its positive-diagonal form, real
Schur form with eigenvalues read off the quasi-triangular blocks, Kronecker
products, and LU solves with a singularity guard.
Everything here operates on small dense float64 arrays (supervector dimensions are
k*d with k,d <= a few dozen).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgeqrf, dorgqr

from .errors import NoConvergence, NumericalError, RankDeficient, Singular

# Hard cap on the dimension accepted by the Schur reduction; the package only ever
# forms k x k (k <= 8-ish) and (k*d) x (k*d) matrices, so anything bigger is a bug.
SCHUR_MAX_DIM = 32


@dataclass
class QrFactors:
    q: np.ndarray
    r: np.ndarray


@dataclass
class RealSchur:
    orth: np.ndarray
    quasi_tri: np.ndarray
    eigs: np.ndarray  # complex, ordered along the diagonal blocks


def householder_qr(m):
    """Reduced Householder QR of a tall or square float64 m by LAPACK dgeqrf + dorgqr.

    Returns (packed, q): packed is dgeqrf's output, R in its upper triangle; q is the
    orthonormal factor with LAPACK's column signs. These are the same calls, and so
    the same bits, as np.linalg.qr, without its per-call wrapper cost. A nonzero
    LAPACK info raises NumericalError.
    """
    packed, tau, _, info = dgeqrf(m)
    if info == 0:
        q, _, info = dorgqr(packed, tau)
    if info != 0:
        raise NumericalError(f"LAPACK QR returned info={info}")
    return packed, q


def qr_positive(m, rank_tol=1e-14):
    """Reduced QR factorization (m tall or square) with a nonnegative-diagonal R.

    Columns of Q are flipped so every diagonal entry of R is >= 0; a diagonal entry
    below rank_tol * max|m|, a zero m or a non-finite m raises RankDeficient. The
    factorization is deterministic for a given input.
    """
    m = np.asarray(m, dtype=float)
    packed, q = householder_qr(m)
    diag = packed.diagonal()
    sign = np.copysign(1.0, diag)
    scale = np.max(np.abs(m)) if m.size else 0.0
    dmin = np.min(np.abs(diag))
    # negated so that a NaN or inf scale (non-finite m) fails the guard as well
    if not dmin > rank_tol * scale:
        raise RankDeficient(
            f"QR diagonal {dmin:.3e} below tolerance {rank_tol:.1e} * {scale:.3e}"
        )
    return QrFactors(q=np.ascontiguousarray(q) * sign,
                     r=np.triu(packed[:diag.size]) * sign[:, np.newaxis])


def _quasi_tri_eigs(t, tol=0.0):
    """Eigenvalues from the 1x1/2x2 diagonal blocks of a real quasi-triangular matrix."""
    n = t.shape[0]
    eigs = np.empty(n, dtype=complex)
    i = 0
    while i < n:
        if i + 1 < n and abs(t[i + 1, i]) > tol:
            a, b = t[i, i], t[i, i + 1]
            c, d = t[i + 1, i], t[i + 1, i + 1]
            mean = 0.5 * (a + d)
            disc = mean * mean - (a * d - b * c)
            if disc < 0.0:
                root = np.sqrt(-disc)
                eigs[i] = mean + 1j * root
                eigs[i + 1] = mean - 1j * root
            else:
                root = np.sqrt(disc)
                eigs[i] = mean + root
                eigs[i + 1] = mean - root
            i += 2
        else:
            eigs[i] = t[i, i]
            i += 1
    return eigs


def real_schur(m, max_sweeps=100):
    """Real Schur form m = Z T Z^T with eigenvalues read from T's diagonal blocks.

    max_sweeps caps the internal QR iteration; a convergence failure raises
    NoConvergence. Input must be square with dimension <= SCHUR_MAX_DIM.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"real_schur expects a square matrix, got shape {m.shape}")
    if m.shape[0] > SCHUR_MAX_DIM:
        raise ValueError(
            f"real_schur dimension {m.shape[0]} exceeds design bound {SCHUR_MAX_DIM}"
        )
    try:
        t, z = scipy.linalg.schur(m, output="real")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare in practice
        raise NoConvergence(f"Schur reduction failed within {max_sweeps} sweeps") from exc
    return RealSchur(orth=z, quasi_tri=t, eigs=_quasi_tri_eigs(t))


def kron(a, b):
    """Kronecker product a (x) b."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def solve(a, rhs):
    """Solve a @ x = rhs by partial-pivoted LU with a singularity guard.

    A pivot below 1e-14 * max|a| raises Singular instead of returning garbage.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    scale = np.max(np.abs(a))
    if scale == 0.0 or np.min(np.abs(np.diag(lu))) < 1e-14 * scale:
        raise Singular(
            f"pivot {np.min(np.abs(np.diag(lu))):.3e} below 1e-14 * {scale:.3e}"
        )
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
