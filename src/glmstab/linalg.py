"""Small dense linear-algebra kernel.

Thin wrappers over numpy/scipy with deterministic conventions and explicit failure
modes: Householder QR and guarded LU solves on direct LAPACK calls, and the
positive-diagonal form of the QR.
Everything here operates on small dense float64 arrays (supervector dimensions are
k*d with k,d <= a few dozen).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgetrf, dgetrs, dorgqr

from .errors import NumericalError, RankDeficient, Singular


@dataclass
class QrFactors:
    q: np.ndarray
    r: np.ndarray


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


def solve(a, rhs):
    """Solve a @ x = rhs by partial-pivoted LU (LAPACK dgetrf + dgetrs) with a guard.

    A pivot below 1e-14 * max|a|, or a NaN or inf in a, raises Singular instead of
    returning garbage. These are the calls scipy.linalg.lu_factor and lu_solve make,
    so the bits are the same, without their warning on an exactly zero pivot. A
    LAPACK argument error raises NumericalError.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    lu, piv, info = dgetrf(a)
    if info < 0:
        raise NumericalError(f"LAPACK dgetrf returned info={info}")
    scale = np.max(np.abs(a))
    pivot = np.min(np.abs(lu.diagonal()))
    # negated so that a NaN scale fails the guard as well
    if not (0.0 < scale < np.inf and pivot >= 1e-14 * scale):
        raise Singular(f"pivot {pivot:.3e} below 1e-14 * {scale:.3e}")
    x, info = dgetrs(lu, piv, rhs)
    if info != 0:
        raise NumericalError(f"LAPACK dgetrs returned info={info}")
    return x
