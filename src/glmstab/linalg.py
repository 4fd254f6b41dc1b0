"""Small dense linear-algebra kernel, and the one module that binds or calls LAPACK.

Direct LAPACK calls with deterministic conventions and explicit failure modes, on
small dense float64 arrays: positive-diagonal Householder QR and its rank guard,
guarded LU solves, and qr_chain, the blocked raw-Q loop of spectra's frame trail and
continuous-QR oracle.

The LAPACK routines are bound at import from scipy's compiled scipy/linalg/_flapack,
loaded from its file, so the scipy.linalg package's __init__ (numpy.f2py, the array-API
layer: most of start-up) does not run; without that file, from scipy.linalg.lapack,
which re-exports the same routine objects.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import numpy as np

from .errors import NumericalError, RankDeficient, Singular


def _flapack():
    """scipy's compiled LAPACK module, without running the scipy.linalg package."""
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy_dir, "linalg", "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from scipy.linalg import lapack
    return lapack


_LAPACK = _flapack()
dgeqrf, dgetrf, dgetrs, dorgqr = (_LAPACK.dgeqrf, _LAPACK.dgetrf, _LAPACK.dgetrs,
                                  _LAPACK.dorgqr)

RANK_TOL = 1e-14    # the rank guard: min|R_ii| must exceed this times max|m|


def qr_chain(q, step, args, pres, n0=0):
    """Chain LAPACK's raw Q from q through one step per arg, len(pres) steps a block.

    Per step, step(arg, q, out) writes the frame before its QR into the next row out of
    the buffer pres, whose dgeqrf + dorgqr give the next q, unflipped; a nonzero LAPACK
    info raises NumericalError at once, naming the step (args[0] is step n0). Per block
    it yields the R diagonals and the list qs of raw frames (qs[0] the block's first;
    emptied on the next request). Where step commutes exactly with +-1 column signs S,
    the raw chain is the positive-diagonal one times the running product of diag R's
    signs: Householder QR factors M S as Q, R S.
    """
    rows, cols = pres.shape[1:]
    for lo in range(0, len(args), max(len(pres), 1)):
        packs, qs = [], [q]
        for arg, pre in zip(args[lo:lo + len(pres)], pres):
            step(arg, q, pre)
            packed, tau, _, info = dgeqrf(pre)
            if info == 0:
                q, _, info = dorgqr(packed, tau)
            if info != 0:
                n = n0 + lo + len(packs)
                raise NumericalError(f"LAPACK QR failed in step {n}: info={info}")
            packs.append(packed)
            qs.append(q)
        # the Fortran-ordered packed factors side by side in one C copy, no Python
        # restack per step; the diagonals come out strided as a C-ordered stack's
        block = np.concatenate(packs, axis=1).reshape(rows, len(packs), cols)
        yield block.diagonal(0, 0, 2), qs
        qs.clear()


def rank_guard(ms: np.ndarray, diags: np.ndarray) -> int:
    """Matrices of the stack ms before the first that fails the rank guard, or len(ms):
    m (R diagonal in diags) passes if min|R_ii| > RANK_TOL * max|m|; NaN fails. Both
    extremes are taken along the stack axis of C-ordered (entries, matrices) copies,
    not over each matrix's short row of entries."""
    entries = ms.reshape(-1, ms.shape[-2] * ms.shape[-1]).T      # a view
    scale = np.max(np.abs(entries, order="C"), axis=0)
    ok = np.min(np.abs(diags.T, order="C"), axis=0) > RANK_TOL * scale
    return len(ok) if ok.all() else int(np.argmin(ok))


def rank_deficient(m: np.ndarray, diag: np.ndarray, where: str = "") -> RankDeficient:
    """The RankDeficient error for a matrix m whose R diagonal diag fails the guard;
    where, if given, ends the message (" in step 12", say)."""
    return RankDeficient(f"QR diagonal {np.min(np.abs(diag)):.3e} below tolerance "
                         f"{RANK_TOL:.1e} * {np.max(np.abs(m)):.3e}{where}")


def qr_positive(m):
    """Reduced QR factorization (q, r) of a tall or square m, r's diagonal nonnegative.

    Columns of q are flipped so every diagonal entry of r is >= 0; an m that fails
    the rank guard (a zero or non-finite m among them) raises RankDeficient. The
    factorization is deterministic for a given input.
    """
    m = np.asarray(m, dtype=float)
    packed, tau, _, info = dgeqrf(m)
    if info == 0:
        q, _, info = dorgqr(packed, tau)
    if info != 0:
        raise NumericalError(f"LAPACK QR returned info={info}")
    diag = packed.diagonal()
    if rank_guard(m[np.newaxis], diag[np.newaxis]) == 0:
        raise rank_deficient(m, diag)
    sign = np.copysign(1.0, diag)
    return (np.ascontiguousarray(q) * sign,
            np.triu(packed[:diag.size]) * sign[:, np.newaxis])


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
    scale = np.abs(a).max()
    pivot = np.abs(lu.diagonal()).min()
    # negated so that a NaN scale fails the guard as well
    if not (0.0 < scale < np.inf and pivot >= 1e-14 * scale):
        raise Singular(f"pivot {pivot:.3e} below 1e-14 * {scale:.3e}")
    x, info = dgetrs(lu, piv, rhs)
    if info != 0:
        raise NumericalError(f"LAPACK dgetrs returned info={info}")
    return x
