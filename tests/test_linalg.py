"""Dense kernel: QR sign convention, Kronecker, guarded solves."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from glmstab import linalg
from glmstab.errors import RankDeficient, Singular


def _well_conditioned(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 3.0 * np.eye(n)


def test_qr_positive_reconstructs():
    m = _well_conditioned(0, 5)
    fac = linalg.qr_positive(m)
    assert np.allclose(fac.q @ fac.r, m, atol=1e-13)
    assert np.allclose(fac.q.T @ fac.q, np.eye(5), atol=1e-13)


def test_qr_positive_diagonal_sign():
    # flip a column so plain numpy QR would produce a negative diagonal entry
    m = _well_conditioned(1, 4)
    m[:, 2] *= -1.0
    fac = linalg.qr_positive(m)
    assert np.all(np.diag(fac.r) > 0.0)
    # R stays upper triangular after the sign fix
    assert np.allclose(np.tril(fac.r, k=-1), 0.0, atol=1e-14)


def test_qr_positive_rank_deficient():
    m = np.ones((3, 3))
    with pytest.raises(RankDeficient):
        linalg.qr_positive(m)
    with pytest.raises(RankDeficient):
        linalg.qr_positive(np.zeros((2, 2)))
    with pytest.raises(RankDeficient):
        linalg.qr_positive(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(RankDeficient):
        linalg.qr_positive(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_qr_positive_properties(seed, n):
    m = _well_conditioned(seed, n)
    fac = linalg.qr_positive(m)
    assert np.allclose(fac.q @ fac.r, m, atol=1e-12)
    assert np.allclose(fac.q.T @ fac.q, np.eye(n), atol=1e-12)
    assert np.min(np.diag(fac.r)) > 0.0


def test_kron_oracle():
    # the GLM blocks U (x) I_d, V (x) I_d... are np.kron of float tableau matrices
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = np.kron(a, np.eye(2))
    want = np.array([
        [1.0, 0.0, 2.0, 0.0],
        [0.0, 1.0, 0.0, 2.0],
        [3.0, 0.0, 4.0, 0.0],
        [0.0, 3.0, 0.0, 4.0],
    ])
    assert np.array_equal(out, want)


def test_solve_oracle():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = linalg.solve(a, np.array([3.0, 4.0]))
    assert np.allclose(a @ x, [3.0, 4.0], atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), nrhs=st.integers(0, 3),
       shift=st.sampled_from([0.0, 1e-3, 3.0]))
def test_solve_matches_scipy_lu_bits(seed, n, nrhs, shift):
    # the scipy.linalg.lu_factor + lu_solve pair the direct LAPACK calls replace
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + shift * np.eye(n)
    rhs = rng.standard_normal((n, nrhs) if nrhs else n)
    want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a, check_finite=False), rhs,
                                 check_finite=False)
    got = linalg.solve(a, rhs)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.filterwarnings("error")
def test_solve_singular():
    with pytest.raises(Singular):
        linalg.solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))
    with pytest.raises(Singular):
        linalg.solve(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(Singular):
        linalg.solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(Singular):
        linalg.solve(np.array([[1.0, 2.0], [3.0, np.nan]]), np.ones(2))
    with pytest.raises(Singular):
        linalg.solve(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(Singular):
        linalg.solve(np.array([[1.0, -np.inf], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(Singular):
        linalg.solve(np.diag([np.inf, np.inf]), np.ones(2))
