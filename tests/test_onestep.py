"""Spectral split of the update matrix, w-sequence extraction, initialization decay."""

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from glmstab import glm, onestep, problems
from glmstab.errors import DegenerateFit, NotStrictlyStable
from test_glm import leapfrog_tableau


def _rotating(beta=2.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = problems.RotatingCosineParams(a1=1.2, a2=1.2, b1=-0.14, b2=-0.15, beta=beta)
    return p, problems.rotating_cosine_problem(p)


def test_split_bdf2_oracle():
    split = onestep.spectral_split(glm.get_tableau("bdf2"))
    # unit eigenvector (1,1); the contraction-aligned row works out to (-1/2, 3/2)
    assert np.allclose(split.unit_row, [-0.5, 1.5], atol=1e-13)
    assert np.allclose(split.E22, [[1.0 / 3.0]], atol=1e-13)
    assert np.allclose(split.P @ split.Pinv, np.eye(2), atol=1e-13)
    v = glm.get_tableau("bdf2").V
    block = split.Pinv @ v @ split.P
    assert np.allclose(block, [[1.0, 0.0], [0.0, 1.0 / 3.0]], atol=1e-13)


def test_split_ab2_oracle():
    split = onestep.spectral_split(glm.get_tableau("ab2"))
    assert np.allclose(split.unit_row, [0.0, 1.0], atol=1e-13)
    assert np.allclose(split.E22, [[0.0]], atol=1e-13)


def test_split_be_oracle():
    split = onestep.spectral_split(glm.get_tableau("be"))
    assert np.array_equal(split.P, np.eye(1))
    assert np.array_equal(split.Pinv, np.eye(1))
    assert np.array_equal(split.unit_row, [1.0])
    assert split.E22.shape == (0, 0)


def test_split_rejects_unstable():
    with pytest.raises(NotStrictlyStable):
        onestep.spectral_split(leapfrog_tableau())      # V has eigenvalues +-1


def test_split_unit_row_annihilates_contraction():
    # unit_row maps the supervector onto the one-step mode: it must kill the
    # contracting eigendirection and fix the unit one
    for name in ("bdf2", "ab2"):
        tab = glm.get_tableau(name)
        split = onestep.spectral_split(tab)
        assert np.allclose(split.unit_row @ tab.V, split.unit_row, atol=1e-13)
        assert np.allclose(split.unit_row @ split.P[:, 1:], 0.0, atol=1e-13)


def test_extract_w_known_states():
    tab = glm.get_tableau("bdf2")
    traj = glm.Trajectory(h=0.1, t0=0.0, d=2, k=2,
                          states=np.array([[1.0, 0.0, 2.0, 1.0],
                                           [2.0, 1.0, 4.0, -1.0]]))
    w = onestep.extract_w(traj, onestep.spectral_split(tab))
    # w_n = -0.5 x_n + 1.5 x_{n+1} blockwise
    assert np.allclose(w.values, [[2.5, 1.5], [5.0, -2.0]], atol=1e-13)


def test_w_invariant_under_nonlead_column_rescale():
    _, prob = _rotating()
    tab = glm.get_tableau("bdf2")
    traj = glm.run_linear(tab, prob, glm.start_rk4(prob, (1.0, 0.0), 0.0, 0.05, 2), 30, 0.05)
    split = onestep.spectral_split(tab)
    scaled = onestep.SpectralSplit(
        P=split.P @ np.diag([1.0, 7.0]),
        Pinv=np.diag([1.0, 1.0 / 7.0]) @ split.Pinv,
        E22=split.E22,
        unit_row=(np.diag([1.0, 1.0 / 7.0]) @ split.Pinv)[0],
    )
    w1 = onestep.extract_w(traj, split)
    w2 = onestep.extract_w(traj, scaled)
    assert np.array_equal(w1.values, w2.values)


@dataclass
class DecayFit:
    gamma: float            # fitted per-step contraction factor
    prefactor: float
    n_used: int
    exact_match: bool = False


def initialization_decay(traj_a: glm.Trajectory, traj_b: glm.Trajectory,
                         split: onestep.SpectralSplit, min_samples: int = 10,
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


def test_initialization_decay_pure_contraction():
    # x' = 0: transitions reduce to V (x) I, so a start difference along the
    # contracting column shrinks by exactly E22 = 1/3 each step. Rounding noise
    # re-injected into the unit mode plateaus near 1e-15, so fit the clean prefix.
    tab = glm.get_tableau("bdf2")
    prob = problems.constant_problem(np.zeros((1, 1)))
    split = onestep.spectral_split(tab)
    x0 = np.array([1.0, 1.0])
    a = glm.run_linear(tab, prob, x0, 60, 0.1)
    b = glm.run_linear(tab, prob, x0 + 1e-3 * split.P[:, 1], 60, 0.1)
    fit = initialization_decay(a, b, split, max_samples=15)
    assert not fit.exact_match
    assert fit.gamma == pytest.approx(1.0 / 3.0, rel=1e-4)
    assert fit.prefactor == pytest.approx(1e-3, rel=1e-4)
    assert fit.n_used == 15


def test_initialization_decay_exact_match():
    tab = glm.get_tableau("bdf2")
    _, prob = _rotating()
    x0 = glm.start_rk4(prob, (1.0, 0.0), 0.0, 0.1, 2)
    a = glm.run_linear(tab, prob, x0, 20, 0.1)
    b = glm.run_linear(tab, prob, x0, 20, 0.1)
    fit = initialization_decay(a, b, onestep.spectral_split(tab))
    assert fit.exact_match
    assert fit.gamma == 0.0


def test_initialization_decay_underflow():
    # hand-built trajectories whose difference vanishes exactly after 5 rows:
    # the usable prefix is shorter than min_samples
    split = onestep.spectral_split(glm.get_tableau("bdf2"))
    base = np.zeros((40, 2))
    pert = base.copy()
    pert[:5] = 1e-3 * split.P[:, 1]
    a = glm.Trajectory(h=0.1, t0=0.0, d=1, k=2, states=base)
    b = glm.Trajectory(h=0.1, t0=0.0, d=1, k=2, states=pert)
    with pytest.raises(DegenerateFit):
        initialization_decay(a, b, split, min_samples=10)


def test_initialization_transient_rate_nonautonomous():
    # on the rotating problem the contraction-direction transient still dies at
    # per-step rate E22 + O(h); the perturbation's small unit-mode admixture is a
    # genuine solution and floors the difference, so only the early decay is fitted
    _, prob = _rotating()
    tab = glm.get_tableau("bdf2")
    h = 0.02
    split = onestep.spectral_split(tab)
    x0 = glm.start_rk4(prob, (1.0, 0.0), 0.0, h, 2)
    pert = x0 + 1e-3 * np.kron(split.P[:, 1], np.array([1.0, 0.0]))
    a = glm.run_linear(tab, prob, x0, 40, h)
    b = glm.run_linear(tab, prob, pert, 40, h)
    fit = initialization_decay(a, b, split, min_samples=3, max_samples=4)
    assert fit.gamma == pytest.approx(1.0 / 3.0, rel=0.05)
