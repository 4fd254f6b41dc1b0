"""Chunked propagation of run_linear against the per-step loop it replaced.

The reference below is run_linear as it was before its divergence guard moved to
once per chunk: one product and one np.linalg.norm per step, stopping at the first
step whose norm is non-finite or exceeds the guard. run_linear must give the same
states, transitions, diverged flag and diverged_at, bit for bit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glmstab import cli, glm, problems
from glmstab.errors import ConfigError

pytestmark = pytest.mark.filterwarnings("error")

BDF2 = glm.get_tableau("bdf2")


def reference_run_linear(tab, prob, x0_super, n_steps, h, t0=0.0,
                         divergence_factor=1e12, chunk=4096):
    """Per-step loop: returns (states, phis, diverged, diverged_at)."""
    kd = tab.k * prob.d
    x0_super = np.asarray(x0_super, dtype=float).reshape(kd)
    states = np.empty((n_steps + 1, kd))
    states[0] = x0_super
    guard = divergence_factor * max(1.0, float(np.linalg.norm(x0_super)))
    phis = np.empty((n_steps, kd, kd))
    diverged, diverged_at, n_done = False, None, 0
    for base in range(0, n_steps, chunk):
        cnt = min(chunk, n_steps - base)
        block = glm.transition_batch(tab, prob, base, cnt, h, t0)
        phis[base: base + cnt] = block
        stop = False
        for i in range(cnt):
            # a non-finite or overflowing step makes the product or the norm
            # warn; the loop only needs their values
            with np.errstate(over="ignore", invalid="ignore"):
                nxt = block[i] @ states[base + i]
                norm = float(np.linalg.norm(nxt))
            if not math.isfinite(norm) or norm > guard:
                diverged, diverged_at, stop = True, base + i + 1, True
                break
            states[base + i + 1] = nxt
            n_done = base + i + 1
        if stop:
            break
    return states[: n_done + 1], phis[: n_done], diverged, diverged_at


def _guard_and_chunk(divergence_factor, chunk):
    """run_linear's guard factor and chunk size set to these, within the block."""
    return mock.patch.multiple(glm, DIVERGENCE_FACTOR=divergence_factor,
                               _RUN_CHUNK=chunk)


def assert_same_run(tab, prob, x0s, n_steps, h, t0=0.0, divergence_factor=1e12,
                    chunk=4096):
    """run_linear, with its guard factor and chunk size patched to these, against
    the reference: kept transitions, a bare run and the per-chunk hand-off."""
    want_states, want_phis, want_div, want_at = reference_run_linear(
        tab, prob, x0s, n_steps, h, t0, divergence_factor, chunk)
    calls = []
    with _guard_and_chunk(divergence_factor, chunk):
        traj, phis = glm.run_linear(tab, prob, x0s, n_steps, h, t0,
                                    keep_transitions=True)
        bare = glm.run_linear(tab, prob, x0s, n_steps, h, t0)
        handed = glm.run_linear(
            tab, prob, x0s, n_steps, h, t0,
            on_chunk=lambda base, phis: calls.append((base, phis.copy())))
    assert np.array_equal(traj.states, want_states)
    assert np.array_equal(phis, want_phis)
    assert traj.diverged == want_div
    assert traj.diverged_at == want_at
    assert np.array_equal(bare.states, want_states)
    assert (bare.diverged, bare.diverged_at) == (want_div, want_at)
    # the per-chunk hand-off: consecutive, never empty, and all of the kept Phi
    assert np.array_equal(handed.states, want_states)
    lengths = [len(phis) for _, phis in calls]
    assert all(lengths)
    assert [base for base, _ in calls] == [sum(lengths[:i]) for i in range(len(calls))]
    assert np.array_equal(np.concatenate([phis for _, phis in calls])
                          if calls else np.empty((0, 4, 4)), want_phis)
    return traj


@pytest.fixture
def served(monkeypatch):
    """Make glm.transition_batch serve rows of a given Phi stack."""
    def serve(phis):
        phis = np.asarray(phis, dtype=float)

        def batch(tab, prob, n0, count, h, t0=0.0):
            return phis[n0: n0 + count].copy()

        monkeypatch.setattr(glm, "transition_batch", batch)
        d = phis.shape[1] // BDF2.k            # the problem only sets the block size
        return problems.constant_problem(np.zeros((d, d)))
    return serve


def _rotations(n, kd=4, growth=1.0, seed=0):
    """n scaled random orthogonal kd x kd matrices: every step scales ||x|| by growth."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, kd, kd)))
    return growth * q


def _table1_problem():
    return problems.rotating_cosine_problem(
        problems.RotatingCosineParams(**cli.TABLE1_PROBLEM))


def test_table1_finest_row():
    prob = _table1_problem()
    h = 7.5e-4
    n = int(round(cli.TABLE1_TFINAL / h))
    x0s = glm.start_rk4(prob, (1.0, 0.0), 0.0, h, BDF2.k)
    traj = assert_same_run(BDF2, prob, x0s, n, h)
    assert traj.n_steps == n == 53333 and not traj.diverged


@pytest.mark.parametrize("n_steps, chunk", [(4095, 4096), (4096, 4096), (4097, 4096),
                                            (300, 1), (4097, 7), (0, 4096)])
def test_chunk_boundaries(n_steps, chunk):
    prob = _table1_problem()
    h = 0.01
    x0s = glm.start_rk4(prob, (1.0, 0.0), 0.0, h, BDF2.k)
    traj = assert_same_run(BDF2, prob, x0s, n_steps, h, chunk=chunk)
    assert traj.n_steps == n_steps


@pytest.mark.parametrize("at, chunk", [
    (1, 4096),          # the first step
    (1000, 4096),       # mid-chunk
    (4096, 4096),       # a chunk's last step
    (4097, 4096),       # a chunk's first step
    (1, 7), (10, 7), (14, 7), (15, 7), (1, 1), (9, 1),
])
def test_divergence_step(served, at, chunk):
    phis = _rotations(4200)
    phis[at - 1] *= 1e13                  # the step into state `at` leaves the guard
    phis[at + 2:] *= 1e300                # later steps in the chunk overflow
    prob = served(phis)
    x0s = np.array([0.6, 0.0, -0.8, 0.0])
    traj = assert_same_run(BDF2, prob, x0s, 4200, 0.1, chunk=chunk)
    assert traj.diverged and traj.diverged_at == at and traj.n_steps == at - 1


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("at", [1, 37, 4096, 4097])
def test_non_finite_transition(served, bad, at):
    phis = _rotations(4200, seed=1)
    phis[at - 1, 2, 1] = bad
    phis[at + 5, 0, 0] = math.nan         # past the divergence, in the same chunk
    prob = served(phis)
    traj = assert_same_run(BDF2, prob, np.array([1.0, 2.0, 3.0, 4.0]), 4200, 0.1)
    assert traj.diverged and traj.diverged_at == at
    assert np.all(np.isfinite(traj.states))


def test_norm_within_an_ulp_of_guard(served):
    phis = _rotations(3000, growth=1.001, seed=2)
    prob = served(phis)
    x0s = np.array([0.5, -0.5, 0.5, -0.5])          # ||x0|| = 1: the guard is the factor
    states, *_ = reference_run_linear(BDF2, prob, x0s, 3000, 0.1, divergence_factor=1e300)
    # norms grow by 1.001 per step, so the first state above a guard next to
    # ||x_j|| is x_j or x_{j+1}
    exact = np.array([np.linalg.norm(x) for x in states])
    assert np.all(np.diff(exact) > 0.0)
    # also steps whose summed-squares norm falls below, or above, np.linalg.norm
    fast = np.sqrt(np.einsum("ij,ij->i", states, states))
    below = np.flatnonzero(fast[1:-1] < exact[1:-1]) + 1
    above = np.flatnonzero(fast[1:-1] > exact[1:-1]) + 1
    assert below.size and above.size
    picks = {1024, 1500, int(below[len(below) // 2]), int(above[len(above) // 2])}
    for j in sorted(picks):
        norm = float(exact[j])
        for factor in (np.nextafter(norm, 0.0), norm, np.nextafter(norm, math.inf),
                       float(fast[j])):
            traj = assert_same_run(BDF2, prob, x0s, 3000, 0.1,
                                   divergence_factor=float(factor), chunk=1024)
            assert traj.diverged_at == (j if factor < norm else j + 1)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60), chunk=st.integers(1, 9),
       growth=st.floats(0.5, 2.0), factor=st.floats(1.0, 1e6),
       bad_at=st.integers(0, 80), bad=st.sampled_from([math.inf, math.nan, 1e300]))
def test_random_stacks(served, seed, n, chunk, growth, factor, bad_at, bad):
    phis = _rotations(max(n, 1), growth=growth, seed=seed)
    if bad_at < n:
        phis[bad_at, 1, 3] = bad
    prob = served(phis)
    x0s = np.random.default_rng(seed).standard_normal(4)
    assert_same_run(BDF2, prob, x0s, n, 0.1, divergence_factor=factor, chunk=chunk)


def test_on_chunk_cuts_the_diverging_chunk(served):
    # a step into the guard at the first step of the second chunk: no call for it;
    # mid-chunk: the chunk's steps before it
    for at, want in ((8, [(0, 7)]), (11, [(0, 7), (7, 3)])):
        phis = _rotations(20)
        phis[at - 1] *= 1e13
        prob = served(phis)
        calls = []
        with _guard_and_chunk(1e12, 7):
            traj = glm.run_linear(BDF2, prob, np.ones(4), 20, 0.1,
                                  on_chunk=lambda base, p: calls.append((base, len(p))))
        assert traj.diverged_at == at and calls == want


def test_step_count_too_large_to_hold():
    prob = _table1_problem()
    x0s = np.array([1.0, 0.0, 1.0, 0.0])
    with pytest.raises(ConfigError, match="cannot hold"):
        glm.run_linear(BDF2, prob, x0s, 10**300, 1e-300)


def test_unallocatable_step_count(monkeypatch):
    # the allocation fails as for a count beyond memory, without allocating it
    empty = np.empty

    def small_only(shape, *args, **kwargs):
        if shape[0] > 10**6:
            raise MemoryError(f"Unable to allocate array with shape {shape}")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", small_only)
    with pytest.raises(ConfigError, match="cannot hold"):
        glm.run_linear(BDF2, _table1_problem(), np.ones(4), 10**7, 0.1)
