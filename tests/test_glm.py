"""Method tableaus, exact linear transitions, steppers, restart defects, gap scan."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glmstab import glm, linalg, problems
from glmstab.errors import (
    ConfigError,
    NewtonDiverged,
    NotStrictlyStable,
    ParameterOutsideGap,
    Singular,
    StageSingular,
)


def _rotating(beta=10.0, **kw):
    base = dict(a1=1.2, a2=1.2, b1=-0.14, b2=-0.15, beta=beta)
    base.update(kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = problems.RotatingCosineParams(**base)
    return p, problems.rotating_cosine_problem(p)


def _at(prob, t):
    """A(t) at one time: the one-element batch."""
    return prob.batch(np.array([t]))[0]


def reference_transition(tab, prob, n, h, t0=0.0):
    """The one-step transition X_{n+1} = Phi(n;h) X_n, from a batch of one."""
    return glm.transition_batch(tab, prob, n, 1, h, t0)[0]


def reference_start(reference, t0, h, k):
    """Supervector of a reference solution sampled at t0, t0+h, ..., one time a call."""
    return np.concatenate([np.atleast_1d(np.asarray(reference(t0 + i * h), dtype=float))
                           for i in range(k)])


def reference_lte_probe(tab, prob, reference, n, h, t0=0.0):
    """One restart defect: exact history at t_n..t_{n+k-1}, one step, the 2-norm of
    the newest block against the reference at t_{n+k}."""
    tn = t0 + n * h
    nxt = reference_transition(tab, prob, n, h, t0) @ reference_start(reference, tn, h, tab.k)
    target = np.atleast_1d(np.asarray(reference(tn + tab.k * h), dtype=float))
    return float(np.linalg.norm(nxt[-prob.d:] - target))


# -- tableaus ---------------------------------------------------------------


def test_tableau_registry():
    for name, k, r, order in (("bdf2", 2, 1, 2), ("ab2", 2, 2, 2), ("be", 1, 1, 1)):
        tab = glm.get_tableau(name)
        assert (tab.k, tab.r, tab.order) == (k, r, order)
    with pytest.raises(ConfigError):
        glm.get_tableau("rk4")


@pytest.mark.parametrize("name", ["bdf2", "ab2", "be"])
def test_get_tableau_returns_fresh_arrays(name):
    # a caller that edits its tableau in place leaves the next one as it was
    first = glm.get_tableau(name)
    want = first.U.copy()
    first.U[...] = 7.0
    assert np.array_equal(glm.get_tableau(name).U, want)


def test_update_matrix_spectra():
    eigs = np.sort_complex(glm.check_strictly_stable(glm.get_tableau("bdf2").V))
    assert np.allclose(eigs, [1.0 / 3.0, 1.0], atol=1e-14)
    eigs = np.sort_complex(glm.check_strictly_stable(glm.get_tableau("ab2").V))
    assert np.allclose(eigs, [0.0, 1.0], atol=1e-14)
    assert np.allclose(glm.check_strictly_stable(glm.get_tableau("be").V), [1.0])


def leapfrog_tableau():
    """Explicit midpoint (leapfrog) two-step method; NOT strictly stable (eigs +-1):
    the canonical rejection example for the validator."""
    return glm.GlmTableau(
        k=2, r=1, order=2,
        U=[[0.0, 1.0]],
        V=[[0.0, 1.0], [1.0, 0.0]],
        C=[[0.0]],
        D=[[0.0], [2.0]],
        xi=[1.0],
    )


def test_leapfrog_rejected():
    # eigenvalues +-1: the parasitic root sits on the unit circle
    with pytest.raises(NotStrictlyStable):
        glm.check_strictly_stable(leapfrog_tableau().V)


def test_strict_stability_boundaries():
    with pytest.raises(NotStrictlyStable):
        glm.check_strictly_stable(np.eye(2))            # double unit eigenvalue
    with pytest.raises(NotStrictlyStable):
        glm.check_strictly_stable(np.diag([1.0, 1.0 - 1e-7]))   # inside margin
    glm.check_strictly_stable(np.diag([1.0, 1.0 - 1e-5]))       # outside margin


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_strictly_stable_rejects_non_finite(bad):
    with pytest.raises(NotStrictlyStable):
        glm.check_strictly_stable(np.array([[bad, 0.0], [0.0, 1.0]]))


def _rotation(angle, radius=1.0):
    c, s = radius * math.cos(angle), radius * math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _with_unit_mode(block):
    v = np.eye(len(block) + 1)
    v[1:, 1:] = block
    return v


def test_strictly_stable_bdf2_eigenvalues():
    v = np.array([[0.0, 1.0], [-1.0 / 3.0, 4.0 / 3.0]])
    eigs = np.sort_complex(glm.check_strictly_stable(v))
    assert np.allclose(eigs, [1.0 / 3.0, 1.0], atol=1e-13)


def test_strictly_stable_accepts_inner_complex_pair():
    eigs = np.sort_complex(glm.check_strictly_stable(_with_unit_mode(_rotation(1.0, 0.5))))
    want = np.sort_complex([0.5 * np.exp(-1j), 0.5 * np.exp(1j), 1.0])
    assert np.allclose(eigs, want, atol=1e-14)


def test_strictly_stable_rejects_unit_modulus_pair():
    with pytest.raises(NotStrictlyStable):
        glm.check_strictly_stable(leapfrog_tableau().V)              # eigenvalues +-1
    with pytest.raises(NotStrictlyStable):
        glm.check_strictly_stable(_with_unit_mode(_rotation(1.0)))   # e^{+-i}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 5))
def test_strictly_stable_accepts_similar_diagonal(seed, n):
    # S diag(1, lambda_1..lambda_n) S^-1 with |lambda_i| <= 0.9 is strictly stable
    rng = np.random.default_rng(seed)
    lams = rng.uniform(-0.9, 0.9, n)
    s = rng.standard_normal((n + 1, n + 1)) + 3.0 * np.eye(n + 1)
    v = s @ np.diag(np.concatenate([[1.0], lams])) @ np.linalg.inv(s)
    eigs = np.sort_complex(glm.check_strictly_stable(v))
    assert np.allclose(eigs, np.sort_complex(np.concatenate([[1.0], lams])), atol=1e-9)


# -- frozen scalar-test transitions ------------------------------------------


def test_scalar_transition_bdf2_oracle():
    # z = -1: stage factor 1/(1 - 2z/3) = 3/5, bottom row [-1/3, 4/3] * 3/5
    tab = glm.get_tableau("bdf2")
    phi = glm.scalar_transition(tab, -1.0)
    want = np.array([[0.0, 1.0], [-0.2, 0.8]])
    assert np.allclose(phi, want, atol=1e-15)
    # z -> 0 recovers V
    assert np.allclose(glm.scalar_transition(tab, 0.0), tab.V, atol=1e-15)


def test_linear_transition_constant_oracle():
    # frozen coefficient lambda = -2, h = 0.1: bottom row is [-1/3, 4/3] / S with
    # S = 1 - (2/3) h lambda = 17/15
    tab = glm.get_tableau("bdf2")
    prob = problems.constant_problem(-2.0)
    phi = reference_transition(tab, prob, 0, 0.1)
    assert np.allclose(phi[0], [0.0, 1.0], atol=1e-16)
    assert phi[1, 1] == pytest.approx(20.0 / 17.0, abs=1e-15)
    assert phi[1, 0] == pytest.approx(-5.0 / 17.0, abs=1e-15)
    assert phi[1, 1] == pytest.approx(1.17647058823529413, abs=1e-14)


def test_transition_batch_matches_single():
    _, prob = _rotating()
    tab = glm.get_tableau("bdf2")
    batch = glm.transition_batch(tab, prob, 3, 5, 0.1)
    for i in range(5):
        assert np.allclose(batch[i], reference_transition(tab, prob, 3 + i, 0.1),
                           atol=1e-14)


def einsum_transition_batch(tab, prob, n0, count, h, t0=0.0):
    """The transition kernel as first written: a zero-filled stage matrix, Kronecker
    products and two einsum contractions. The reference for glm.transition_batch."""
    d, k, r = prob.d, tab.k, tab.r
    ts = glm.stage_times(tab, np.arange(n0, n0 + count), h, t0)
    a_all = prob.batch(ts.ravel()).reshape(count, r, d, d)
    s = np.zeros((count, r, d, r, d))
    idx = np.arange(d)
    for i in range(r):
        s[:, i, idx, i, idx] = 1.0
        for j in range(r):
            if tab.C[i, j] != 0.0:
                s[:, i, :, j, :] -= h * tab.C[i, j] * a_all[:, j]
    s = s.reshape(count, r * d, r * d)
    u_big = np.kron(tab.U, np.eye(d))
    t_sol = np.linalg.solve(s, np.broadcast_to(u_big, (count,) + u_big.shape))
    mt = np.einsum("nide,niem->nidm", a_all, t_sol.reshape(count, r, d, k * d))
    d_big = np.kron(tab.D, np.eye(d))
    return np.kron(tab.V, np.eye(d)) + h * np.einsum(
        "pe,nem->npm", d_big, mt.reshape(count, r * d, k * d))


def _same_bits(got, want):
    """Equal values, NaN at the same places and the same sign on every zero."""
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got[got == 0.0]), np.signbit(want[want == 0.0])))


def _radau_iia2():
    """Two-stage Radau IIA as a one-step GLM (k = 1, r = 2, full C)."""
    return glm.GlmTableau(
        k=1, r=2, order=3,
        U=[[1.0], [1.0]], V=[[1.0]],
        C=[[5.0 / 12.0, -1.0 / 12.0], [3.0 / 4.0, 1.0 / 4.0]],
        D=[[3.0 / 4.0, 1.0 / 4.0]],
        xi=[1.0 / 3.0, 1.0],
    )


_KERNEL_TABLEAUS = {"bdf2": lambda: glm.get_tableau("bdf2"),
                    "ab2": lambda: glm.get_tableau("ab2"),
                    "be": lambda: glm.get_tableau("be"),
                    "radau2": _radau_iia2}
_KERNEL_PROBLEMS = {
    "rotating": lambda: _rotating()[1],
    "rotating-omega": lambda: _rotating(omega_rate=2.7)[1],
    "rotating-reversed": lambda: _rotating(omega_rate=-1.1)[1],
    "rotating-resonant": lambda: _rotating(omega_rate=2.0 * math.pi / 0.05)[1],
    "scalar-cosine": lambda: problems.scalar_cosine_problem(
        problems.ScalarCosineParams(D=0.7, L=0.1)),
    "constant": lambda: problems.constant_problem([[-2.0, 0.5], [0.0, -1.0]]),
    "constant-zero": lambda: problems.constant_problem([[0.0, -0.0], [-0.0, 0.0]]),
    "constant-3x3": lambda: problems.constant_problem(
        [[0.3, -1.0, 0.2], [0.0, -0.5, 1.0], [0.1, 0.0, -2.0]]),
    "planted-inf-nan": lambda: problems.constant_problem([[math.inf, 1.0], [0.0, math.nan]]),
    "planted-nan": lambda: problems.constant_problem([[1.0, math.nan], [0.0, -2.0]]),
    "planted-inf": lambda: problems.constant_problem([[0.0, -math.inf], [-0.0, 0.0]]),
}


@pytest.mark.parametrize("tab_name", sorted(_KERNEL_TABLEAUS))
@pytest.mark.parametrize("prob_name", sorted(_KERNEL_PROBLEMS))
def test_transition_batch_matches_einsum_reference(tab_name, prob_name):
    # elementwise multiply-adds in the einsum's order: the same bits, zero signs and
    # NaN places included, for any batch length, start step and start time
    tab, prob = _KERNEL_TABLEAUS[tab_name](), _KERNEL_PROBLEMS[prob_name]()
    for n0, count, h, t0 in ((0, 1, 0.07, 0.0), (5, 3, 0.05, 3.3), (2, 4096, 0.03, -1.2)):
        with np.errstate(invalid="ignore", over="ignore"):
            got = glm.transition_batch(tab, prob, n0, count, h, t0)
            want = einsum_transition_batch(tab, prob, n0, count, h, t0)
        assert _same_bits(got, want)
        assert got.flags.c_contiguous


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), r=st.integers(1, 3),
       c_scale=st.sampled_from([0.0, 0.3, 1.0]),
       prob_name=st.sampled_from(["rotating-omega", "scalar-cosine", "constant-3x3"]))
def test_transition_batch_drawn_tableaus_match_einsum(seed, k, r, c_scale, prob_name):
    rng = np.random.default_rng(seed)
    tab = glm.GlmTableau(
        k=k, r=r, order=1,
        U=rng.standard_normal((r, k)), V=rng.standard_normal((k, k)),
        C=rng.standard_normal((r, r)) * c_scale,
        D=rng.standard_normal((k, r)) * (rng.random((k, r)) < 0.7),
        xi=rng.uniform(0.0, 2.0, r),
    )
    prob = _KERNEL_PROBLEMS[prob_name]()
    # with k = d = 1 the (D (x) I) contraction is contiguous in both operands, and
    # einsum sums three or more such terms with its SIMD dot kernel, in another order
    assume(not (k == 1 and prob.d == 1 and r >= 3))
    try:
        want = einsum_transition_batch(tab, prob, 2, 37, 0.09, 0.4)
    except np.linalg.LinAlgError:
        with pytest.raises(StageSingular):
            glm.transition_batch(tab, prob, 2, 37, 0.09, 0.4)
        return
    assert _same_bits(glm.transition_batch(tab, prob, 2, 37, 0.09, 0.4), want)


def test_kron_eye_matches_kron():
    rng = np.random.default_rng(7)
    mats = [rng.standard_normal((3, 2)), np.array([[-0.0, math.inf], [math.nan, -1.0]])]
    for make in _KERNEL_TABLEAUS.values():
        tab = make()
        mats += [tab.U, tab.C, tab.V, tab.D]
    for m in mats:
        for d in (1, 2, 3):
            with np.errstate(invalid="ignore"):
                assert _same_bits(glm._kron_eye(m, d), np.kron(m, np.eye(d)))


def test_transition_batch_singular_stage():
    # backward Euler with h a = 1: the stage matrix 1 - h a is exactly zero
    prob = problems.constant_problem(2.0)
    with pytest.raises(StageSingular, match="in step 3:"):
        glm.transition_batch(glm.get_tableau("be"), prob, 3, 4, 0.5)


def test_singular_stage_named_mid_chunk():
    # a = 2 only at t = 3, the stage time of step 5 at h = 0.5: the error names that
    # step, not the first step of its chunk
    prob = problems.LinearProblem(
        d=1, batch=lambda ts: np.where(ts == 3.0, 2.0, -1.0)[:, np.newaxis, np.newaxis])
    tab = glm.get_tableau("be")
    with pytest.raises(StageSingular, match="in step 5:"):
        glm.transition_batch(tab, prob, 2, 6, 0.5)
    with pytest.raises(StageSingular, match="in step 5:"):
        glm.run_linear(tab, prob, np.ones(1), 10, 0.5)


def test_ab2_matches_textbook_recursion():
    _, prob = _rotating(beta=2.0)
    tab = glm.get_tableau("ab2")
    h = 0.05
    x0, x1 = np.array([1.0, 0.0]), np.array([0.9, 0.1])
    traj = glm.run_linear(tab, prob, np.concatenate([x0, x1]), 1, h)
    f0 = _at(prob, 0.0) @ x0
    f1 = _at(prob, h) @ x1
    want = x1 + h * (1.5 * f1 - 0.5 * f0)
    assert np.allclose(traj.states[1][2:], want, atol=1e-14)
    assert np.allclose(traj.states[1][:2], x1, atol=1e-16)


def test_be_matches_implicit_recursion():
    _, prob = _rotating(beta=2.0)
    tab = glm.get_tableau("be")
    h = 0.1
    x0 = np.array([1.0, -0.5])
    traj = glm.run_linear(tab, prob, x0, 1, h)
    want = np.linalg.solve(np.eye(2) - h * _at(prob, h), x0)
    assert np.allclose(traj.states[1], want, atol=1e-13)


# -- propagation -------------------------------------------------------------


def test_run_linear_telescopes_transitions():
    _, prob = _rotating()
    tab = glm.get_tableau("bdf2")
    x0s = glm.start_rk4(prob, (1.0, 0.0), 0.0, 0.05, tab.k)
    traj, phis = glm.run_linear(tab, prob, x0s, 40, 0.05, keep_transitions=True)
    x = x0s.copy()
    for n in range(40):
        x = phis[n] @ x
        assert np.allclose(traj.states[n + 1], x, atol=1e-12)
    assert traj.n_steps == 40
    assert not traj.diverged


def test_run_linear_divergence_guard():
    prob = problems.constant_problem(3.0)
    tab = glm.get_tableau("ab2")
    x0s = np.array([1.0, math.exp(3.0)])
    with mock.patch.object(glm, "DIVERGENCE_FACTOR", 1e6):
        traj, phis = glm.run_linear(tab, prob, x0s, 500, 1.0, keep_transitions=True)
    assert traj.diverged
    assert traj.diverged_at is not None
    assert traj.n_steps < 500
    assert phis.shape[0] == traj.n_steps
    assert np.all(np.isfinite(traj.states))


def test_run_linear_one_more_step_appends():
    _, prob = _rotating()
    tab = glm.get_tableau("bdf2")
    x0s = glm.start_rk4(prob, (1.0, 0.0), 0.0, 0.1, 2)
    short = glm.run_linear(tab, prob, x0s, 3, 0.1)
    longer = glm.run_linear(tab, prob, x0s, 4, 0.1)
    assert longer.n_steps == 4
    assert np.array_equal(longer.states[:4], short.states)
    assert np.allclose(longer.states[4],
                       reference_transition(tab, prob, 3, 0.1) @ short.states[3],
                       atol=1e-14)


def test_start_rk4_local_error():
    # one RK4 step on x' = x: error ~ h^5/120
    h = 0.1
    sup = glm.start_rk4(lambda x, t: x, (1.0,), 0.0, h, 2)
    err = abs(float(sup[1]) - math.exp(h))
    assert err == pytest.approx(h**5 / 120.0, rel=0.05)


def _former_coefficients(rng):
    """(problem, scalar coefficient) pairs: the coefficient is A(t) as
    LinearProblem.coefficient gave it for one time before batch was the one path."""
    for _ in range(40):
        kw = dict(a1=rng.uniform(0.1, 4.0), a2=rng.uniform(0.1, 4.0),
                  b1=rng.uniform(-1.0, 0.0), b2=rng.uniform(-1.0, 0.0),
                  beta=rng.uniform(-10.0, 10.0),
                  omega_rate=(rng.uniform(-3.0, 3.0),     # or the rate of a resonant step
                              2.0 * math.pi / rng.uniform(0.01, 1.0))[rng.integers(2)])
        p, prob = _rotating(**kw)
        yield prob, lambda t, p=p: problems.rotating_cosine_A(p, float(t))
        sp = problems.ScalarCosineParams(D=rng.uniform(-2.0, 2.0), L=rng.uniform(-2.0, 2.0),
                                         omega=rng.uniform(0.0, 20.0))
        yield (problems.scalar_cosine_problem(sp),
               lambda t, sp=sp: np.array([[float(sp.D * np.cos(sp.omega * float(t)) + sp.L)]]))
        a = rng.standard_normal((3, 3))
        yield problems.constant_problem(a), lambda t, a=a: a


def test_start_rk4_on_problem_matches_former_coefficient_start():
    # start_rk4 reads A(t) through a one-element batch; its values feed every digest,
    # so they must be the bits of the former per-time coefficient start
    rng = np.random.default_rng(17)
    for prob, coefficient in _former_coefficients(rng):
        x0 = rng.standard_normal(prob.d)
        t0 = (0.0, 3, rng.uniform(-20.0, 20.0))[rng.integers(3)]     # 3: an int t0
        h = rng.uniform(1e-4, 1.0)
        for k in (1, 2, 3, 5):
            got = glm.start_rk4(prob, x0, t0, h, k)
            want = glm.start_rk4(lambda x, t: coefficient(t) @ x, x0, t0, h, k)
            assert got.tobytes() == want.tobytes()


def test_start_from_reference_exact_samples():
    sup = reference_start(lambda t: np.array([t, t * t]), 1.0, 0.5, 2)
    assert np.array_equal(sup, [1.0, 1.0, 1.5, 2.25])


# -- restart defects ----------------------------------------------------------


def test_lte_probe_third_order_constant():
    # BDF2 restart defect on x' = x: (2/9) h^3 x'''(t_{n+2}) to leading order
    prob = problems.constant_problem(1.0)
    tab = glm.get_tableau("bdf2")
    ref = lambda t: np.array([math.exp(t)])
    h = 5e-3
    got = reference_lte_probe(tab, prob, ref, 0, h)
    assert got == pytest.approx((2.0 / 9.0) * h**3 * math.exp(2 * h), rel=0.02)
    # halving h divides the defect by ~8
    ratio = got / reference_lte_probe(tab, prob, ref, 0, h / 2.0)
    assert ratio == pytest.approx(8.0, rel=0.05)


def test_lte_series_matches_probe_loop():
    p, prob = _rotating(beta=2.0)
    tab = glm.get_tableau("bdf2")
    h, n = 0.05, 12
    times = h * np.arange(n + tab.k)
    refs = problems.reference_batch(p, times)
    phis = glm.transition_batch(tab, prob, 0, n, h)
    series = glm.lte_series(tab, phis, refs)
    ref = lambda t: problems.reference_batch(p, np.atleast_1d(t))[0]
    for j in (0, 5, 11):
        assert series[j] == pytest.approx(reference_lte_probe(tab, prob, ref, j, h),
                                          abs=1e-13)
    with pytest.raises(ValueError):
        glm.lte_series(tab, phis, refs[: n + 1])


def test_tau_series_oracle():
    taus, tau_max = glm.tau_series(np.array([1.0, 2.0, 6.0]))
    assert np.allclose(taus, [2.0, 3.0])
    assert tau_max == 3.0
    taus, tau_max = glm.tau_series(np.array([1.0, 0.0, 5.0]))
    assert taus[0] == 0.0 and math.isnan(taus[1])
    assert tau_max == 0.0
    _, tau_max = glm.tau_series(np.array([1.0]))
    assert math.isnan(tau_max)


# -- nonlinear stepping --------------------------------------------------------


def reference_solve(a, rhs):
    """linalg.solve as first written, its guard through np.max and np.min."""
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    lu, piv, info = linalg.dgetrf(a)
    assert info >= 0
    scale = np.max(np.abs(a))
    pivot = np.min(np.abs(lu.diagonal()))
    if not (0.0 < scale < np.inf and pivot >= 1e-14 * scale):
        raise Singular(f"pivot {pivot:.3e} below 1e-14 * {scale:.3e}")
    x, info = linalg.dgetrs(lu, piv, rhs)
    assert info == 0
    return x


def reference_run_nonlinear(tab, f, jac, x0_super, n_steps, h, tol=1e-12, max_iters=25):
    """glm.run_nonlinear as first written: stages built by np.concatenate and
    np.atleast_*, a fresh Jacobian per iteration, norms by np.linalg.norm. The
    reference for the states of glm.run_nonlinear, bit for bit."""
    x0_super = np.asarray(x0_super, dtype=float)
    k, r = tab.k, tab.r
    d = x0_super.size // k
    u_big, c_big, v_big, d_big = (np.kron(m, np.eye(d))
                                  for m in (tab.U, tab.C, tab.V, tab.D))
    eye_rd = np.eye(r * d)
    all_ts = glm.stage_times(tab, np.arange(n_steps), h)
    states = np.empty((n_steps + 1, k * d))
    states[0] = x0_super.reshape(k * d)
    for n, ts in enumerate(all_ts):
        x_cur = states[n]
        base = u_big @ x_cur
        x_last = x_cur[-d:]
        f_last = np.atleast_1d(f(x_last, (n + k - 1) * h))
        g = np.concatenate([x_last + (tab.xi[i] - (k - 1)) * h * f_last for i in range(r)])
        scale = max(1.0, float(np.linalg.norm(base)))
        for _ in range(max_iters):
            fg = np.concatenate([np.atleast_1d(f(g[i * d:(i + 1) * d], ts[i]))
                                 for i in range(r)])
            resid = g - base - h * (c_big @ fg)
            if float(np.linalg.norm(resid)) <= tol * scale:
                break
            jblk = np.zeros((r * d, r * d))
            for i in range(r):
                jblk[i * d:(i + 1) * d, i * d:(i + 1) * d] = np.atleast_2d(
                    jac(g[i * d:(i + 1) * d], ts[i]))
            g = g - reference_solve(eye_rd - h * (c_big @ jblk), resid)
        else:
            raise NewtonDiverged(f"step {n}")
        states[n + 1] = v_big @ x_cur + h * (d_big @ fg)
    return states


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["bdf2", "ab2", "be"])
def test_nonlinear_states_match_reference_bits(name):
    # the same states as the first-written loop, bit for bit: the norms, the guard's
    # reductions and the stage vectors are the same operations without numpy's wrappers
    tab = glm.get_tableau(name)
    for a, h, n, x0 in ((-1.5, 0.05, 60, 0.3), (-0.7, 0.02, 80, -1.1),
                        (-8.0, 0.1, 40, 2.0), (0.4, 0.013, 70, 0.05)):
        p = problems.TanhForcedParams(a=a)
        f = lambda x, t, p=p: problems.tanh_rhs(p, x, t + 0.4)    # the run from t = 0.4
        jac = lambda x, t, p=p: problems.tanh_jac(p, x, t + 0.4)
        x0s = glm.start_rk4(f, (x0,), 0.0, h, tab.k)
        got = glm.run_nonlinear(tab, f, jac, x0s, n, h)
        want = reference_run_nonlinear(tab, f, jac, x0s, n, h)
        assert np.array_equal(got.states, want)
    # a 2-D linear problem passed as f and jac, x and the Jacobian as full arrays
    _, prob = _rotating(beta=2.0)
    f = lambda x, t: _at(prob, t) @ x
    jac = lambda x, t: _at(prob, t)
    x0s = glm.start_rk4(prob, (1.0, -0.5), 0.0, 0.05, tab.k)
    got = glm.run_nonlinear(tab, f, jac, x0s, 50, 0.05)
    assert np.array_equal(got.states, reference_run_nonlinear(tab, f, jac, x0s, 50, 0.05))


def test_nonlinear_matches_linear_on_linear_problem():
    _, prob = _rotating(beta=2.0)
    tab = glm.get_tableau("bdf2")
    h = 0.05
    x0s = glm.start_rk4(prob, (1.0, 0.0), 0.0, h, tab.k)
    lin = glm.run_linear(tab, prob, x0s, 10, h)
    f = lambda x, t: _at(prob, t) @ x
    jac = lambda x, t: _at(prob, t)
    non = glm.run_nonlinear(tab, f, jac, x0s, 10, h)
    assert np.allclose(lin.states, non.states, atol=1e-11)


def test_nonlinear_second_order_on_tanh():
    p = problems.TanhForcedParams(a=-0.7)
    tab = glm.get_tableau("bdf2")
    f = lambda x, t: problems.tanh_rhs(p, x, t)
    jac = lambda x, t: problems.tanh_jac(p, x, t)
    errs = []
    for h in (0.02, 0.01):
        n = int(round(1.0 / h))
        x0s = reference_start(lambda t: np.array([problems.tanh_reference(p, t)]),
                              0.0, h, tab.k)
        traj = glm.run_nonlinear(tab, f, jac, x0s, n, h)
        t_last = (n + tab.k - 1) * h     # newest block of the final supervector
        errs.append(abs(float(traj.states[-1][-1]) - problems.tanh_reference(p, t_last)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["bdf2", "be", "ab2"],
                         ids=lambda name: f"explicit-euler-{name}")   # the one predictor
def test_nonlinear_states_match_scipy_lu_solve(name, monkeypatch):
    # reference: the scipy.linalg.lu_factor + lu_solve pair linalg.solve replaced
    p = problems.TanhForcedParams(a=-1.5)
    tab = glm.get_tableau(name)
    f = lambda x, t: problems.tanh_rhs(p, x, t)
    jac = lambda x, t: problems.tanh_jac(p, x, t)
    x0s = glm.start_rk4(f, (0.3,), 0.0, 0.05, tab.k)
    got = glm.run_nonlinear(tab, f, jac, x0s, 60, 0.05)

    def lu_solve(a, rhs):
        lu = scipy.linalg.lu_factor(a, check_finite=False)
        return scipy.linalg.lu_solve(lu, rhs, check_finite=False)

    monkeypatch.setattr(linalg, "solve", lu_solve)
    want = glm.run_nonlinear(tab, f, jac, x0s, 60, 0.05)
    assert np.array_equal(got.states, want.states)


def test_newton_budget_exhausted():
    tab = glm.get_tableau("be")
    f = lambda x, t: x * x
    jac = lambda x, t: np.atleast_2d(2.0 * x)
    with mock.patch.object(glm, "NEWTON_MAX_ITERS", 2), \
            pytest.raises(NewtonDiverged, match="exceeded 2 iterations at step 0"):
        glm.run_nonlinear(tab, f, jac, np.array([10.0]), 1, 1.0)


def test_newton_cost_independent_of_start_time():
    # the predictor steps from the newest block by the stage abscissa, so the
    # Newton iterations per step do not grow with the absolute time
    tab = glm.get_tableau("bdf2")
    h, n = 0.05, 200
    per_step = []
    for t0 in (0.0, 50.0, 200.0):       # the run from t0, as a run from 0 shifted by t0
        calls = []

        def f(x, t, t0=t0):
            return -x ** 3 + math.sin(t + t0)

        def jac(x, t):
            calls.append(t)
            return np.atleast_2d(-3.0 * x * x)

        x0s = glm.start_rk4(f, (0.5,), 0.0, h, tab.k)
        glm.run_nonlinear(tab, f, jac, x0s, n, h)
        per_step.append(len(calls) / n)
    assert max(per_step) - min(per_step) <= 0.05, per_step


# -- frozen-coefficient stability gap -----------------------------------------


def test_stability_gap_frozen_values():
    assert glm.stability_gap(glm.get_tableau("bdf2")) == pytest.approx(4.0, abs=1e-6)
    assert glm.stability_gap(glm.get_tableau("be")) == pytest.approx(2.0, abs=1e-6)
    assert math.isinf(glm.stability_gap(glm.get_tableau("ab2")))


def test_require_inside_gap():
    tab = glm.get_tableau("bdf2")
    assert glm.require_inside_gap(tab, 0.3, -0.1, 0.5) == pytest.approx(4.0, abs=1e-6)
    with pytest.raises(ParameterOutsideGap):
        glm.require_inside_gap(tab, 3.0, -0.1, 0.5)       # D+L past delta/2
    with pytest.raises(ParameterOutsideGap):
        glm.require_inside_gap(tab, 2.0, -0.1, 2.5)       # h*(D+L) past delta
    with pytest.raises(ParameterOutsideGap):
        glm.require_inside_gap(tab, 0.1, -0.3, 0.5)       # decaying mean


@settings(max_examples=25, deadline=None)
@given(z=st.floats(-5.0, -0.01))
def test_bdf2_stable_left_halfline(z):
    # A(0)-stability of the frozen recursion on the negative real axis
    rho = float(np.max(np.abs(np.linalg.eigvals(
        glm.scalar_transition(glm.get_tableau("bdf2"), z)))))
    assert rho <= 1.0 + 1e-12
