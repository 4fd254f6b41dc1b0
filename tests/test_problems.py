"""Problem definitions and their closed-form/quadrature reference solutions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmstab import problems
from glmstab.errors import ConfigError, QuadratureUnderResolved


def _params(**kw):
    base = dict(a1=1.2, a2=1.2, b1=-0.14, b2=-0.15, beta=10.0)
    base.update(kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return problems.RotatingCosineParams(**base)


def reference_solution(p, t, x0=(1.0, 0.0), t0=0.0, quad_points=64):
    """x(t) with one panel-doubling check per time: the reference for reference_batch.

    Off the closed-form case it integrates at quad_points and 2*quad_points
    panels, raises QuadratureUnderResolved if the result moves by more than 1e-10
    relative and returns the doubled-panel result.
    """
    x0 = np.asarray(x0, dtype=float)
    coarse = problems.propagate_exact(p, t0, x0, t - t0, quad_points=quad_points)
    y2_0 = float(np.einsum("ji,j->i", problems.rotation(p.omega_dot * t0), x0)[1])
    if y2_0 != 0.0 and p.beta != 0.0:
        fine = problems.propagate_exact(p, t0, x0, t - t0, quad_points=2 * quad_points)
        scale = max(float(np.linalg.norm(fine)), 1.0)
        if float(np.linalg.norm(fine - coarse)) > 1e-10 * scale:
            raise QuadratureUnderResolved(
                f"panel doubling moved the result by "
                f"{float(np.linalg.norm(fine - coarse)) / scale:.3e} (rel) at t={t}"
            )
        return fine
    return coarse


def _per_time(p, ts, **kw):
    return np.stack([reference_solution(p, t, **kw) for t in ts])


def _rk4(f, x, t, h, n):
    """Independent fixed-step RK4 used as an oracle against the references."""
    for _ in range(n):
        k1 = f(t, x)
        k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = f(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return x


def test_rotation_oracle():
    r = problems.rotation(math.pi / 2.0)
    assert np.allclose(r, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
    many = problems.rotation(np.linspace(0.0, 5.0, 7))
    assert many.shape == (7, 2, 2)
    dets = many[:, 0, 0] * many[:, 1, 1] - many[:, 0, 1] * many[:, 1, 0]
    assert np.allclose(dets, 1.0, atol=1e-15)


def test_coefficient_at_origin():
    # Q(0) = I, so A(0) = B(0) + omega_dot * J entrywise
    p = _params()
    a = problems.rotating_cosine_A(p, 0.0)
    want = np.array([[1.2 - 0.14, 10.0 - 1.0], [1.0, 1.2 - 0.15]])
    assert np.allclose(a, want, atol=1e-15)


def test_coefficient_batch_matches_scalar():
    p = _params(omega_rate=3.0)
    prob = problems.rotating_cosine_problem(p)
    ts = np.linspace(-2.0, 7.0, 23)
    batch = prob.batch(ts)
    single = np.stack([prob.coefficient(t) for t in ts])
    assert np.array_equal(batch, single)


def test_linear_problem_batch_fallback():
    p = _params()
    prob = problems.LinearProblem(d=2, coefficient=lambda t: problems.rotating_cosine_A(p, float(t)))
    ts = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(prob.batch(ts), problems.rotating_cosine_A(p, ts))


def einsum_rotating_cosine_A(p, t):
    """A(t) as first written: Q, B and Q as (..., 2, 2) arrays, one three-operand
    einsum and omega_dot J. The reference for problems.rotating_cosine_A."""
    t = np.asarray(t, dtype=float)
    q = problems.rotation(p.omega_dot * t)
    b = np.zeros(t.shape + (2, 2))
    b[..., 0, 0] = p.a1 * np.cos(t) + p.b1
    b[..., 0, 1] = p.beta
    b[..., 1, 1] = p.a2 * np.cos(t) + p.b2
    return np.einsum("...ij,...jk,...lk->...il", q, b, q) + p.omega_dot * problems.J


def _same_bits(got, want):
    """Equal values, NaN at the same places and the same sign on every zero."""
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got[got == 0.0]), np.signbit(want[want == 0.0])))


@pytest.mark.parametrize("kw", [
    {}, {"omega_rate": 2.7}, {"omega_rate": -1.1}, {"omega_rate": 0.0},
    {"resonant_h": 0.05}, {"beta": 0.0}, {"beta": -3.5, "a1": 0.0, "b1": 0.0},
    {"omega_rate": 0.0, "beta": -0.0, "a1": 0.0},       # all-negative-zero sums
])
@pytest.mark.parametrize("t0", [0.0, 3.3, -17.0])
def test_coefficient_matches_einsum_reference(kw, t0):
    # the elementwise sums run in the einsum's order: the same bits, zero signs too
    p = _params(**kw)
    ts = t0 + np.linspace(0.0, 40.0, 257)
    assert _same_bits(problems.rotating_cosine_A(p, ts), einsum_rotating_cosine_A(p, ts))
    for t in (t0, np.float64(t0 + 0.1), np.asarray(t0 - 2.5)):
        assert _same_bits(problems.rotating_cosine_A(p, t), einsum_rotating_cosine_A(p, t))
    assert problems.rotating_cosine_A(p, t0).shape == (2, 2)


@pytest.mark.parametrize("kw", [{"beta": math.nan}, {"beta": math.inf}, {"a1": math.inf},
                                {"b2": -math.inf}, {"omega_rate": math.inf}])
def test_coefficient_planted_inf_nan_matches_einsum_reference(kw):
    p = _params(**kw)
    ts = np.array([0.0, 0.5 * math.pi, 1.0, -2.0, math.inf, math.nan])
    with np.errstate(invalid="ignore", divide="ignore"):
        got, want = problems.rotating_cosine_A(p, ts), einsum_rotating_cosine_A(p, ts)
        assert _same_bits(got, want)
        for t, row in zip(ts, got):
            assert _same_bits(problems.rotating_cosine_A(p, t), row)


def test_reference_against_rk4():
    # generic x0 exercises the variation-of-constants quadrature path
    p = _params(beta=2.0)
    prob = problems.rotating_cosine_problem(p)
    x0 = np.array([0.7, -0.4])
    t_end = 2.0
    oracle = _rk4(lambda t, x: prob.coefficient(t) @ x, x0.copy(), 0.0, 1e-4, 20000)
    ref = problems.reference_batch(p, [t_end], x0=x0)[0]
    assert np.linalg.norm(ref - oracle) < 1e-9


def test_reference_batch_matches_scalar_path():
    for kw, x0, t0 in (
        ({}, (1.0, 0.0), 0.0),                                  # axis: the closed form
        ({"beta": 2.0}, (0.5, 0.2), 0.0),
        ({"omega_rate": 0.7}, (0.6, -0.8), 1.3),
        ({"resonant_h": 0.05}, (1.0, 0.0), -0.4),               # axis x0, off-axis at t0
        ({"beta": 0.0}, (0.6, -0.8), 0.0),                      # beta = 0: the closed form
    ):
        # 37 times: two full chunks and a partial one; and a single time
        p = _params(**kw)
        ts = t0 + np.linspace(0.0, 9.0, 37) ** 1.2
        for sub in (ts, ts[:1]):
            assert np.array_equal(problems.reference_batch(p, sub, x0=x0, t0=t0),
                                  _per_time(p, sub, x0=x0, t0=t0))


def test_reference_batch_matches_scalar_path_random():
    rng = np.random.default_rng(2017)
    for _ in range(12):
        a = rng.uniform(0.5, 2.0)
        p = _params(a1=a, a2=a + rng.uniform(-0.3, 0.3), b1=rng.uniform(-0.3, -0.05),
                    b2=rng.uniform(-0.6, -0.35), beta=rng.choice([0.0, 1.0, 10.0]),
                    omega_rate=rng.uniform(0.2, 3.0))
        theta, t0 = rng.uniform(0.0, 2.0 * math.pi), rng.choice([0.0, rng.uniform(-2, 2)])
        x0 = (math.cos(theta), math.sin(theta))
        ts = t0 + np.sort(rng.uniform(0.0, 20.0, int(rng.integers(1, 60))))
        assert np.array_equal(problems.reference_batch(p, ts, x0=x0, t0=t0),
                              _per_time(p, ts, x0=x0, t0=t0))


def test_propagate_exact_semigroup():
    p = _params(beta=1.5)
    x0 = np.array([0.3, 0.9])
    mid = problems.propagate_exact(p, 0.0, x0, 1.3, quad_points=64)
    two_leg = problems.propagate_exact(p, 1.3, mid, 0.9, quad_points=64)
    direct = problems.propagate_exact(p, 0.0, x0, 2.2, quad_points=64)
    assert np.linalg.norm(two_leg - direct) < 1e-11


def _raised(fn, *args, **kwargs):
    with pytest.raises(QuadratureUnderResolved) as info:
        fn(*args, **kwargs)
    return str(info.value)


def test_quadrature_underresolved_raises():
    # one panel over a long window with a large-amplitude integrand cannot hold 1e-10
    p = _params(a1=3.0, a2=1.0, beta=5.0)
    got = _raised(problems.reference_batch, p, [30.0], x0=(1.0, 1.0), quad_points=1)
    assert got == _raised(reference_solution, p, np.float64(30.0), x0=(1.0, 1.0),
                          quad_points=1)


@pytest.mark.parametrize("quad_points, first", [(1, 31), (4, 101)])
def test_quadrature_underresolved_first_failing_time(quad_points, first):
    # the doubling change grows along the grid and first exceeds 1e-10 (by less
    # than a factor 2) at index `first`, past the first chunk of 16 times
    p = _params(a1=3.0, a2=1.0, b1=-0.1, b2=-0.2, beta=5.0)
    ts = np.linspace(0.0, 30.0, 301)
    got = _raised(problems.reference_batch, p, ts, x0=(1.0, 1.0), quad_points=quad_points)
    assert got == _raised(_per_time, p, ts, x0=(1.0, 1.0), quad_points=quad_points)
    assert got.endswith(f"at t={ts[first]}")
    assert 1e-10 < float(got.split()[6]) < 2e-10
    assert np.array_equal(
        problems.reference_batch(p, ts[:first], x0=(1.0, 1.0), quad_points=quad_points),
        _per_time(p, ts[:first], x0=(1.0, 1.0), quad_points=quad_points))


@settings(max_examples=60, deadline=None)
@given(t=st.floats(-10.0, 10.0), omega=st.floats(0.1, 20.0))
def test_norm_identity_triangular_start(t, omega):
    # x0 = (1,0) zeroes the second rotated component, so ||x(t)|| = exp(m1(t)) exactly
    p = _params(omega_rate=omega)
    x = problems.propagate_exact(p, 0.0, np.array([1.0, 0.0]), t)
    want = math.exp(p.a1 * math.sin(t) + p.b1 * t)
    assert np.isclose(np.linalg.norm(x), want, rtol=1e-12, atol=1e-300)


def test_resonant_mode_rotation_rate():
    p = _params(resonant_h=0.5)
    assert p.omega_dot == pytest.approx(4.0 * math.pi, abs=0.0)
    assert _params(omega_rate=2.5).omega_dot == 2.5


def test_parameter_warnings():
    with pytest.warns(UserWarning):
        problems.RotatingCosineParams(a1=1.0, a2=1.0, b1=-0.5, b2=-0.055, beta=1.0)
    with pytest.warns(UserWarning):
        problems.RotatingCosineParams(a1=-1.0, a2=1.0, b1=-0.1, b2=-0.2, beta=1.0)


def test_scalar_cosine_reference_derivative():
    p = problems.ScalarCosineParams(D=0.3, L=-0.1, omega=4.0)
    t = 1.7
    eps = 1e-6
    num = (problems.scalar_cosine_reference(p, t + eps) -
           problems.scalar_cosine_reference(p, t - eps)) / (2.0 * eps)
    lam = float(problems.scalar_cosine_lambda(p, t))
    assert num == pytest.approx(lam * problems.scalar_cosine_reference(p, t), rel=1e-8)


def test_constant_problem():
    prob = problems.constant_problem([[1.0, 2.0], [0.0, 3.0]])
    assert prob.d == 2
    assert np.array_equal(prob.coefficient(17.0), [[1.0, 2.0], [0.0, 3.0]])
    assert prob.batch(np.zeros(4)).shape == (4, 2, 2)


def test_tanh_reference_solves_ode():
    p = problems.TanhForcedParams(a=-0.7)
    t = 1.3
    eps = 1e-5
    num = (problems.tanh_reference(p, t + eps) - problems.tanh_reference(p, t - eps)) / (2.0 * eps)
    want = float(problems.tanh_rhs(p, problems.tanh_reference(p, t), t))
    assert num == pytest.approx(want, rel=1e-7)


def test_rotating_config_roundtrip():
    params, t0, x0 = problems.rotating_config(
        {"a1": 1.0, "a2": 1.1, "b1": -0.2, "b2": -0.3, "beta": 2.0,
         "t0": 1.5, "x0": [0.0, 1.0], "resonant_h": 0.5})
    assert (params.a1, params.a2, params.b1, params.b2) == (1.0, 1.1, -0.2, -0.3)
    assert params.resonant_h == 0.5
    assert t0 == 1.5
    assert np.array_equal(x0, [0.0, 1.0])


def test_rotating_config_defaults():
    _, t0, x0 = problems.rotating_config(
        {"a1": 1.0, "a2": 1.0, "b1": -0.2, "b2": -0.3, "beta": 2.0})
    assert t0 == 0.0
    assert np.array_equal(x0, [1.0, 0.0])


def test_rotating_config_errors():
    with pytest.raises(ConfigError):
        problems.rotating_config({"a1": 1.0})
    with pytest.raises(ConfigError):
        problems.rotating_config({"a1": 1.0, "a2": 1.0, "b1": -0.2, "b2": -0.3,
                                  "beta": 2.0, "bogus": 1.0})
    with pytest.raises(ConfigError):
        problems.rotating_config({"a1": 1.0, "a2": 1.0, "b1": -0.2, "b2": -0.3,
                                  "beta": 2.0, "x0": [1.0, 0.0, 0.0]})
