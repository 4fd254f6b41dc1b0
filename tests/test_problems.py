"""Problem definitions and their closed-form/quadrature reference solutions."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmstab import problems
from glmstab.errors import ConfigError, NumericalError, QuadratureUnderResolved


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
    y2_0 = float(np.einsum("ji,j->i", problems.rotation(p.omega_rate * t0), x0)[1])
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
    # Q(0) = I, so A(0) = B(0) + omega_rate * J entrywise
    p = _params()
    a = problems.rotating_cosine_A(p, 0.0)
    want = np.array([[1.2 - 0.14, 10.0 - 1.0], [1.0, 1.2 - 0.15]])
    assert np.allclose(a, want, atol=1e-15)


def test_coefficient_batch_matches_scalar():
    p = _params(omega_rate=3.0)
    prob = problems.rotating_cosine_problem(p)
    ts = np.linspace(-2.0, 7.0, 23)
    batch = prob.batch(ts)
    single = np.stack([problems.rotating_cosine_A(p, float(t)) for t in ts])
    assert np.array_equal(batch, single)


def einsum_rotating_cosine_A(p, t):
    """A(t) as first written: Q, B and Q as (..., 2, 2) arrays, one three-operand
    einsum and omega_rate J. The reference for problems.rotating_cosine_A."""
    t = np.asarray(t, dtype=float)
    q = problems.rotation(p.omega_rate * t)
    b = np.zeros(t.shape + (2, 2))
    b[..., 0, 0] = p.a1 * np.cos(t) + p.b1
    b[..., 0, 1] = p.beta
    b[..., 1, 1] = p.a2 * np.cos(t) + p.b2
    return np.einsum("...ij,...jk,...lk->...il", q, b, q) + p.omega_rate * problems.J


def _same_bits(got, want):
    """Equal values, NaN at the same places and the same sign on every zero."""
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got[got == 0.0]), np.signbit(want[want == 0.0])))


@pytest.mark.parametrize("kw", [
    {}, {"omega_rate": 2.7}, {"omega_rate": -1.1}, {"omega_rate": 0.0},
    {"omega_rate": 2.0 * math.pi / 0.05},               # the resonant step h = 0.05
    {"beta": 0.0}, {"beta": -3.5, "a1": 0.0, "b1": 0.0},
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
    x0 = np.array([0.7, -0.4])
    t_end = 2.0
    oracle = _rk4(lambda t, x: problems.rotating_cosine_A(p, t) @ x, x0.copy(), 0.0,
                  1e-4, 20000)
    ref = problems.reference_batch(p, [t_end], x0=x0)[0]
    assert np.linalg.norm(ref - oracle) < 1e-9


def test_reference_batch_matches_scalar_path():
    for kw, x0, t0 in (
        ({}, (1.0, 0.0), 0.0),                                  # axis: the closed form
        ({"beta": 2.0}, (0.5, 0.2), 0.0),
        ({"omega_rate": 0.7}, (0.6, -0.8), 1.3),
        ({"omega_rate": 2.0 * math.pi / 0.05}, (1.0, 0.0), -0.4),    # axis x0, off-axis at t0
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


def _quadrature_formula(f, lo, hi, panels):
    """The composite Gauss-Legendre rule with a fresh array per operation: the
    reference for problems._panel_quadrature, which works in place."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    edges = np.linspace(0.0, 1.0, panels + 1)
    width = (hi - lo)[..., np.newaxis] * (edges[1:] - edges[:-1])
    mid_lo = lo[..., np.newaxis] + (hi - lo)[..., np.newaxis] * edges[:-1]
    s = mid_lo[..., np.newaxis] + 0.5 * width[..., np.newaxis] * (problems._GL_NODES + 1.0)
    return np.sum(f(s) * (0.5 * width[..., np.newaxis] * problems._GL_WEIGHTS),
                  axis=(-2, -1))


def _propagate_formula(p, t_from, x_from, dt, quad_points):
    """propagate_exact off the axis, its integrand and quadrature one fresh array per
    operation: the reference for the in-place quadrature."""
    t_from, x_from = np.asarray(t_from, dtype=float), np.asarray(x_from, dtype=float)
    t_to = t_from + dt
    w = p.omega_rate
    y_from = np.einsum("...ji,...j->...i", problems.rotation(w * t_from), x_from)
    y1, y2 = y_from[..., 0], y_from[..., 1]
    sin_from, sin_to = np.sin(t_from), np.sin(t_to)
    m1 = p.a1 * (sin_to - sin_from) + p.b1 * (t_to - t_from)
    m2 = p.a2 * (sin_to - sin_from) + p.b2 * (t_to - t_from)

    def integrand(s):
        rel = (p.a2 - p.a1) * (np.sin(s) - sin_from[..., np.newaxis, np.newaxis]) + (
            p.b2 - p.b1) * (s - t_from[..., np.newaxis, np.newaxis])
        return np.exp(rel)

    integral = _quadrature_formula(integrand, t_from, t_to, quad_points)
    y_to = np.stack([np.exp(m1) * (y1 + p.beta * y2 * integral), y2 * np.exp(m2)], axis=-1)
    return np.einsum("...ij,...j->...i", problems.rotation(w * t_to), y_to)


def test_in_place_quadrature_matches_formula():
    # same operations in the same order, into reused buffers: the same bytes, with
    # a1 = a2 and a1 != a2, off-axis x0, t0 != 0, and one scratch across sizes
    rng = np.random.default_rng(21)
    scratch = np.full(2 * 40 * 2 * 64 * problems._GL_NODES.size, np.nan)
    for i in range(200):
        a = rng.uniform(0.3, 2.5)
        p = _params(a1=a, a2=a if i % 2 else a + rng.uniform(-0.5, 0.5),
                    b1=rng.uniform(-0.3, -0.05), b2=rng.uniform(-0.6, -0.35),
                    beta=rng.choice([1.0, 10.0, -3.0]), omega_rate=rng.uniform(0.2, 3.0))
        theta, t0 = rng.uniform(0.0, 2.0 * math.pi), rng.choice([0.0, rng.uniform(-3, 3)])
        x0 = (math.cos(theta), math.sin(theta))
        ts = t0 + np.sort(rng.uniform(0.0, 30.0, int(rng.integers(1, 40))))
        qp = int(rng.integers(1, 129))
        x = np.broadcast_to(x0, ts.shape + (2,))
        want = _propagate_formula(p, ts, x, 0.7, qp).tobytes()
        assert problems.propagate_exact(p, ts, x, 0.7, qp).tobytes() == want
        assert problems.propagate_exact(p, ts, x, 0.7, qp, scratch).tobytes() == want
        try:
            got = problems.reference_batch(p, ts, x0=x0, t0=t0)
        except QuadratureUnderResolved:
            continue
        fine = [_propagate_formula(p, t0, x0, t - t0, 128) for t in ts]
        assert got.tobytes() == np.stack(fine).tobytes()


@pytest.mark.parametrize("n_times", [1, 15, 16, 17, 33])
@pytest.mark.parametrize("a2", [1.2, 1.5])
def test_one_flow_gives_both_rules(n_times, a2):
    # reference_batch evaluates one flow from (t0, x0) per chunk of times: its
    # coarse and fine results are the formula's at 64 and 128 panels, byte for byte
    p, x0, t0 = _params(a2=a2), (0.6, -0.8), -0.7
    ts = t0 + np.linspace(0.05, 20.0, n_times)
    evaluated, exact_flow = [], problems._exact_flow

    def recording(*args):
        flow = exact_flow(*args)

        def evaluate(dt):
            evaluated.append([x.copy() for x in flow(dt)])
            return evaluated[-1]
        return evaluate

    with mock.patch.object(problems, "_exact_flow", recording):
        got = problems.reference_batch(p, ts, x0=x0, t0=t0)
    assert len(evaluated) == -(-n_times // problems._REF_CHUNK)
    coarse, fine = (np.concatenate(rule) for rule in zip(*evaluated))
    for panels, rule in ((64, coarse), (128, fine)):
        want = np.stack([_propagate_formula(p, t0, x0, t - t0, panels) for t in ts])
        assert rule.tobytes() == want.tobytes()
    assert got.tobytes() == fine.tobytes()


@pytest.mark.parametrize("t0", [0.0, 0.3])
def test_equal_amplitudes_match_the_full_integrand(t0):
    # with a1 = a2 the integrand leaves out its sine term, a signed zero: the full
    # integrand gives the same bits at every off-axis time
    p, x0 = _params(), np.array([0.6, -0.8])
    ts = t0 + np.linspace(0.0, 40.0, 402)[1:]
    got = problems.reference_batch(p, ts, x0=x0, t0=t0)
    want = np.stack([_propagate_formula(p, t0, x0, t - t0, 128) for t in ts])
    assert p.a1 == p.a2 and np.array_equal(got, want)


def test_tanh_reference_matches_formula():
    for a, t in ((-0.7, 1.3), (0.4, 3.1), (-2.0, 0.01)):
        p = problems.TanhForcedParams(a=a)
        forced = _quadrature_formula(lambda s: np.exp(a * (t - s)) * np.tanh(s * s),
                                     0.0, t, 64)
        assert problems.tanh_reference(p, t) == float(forced)


def test_reference_batch_heap_peak():
    # the quadrature grids of one chunk are reused across the chunks: a 402-sample
    # off-axis call peaks below two chunk scratches (701 KB with fresh arrays)
    p = _params()
    ts = np.linspace(0.0, 40.0, 402)
    chunk_scratch = 2 * problems._REF_CHUNK * 128 * problems._GL_NODES.size * 8
    problems.reference_batch(p, ts[:20], x0=(0.6, -0.8), t0=0.3)
    tracemalloc.start()
    try:
        problems.reference_batch(p, ts, x0=(0.6, -0.8), t0=0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * chunk_scratch, f"reference_batch heap peak {peak} B"


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
    with mock.patch.object(problems, "QUAD_PANELS", 1):
        got = _raised(problems.reference_batch, p, [30.0], x0=(1.0, 1.0))
    assert got == _raised(reference_solution, p, np.float64(30.0), x0=(1.0, 1.0),
                          quad_points=1)


@pytest.mark.parametrize("quad_points, first", [(1, 31), (4, 101)])
def test_quadrature_underresolved_first_failing_time(quad_points, first):
    # the doubling change grows along the grid and first exceeds 1e-10 (by less
    # than a factor 2) at index `first`, past the first chunk of 16 times
    p = _params(a1=3.0, a2=1.0, b1=-0.1, b2=-0.2, beta=5.0)
    ts = np.linspace(0.0, 30.0, 301)
    with mock.patch.object(problems, "QUAD_PANELS", quad_points):
        got = _raised(problems.reference_batch, p, ts, x0=(1.0, 1.0))
        head = problems.reference_batch(p, ts[:first], x0=(1.0, 1.0))
    assert got == _raised(_per_time, p, ts, x0=(1.0, 1.0), quad_points=quad_points)
    assert got.endswith(f"at t={ts[first]}")
    assert 1e-10 < float(got.split()[6]) < 2e-10
    assert np.array_equal(head, _per_time(p, ts[:first], x0=(1.0, 1.0),
                                          quad_points=quad_points))


def test_quadrature_nan_raises():
    # b2 = 800 overflows the integrand by t = 1: the result there is [nan, inf], and
    # a NaN doubling change fails the check instead of passing it, with no overflow
    # warning first (the suite turns RuntimeWarnings into errors)
    p = _params(b2=800.0)
    got = _raised(problems.reference_batch, p, [0.5, 1.0], x0=(0.6, 0.8))
    assert got == "panel doubling moved the result by nan (rel) at t=1.0"


def test_closed_form_out_of_range_raises():
    # b1 = 800 with x0 on the axis: e^{m1} overflows by t = 1, and the closed form
    # names the first such time instead of returning [inf, inf]
    p = _params(b1=800.0)
    with pytest.raises(NumericalError) as exc:
        problems.reference_batch(p, [0.5, 1.0, 2.0])
    assert str(exc.value) == "the exact solution is not finite at t=1.0"
    assert np.isfinite(problems.reference_batch(p, [0.5])).all()


def test_scalar_cosine_reference_out_of_range_raises():
    # D + L = 400.5 overflows exp by t = 2 (omega = 4 pi): the first such time is
    # named, with no overflow warning first (the suite turns RuntimeWarnings into
    # errors), instead of returning inf
    p = problems.ScalarCosineParams(D=0.5, L=400.0, omega=4.0 * math.pi)
    with pytest.raises(NumericalError) as exc:
        problems.scalar_cosine_reference(p, np.array([0.5, 1.5, 2.0, 2.5]))
    assert str(exc.value) == "the exact solution is not finite at t=2.0"
    with pytest.raises(NumericalError, match="not finite at t=800.0"):
        problems.scalar_cosine_reference(
            problems.ScalarCosineParams(D=0.5, L=1.0, omega=0.0), 800.0)
    assert np.isfinite(problems.scalar_cosine_reference(p, np.array([1.5])))


def test_gauss_legendre_constants_are_leggauss_bits():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert problems._GL_NODES.tobytes() == nodes.tobytes()
    assert problems._GL_WEIGHTS.tobytes() == weights.tobytes()


def test_propagate_exact_zero_component_does_not_overflow():
    # y2 = 0 with exp(m2) past the double range (m2 ~ 727 at t = 2): the zero
    # component stays zero, with no 0 * inf (the suite turns RuntimeWarnings into
    # errors), and x(t) = exp(m1(t)) (cos t, sin t) in closed form
    p = _params(a2=800.0)
    ts = np.array([0.5, 2.0])
    got = problems.reference_batch(p, ts)
    m1 = 1.2 * np.sin(ts) - 0.14 * ts
    want = np.exp(m1)[:, None] * np.stack([np.cos(ts), np.sin(ts)], axis=1)
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(t=st.floats(-10.0, 10.0), omega=st.floats(0.1, 20.0))
def test_norm_identity_triangular_start(t, omega):
    # x0 = (1,0) zeroes the second rotated component, so ||x(t)|| = exp(m1(t)) exactly
    # and the panel count is never read
    p = _params(omega_rate=omega)
    x = problems.propagate_exact(p, 0.0, np.array([1.0, 0.0]), t, 1)
    want = math.exp(p.a1 * math.sin(t) + p.b1 * t)
    assert np.isclose(np.linalg.norm(x), want, rtol=1e-12, atol=1e-300)


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
    lam = p.D * math.cos(p.omega * t) + p.L
    assert num == pytest.approx(lam * problems.scalar_cosine_reference(p, t), rel=1e-8)


@pytest.mark.parametrize("t, t0", [(2.5, 0.0), (-1.0, 0.7), (np.linspace(0.0, 3.0, 7), 0.4)])
def test_scalar_cosine_reference_at_omega_zero(t, t0):
    # omega = 0 freezes the coefficient at D + L, and the general formula's limit
    # agrees; the frozen flow is autonomous, so its value t - t0 after t0 is the
    # reference at t - t0
    p = problems.ScalarCosineParams(D=0.3, L=-0.1, omega=0.0)
    s = np.asarray(t) - t0
    got = problems.scalar_cosine_reference(p, s)
    assert np.array_equal(got, np.exp((p.D + p.L) * s))
    near = problems.ScalarCosineParams(D=0.3, L=-0.1, omega=1e-6)
    assert np.allclose(problems.scalar_cosine_reference(near, s), got,
                       rtol=1e-10, atol=0.0)


def test_constant_problem():
    prob = problems.constant_problem([[1.0, 2.0], [0.0, 3.0]])
    assert prob.d == 2
    assert np.array_equal(prob.batch(np.array([17.0]))[0], [[1.0, 2.0], [0.0, 3.0]])
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
         "t0": 1.5, "x0": [0.0, 1.0], "omega_rate": 2.0 * math.pi / 0.5})
    assert (params.a1, params.a2, params.b1, params.b2) == (1.0, 1.1, -0.2, -0.3)
    assert params.omega_rate == 4.0 * math.pi
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
    # non-finite values, rejected before they reach the run
    base = {"a1": 1.0, "a2": 1.0, "b1": -0.2, "b2": -0.3, "beta": 2.0}
    for bad in ({"a1": math.nan}, {"beta": math.inf}, {"b2": -math.inf},
                {"omega_rate": math.nan}, {"t0": math.inf}, {"x0": [math.nan, 0.0]},
                {"x0": [0.0, -math.inf]}):
        with pytest.raises(ConfigError, match=f"parameters \\['{next(iter(bad))}'\\] "
                                              "must be finite"):
            problems.rotating_config({**base, **bad})
