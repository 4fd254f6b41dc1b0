"""The batched stability-gap scan against the slow one-z-at-a-time reference.

`reference_stability_gap` is the scan as first written: a grid built by repeated
additions, one scalar transition, one np.linalg.eigvals call and one comparison
per grid point, then all 80 bisection steps. The batched `glm.stability_gap` must
give the same delta bit for bit, and `glm.spectral_radius` the same radius as
`reference_rho` at every grid point. The scan's per-point verdicts, most of them
settled by a trace bound without an eigensolve, must equal
`reference_rho(tab, z) <= 1 + 1e-12`.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmstab import glm


def reference_transition(tab, z):
    s = np.eye(tab.r) - z * tab.C
    t_sol = np.linalg.solve(s, tab.U)
    return tab.V + z * (tab.D @ t_sol)


def reference_rho(tab, z):
    try:
        return float(np.max(np.abs(np.linalg.eigvals(reference_transition(tab, z)))))
    except np.linalg.LinAlgError:
        return math.inf


def reference_grid(z_cap=100.0, scan_step=0.01):
    grid = []
    z = scan_step
    while z <= z_cap + 1e-12:
        grid.append(z)
        z += scan_step
    return grid


def reference_stability_gap(tab, z_cap=100.0, scan_step=0.01):
    prev = 1e-9
    z = scan_step
    while z <= z_cap + 1e-12:
        if reference_rho(tab, z) <= 1.0 + 1e-12:
            lo, hi = prev, z
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if reference_rho(tab, mid) <= 1.0 + 1e-12:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
        prev = z
        z += scan_step
    return math.inf


def gap_on_grid(tab, z_cap, scan_step):
    """glm.stability_gap with its scan cap and step patched to these."""
    with mock.patch.multiple(glm, GAP_Z_CAP=z_cap, GAP_SCAN_STEP=scan_step):
        return glm.stability_gap(tab)


def _same_delta(got, want):
    return got == want or (math.isinf(got) and math.isinf(want))


def _assert_same_verdicts(tab, grid):
    want = np.array([reference_rho(tab, z) <= 1.0 + 1e-12 for z in grid])
    got = np.concatenate([glm._scan_stable(tab, np.array(grid[base: base + glm._GAP_CHUNK]))
                          for base in range(0, len(grid), glm._GAP_CHUNK)])
    assert np.array_equal(got, want)


def _eigvals_inputs():
    """A patch of np.linalg.eigvals that records every matrix it is given."""
    seen = []
    eigvals = np.linalg.eigvals

    def recording(a):
        seen.extend(np.reshape(a, (-1,) + np.shape(a)[-2:]).copy())
        return eigvals(a)
    return seen, mock.patch.object(np.linalg, "eigvals", recording)


def _assert_same_radii(tab, grid):
    want = np.array([reference_rho(tab, z) for z in grid])
    assert np.array_equal([glm.spectral_radius(tab, z) for z in grid], want)


@pytest.mark.parametrize("name", ["bdf2", "ab2", "be"])
def test_default_grid_matches_reference(name):
    tab = glm.get_tableau(name)
    grid = reference_grid()
    assert np.array_equal(np.cumsum(np.full(len(grid), 0.01)), grid)
    _assert_same_radii(tab, grid)
    assert _same_delta(glm.stability_gap(tab), reference_stability_gap(tab))


@pytest.mark.parametrize("name", ["bdf2", "ab2", "be"])
def test_default_grid_verdicts_match_reference(name):
    _assert_same_verdicts(glm.get_tableau(name), reference_grid())


def test_ab2_scan_is_mostly_certified():
    # ab2's |tr M| / 2 = (1 + 1.5 z) / 2 clears the margin for every grid z above
    # 2/3, so only the 66 points below it need an eigensolve
    seen, patch = _eigvals_inputs()
    with patch:
        assert math.isinf(glm.stability_gap(glm.get_tableau("ab2")))
    assert 0 < len(seen) <= 100


def _scalar_tableau(d):
    # k = r = 1, U = 1, V = 0, C = 0: the transition at z is M = d z
    return glm.GlmTableau(k=1, r=1, order=1, U=[[1.0]], V=[[0.0]], C=[[0.0]],
                          D=[[d]], xi=[0.0])


def test_bound_inside_margin_reaches_eigvals():
    # the margin at M = z is 1e-12 + 1e-8 z: 1 + 5e-9 lies inside it, 1 + 3e-8 and
    # 2 clear it, 1 and 0.5 are bounded by 1
    tab = _scalar_tableau(1.0)
    z = np.array([0.5, 1.0, 1.0 + 5e-9, 1.0 + 3e-8, 2.0])
    seen, patch = _eigvals_inputs()
    with patch:
        got = glm._scan_stable(tab, z)
    assert [float(m[0, 0]) for m in seen] == [0.5, 1.0, 1.0 + 5e-9]
    assert got.tolist() == [True, True, False, False, False]
    _assert_same_verdicts(tab, z.tolist())


def test_non_finite_transition_falls_back_to_spectral_radius():
    # M = 1e308 z overflows to inf above z = 1.8: eigvals rejects the chunk and
    # spectral_radius redoes it one z at a time, giving inf radii there
    tab = _scalar_tableau(1e308)
    z = np.array([0.5, 1.0, 2.0, 3.0])
    with np.errstate(over="ignore"):
        assert glm._scan_stable(tab, z).tolist() == [False] * 4
        assert all(math.isinf(glm.spectral_radius(tab, zi)) for zi in z[2:])
        _assert_same_verdicts(tab, z.tolist())


@pytest.mark.parametrize("scan_step", [0.5, 0.25])
def test_singular_grid_point_verdicts_match_reference(scan_step):
    _assert_same_verdicts(glm.get_tableau("be"), reference_grid(scan_step=scan_step))


@pytest.mark.parametrize("name", ["bdf2", "ab2", "be"])
@pytest.mark.parametrize("z_cap, scan_step", [(7.3, 0.003), (250.0, 0.037)])
def test_other_grids_match_reference(name, z_cap, scan_step):
    # the library sums its grid with np.cumsum, which adds in order as the loop does,
    # and stops its bisection once a step leaves the bracket unchanged
    grid = reference_grid(z_cap, scan_step)
    assert np.array_equal(np.cumsum(np.full(len(grid), scan_step)), grid)
    tab = glm.get_tableau(name)
    got = gap_on_grid(tab, z_cap, scan_step)
    assert _same_delta(got, reference_stability_gap(tab, z_cap=z_cap, scan_step=scan_step))


@pytest.mark.parametrize("scan_step", [0.5, 0.25])
def test_singular_grid_point_falls_back(scan_step):
    # z = 1.0 lies on the grid, where backward Euler's stage matrix 1 - z is singular
    tab = glm.get_tableau("be")
    grid = reference_grid(scan_step=scan_step)
    assert 1.0 in grid
    with pytest.raises(np.linalg.LinAlgError):
        glm.scalar_transition(tab, np.array(grid))
    assert math.isinf(glm.spectral_radius(tab, 1.0))
    _assert_same_radii(tab, grid)
    got = gap_on_grid(tab, 100.0, scan_step)
    assert got == reference_stability_gap(tab, scan_step=scan_step)
    assert got == pytest.approx(2.0, abs=1e-6)


def test_first_stable_point_opens_a_chunk():
    # backward Euler restabilizes at z = 2; this step puts the first stable grid
    # point at index _GAP_CHUNK, so the bracket's lower end comes from the chunk before
    tab = glm.get_tableau("be")
    grid = reference_grid(z_cap=3.0, scan_step=0.001952)
    first = next(i for i, z in enumerate(grid) if reference_rho(tab, z) <= 1.0 + 1e-12)
    assert first == glm._GAP_CHUNK
    got = gap_on_grid(tab, 3.0, 0.001952)
    assert got == reference_stability_gap(tab, z_cap=3.0, scan_step=0.001952)


def test_scalar_transition_batch_matches_single():
    tab = glm.get_tableau("ab2")
    zs = np.array(reference_grid(z_cap=3.0, scan_step=0.1))
    batch = glm.scalar_transition(tab, zs)
    assert batch.shape == (len(zs), tab.k, tab.k)
    for z, phi in zip(zs, batch):
        assert np.array_equal(phi, reference_transition(tab, z))
        assert np.array_equal(glm.scalar_transition(tab, z), phi)


@st.composite
def _tableaus(draw):
    k = draw(st.integers(1, 3))
    r = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return glm.GlmTableau(
        k=k, r=r, order=1,
        U=rng.standard_normal((r, k)), V=rng.standard_normal((k, k)),
        C=rng.standard_normal((r, r)) * draw(st.sampled_from([0.0, 0.3, 1.0])),
        D=rng.standard_normal((k, r)), xi=np.zeros(r),
    )


@settings(max_examples=60, deadline=None)
@given(tab=_tableaus(), scan_step=st.sampled_from([0.01, 0.05, 0.25]))
def test_drawn_tableaus_match_reference(tab, scan_step):
    grid = reference_grid(z_cap=5.0, scan_step=scan_step)
    _assert_same_radii(tab, grid)
    _assert_same_verdicts(tab, grid)
    got = gap_on_grid(tab, 5.0, scan_step)
    assert _same_delta(got, reference_stability_gap(tab, z_cap=5.0, scan_step=scan_step))


def lapack_transition(tab, z):
    """scalar_transition with the batched stage solve for every tableau and z: the
    reference for its explicit-method shortcut, which copies U instead."""
    z = np.asarray(z, dtype=float)[..., np.newaxis, np.newaxis]
    s = np.eye(tab.r) - z * tab.C
    t_sol = np.linalg.solve(s, np.broadcast_to(tab.U, s.shape[:-1] + (tab.k,)))
    return tab.V + z * (tab.D @ t_sol)


def _solve_spy():
    """A patch of np.linalg.solve that counts its calls."""
    return mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve)


_EDGE_Z = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, -2.5, -1e-300, 2.0 / 3.0]


def _assert_shortcut_matches_lapack(tab, zs):
    zs = np.array(zs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        want = lapack_transition(tab, zs)
        singles = [lapack_transition(tab, z) for z in zs]
        with _solve_spy() as solve:
            got = glm.scalar_transition(tab, zs)
            got_singles = [glm.scalar_transition(tab, z) for z in zs]
    assert solve.call_count == 0
    assert got.tobytes() == want.tobytes()
    for one, ref in zip(got_singles, singles):
        assert one.shape == (tab.k, tab.k) and one.tobytes() == ref.tobytes()


def test_ab2_shortcut_matches_lapack():
    # ab2's C is zero and U = I: I - z C is exactly I at every finite z
    _assert_shortcut_matches_lapack(glm.get_tableau("ab2"),
                                    _EDGE_Z + reference_grid(z_cap=3.0, scan_step=0.1))


@st.composite
def _explicit_tableaus(draw):
    # C all zero (either sign), U finite with +0.0 as its only zeros; V and D free,
    # zeros of either sign included
    k, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def with_zeros(a, signs):
        a[rng.random(a.shape) < 0.3] = 0.0
        return a * np.where(rng.random(a.shape) < 0.5, 1.0, signs)

    return glm.GlmTableau(
        k=k, r=r, order=1, U=with_zeros(rng.standard_normal((r, k)) * 1e3, 1.0),
        V=with_zeros(rng.standard_normal((k, k)), -1.0),
        C=with_zeros(np.zeros((r, r)), -1.0),
        D=with_zeros(rng.standard_normal((k, r)), -1.0), xi=np.zeros(r))


@settings(max_examples=80, deadline=None)
@given(tab=_explicit_tableaus(),
       zs=st.lists(st.one_of(st.sampled_from(_EDGE_Z),
                             st.floats(allow_nan=False, allow_infinity=False)),
                   min_size=1, max_size=8))
def test_drawn_explicit_shortcut_matches_lapack(tab, zs):
    _assert_shortcut_matches_lapack(tab, zs)


@pytest.mark.parametrize("case", ["inf", "-inf", "nan", "negative-zero-U", "inf-U"])
def test_shortcut_leaves_the_rest_to_lapack(case):
    # a non-finite z makes I - z C hold NaN; LAPACK solves U's -0.0 below a negative
    # entry to +0.0, and an inf in U to NaN, so a copy of U would not give its bits
    tab, zs = glm.get_tableau("ab2"), np.array([0.5, 1.0, 2.0])
    odd_u = {"negative-zero-U": [[-1.0, 2.0], [-0.0, -0.0]],
             "inf-U": [[math.inf, 0.0], [0.0, 1.0]]}
    if case in odd_u:
        tab = glm.GlmTableau(k=2, r=2, order=1, U=odd_u[case], V=tab.V, C=tab.C, D=tab.D,
                             xi=tab.xi)
        with np.errstate(invalid="ignore"):
            t_sol = np.linalg.solve(np.eye(2), tab.U)
        assert t_sol.tobytes() != tab.U.tobytes()
    else:
        zs[1] = float(case)
    with np.errstate(invalid="ignore"):
        want = lapack_transition(tab, zs)
        with _solve_spy() as solve:
            got = glm.scalar_transition(tab, zs)
    assert solve.call_count == 1 and got.tobytes() == want.tobytes()


def test_built_in_gaps_keep_their_bits():
    assert glm.stability_gap(glm.get_tableau("bdf2")) == 3.9999999999969997
    assert glm.stability_gap(glm.get_tableau("ab2")) == math.inf
    assert glm.stability_gap(glm.get_tableau("be")) == 1.9999999999989995
