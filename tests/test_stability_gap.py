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
