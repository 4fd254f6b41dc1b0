"""The streamed diagnostic pipeline against the keep-everything path it replaced.

cli._integrate hands each chunk of Phi that run_linear keeps to the frame QR trail
and to the restart defects (with that chunk's reference rows), and drops it. The
reference below is experiment_row as it was before: the whole Phi series kept,
one whole-run reference_batch and one whole-run lte_series. Every field of every
row, the spectrum frame trail and the converge errors must be the same, bit for
bit.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from glmstab import cli, glm, onestep, problems, spectra
from glmstab.errors import WindowOutOfRange

BDF2 = glm.get_tableau("bdf2")
TABLE1 = problems.RotatingCosineParams(**cli.TABLE1_PROBLEM)


def reference_integrate(tab, params, h, n_f, t0, x0, start):
    """Start and run with every Phi kept: (problem, trajectory, Phi series)."""
    prob = problems.rotating_cosine_problem(params)
    if start == "rk4":
        x0s = glm.start_rk4(prob, x0, t0, h, tab.k)
    else:
        x0s = problems.reference_batch(params, t0 + h * np.arange(tab.k), x0=x0,
                                       t0=t0).ravel()
    traj, phis = glm.run_linear(tab, prob, x0s, n_f, h, t0, keep_transitions=True)
    return prob, traj, phis


def reference_experiment_row(tab, params, h, t_final, t0=0.0, x0=(1.0, 0.0),
                             start="rk4", n0=None, denominator="t0",
                             sum_start="origin", lte_scale="per-h", with_frame=False):
    """experiment_row on the whole Phi series, the whole-run reference and LTE."""
    n_f = cli._span_steps(h, t_final, t0)
    prob, traj, phis = reference_integrate(tab, params, h, n_f, t0, x0, start)
    m = traj.n_steps
    w = onestep.extract_w(traj, onestep.spectral_split(tab))
    trail = spectra.vector_trail_from_values(w.values, h, t0)
    if n0 is None:
        n0 = m // 2
    est = spectra.mu_appr(trail, n0, m - n0, denominator=denominator,
                          sum_start=sum_start)
    mu_frame = math.nan
    if with_frame:
        ftrail = spectra.qr_advance_series(
            spectra.new_matrix_trail(tab.k * prob.d, h, t0), phis)
        mu_frame = float(spectra.mu_appr(ftrail, n0, m - n0, denominator=denominator,
                                         sum_start=sum_start).mu[0])
    times = t0 + h * np.arange(m + tab.k)
    refs = problems.reference_batch(params, times, x0=x0, t0=t0)
    lte = glm.lte_series(tab, phis, refs)
    if lte_scale == "per-h":
        lte = lte / h
    _, tau_max = glm.tau_series(lte)
    running = np.cumsum(trail.logs()[:, 0]) / (h * np.arange(1, m + 1))
    return cli.ExperimentRow(
        h=h, n_steps=m, diverged=traj.diverged, mu=float(est.mu[0]),
        mu_frame=mu_frame, argmax_t=float(est.argmax_t[0]),
        lte_mean=float(lte.mean()), lte_max=float(lte.max()), tau_max=tau_max,
        times=times[: m + 1], norms=np.linalg.norm(traj.first_blocks(), axis=1),
        lte=lte, running_mu=running)


def assert_same_row(got, want):
    for field in dataclasses.fields(cli.ExperimentRow):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), field.name
        elif isinstance(b, float) and math.isnan(b):
            assert math.isnan(a), field.name
        else:
            assert a == b, field.name


def assert_same(tab, params, h, t_final, **kw):
    got = cli.experiment_row(tab, params, h, t_final, **kw)
    assert_same_row(got, reference_experiment_row(tab, params, h, t_final, **kw))
    return got


def test_table1_rows():
    rows = cli.table1_rows()
    assert rows[-1].n_steps == 53333          # 13 chunks, the last one partial
    for h, row in zip(cli.TABLE1_H, rows):
        assert_same_row(row, reference_experiment_row(BDF2, TABLE1, h, cli.TABLE1_TFINAL))


@pytest.mark.filterwarnings("ignore:offsets should satisfy")   # as-printed reading
@pytest.mark.parametrize("b1", ["as-printed", "corrected"])
@pytest.mark.parametrize("b2", ["as-printed", "corrected"])
def test_table2_rows_with_frame(b1, b2):
    for a, row in zip(cli.TABLE2_A, cli.table2_rows(b1_reading=b1, b2_reading=b2)):
        params = problems.RotatingCosineParams(a1=a, a2=a, b1=cli.TABLE2_B1[b1],
                                               b2=cli.TABLE2_B2[b2], beta=1.0)
        want = reference_experiment_row(BDF2, params, cli.TABLE2_H, cli.TABLE2_TFINAL,
                                        with_frame=True)
        assert not math.isnan(want.mu_frame)
        assert_same_row(row, want)


def test_reference_start_off_axis():
    # x0 off the axis and t0 != 0: the checked quadrature path of reference_batch,
    # sampled per chunk of the run, across two chunks
    row = assert_same(BDF2, TABLE1, 0.01, 0.7 + 45.0, t0=0.7, x0=(0.6, -0.8),
                      start="reference", lte_scale="defect", with_frame=True)
    assert row.n_steps == 4500


@pytest.mark.parametrize("n_steps", [1, 4095, 4096, 4097])
def test_step_counts_at_chunk_boundaries(n_steps):
    row = assert_same(BDF2, TABLE1, 0.01, n_steps * 0.01, with_frame=True)
    assert row.n_steps == n_steps and len(row.lte) == n_steps


@pytest.mark.parametrize("kw", [dict(n0=10), dict(denominator="N0"),
                                dict(sum_start="window"),
                                dict(n0=4000, denominator="N0", sum_start="window",
                                     lte_scale="defect")])
def test_estimator_variants(kw):
    assert_same(BDF2, TABLE1, 0.01, 50.0, with_frame=True, **kw)


@pytest.fixture
def spiked(monkeypatch):
    """Make the step into state `at` leave the divergence guard."""
    real = glm.transition_batch

    def spike(at):
        def batch(tab, prob, n0, count, h, t0=0.0):
            phis = real(tab, prob, n0, count, h, t0)
            if n0 < at <= n0 + count:
                phis[at - 1 - n0] *= 1e20
            return phis

        monkeypatch.setattr(glm, "transition_batch", batch)
    return spike


@pytest.mark.parametrize("at", [2000, 4097, 8192])   # mid-chunk, a chunk's first, last
def test_diverging_run(spiked, at):
    spiked(at)
    row = assert_same(BDF2, TABLE1, 0.01, 100.0, with_frame=True)
    assert row.diverged and row.n_steps == at - 1


def test_diverging_at_the_first_step(spiked):
    spiked(1)
    errors = []
    for fn in (cli.experiment_row, reference_experiment_row):
        with pytest.raises(WindowOutOfRange) as exc:
            fn(BDF2, TABLE1, 0.01, 100.0, with_frame=True)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("n_steps", [3, 4097, 10000])
def test_spectrum_frame_trail(n_steps):
    h, t0 = 0.02, 0.3
    _, _, phis = reference_integrate(BDF2, TABLE1, h, n_steps, t0, (1.0, 0.0), "rk4")
    want = spectra.qr_advance_series(spectra.new_matrix_trail(4, h, t0), phis)
    _, trail, lte = cli._integrate(BDF2, TABLE1, h, n_steps, t0, (1.0, 0.0), "rk4",
                                   frame=True)
    assert lte is None
    assert np.array_equal(trail.logs(), want.logs())
    assert np.array_equal(trail.frame, want.frame)


@pytest.mark.parametrize("method", ["bdf2", "ab2", "be"])
def test_converge_errors(tmp_path, capsys, method):
    tab = glm.get_tableau(method)
    ge, le = [], []
    for h in cli.CONVERGE_H[method]:
        _, traj, phis = reference_integrate(tab, TABLE1, h, cli._span_steps(h, 2.0, 0.0),
                                            0.0, (1.0, 0.0), "reference")
        m = traj.n_steps
        refs = problems.reference_batch(TABLE1, h * np.arange(m + tab.k))
        ge.append(float(np.linalg.norm(traj.last_blocks()[-1] - refs[m + tab.k - 1])))
        le.append(float(glm.lte_series(tab, phis, refs).max()))
    assert cli.main(["converge", "--method", method, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "converge_report.json").read_text())
    assert report["global_errors"] == ge and report["lte_max"] == le
    capsys.readouterr()
