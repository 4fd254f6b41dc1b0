"""Acceptance gate: one test per published claim, each printing a PASS/FAIL line.

Criteria 2 and 3 are asserted exactly as stated even though the as-printed
parameter readings do not reproduce them; those tests fail and print the
companion evidence (alternate parameter readings / forcing strengths) that does
reproduce the published behavior.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from glmstab import cli, glm, onestep, problems, spectra

BDF2 = glm.get_tableau("bdf2")
AB2 = glm.get_tableau("ab2")


def _announce(capfd, line):
    with capfd.disabled():
        print("\n" + line, flush=True)


@pytest.fixture(scope="session")
def table1_result():
    t0 = time.perf_counter()
    rows = cli.table1_rows()
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="session")
def table2_result():
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for b1 in ("as-printed", "corrected"):
            for b2 in ("as-printed", "corrected"):
                out[(b1, b2)] = cli.table2_rows(b1_reading=b1, b2_reading=b2)
    return out


def _within(value, published, rel, abs_tol):
    return (abs(value - published) <= abs_tol or
            abs(value - published) <= rel * abs(published))


def test_criterion_1_stepsize_table(table1_result, capfd):
    rows, runtime = table1_result
    mus = [r.mu for r in rows]
    signs_ok = mus[0] > 0 and mus[1] > 0 and mus[2] < 0 and mus[3] < 0
    published = (9.03e-3, -9.70e-2, -9.04e-2)
    vals_ok = all(_within(m, p, rel=0.30, abs_tol=0.02)
                  for m, p in zip(mus[1:], published))
    ok = signs_ok and vals_ok and runtime < 10.0
    _announce(capfd, f"ACCEPTANCE 1: {'PASS' if ok else 'FAIL'} — exponent signs "
              f"({'+' if mus[0] > 0 else '-'},{'+' if mus[1] > 0 else '-'},"
              f"{'+' if mus[2] > 0 else '-'},{'+' if mus[3] > 0 else '-'}), "
              f"mu = {mus[1]:+.3e}/{mus[2]:+.3e}/{mus[3]:+.3e} vs published "
              f"{published[0]:+.3e}/{published[1]:+.3e}/{published[2]:+.3e}, "
              f"runtime {runtime:.2f}s")
    assert signs_ok
    assert vals_ok
    assert runtime < 10.0


def test_criterion_2_amplitude_table(table2_result, capfd):
    printed = {b2: table2_result[("as-printed", b2)]
               for b2 in ("as-printed", "corrected")}

    def flips(rows, attr):
        lo, hi = getattr(rows[1], attr), getattr(rows[2], attr)   # a = 1.45, 1.75
        return lo * hi < 0.0

    flip_ok = any(flips(rows, attr) for rows in printed.values()
                  for attr in ("mu", "mu_frame"))

    pub_tau = [cli.TABLE2_PUBLISHED[a][3] for a in cli.TABLE2_A]
    taus = [r.tau_max for r in printed["as-printed"]]
    tau_devs = [abs(t - p) for t, p in zip(taus, pub_tau)]
    tau_ok = all(dev <= 0.1 for dev in tau_devs)

    lte_ok = True
    for a, row in zip(cli.TABLE2_A, printed["as-printed"]):
        pm, px = cli.TABLE2_PUBLISHED[a][0], cli.TABLE2_PUBLISHED[a][1]
        for got, pub in ((row.lte_mean, pm), (row.lte_max, px)):
            lte_ok = lte_ok and (1.0 / 3.0 <= got / pub <= 3.0)

    ok = flip_ok and tau_ok and lte_ok
    companion = table2_result[("corrected", "as-printed")]
    _announce(capfd,
              f"ACCEPTANCE 2: {'PASS' if ok else 'FAIL'} — sign flip under printed "
              f"offsets: {flip_ok} (mu at a=1.45/1.75: "
              f"{printed['as-printed'][1].mu:+.2e}/{printed['as-printed'][2].mu:+.2e}); "
              f"tau {['%.3f' % t for t in taus]} vs published {pub_tau} "
              f"(max dev {max(tau_devs):.3f}); defect columns within x3: {lte_ok}. "
              f"Companion, first offset read as -0.05: frame mu "
              f"{[('%+.2e' % r.mu_frame) for r in companion]} flips between "
              f"a=1.45/1.75 and matches the published column.")
    assert lte_ok
    assert flip_ok, "no exponent sign change between a=1.45 and 1.75 under either " \
                    "reading of the second offset"
    assert tau_ok, f"tau deviations {tau_devs} exceed 0.1"


def _resonant_growth(beta, n_max=2000):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = problems.RotatingCosineParams(a1=1.2, a2=1.2, b1=-0.14, b2=-0.15,
                                          beta=beta, resonant_h=0.5)
    prob = problems.rotating_cosine_problem(p)
    h = 0.5
    x0s = glm.start_rk4(prob, (1.0, 0.0), 0.0, h, BDF2.k)
    traj = glm.run_linear(BDF2, prob, x0s, n_max, h)
    norms = np.linalg.norm(traj.states, axis=1)
    growth = float(np.max(norms) / norms[0])
    hit = np.nonzero(norms > 1e3 * norms[0])[0]
    phis = glm.transition_batch(BDF2, prob, 0, 60, h)
    rho = float(max(np.max(np.abs(np.linalg.eigvals(phi))) for phi in phis))
    return growth, (int(hit[0]) if hit.size else None), rho, traj.diverged


def test_criterion_3_resonant_blowup(capfd):
    growth, hit_at, rho, _ = _resonant_growth(10.0)
    ok = hit_at is not None and rho > 1.0
    g13, hit13, rho13, div13 = _resonant_growth(13.0)
    _announce(capfd,
              f"ACCEPTANCE 3: {'PASS' if ok else 'FAIL'} — forcing 10.0 at the "
              f"resonant step: max growth {growth:.3f}x (1e3 threshold "
              f"{'hit at n=%d' % hit_at if hit_at is not None else 'never hit in 2000 steps'}), "
              f"max transition spectral radius {rho:.4f}. Companion, forcing 13.0: "
              f"growth {g13:.3e}x, 1e3 at n={hit13}, spectral radius {rho13:.2f}, "
              f"diverged={div13}.")
    assert rho > 1.0, f"all transition spectral radii <= {rho:.4f}"
    assert hit_at is not None, "norm never exceeded 1e3 * ||X_0|| within 2000 steps"


def test_criterion_4_frozen_coefficient_counterexample(capfd):
    h, steps = 0.5, 200
    D, L = 0.3, -0.1
    sp = problems.ScalarCosineParams(D=D, L=L, omega=2.0 * math.pi / h)
    osc = problems.scalar_cosine_problem(sp)
    frozen = problems.constant_problem(D + L)
    results = {}
    for name, tab in (("bdf2", BDF2), ("ab2", AB2)):
        glm.require_inside_gap(tab, D, L, h)
        x0s = glm.start_rk4(osc, (1.0,), 0.0, h, tab.k)
        t_osc = glm.run_linear(tab, osc, x0s, steps, h)
        t_frz = glm.run_linear(tab, frozen, x0s, steps, h)
        growth = float(abs(t_osc.last_blocks()[-1, 0] / t_osc.last_blocks()[0, 0]))
        dev = float(np.max(np.abs(t_osc.states - t_frz.states)))
        results[name] = (growth, dev)
    exact_decay = float(problems.scalar_cosine_reference(sp, steps * h))
    ok = (all(g >= 10.0 for g, _ in results.values())
          and all(d <= 1e-12 for _, d in results.values())
          and exact_decay < 1.0)
    _announce(capfd,
              f"ACCEPTANCE 4: {'PASS' if ok else 'FAIL'} — growth over {steps} steps: "
              f"bdf2 {results['bdf2'][0]:.3e}x, ab2 {results['ab2'][0]:.3e}x; exact "
              f"solution decays to {exact_decay:.3e}; max deviation from the "
              f"frozen-coefficient iterates {max(d for _, d in results.values()):.1e}.")
    for name, (growth, dev) in results.items():
        assert growth >= 10.0, f"{name} grew only {growth:.3f}x"
        assert dev <= 1e-12, f"{name} deviates {dev:.2e} from frozen iterates"
    assert exact_decay < 1.0


def test_criterion_5_convergence_orders(tmp_path, capfd):
    slopes = {}
    for method in ("bdf2", "be"):
        out = tmp_path / method
        assert cli.main(["converge", "--method", method, "--out", str(out)]) == 0
        report = json.loads((out / "converge_report.json").read_text())
        slopes[method] = (report["global_slope"], report["lte_slope"])
    ok = (abs(slopes["bdf2"][0] - 2.0) <= 0.1 and abs(slopes["bdf2"][1] - 3.0) <= 0.1
          and abs(slopes["be"][0] - 1.0) <= 0.1 and abs(slopes["be"][1] - 2.0) <= 0.1)
    _announce(capfd,
              f"ACCEPTANCE 5: {'PASS' if ok else 'FAIL'} — bdf2 slopes "
              f"{slopes['bdf2'][0]:.3f}/{slopes['bdf2'][1]:.3f} (want 2/3), be "
              f"{slopes['be'][0]:.3f}/{slopes['be'][1]:.3f} (want 1/2).")
    assert slopes["bdf2"][0] == pytest.approx(2.0, abs=0.1)
    assert slopes["bdf2"][1] == pytest.approx(3.0, abs=0.1)
    assert slopes["be"][0] == pytest.approx(1.0, abs=0.1)
    assert slopes["be"][1] == pytest.approx(2.0, abs=0.1)


def test_criterion_6_estimator_consistency(capfd):
    p = problems.RotatingCosineParams(a1=1.2, a2=1.2, b1=-0.14, b2=-0.15, beta=10.0)
    prob = problems.rotating_cosine_problem(p)
    errs, errs_cos = [], []
    for h in (2e-2, 1e-2, 5e-3):
        n_f = int(round(7.0 / h))
        x0s = glm.start_rk4(prob, (1.0, 0.0), 0.0, h, BDF2.k)
        traj = glm.run_linear(BDF2, prob, x0s, n_f, h)
        trail = spectra.vector_trail_from_values(traj.first_blocks(), h)
        n0 = int(round(1.5 * math.pi / h))
        n_end = int(round(2.0 * math.pi / h))
        est = spectra.mu_appr(trail, n0, n_end - n0, denominator="N0",
                              sum_start="window")
        t_a, t_b = n0 * h, n_end * h
        comp_sin = p.b1 + p.a1 * (math.sin(t_b) - math.sin(t_a)) / (t_b - t_a)
        comp_cos = p.b1 + p.a1 * (math.cos(t_b) - math.cos(t_a)) / (t_b - t_a)
        errs.append(abs(float(est.mu[0]) - comp_sin))
        errs_cos.append(abs(float(est.mu[0]) - comp_cos))
    decreasing = errs[0] > errs[1] > errs[2]
    ratio = errs[1] / errs[2]
    ok = decreasing and 3.0 <= ratio <= 5.5
    _announce(capfd,
              f"ACCEPTANCE 6: {'PASS' if ok else 'FAIL'} — window-estimate error vs "
              f"the integrated-rate comparator: "
              f"{errs[0]:.3e}/{errs[1]:.3e}/{errs[2]:.3e} at h=2e-2/1e-2/5e-3, "
              f"halving ratio {ratio:.3f} (want within [3.0, 5.5]); as-published "
              f"cos-form comparator errors {errs_cos[0]:.1e}/{errs_cos[1]:.1e}/"
              f"{errs_cos[2]:.1e} (not gated).")
    assert decreasing, f"errors not decreasing: {errs}"
    assert 3.0 <= ratio <= 5.5, f"ratio {ratio:.3f} outside [3.0, 5.5]"


def test_criterion_7_structural_invariants(capfd):
    p = problems.RotatingCosineParams(a1=1.2, a2=1.2, b1=-0.14, b2=-0.15, beta=10.0)
    prob = problems.rotating_cosine_problem(p)
    h = 0.075

    # orthonormality of the propagated frame after 1e5 QR steps
    trail = spectra.new_matrix_trail(BDF2.k * prob.d, h)
    for base in range(0, 100_000, 10_000):
        spectra.qr_advance_series(trail, glm.transition_batch(BDF2, prob, base,
                                                              10_000, h))
    ortho = float(np.max(np.abs(trail.frame.T @ trail.frame - np.eye(4))))

    # telescoping: the stored states match the accumulated transition product
    x0s = glm.start_rk4(prob, (1.0, 0.0), 0.0, h, BDF2.k)
    traj, phis = glm.run_linear(BDF2, prob, x0s, 200, h, keep_transitions=True)
    prod = np.eye(4)
    for phi in phis:
        prod = phi @ prod
    tele = float(np.linalg.norm(prod @ x0s - traj.states[-1]) /
                 np.linalg.norm(traj.states[-1]))

    # Kronecker inverse identity
    v = np.random.default_rng(3).standard_normal((3, 3)) + 3.0 * np.eye(3)
    kron_err = float(np.max(np.abs(np.linalg.inv(np.kron(v, np.eye(2))) -
                                   np.kron(np.linalg.inv(v), np.eye(2)))))

    # estimator invariance under similarity-column rescaling
    split = onestep.spectral_split(BDF2)
    scale = np.diag([2.0, 5.0])
    rescaled = onestep.SpectralSplit(
        P=split.P @ scale, Pinv=np.linalg.inv(split.P @ scale), E22=split.E22,
        unit_row=np.linalg.inv(split.P @ scale)[0])

    def mu_of(spl):
        w = onestep.extract_w(traj, spl)
        tr = spectra.vector_trail_from_values(w.values, h)
        return float(spectra.mu_appr(tr, 100, 100).mu[0])

    mu_shift = abs(mu_of(split) - mu_of(rescaled))

    # continuous QR oracle recovers the rotated-frame triangular rates
    oracle = spectra.continuous_qr_oracle(prob, 5.0, 1e-3)
    want = np.column_stack([p.a1 * np.cos(oracle.ts) + p.b1,
                            p.a2 * np.cos(oracle.ts) + p.b2])
    oracle_err = float(np.max(np.abs(oracle.b_diag - want)))

    ok = (ortho < 1e-12 and tele < 1e-9 and kron_err < 1e-10
          and mu_shift < 1e-10 and oracle_err < 1e-6)
    _announce(capfd,
              f"ACCEPTANCE 7: {'PASS' if ok else 'FAIL'} — frame orthonormality "
              f"{ortho:.1e} after 1e5 steps, telescoping {tele:.1e}, kron inverse "
              f"{kron_err:.1e}, estimate shift under column rescale {mu_shift:.1e}, "
              f"continuous-QR rate recovery {oracle_err:.1e}.")
    assert ortho < 1e-12
    assert tele < 1e-9
    assert kron_err < 1e-10
    assert mu_shift < 1e-10
    assert oracle_err < 1e-6


def test_criterion_8_integral_separation(capfd):
    p = problems.RotatingCosineParams(a1=1.2, a2=1.2, b1=-0.14, b2=-0.15, beta=10.0)
    prob = problems.rotating_cosine_problem(p)
    h_fine = 0.01
    oracle = spectra.continuous_qr_oracle(prob, 40.0, h_fine)
    logs = oracle.b_diag[:-1] * h_fine
    gap = p.b1 - p.b2
    rep = spectra.integral_separation_logs(logs, h_fine, 0, 1, a0=0.005, T0=1.0)
    same = spectra.integral_separation_logs(logs, h_fine, 0, 0, a0=0.005, T0=1.0)
    ok = (rep.kind == "separated" and abs(rep.a - gap) <= 0.1 * gap
          and same.kind == "bounded-average")
    _announce(capfd,
              f"ACCEPTANCE 8: {'PASS' if ok else 'FAIL'} — equal-amplitude pair "
              f"classified {rep.kind!r} with rate {rep.a:.5f} (offset gap {gap:.3f}); "
              f"same-mode pair classified {same.kind!r} (eps={same.eps:.1e}, "
              f"M={same.M:.1e}).")
    assert rep.kind == "separated"
    assert rep.a == pytest.approx(gap, rel=0.1)
    assert same.kind == "bounded-average"


def test_criterion_9_deterministic_output(tmp_path, capfd):
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert cli.main(["table1", "--out", str(out)]) == 0
        outs.append(out)
    same_table = (outs[0] / "table1.csv").read_bytes() == \
        (outs[1] / "table1.csv").read_bytes()
    same_figure = (outs[0] / "figure1.csv").read_bytes() == \
        (outs[1] / "figure1.csv").read_bytes()
    ok = same_table and same_figure
    _announce(capfd, f"ACCEPTANCE 9: {'PASS' if ok else 'FAIL'} — consecutive runs "
              f"byte-identical (table {same_table}, per-step series {same_figure}).")
    assert same_table and same_figure
