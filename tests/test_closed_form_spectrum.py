"""The discrete spectra against the ODE's own, closed-form spectrum.

In the rotated frame y = Q^T x the rotating-cosine system is upper triangular
(problems docstring), so its spectrum is known: the Lyapunov exponents are b1 and
b2; mode i's average rate over [t, t + H] is b_i + a_i (sin(t + H) - sin t) / H,
whose extremes are b_i -+ 2 a_i |sin(H / 2)| / H; and with a1 = a2 the mode gap is
the constant b1 - b2, so the modes are integrally separated at that rate.

A strictly stable GLM's k d discrete exponents split in two groups: d of them
approximate the ODE's exponents at the method's order p, and d (k - 1) are
parasitic, set by E22 of the spectral split. Every rate here is taken over
[20 pi, 80 pi], where sin takes the same value at both ends, after a burn-in that
lets the frame settle. Each test prints a PASS/FAIL line, as the acceptance tests do.
"""

import math

import numpy as np
import pytest

from glmstab import cli, glm, onestep, problems, spectra

SEPARATED = problems.RotatingCosineParams(a1=1.2, a2=1.2, b1=-0.1, b2=-1.0, beta=1.0)
TABLE1 = problems.RotatingCosineParams(**cli.TABLE1_PROBLEM)
HS = (0.1, 0.05, 0.025)       # at 0.0125 a finite-T floor of ~1e-4 shows
BURN_IN, T_FINAL = 20.0 * math.pi, 80.0 * math.pi
H_WINDOW = 5.0                # the Sacker-Sell window


class Run:
    """The frame-trail logs of one run after the burn-in, their mean rates, and the
    mean rate of the run's w-sequence over the same span."""

    def __init__(self, name: str, params: problems.RotatingCosineParams, h: float):
        tab = glm.get_tableau(name)
        prob = problems.rotating_cosine_problem(params)
        n_f = glm.span_steps(h, T_FINAL, 0.0)
        x0s = problems.reference_batch(params, h * np.arange(tab.k)).ravel()
        traj, trail, _ = cli._integrate(tab, prob, x0s, n_f, h, 0.0, frame=True)
        n_b = int(round(BURN_IN / h))
        self.h, self.logs = h, trail.logs()[n_b:]
        span = len(self.logs) * h
        self.rates = self.logs.sum(axis=0) / span
        w = onestep.extract_w(traj, onestep.spectral_split(tab)).values
        log_w = np.log(np.linalg.norm(w[[n_b, n_f]], axis=1))
        self.w_rate = (log_w[1] - log_w[0]) / span

    def top(self) -> spectra.QrTrail:
        """The trail of the d = 2 modes that approximate the ODE's."""
        return spectra.QrTrail(self.h, 0.0, None, self.logs[:, :2])


@pytest.fixture(scope="module")
def runs():
    out = {(name, h): Run(name, SEPARATED, h) for name in ("bdf2", "ab2", "be")
           for h in HS}
    out.update({("table1", h): Run("bdf2", TABLE1, h) for h in HS})
    return out


def _announce(capfd, line):
    with capfd.disabled():
        print("\n" + line, flush=True)


def _exponents(params):
    return np.array([params.b1, params.b2])


def _halving_ratios(errors):
    """err(h) / err(h / 2) per mode, for each step size but the last."""
    errors = np.abs(np.array(errors))
    return errors[:-1] / errors[1:]


def _ss_errors(run, params):
    """Per mode, the larger error of the two Sacker-Sell endpoints over windows of
    H_WINDOW against b_i -+ 2 a_i |sin(H / 2)| / H."""
    ss = spectra.sacker_sell_window(run.top(), H_WINDOW)
    half = 2.0 * np.array([params.a1, params.a2]) * abs(math.sin(H_WINDOW / 2)) / H_WINDOW
    b = _exponents(params)
    return np.maximum(np.abs(ss.alpha - (b - half)), np.abs(ss.beta - (b + half)))


@pytest.mark.parametrize("name", ["bdf2", "ab2", "be"])
def test_top_exponents_converge_at_the_method_order(runs, name, capfd):
    p = glm.get_tableau(name).order
    rate_ratios = _halving_ratios([runs[name, h].rates[:2] - _exponents(SEPARATED)
                                   for h in HS])
    ss_ratios = _halving_ratios([_ss_errors(runs[name, h], SEPARATED) for h in HS])
    lo, hi = 0.75 * 2 ** p, 1.25 * 2 ** p
    ok = all(((lo <= r) & (r <= hi)).all() for r in (rate_ratios, ss_ratios))
    _announce(capfd, f"SPECTRUM {name}: {'PASS' if ok else 'FAIL'} — halving ratios "
              f"of the top-two exponent errors {np.round(rate_ratios, 2).tolist()} and "
              f"of the Sacker-Sell endpoint errors {np.round(ss_ratios, 2).tolist()} "
              f"(need [{lo}, {hi}], p = {p})")
    assert ok


@pytest.mark.parametrize("name", ["bdf2", "ab2"])
def test_discrete_trail_separated_at_the_ode_rate(runs, name, capfd):
    gap = SEPARATED.b1 - SEPARATED.b2
    h = HS[-1]
    report = spectra.integral_separation_logs(runs[name, h].logs[:, :2], h, 0, 1,
                                              a0=0.5, T0=5.0)
    ok = report.kind == "separated" and abs(report.a - gap) <= 0.1 * gap
    _announce(capfd, f"SPECTRUM {name} separation: {'PASS' if ok else 'FAIL'} — "
              f"{report.kind} at a = {report.a:.4f} (exact gap {gap}, h = {h})")
    assert ok


def test_bdf2_parasitic_exponents_follow_e22(runs, capfd):
    # the table-1 problem (gap 0.01, beta 10) converges only at first order over
    # these h: its top-mode errors are reported, not gated
    rho = float(np.max(np.abs(np.linalg.eigvals(
        onestep.spectral_split(glm.get_tableau("bdf2")).E22))))
    offsets = [runs["table1", h].rates[2:] - math.log(rho) / h for h in HS]
    top_errors = [runs["table1", h].rates[0] - TABLE1.b1 for h in HS]
    ok = all((np.abs(o) <= 3.0).all() for o in offsets)
    _announce(capfd, f"SPECTRUM bdf2 parasitic: {'PASS' if ok else 'FAIL'} — offsets "
              f"from ln(rho(E22))/h, rho = {rho:.6f}: "
              f"{np.round(offsets, 2).tolist()} at h = {list(HS)} (need |.| <= 3); "
              f"table-1 top-mode errors {np.round(top_errors, 3).tolist()}")
    assert ok


@pytest.mark.parametrize("name", ["bdf2", "ab2", "be"])
def test_w_sequence_exponent_matches_the_top_frame_exponent(runs, name, capfd):
    # both approximate b1; they agree far inside the error either makes
    gaps = [abs(runs[name, h].w_rate - runs[name, h].rates[0]) for h in HS]
    errors = [abs(runs[name, h].rates[0] - SEPARATED.b1) for h in HS]
    ok = all(g <= 0.01 * e for g, e in zip(gaps, errors))
    _announce(capfd, f"SPECTRUM {name} w-sequence: {'PASS' if ok else 'FAIL'} — "
              f"|w rate - top frame rate| {[f'{g:.1e}' for g in gaps]} against the "
              f"frame's error {[f'{e:.1e}' for e in errors]} (need <= 1%)")
    assert ok
