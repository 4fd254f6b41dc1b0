"""The four benchmark workloads.

A workload turns a seed into inputs and the inputs into a list of operations.
An operation's ``run`` is timed; its ``check`` runs after the pass, outside
the timed region, and raises :class:`CheckFailed` when the output is wrong.
Operations of one pass share a ``state`` dict, so an operation that needs an
earlier one's output fails when that one failed.

The seed chooses parameters and call order, never the amount of work: step
counts and sample counts are fixed per size, so passes with different seeds
cost about the same and their medians can be compared.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from glmstab import cli, glm, problems, spectra

HERE = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[dict], object]           # state -> output (timed)
    check: Callable[[object], None]         # output -> None, or raise


def _cli(argv, out):
    """cli.main as a user calls it; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv) + ["--out", out])


def _report(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# paper_tables: the reproduction path, checked byte for byte


PAPER_CALLS = {
    "table1": ["table1"],
    "table2-as-printed": ["table2", "--b1-reading", "as-printed"],
    "table2-corrected": ["table2", "--b1-reading", "corrected"],
}


def load_digests():
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


def file_digests(workdir):
    """sha256 of every file under workdir, keyed by its relative path."""
    out = {}
    for root, _, files in os.walk(workdir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                rel = os.path.relpath(path, workdir).replace(os.sep, "/")
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def paper_tables(seed, size, workdir):
    """table1 and table2 under both offset readings, in a seeded order."""
    order = sorted(PAPER_CALLS)
    random.Random(seed).shuffle(order)
    digests = load_digests()
    ops = []
    for key in order:
        out = os.path.join(workdir, key)
        want = {k: v for k, v in digests.items() if k.startswith(key + "/")}

        def check(rc, out=out, key=key, want=want):
            expect(rc == 0, f"exit code {rc}")
            got = {key + "/" + k: v for k, v in file_digests(out).items()}
            bad = sorted(k for k in want if got.get(k) != want[k])
            expect(want and not bad, f"digest mismatch in {bad or 'all'}")

        ops.append(Op(key, lambda state, argv=PAPER_CALLS[key], out=out:
                      _cli(argv, out), check))
    return ops


# ---------------------------------------------------------------------------
# long_frame_trail: one long full-frame QR trail through the library calls

FRAME_STEPS = {"full": 100_000, "tiny": 2_000}
FRAME_CHUNKS = 20


def frame_inputs(seed):
    """Corrected table-2 offsets, moderate amplitudes: decays without diverging."""
    rng = random.Random(seed)
    a = rng.uniform(1.0, 1.6)
    params = problems.RotatingCosineParams(
        a1=a, a2=a, b1=rng.uniform(-0.06, -0.04), b2=rng.uniform(-0.6, -0.5),
        beta=rng.uniform(0.5, 1.5))
    return params, rng.uniform(0.07, 0.08)


def long_frame_trail(seed, size, workdir):
    """The library chain as separate operations; the QR trail advances in chunks.

    Short operations reach the host's fast speed in more passes (README,
    Steadiness); advancing one trail over consecutive slices of the Phi series
    gives the same trail as one call over the whole series.
    """
    params, h = frame_inputs(seed)
    n = FRAME_STEPS[size]
    tab = glm.get_tableau("bdf2")
    bounds = [n * i // FRAME_CHUNKS for i in range(FRAME_CHUNKS + 1)]

    def run_transitions(state):
        prob = problems.rotating_cosine_problem(params)
        x0s = glm.start_rk4(prob, (1.0, 0.0), 0.0, h, tab.k)
        traj, phis = glm.run_linear(tab, prob, x0s, n, h, keep_transitions=True)
        state["phis"] = phis
        state["trail"] = spectra.new_matrix_trail(tab.k * prob.d, h)
        return traj

    def check_transitions(traj):
        expect(not traj.diverged and traj.n_steps == n,
               f"diverged={traj.diverged} after {traj.n_steps} of {n} steps")

    def advance(lo, hi):
        def run(state):
            return spectra.qr_advance_series(state["trail"], state["phis"][lo:hi])

        def check(trail):
            # checked after the pass, when every slice has been advanced; the
            # per-step telescoping is checked once, with the estimators
            expect(trail.n_steps == n, f"trail has {trail.n_steps} of {n} steps")

        return Op(f"qr_trail-{lo}", run, check)

    def run_estimators(state):
        trail = state["trail"]
        m = trail.n_steps
        est = spectra.mu_appr(trail, m // 2, m - m // 2)
        ends = spectra.lyapunov_endpoints(trail)
        window = spectra.sacker_sell_window(trail, max(1.0, 10.0 * h))
        return state["phis"], trail, (est.mu, ends.eta, ends.mu, window.alpha, window.beta)

    def check_estimators(out):
        phis, trail, estimates = out
        logs = trail.logs()
        expect(logs.shape == (n, tab.k * 2), f"trail logs shape {logs.shape}")
        _, logdet = np.linalg.slogdet(phis)
        tele = float(np.max(np.abs(logs.sum(axis=1) - logdet)))
        expect(tele <= 1e-12, f"sum ln R_ii vs ln|det Phi| off by {tele:.3e}")
        frame = trail.frame
        ortho = float(np.max(np.abs(frame.T @ frame - np.eye(frame.shape[1]))))
        expect(ortho <= 1e-12, f"final frame orthonormality {ortho:.3e}")
        expect(all(np.all(np.isfinite(e)) for e in estimates), "non-finite estimate")

    return ([Op("transitions", run_transitions, check_transitions)]
            + [advance(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
            + [Op("estimators", run_estimators, check_estimators)])


# ---------------------------------------------------------------------------
# oracle_separation: continuous-QR oracle, then integral separation of its logs

ORACLE_STEPS = {"full": 10_000, "tiny": 1_000}
SEPARATION_A0 = 0.005


def oracle_inputs(seed):
    """Equal amplitudes, so the rotated-frame gap b1 - b2 is constant."""
    rng = random.Random(seed)
    a = rng.uniform(0.8, 1.6)
    b1 = rng.uniform(-0.2, -0.1)
    params = problems.RotatingCosineParams(
        a1=a, a2=a, b1=b1, b2=b1 - rng.uniform(0.02, 0.3),
        beta=rng.uniform(1.0, 10.0), omega_rate=rng.uniform(0.5, 1.5))
    return params, rng.uniform(0.008, 0.012)


def oracle_separation(seed, size, workdir):
    params, h_fine = oracle_inputs(seed)
    n = ORACLE_STEPS[size]
    t_final = n * h_fine
    gap = params.b1 - params.b2

    def run_oracle(state):
        prob = problems.rotating_cosine_problem(params)
        oracle = spectra.continuous_qr_oracle(prob, t_final, h_fine)
        span = oracle.ts[-1] - oracle.ts[0]
        rates = spectra.integrate_diag(oracle, oracle.ts[0], oracle.ts[-1]) / span
        state["logs"] = oracle.b_diag[:-1] * h_fine
        return oracle, rates

    def check_oracle(out):
        oracle, rates = out
        ts = oracle.ts
        want = np.column_stack([params.a1 * np.cos(ts) + params.b1,
                                params.a2 * np.cos(ts) + params.b2])
        err = float(np.max(np.abs(oracle.b_diag - want)))
        expect(err <= 1e-6, f"oracle rates off diag B(t) by {err:.3e}")
        span = ts[-1] - ts[0]
        mean = np.array([params.b1, params.b2]) + \
            np.array([params.a1, params.a2]) * (math.sin(ts[-1]) - math.sin(ts[0])) / span
        err = float(np.max(np.abs(rates - mean)))
        expect(err <= 1e-6, f"integrated mean rates off by {err:.3e}")

    def separation(i, j):
        return lambda state: spectra.integral_separation_logs(
            state["logs"], h_fine, i, j, a0=SEPARATION_A0, T0=1.0)

    def check_separated(rep):
        expect(rep.kind == "separated", f"pair (0,1) classified {rep.kind!r}")
        expect(abs(rep.a - gap) <= 0.1 * gap, f"rate {rep.a:.6g} vs gap {gap:.6g}")

    def check_bounded(rep):
        expect(rep.kind == "bounded-average", f"pair (0,0) classified {rep.kind!r}")

    return [Op("oracle", run_oracle, check_oracle),
            Op("separation_01", separation(0, 1), check_separated),
            Op("separation_00", separation(0, 0), check_bounded)]


# ---------------------------------------------------------------------------
# small_runs: a parameter sweep's stream of short calls

SWEEP_POINTS = {"full": 2, "tiny": 1}
RUN_GRID = {"full": (0.1, 40.0), "tiny": (0.1, 4.0)}     # (h, t_final)
TANH_H, TANH_STEPS = 0.01, {"full": 500, "tiny": 50}


def _counterexample(rng, method, out):
    argv = ["counterexample", "--method", method,
            "--h", repr(rng.uniform(0.4, 0.5)), "--D", repr(rng.uniform(0.2, 0.3)),
            "--L", repr(rng.uniform(-0.1, -0.05))]

    def check(rc):
        expect(rc == 0, f"exit code {rc}")
        rep = _report(out, "counterexample_report.json")
        expect(rep["steps"] == 200, f"stopped after {rep['steps']} steps")
        expect(rep["growth_factor"] >= 10.0, f"growth {rep['growth_factor']:.3g}")

    return Op(f"counterexample-{method}", lambda state: _cli(argv, out), check)


def _converge(method, out):
    order = glm.get_tableau(method).order

    def check(rc):
        expect(rc == 0, f"exit code {rc}")
        rep = _report(out, "converge_report.json")
        expect(abs(rep["global_slope"] - order) <= 0.1,
               f"global slope {rep['global_slope']:.3f}, order {order}")
        expect(abs(rep["lte_slope"] - (order + 1)) <= 0.1,
               f"defect slope {rep['lte_slope']:.3f}, order {order}")

    return Op(f"converge-{method}", lambda state: _cli(["converge", "--method", method],
                                                        out), check)


def _run(rng, size, out):
    """A run from a non-axis x0: reference_batch takes its quadrature branch."""
    a = rng.uniform(1.0, 1.4)
    b1 = rng.uniform(-0.16, -0.12)
    theta = rng.uniform(0.3, 1.2)
    cfg = {"a1": a, "a2": a, "b1": b1, "b2": b1 - rng.uniform(0.01, 0.05),
           "beta": rng.uniform(5.0, 10.0), "x0": [math.cos(theta), math.sin(theta)]}
    h, t_final = RUN_GRID[size]
    argv = ["run", "--h", repr(h), "--tfinal", repr(t_final), "--config", json.dumps(cfg)]

    def check(rc):
        expect(rc == 0, f"exit code {rc}")
        rep = _report(out, "run_report.json")
        expect(not rep["diverged"] and rep["n_steps"] == round(t_final / h),
               f"diverged={rep['diverged']} after {rep['n_steps']} steps")
        expect(all(math.isfinite(rep[k]) for k in ("mu_appr", "lte_mean", "lte_max")),
               "non-finite run report")

    return Op("run", lambda state: _cli(argv, out), check)


def _tanh(rng, size):
    p = problems.TanhForcedParams(a=rng.uniform(-1.5, -0.5))
    n = TANH_STEPS[size]
    tab = glm.get_tableau("bdf2")

    def f(x, t):
        return problems.tanh_rhs(p, x, t)

    def jac(x, t):
        return problems.tanh_jac(p, x, t)

    def run(state):
        x0s = glm.start_rk4(f, (0.0,), 0.0, TANH_H, tab.k)
        return glm.run_nonlinear(tab, f, jac, x0s, n, TANH_H)

    def check(traj):
        t_last = (traj.n_steps + tab.k - 1) * TANH_H
        err = abs(float(traj.states[-1, -1]) - problems.tanh_reference(p, t_last))
        expect(traj.n_steps == n and err <= 1e-4, f"tanh end error {err:.3e}")

    return Op("tanh", run, check)


def small_runs(seed, size, workdir):
    rng = random.Random(seed)
    ops = []
    for point in range(SWEEP_POINTS[size]):
        def out(name):
            return os.path.join(workdir, f"{point}-{name}")

        ops += [_counterexample(rng, "bdf2", out("ce-bdf2")),
                _counterexample(rng, "ab2", out("ce-ab2")),
                _converge("bdf2", out("cv-bdf2")),
                _converge("ab2", out("cv-ab2")),
                _converge("be", out("cv-be")),
                _run(rng, size, out("run")),
                _tanh(rng, size)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "paper_tables": paper_tables,
    "long_frame_trail": long_frame_trail,
    "oracle_separation": oracle_separation,
    "small_runs": small_runs,
}
