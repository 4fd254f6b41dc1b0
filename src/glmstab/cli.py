"""Command-line front end: experiment tables, counterexample demo, spectrum runs.

Subcommands: run, table1, table2, counterexample, spectrum, converge.
Exit codes: 0 success, 2 config error, 3 numerical failure.

All output is deterministic: CSV with 17-significant-digit scientific floats and
csv.writer's conventions (comma separated, "\r\n" line ends), strict JSON with
sorted keys and null for a float that is not finite. Table commands emit computed
columns side by side with the published values they are compared against.
"""

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import glm, onestep, problems, spectra
from .errors import ConfigError, NumericalError, WindowOutOfRange

FLOAT_FMT = b"%.16e"   # 17 significant digits: exact float64 round-trip; nan, inf
CSV_EOL = b"\r\n"      # the line end of csv.writer
_LINES_PER_BLOCK = 4096   # CSV lines formatted, joined and written at a time
_STARTS = ("rk4", "reference")      # the start procedures of experiment_row
_LTE_SCALES = ("per-h", "defect")   # the restart defect over h, or as it is
_WORDS4 = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy() + 48).view(np.uint32).ravel()
_POW10 = np.array([10 ** k for k in range(23)], dtype=float)   # all exact
_NINES = np.array([min(10 ** p, 2 ** 63) - 1 for p in range(1, 20)])  # top int64 of p digits
_LEADS, _EXPS, _KEEP, _COMMA, _EOL = (np.array(w, "S4").view(np.uint32) for w in (
    [b"\0%s%d." % (s, d) for s in (b"\0", b"-") for d in range(10)],  # [d + 10 (x < 0)]
    [b"e%+03d" % k for k in range(-6, 17)],                 # [E + 6]: e, sign, 2 digits
    [b"\0" * (4 - k) + b"\xff" * k for k in range(4)],      # [k]: keeps the last k bytes
    [b","], [CSV_EOL]))


def _csv_line(*fields: bytes) -> bytes:
    """A %-format for one CSV line of the given field formats."""
    return b",".join(fields) + CSV_EOL


def _digit_words(n: np.ndarray, words) -> np.ndarray:
    """Write n's last 4 len(words) digits into the word rows; return the rest of n."""
    for row in range(len(words) - 1, -1, -1):   # floor_divide: numpy's fast path
        n, group = np.floor_divide(n, 10000), n
        words[row] = _WORDS4[group - n * 10000]
    return n


def _int_field(n: np.ndarray, words) -> None:
    """Write "%d" % n[i], NUL-padded in front, into the w word rows of a block buffer,
    for nondecreasing int64 n >= 0 of at most 4 w digits."""
    _digit_words(n, words)
    for p, rows in enumerate(np.searchsorted(n, _NINES[:4 * len(words) - 1], "right"), 1):
        words[-1 - p // 4, :rows] &= _KEEP[p % 4]   # rows n < 10**p: NUL from place p


def _e16_field(values, words) -> None:
    """Write FLOAT_FMT % values[i], NUL-padded, into the six word rows of a block
    buffer: lead, four of 4 digits, exponent.

    Where E = floor(log10|x|) lies in [-6, 16], Dekker's two-product (Veltkamp
    split; numpy never fuses a multiply-add) gives hi + lo = |x| * 10**(16 - E)
    exactly, 10**(16 - E) being an exact double. If 1e16 <= hi + lo, decided from
    the pair, the 17 digits are N = hi + rint(lo): hi is an even integer there, so
    rint's ties to even are those of %. % formats every other value, and N = 1e17,
    a carry into the exponent that no double of this range makes.
    """
    x = np.asarray(values, dtype=float)
    # log10(±0) divides; numpy's AVX2 log10 flags a signaling NaN as invalid
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(np.abs(x)))
    fast = (e >= -6) & (e <= 16)
    a, e = np.where(fast, np.abs(x), 1.0), np.where(fast, e, 0.0).astype(np.int64)
    p = _POW10[16 - e]
    ca, cp = 134217729.0 * a, 134217729.0 * p       # Veltkamp split by 2**27 + 1
    ah, ph = ca - (ca - a), cp - (cp - p)
    al, pl = a - ah, p - ph
    hi = a * p
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    fast &= (hi > 1e16) | ((hi == 1e16) & (lo >= 0))      # 1e16 <= hi + lo
    n = (np.where(fast, hi, 1e16).astype(np.int64)
         + np.where(fast, np.rint(lo), 0.0).astype(np.int64))
    fast &= n < 10 ** 17
    words[0], words[5] = _LEADS[_digit_words(n, words[1:5]) + 10 * (x < 0)], _EXPS[e + 6]
    words[:, ~fast] = np.array([FLOAT_FMT % v for v in x[~fast].tolist()],
                               "S24")[:, None].view(np.uint32).T


def _csv_blocks(prefix: bytes, start: int, *columns):
    """CSV lines n = start, start + 1, ... of equal-length float columns (prefix, n,
    each column's FLOAT_FMT value), one bytes object per _LINES_PER_BLOCK lines."""
    m = len(columns[0])
    head = np.frombuffer(prefix + b"\0" * (-len(prefix) % 4), np.uint32)
    index = slice(len(head), len(head) - (-len(str(start + m - 1)) // 4))
    comma = index.stop + 7 * np.arange(len(columns))     # each column's comma word
    buf = np.empty((comma[-1] + 8, min(m, _LINES_PER_BLOCK)), np.uint32)  # (words, lines)
    buf[:len(head)], buf[comma], buf[-1] = head[:, None], _COMMA, _EOL
    for lo in range(0, m, _LINES_PER_BLOCK):
        block = buf[:, :min(m - lo, _LINES_PER_BLOCK)]
        _int_field(np.arange(start + lo, start + lo + block.shape[1]), block[index])
        for row, column in zip(comma, columns):
            _e16_field(column[lo:lo + block.shape[1]], block[row + 1:row + 7])
        yield block.T.tobytes().translate(None, b"\0")   # less the NULs


# Published experiment values (side-by-side columns, tolerance-checked only by
# the test suite). Table 1: h -> (lte_mean, lte_max, mu). Table 2:
# a -> (lte_mean, lte_max, mu, tau_max).
TABLE1_PROBLEM = {"a1": 1.2, "a2": 1.2, "b1": -0.14, "b2": -0.15, "beta": 10.0}
TABLE1_H = (7.5e-1, 7.5e-2, 7.5e-3, 7.5e-4)
TABLE1_TFINAL = 40.0
TABLE1_PUBLISHED = {
    7.5e-1: (1.37e10, 1.51e11, 7.68e-1),
    7.5e-2: (3.75e-3, 9.42e-3, 9.03e-3),
    7.5e-3: (3.60e-7, 6.38e-4, -9.70e-2),
    7.5e-4: (1.95e-9, 6.24e-5, -9.04e-2),
}

TABLE2_A = (1.15, 1.45, 1.75, 2.05)
TABLE2_H = 0.05
TABLE2_TFINAL = 100.0
# b1 as printed is -0.5; the published mu column is only reproducible with the
# corrected reading -0.05 (which also restores the standing assumption
# b2 < b1 < 0 against the printed b2).
TABLE2_B1 = {"as-printed": -0.5, "corrected": -0.05}
TABLE2_B2 = {"as-printed": -0.055, "corrected": -0.55}
TABLE2_PUBLISHED = {
    1.15: (5.50e-5, 4.38e-3, -2.33e-2, 1.068),
    1.45: (1.18e-4, 5.02e-3, -1.69e-3, 1.086),
    1.75: (2.88e-4, 5.70e-3, 1.78e-2, 1.11),
    2.05: (7.96e-4, 6.4e-3, 3.64e-2, 1.23),
}


def _write_csv(path: str, header, lines) -> None:
    """Write the header fields, then the formatted lines (any iterable of bytes).

    Every CSV file goes through here, so a tracer wrapping it sees every byte.
    """
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + CSV_EOL)
        fh.writelines(lines)


def _figure_lines(key: float, times, lte, norms):
    """Figure CSV lines, one per defect: key, n, t_n, log10 LTE_n, log10 ||x_n||.

    The logarithms are math.log10 per value, clamped at 1e-300 (NaN passes
    through); np.log10 differs from it in the last ulp on some values. The key is
    formatted once, as the prefix of every line. Yields joined blocks of lines.
    """
    prefix = FLOAT_FMT % key + b","
    for lo in range(0, len(lte), _LINES_PER_BLOCK):
        s = slice(lo, min(lo + _LINES_PER_BLOCK, len(lte)))
        logs = (np.fromiter(map(math.log10, np.maximum(x[s], 1e-300).tolist()), float)
                for x in (lte, norms))
        yield from _csv_blocks(prefix, lo, times[s], *logs)


def _run_lines(times, norms, lte, running):
    """run.csv lines for n = 0..m, m = len(lte) >= 1: n, t_n, ||x_n||, LTE_n, mu_n.

    The defect is empty on the last line, the running average on the first.
    Yields joined blocks of lines.
    """
    m = len(lte)
    yield _csv_line(b"0", *[FLOAT_FMT] * 3, b"") % (times[0], norms[0], lte[0])
    yield from _csv_blocks(b"", 1, times[1:m], norms[1:m], lte[1:], running[:m - 1])
    yield _csv_line(b"%d", FLOAT_FMT, FLOAT_FMT, b"", FLOAT_FMT) % (
        m, times[m], norms[m], running[m - 1])


def _finite_or_null(obj):
    """obj with each NaN or infinite float replaced by None, which JSON writes as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _write_json(path: str, obj) -> None:
    """Strict JSON: a float that is not finite is written as null."""
    with open(path, "w") as fh:
        json.dump(_finite_or_null(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _ensure_out(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# experiment rows (shared by the table commands and the acceptance tests)


class ExperimentRow:
    """Everything one table row needs: estimates plus per-step series."""

    __slots__ = ("h", "n_steps", "diverged", "mu", "mu_frame", "argmax_t", "lte_mean",
                 "lte_max", "tau_max", "times", "norms", "lte", "running_mu")

    def __init__(self, h: float, n_steps: int, diverged: bool, mu: float,
                 mu_frame: float, argmax_t: float, lte_mean: float, lte_max: float,
                 tau_max: float, times: np.ndarray, norms: np.ndarray, lte: np.ndarray,
                 running_mu: np.ndarray):
        self.h, self.n_steps, self.diverged = h, n_steps, diverged
        self.mu = mu                # w-sequence trail estimate
        self.mu_frame = mu_frame    # leading mode of the full-frame trail
        self.argmax_t = argmax_t
        self.lte_mean, self.lte_max, self.tau_max = lte_mean, lte_max, tau_max
        self.times = times          # t_n for n = 0..n_steps (first-block times)
        self.norms = norms          # ||x_n|| along the first blocks
        self.lte = lte              # per-step restart defect series (scaled)
        self.running_mu = running_mu    # origin-anchored running average, length n_steps


def _integrate(tab: glm.GlmTableau, prob: problems.LinearProblem, x0s, n_f: int,
               h: float, t0: float, frame=False, reference=None):
    """Run n_f steps of the method on prob from t0 and the start supervector x0s:
    (trajectory, frame trail if frame, unscaled restart defects if reference(lo, hi)
    -> (hi - lo, d) samples the exact solution at t_lo, ..., t_{hi-1}; else None).

    The one integration path of the commands. Each chunk of Phi that run_linear
    keeps feeds the trail and the defects and is dropped, so RankDeficient and
    QuadratureUnderResolved raise mid-run, the earlier step's first. A command
    checks its windows against n_f.
    """
    trail = spectra.new_matrix_trail(tab.k * prob.d, h, t0) if frame else None
    defects = [np.empty(0)]

    def consume(base, phis):
        if frame:
            spectra.qr_advance_series(trail, phis)
        if reference is not None:
            refs = reference(base, base + len(phis) + tab.k)
            defects.append(glm.lte_series(tab, phis, refs))

    traj = glm.run_linear(tab, prob, x0s, n_f, h, t0, on_chunk=consume)
    return traj, trail, None if reference is None else np.concatenate(defects)


def _w_trail(tab: glm.GlmTableau, traj: glm.Trajectory) -> spectra.QrTrail:
    """The vector trail of a run's w-sequence."""
    w = onestep.extract_w(traj, onestep.spectral_split(tab))
    return spectra.vector_trail_from_values(w.values, traj.h, traj.t0)


def experiment_row(tab: glm.GlmTableau, params: problems.RotatingCosineParams,
                   h: float, t_final: float, t0: float = 0.0, x0=(1.0, 0.0),
                   start: str = "rk4", n0: Optional[int] = None,
                   denominator: str = "t0", sum_start: str = "origin",
                   lte_scale: str = "per-h", with_frame: bool = False) -> ExperimentRow:
    """Integrate one parameter set and compute the diagnostic row.

    A window start n0 outside the requested steps, or an unknown start, lte_scale,
    denominator or sum_start, raises ConfigError up front.
    """
    n_f = glm.span_steps(h, t_final, t0)
    if n0 is not None and not 0 <= n0 < n_f:
        raise ConfigError(f"window start n0={n0} must lie in [0, {n_f}) "
                          f"for a span of {n_f} steps")
    for name, value, known in (
            ("start procedure", start, _STARTS), ("lte scale", lte_scale, _LTE_SCALES),
            ("denominator mode", denominator, spectra.DENOMINATOR_MODES),
            ("sum_start mode", sum_start, spectra.SUM_START_MODES)):
        if value not in known:
            raise ConfigError(f"unknown {name} {value!r}")
    prob = problems.rotating_cosine_problem(params)

    def reference(lo, hi):
        return problems.reference_batch(params, t0 + h * np.arange(lo, hi), x0=x0, t0=t0)

    x0s = (glm.start_rk4(prob, x0, t0, h, tab.k) if start == "rk4"
           else reference(0, tab.k).ravel())
    traj, ftrail, lte = _integrate(tab, prob, x0s, n_f, h, t0, with_frame, reference)
    m = traj.n_steps

    trail = _w_trail(tab, traj)
    n0 = m // 2 if n0 is None else n0
    window = dict(n0=n0, n=m - n0, denominator=denominator, sum_start=sum_start)
    est = spectra.mu_appr(trail, **window)
    mu_frame = float(spectra.mu_appr(ftrail, **window).mu[0]) if with_frame else math.nan

    lte = lte / h if lte_scale == "per-h" else lte
    _, tau_max = glm.tau_series(lte)
    running = np.cumsum(trail.logs()[:, 0]) / (h * np.arange(1, m + 1))
    return ExperimentRow(
        h=h, n_steps=m, diverged=traj.diverged, mu=float(est.mu[0]),
        mu_frame=mu_frame, argmax_t=float(est.argmax_t[0]),
        lte_mean=float(lte.mean()), lte_max=float(lte.max()), tau_max=tau_max,
        times=traj.times(),
        norms=np.linalg.norm(traj.first_blocks(), axis=1),
        lte=lte, running_mu=running,
    )


def table1_rows(**overrides) -> list:
    tab = glm.get_tableau("bdf2")
    params = problems.RotatingCosineParams(**TABLE1_PROBLEM)
    return [experiment_row(tab, params, h, TABLE1_TFINAL, **overrides)
            for h in TABLE1_H]


def table2_rows(b1_reading: str = "as-printed", b2_reading: str = "as-printed",
                **overrides) -> list:
    tab = glm.get_tableau("bdf2")
    rows = []
    for a in TABLE2_A:
        params = problems.RotatingCosineParams(
            a1=a, a2=a, b1=TABLE2_B1[b1_reading], b2=TABLE2_B2[b2_reading], beta=1.0)
        rows.append(experiment_row(tab, params, TABLE2_H, TABLE2_TFINAL,
                                   with_frame=True, **overrides))
    return rows


# ---------------------------------------------------------------------------
# subcommands


def _load_config(raw: Optional[str]) -> dict:
    if raw is None:
        return {}
    text = raw
    if not raw.lstrip().startswith("{"):
        try:
            with open(raw) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {raw!r}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _problem_and_method(args):
    """The --config problem (TABLE1_PROBLEM if empty), then --h and --tfinal, then
    the --method tableau, checked in that order: (tab, params, t0, x0)."""
    params, t0, x0 = problems.rotating_config(_load_config(args.config)
                                              or dict(TABLE1_PROBLEM))
    if args.h is None or args.tfinal is None:
        raise ConfigError(f"{args.cmd} needs --h and --tfinal")
    return glm.get_tableau(args.method), params, t0, x0


def cmd_run(args) -> int:
    tab, params, t0, x0 = _problem_and_method(args)
    row = experiment_row(tab, params, args.h, args.tfinal, t0=t0, x0=tuple(x0),
                         start=args.start, n0=args.n0,
                         denominator=args.denominator, sum_start=args.sum_start,
                         lte_scale=args.lte_scale)
    out = _ensure_out(args.out)
    _write_csv(os.path.join(out, "run.csv"),
               ["n", "t", "norm_x", "lte", "running_mu"],
               _run_lines(row.times, row.norms, row.lte, row.running_mu))
    _write_json(os.path.join(out, "run_report.json"), {
        "method": args.method, "h": row.h, "n_steps": row.n_steps,
        "diverged": row.diverged, "mu_appr": row.mu, "argmax_t": row.argmax_t,
        "lte_mean": row.lte_mean, "lte_max": row.lte_max, "tau_max": row.tau_max,
        "denominator": args.denominator, "sum_start": args.sum_start,
        "lte_scale": args.lte_scale,
    })
    print(f"run: mu_appr={row.mu:+.6e} lte_mean={row.lte_mean:.6e} "
          f"lte_max={row.lte_max:.6e} tau_max={row.tau_max:.4f} "
          f"diverged={row.diverged} -> {out}/run.csv")
    return 0


def cmd_table1(args) -> int:
    rows = table1_rows(denominator=args.denominator, sum_start=args.sum_start)
    out = _ensure_out(args.out)
    line = _csv_line(*[FLOAT_FMT] * 7, b"%d")
    _write_csv(os.path.join(out, "table1.csv"),
               ["h", "lte_mean", "lte_max", "mu", "pub_lte_mean", "pub_lte_max",
                "pub_mu", "diverged"],
               [line % (h, row.lte_mean, row.lte_max, row.mu, *TABLE1_PUBLISHED[h],
                        int(row.diverged)) for h, row in zip(TABLE1_H, rows)])
    _write_csv(os.path.join(out, "figure1.csv"),
               ["h", "n", "t", "log10_lte", "log10_norm_x"],
               (block for h, row in zip(TABLE1_H, rows)
                for block in _figure_lines(h, row.times, row.lte, row.norms)))
    for h, row in zip(TABLE1_H, rows):
        print(f"table1 h={h:g}: mu={row.mu:+.6e} (published {TABLE1_PUBLISHED[h][2]:+.3e}) "
              f"lte_mean={row.lte_mean:.3e} lte_max={row.lte_max:.3e}")
    return 0


def cmd_table2(args) -> int:
    out = _ensure_out(args.out)
    line = _csv_line(b"%s", *[FLOAT_FMT] * 12)
    body, figured = [], []
    for b2_reading in ("as-printed", "corrected"):
        rows = table2_rows(b1_reading=args.b1_reading, b2_reading=b2_reading,
                           denominator=args.denominator, sum_start=args.sum_start)
        reading = b2_reading.encode()
        for a, row in zip(TABLE2_A, rows):
            pub = TABLE2_PUBLISHED[a]
            body.append(line % (reading, a, TABLE2_B1[args.b1_reading],
                                TABLE2_B2[b2_reading], row.lte_mean, row.lte_max,
                                row.mu, row.mu_frame, row.tau_max, *pub))
            if b2_reading == "as-printed":
                figured.append((a, row))
            print(f"table2 b2={b2_reading} a={a}: mu={row.mu:+.6e} "
                  f"mu_frame={row.mu_frame:+.6e} (published {pub[2]:+.3e}) "
                  f"tau_max={row.tau_max:.4f} (published {pub[3]})")
    _write_csv(os.path.join(out, "table2.csv"),
               ["b2_reading", "a", "b1", "b2", "lte_mean", "lte_max", "mu",
                "mu_frame", "tau_max", "pub_lte_mean", "pub_lte_max", "pub_mu",
                "pub_tau_max"], body)
    _write_csv(os.path.join(out, "figure2.csv"),
               ["a", "n", "t", "log10_lte", "log10_norm_x"],
               (block for a, row in figured
                for block in _figure_lines(a, row.times, row.lte, row.norms)))
    return 0


def cmd_counterexample(args) -> int:
    """Resonant run against its frozen-coefficient twin, over their common steps;
    a run the divergence guard cuts short is reported (stdout and JSON)."""
    if args.steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {args.steps}")
    if not (0.0 < args.h < math.inf and math.isfinite(2.0 * math.pi / args.h)
            and math.isfinite(args.D) and math.isfinite(args.L)):
        raise ConfigError(f"--h must be finite and positive, with 2 pi / h finite, and "
                          f"--D, --L finite, got h={args.h}, D={args.D}, L={args.L}")
    tab = glm.get_tableau(args.method)
    delta = glm.require_inside_gap(tab, args.D, args.L, args.h)
    sp = problems.ScalarCosineParams(D=args.D, L=args.L, omega=2.0 * math.pi / args.h)
    osc = problems.scalar_cosine_problem(sp)
    x0s = glm.start_rk4(osc, (1.0,), 0.0, args.h, tab.k)     # the start of both runs
    t_osc, t_frz = (_integrate(tab, p, x0s, args.steps, args.h, 0.0)[0]
                    for p in (osc, problems.constant_problem(args.D + args.L)))
    m = min(t_osc.n_steps, t_frz.n_steps)
    s_osc, s_frz = t_osc.states[:m + 1], t_frz.states[:m + 1]
    times = t_osc.times()[:m + 1]
    x_osc, x_frz = s_osc[:, -1], s_frz[:, -1]       # the scalar x of the last block
    n_osc = np.abs(x_osc)
    exact = problems.scalar_cosine_reference(sp, times)
    deviation = float(np.max(np.abs(s_osc - s_frz)))
    growth = float(n_osc[-1] / n_osc[0])
    # coefficient period is h; a run cut at its first step has no per-period rate
    per_period = float(np.exp(np.log(growth) / m)) if m else None
    out = _ensure_out(args.out)
    _write_csv(os.path.join(out, "counterexample.csv"),
               ["n", "t", "x_oscillatory", "x_frozen", "x_exact"],
               _csv_blocks(b"", 0, times, x_osc, x_frz, exact))
    report = {
        "method": args.method, "h": args.h, "D": args.D, "L": args.L,
        "stability_gap": delta, "steps": m, "growth_factor": growth,
        "growth_per_period": per_period,
        "exact_decay_factor": float(exact[-1] / exact[0]),
        "max_oscillatory_frozen_deviation": deviation,
    }
    cut = [(name, t.diverged_at) for name, t in (("oscillatory", t_osc), ("frozen", t_frz))
           if t.diverged]
    if cut:
        report.update(diverged=True, requested_steps=args.steps)
    _write_json(os.path.join(out, "counterexample_report.json"), report)
    print(f"counterexample {args.method}: growth {growth:.3e} over {m} steps "
          f"(exact decays by {report['exact_decay_factor']:.3e}); "
          f"frozen-coefficient deviation {deviation:.3e}")
    for name, step in cut:
        print(f"counterexample {args.method}: the divergence guard stopped the {name} "
              f"run at step {step} of {args.steps}")
    return 0


def cmd_spectrum(args) -> int:
    tab, params, t0, x0 = _problem_and_method(args)
    n_f = glm.span_steps(args.h, args.tfinal, t0)
    H = args.H if args.H is not None else max(1.0, 10.0 * args.h)
    try:           # the window sacker_sell_window takes, against the requested steps
        spectra.window_steps(H, args.h, n_f)
    except WindowOutOfRange as exc:
        raise ConfigError(str(exc)) from exc
    prob = problems.rotating_cosine_problem(params)
    if args.oracle_h is not None:           # before the discrete run: its checks first
        try:
            oracle = spectra.continuous_qr_oracle(prob, args.tfinal, args.oracle_h, t0)
        except ConfigError as exc:
            raise ConfigError(f"--oracle-h: {exc}") from exc
        span = oracle.ts[-1] - oracle.ts[0]
        oracle_rates = [float(v / span) for v in
                        spectra.integrate_diag(oracle, oracle.ts[0], oracle.ts[-1])]
    traj, trail, _ = _integrate(tab, prob, glm.start_rk4(prob, x0, t0, args.h, tab.k),
                                n_f, args.h, t0, frame=args.mode == "frame")
    m = traj.n_steps
    if args.mode == "w":
        trail = _w_trail(tab, traj)
    n0 = m // 2
    est = spectra.mu_appr(trail, n0, m - n0, denominator=args.denominator,
                          sum_start=args.sum_start)
    ends = spectra.lyapunov_endpoints(trail)
    ss = spectra.sacker_sell_window(trail, H)
    bundle = {
        "mode": args.mode,
        "eta": [float(v) for v in ends.eta],
        "mu": [float(v) for v in ends.mu],
        "mu_appr": [float(v) for v in est.mu],
        "alpha": [float(v) for v in ss.alpha],
        "beta": [float(v) for v in ss.beta],
        "window": {"n0": n0, "n": m - n0, "H": H, "burn_in": ends.burn_in},
        "h": args.h,
        "denominator_mode": args.denominator,
        "diverged": traj.diverged,
    }
    if args.oracle_h is not None:
        bundle["oracle_mean_rates"] = oracle_rates
    out = _ensure_out(args.out)
    _write_json(os.path.join(out, "spectrum.json"), bundle)
    print(f"spectrum ({args.mode}): mu={bundle['mu']} beta={bundle['beta']}")
    return 0


CONVERGE_H = {
    "bdf2": (2e-2, 1e-2, 5e-3),
    "ab2": (2e-2, 1e-2, 5e-3),
    "be": (1e-2, 5e-3, 2.5e-3),
}


def cmd_converge(args) -> int:
    tab = glm.get_tableau(args.method)
    params = problems.RotatingCosineParams(**TABLE1_PROBLEM)
    prob = problems.rotating_cosine_problem(params)
    hs = CONVERGE_H[args.method]
    t_final = args.tfinal if args.tfinal is not None else 2.0
    ge, le = [], []
    for h in hs:
        n_f = glm.span_steps(h, t_final, 0.0)
        try:    # the exact solution at t_0 .. t_{n_f+k-1}: start, defect rows, end point
            times = h * np.arange(n_f + tab.k)
        except (ValueError, MemoryError) as exc:
            raise ConfigError(f"cannot hold a run of {n_f:.3g} steps: {exc}") from exc
        exact = problems.reference_batch(params, times)
        traj, _, lte = _integrate(tab, prob, exact[:tab.k].ravel(), n_f, h, 0.0,
                                  reference=lambda lo, hi: exact[lo:hi])
        end = exact[traj.n_steps + tab.k - 1]
        ge.append(float(np.linalg.norm(traj.last_blocks()[-1] - end)))
        le.append(float(lte.max()))
    lh = np.log(np.asarray(hs))
    global_slope = float(np.polyfit(lh, np.log(ge), 1)[0])
    lte_slope = float(np.polyfit(lh, np.log(le), 1)[0])
    out = _ensure_out(args.out)
    line = _csv_line(*[FLOAT_FMT] * 3)
    _write_csv(os.path.join(out, "converge.csv"), ["h", "global_error", "lte_max"],
               [line % row for row in zip(hs, ge, le)])
    _write_json(os.path.join(out, "converge_report.json"), {
        "method": args.method, "h_list": list(hs), "t_final": t_final,
        "global_errors": ge, "lte_max": le,
        "global_slope": global_slope, "lte_slope": lte_slope,
    })
    print(f"converge {args.method}: global slope {global_slope:.3f}, "
          f"restart-defect slope {lte_slope:.3f}")
    return 0


# ---------------------------------------------------------------------------


def _add_common(p, with_method=True):
    if with_method:
        p.add_argument("--method", default="bdf2", help="tableau name (bdf2, ab2, be)")
    p.add_argument("--out", default="out", help="output directory")


def _add_estimator(p):
    """The exponent-estimator flags, for the commands that estimate one."""
    p.add_argument("--denominator", choices=spectra.DENOMINATOR_MODES, default="t0",
                   help="time reference in the exponent denominator")
    p.add_argument("--sum-start", choices=spectra.SUM_START_MODES, default="origin",
                   help="where the exponent log-sum starts")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="glmstab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="single integration + diagnostic report")
    _add_common(p)
    _add_estimator(p)
    p.add_argument("--config", help="problem JSON (inline or a file path)")
    p.add_argument("--h", type=float)
    p.add_argument("--tfinal", type=float)
    p.add_argument("--start", choices=_STARTS, default="rk4")
    p.add_argument("--n0", type=int, default=None,
                   help="estimator window start (default: half the run)")
    p.add_argument("--lte-scale", choices=_LTE_SCALES, default="per-h")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("table1", help="step-size sweep experiment table")
    _add_common(p, with_method=False)
    _add_estimator(p)
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("table2", help="amplitude sweep experiment table")
    _add_common(p, with_method=False)
    _add_estimator(p)
    p.add_argument("--b1-reading", choices=tuple(TABLE2_B1), default="as-printed")
    p.set_defaults(fn=cmd_table2)

    p = sub.add_parser("counterexample",
                       help="resonant scalar problem vs frozen coefficients")
    _add_common(p)
    p.add_argument("--h", type=float, default=0.5)
    p.add_argument("--D", type=float, default=0.3)
    p.add_argument("--L", type=float, default=-0.1)
    p.add_argument("--steps", type=int, default=200)
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("spectrum", help="QR-trail exponent estimates as JSON")
    _add_common(p)
    _add_estimator(p)
    p.add_argument("--config", help="problem JSON (inline or a file path)")
    p.add_argument("--h", type=float)
    p.add_argument("--tfinal", type=float)
    p.add_argument("--mode", choices=("frame", "w"), default="frame")
    p.add_argument("--H", type=float, default=None, help="window width for the "
                   "spectral-interval estimate (default max(1, 10h))")
    p.add_argument("--oracle-h", type=float, default=None,
                   help="also run the continuous-QR oracle at this fine step")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("converge", help="order-of-convergence study")
    _add_common(p)
    p.add_argument("--tfinal", type=float, default=None)
    p.set_defaults(fn=cmd_converge)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
