"""Per-layer tracing from outside the program.

The tracer replaces public functions of the glmstab modules with wrappers for
the duration of a traced pass. The package's own modules look these functions
up through their module (``glm.run_linear``, ``linalg.qr_positive``...), so
calls made from the CLI and from inside the library pass through the wrappers
too. Spans are taken per call, never per step; the per-step kernels
(``linalg.qr_positive``, ``glm.scalar_transition``, ``linalg.solve``) only get
a call counter.

Spans are kept in memory (name, start, end, parent) and reduced to the
per-layer metrics by :func:`layer_metrics` after the pass. A layer's self time
is its span's duration minus the durations of its direct child spans.
"""

import inspect
import os
import time


def _count(name):
    return lambda args, result: {"steps": args[name]}


def _run_linear_work(args, result):
    if isinstance(result, tuple):
        traj, phis = result
        return {"steps": traj.n_steps, "kept": len(phis)}
    return {"steps": result.n_steps, "kept": 0}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


# (module, attribute, span name, work counter). A work counter maps the bound
# call arguments and the result to a dict of counts added to the span's layer.
SPANS = (
    ("glm", "transition_batch", "glm.transition_batch", _count("count")),
    ("glm", "run_linear", "glm.run_linear", _run_linear_work),
    ("glm", "lte_series", "glm.lte_series", lambda a, r: {"steps": len(a["phis"])}),
    ("glm", "stability_gap", "glm.stability_gap", None),
    ("glm", "run_nonlinear", "glm.run_nonlinear", _count("n_steps")),
    ("onestep", "extract_w", "onestep.extract_w",
     lambda a, r: {"steps": r.values.shape[0]}),
    ("problems", "reference_batch", "problems.reference_batch",
     lambda a, r: {"steps": len(r)}),
    ("spectra", "qr_advance_series", "spectra.qr_advance_series",
     lambda a, r: {"steps": len(a["phis"])}),
    ("spectra", "continuous_qr_oracle", "spectra.continuous_qr_oracle",
     lambda a, r: {"steps": len(r.ts) - 1}),
    ("spectra", "integral_separation_logs", "spectra.integral_separation_logs",
     lambda a, r: {"steps": len(a["logs"])}),
    ("spectra", "mu_appr", "spectra.estimators", None),
    ("spectra", "lyapunov_endpoints", "spectra.estimators", None),
    ("spectra", "sacker_sell_window", "spectra.estimators", None),
    ("spectra", "vector_trail_from_values", "spectra.estimators", None),
    ("cli", "cmd_run", "cli.cmd", None),
    ("cli", "cmd_table1", "cli.cmd", None),
    ("cli", "cmd_table2", "cli.cmd", None),
    ("cli", "cmd_counterexample", "cli.cmd", None),
    ("cli", "cmd_spectrum", "cli.cmd", None),
    ("cli", "cmd_converge", "cli.cmd", None),
    ("cli", "_write_csv", "cli.write", _file_bytes),
    ("cli", "_write_json", "cli.write", _file_bytes),
)

COUNTERS = (
    ("linalg", "qr_positive", "linalg.qr_positive"),
    ("glm", "scalar_transition", "glm.scalar_transition"),
    ("linalg", "solve", "linalg.solve"),
)

# Every per-layer metric a traced run reports: name -> unit. Must match the
# per_layer list of BENCHMARK.json.
METRICS = {
    "spectra.qr_advance_series.us_per_step": "us/step",
    "spectra.qr_advance_series.steps": "count",
    "linalg.qr_positive.calls": "count",
    "glm.transition_batch.us_per_step": "us/step",
    "glm.transition_batch.useful_ratio": "ratio",
    "glm.run_linear.us_per_step": "us/step",
    "glm.run_linear.steps": "count",
    "glm.lte_series.us_per_step": "us/step",
    "onestep.extract_w.us_per_step": "us/step",
    "problems.reference_batch.us_per_sample": "us/sample",
    "problems.reference_batch.samples": "count",
    "spectra.continuous_qr_oracle.us_per_step": "us/step",
    "spectra.continuous_qr_oracle.steps": "count",
    "spectra.integral_separation_logs.s": "s",
    "spectra.integral_separation_logs.n": "count",
    "spectra.estimators.s": "s",
    "glm.stability_gap.s": "s",
    "glm.scalar_transition.calls": "count",
    "glm.run_nonlinear.us_per_step": "us/step",
    "linalg.solve.calls": "count",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
}


class Tracer:
    """Collects spans and counts of one traced pass; use as a context manager."""

    def __init__(self, modules):
        self.modules = modules          # module short name -> module object
        self.spans = []                 # [name, start, end, parent index]
        self.work = {}                  # span name -> {count name: total}
        self.calls = {}                 # counter name -> calls
        self._stack = []
        self._saved = []

    def __enter__(self):
        for mod, attr, name, work in SPANS:
            self._patch(mod, attr, lambda fn, n=name, w=work: self._span(fn, n, w))
        for mod, attr, name in COUNTERS:
            self._patch(mod, attr, lambda fn, n=name: self._counter(fn, n))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _patch(self, mod, attr, make):
        # a layer a later version no longer has reports no work instead of failing
        module = self.modules[mod]
        fn = getattr(module, attr, None)
        if fn is None:
            return
        self._saved.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def _span(self, fn, name, work):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if work is not None:
                counts = work(sig.bind(*args, **kwargs).arguments, result)
                totals = self.work.setdefault(name, {})
                for key, value in counts.items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return wrapper

    def _counter(self, fn, name):
        calls = self.calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self):
        """Self seconds per span name: duration minus direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals = {}
        for (name, *_), t in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + t
        return totals


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass (trace.overhead_s excluded).

    A layer the pass did not call reports 0.
    """
    self_s = tracer.self_times()

    def secs(name):
        return self_s.get(name, 0.0)

    def work(name, key="steps"):
        return tracer.work.get(name, {}).get(key, 0)

    def per(name):
        n = work(name)
        return secs(name) * 1e6 / n if n else 0.0

    built = work("glm.transition_batch")
    return {
        "spectra.qr_advance_series.us_per_step": per("spectra.qr_advance_series"),
        "spectra.qr_advance_series.steps": work("spectra.qr_advance_series"),
        "linalg.qr_positive.calls": tracer.calls.get("linalg.qr_positive", 0),
        "glm.transition_batch.us_per_step": per("glm.transition_batch"),
        "glm.transition_batch.useful_ratio":
            work("glm.run_linear", "kept") / built if built else 0.0,
        "glm.run_linear.us_per_step": per("glm.run_linear"),
        "glm.run_linear.steps": work("glm.run_linear"),
        "glm.lte_series.us_per_step": per("glm.lte_series"),
        "onestep.extract_w.us_per_step": per("onestep.extract_w"),
        "problems.reference_batch.us_per_sample": per("problems.reference_batch"),
        "problems.reference_batch.samples": work("problems.reference_batch"),
        "spectra.continuous_qr_oracle.us_per_step": per("spectra.continuous_qr_oracle"),
        "spectra.continuous_qr_oracle.steps": work("spectra.continuous_qr_oracle"),
        "spectra.integral_separation_logs.s": secs("spectra.integral_separation_logs"),
        "spectra.integral_separation_logs.n": work("spectra.integral_separation_logs"),
        "spectra.estimators.s": secs("spectra.estimators"),
        "glm.stability_gap.s": secs("glm.stability_gap"),
        "glm.scalar_transition.calls": tracer.calls.get("glm.scalar_transition", 0),
        "glm.run_nonlinear.us_per_step": per("glm.run_nonlinear"),
        "linalg.solve.calls": tracer.calls.get("linalg.solve", 0),
        "cli.self_s": secs("cli.cmd"),
        "cli.write_s": secs("cli.write"),
        "cli.output_bytes": work("cli.write", "bytes"),
    }
