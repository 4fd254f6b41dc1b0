"""The layer names and argument names that perfbench/tracer.py relies on.

The tracer wraps glmstab functions by (module, attribute) and its work counters
read call arguments by name. A layer it cannot find reports 0 instead of failing,
so a renamed function or argument would silently empty a traced metric; this
test fails instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


class _Anything:
    """A stand-in result: every attribute, index and length of it exists."""

    def __getattr__(self, name):
        return self

    def __getitem__(self, key):
        return self

    def __len__(self):
        return 0


class _Reads(dict):
    """Bound call arguments that record which names a work counter reads."""

    def __init__(self):
        super().__init__()
        self.names = set()

    def __getitem__(self, key):
        self.names.add(key)
        return _Anything()


def _function(mod, attr):
    return getattr(importlib.import_module(f"glmstab.{mod}"), attr, None)


@pytest.mark.parametrize("mod, attr", [entry[:2] for entry in tracer.SPANS]
                         + [entry[:2] for entry in tracer.COUNTERS])
def test_traced_layer_exists(mod, attr):
    assert callable(_function(mod, attr)), f"glmstab.{mod}.{attr} is gone"


def test_work_counters_read_parameters():
    read = set()
    for mod, attr, _, work in tracer.SPANS:
        if work is None:
            continue
        args = _Reads()
        try:
            work(args, _Anything())
        except TypeError:       # a counter that opens a file gets no real path
            pass
        params = inspect.signature(_function(mod, attr)).parameters
        missing = args.names - set(params)
        assert not missing, f"{mod}.{attr} has no parameter {sorted(missing)}"
        read |= args.names
    # the probe sees every argument the counters read, so the check above is not empty
    assert read == {"count", "phis", "logs", "n_steps", "path"}


def _counting(monkeypatch):
    """Counting wrappers on the layers the streamed pipeline reaches."""
    from glmstab import glm, problems, spectra

    calls = {}

    def wrap(module, attr, size):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            n, total = calls.get(attr, (0, 0))
            calls[attr] = (n + 1, total + size(bound, result))
            return result

        monkeypatch.setattr(module, attr, wrapper)

    wrap(glm, "run_linear", lambda a, r: r.n_steps)
    wrap(glm, "transition_batch", lambda a, r: a["count"])
    wrap(glm, "lte_series", lambda a, r: len(a["phis"]))
    wrap(spectra, "qr_advance_series", lambda a, r: len(a["phis"]))
    wrap(problems, "reference_batch", lambda a, r: len(r))
    return calls


@pytest.mark.filterwarnings("ignore:offsets should satisfy")   # as-printed reading
@pytest.mark.parametrize("argv, reached", [
    (["table2"], {"run_linear", "transition_batch", "lte_series", "qr_advance_series",
                  "reference_batch"}),
    (["spectrum", "--mode", "frame", "--h", "0.01", "--tfinal", "50"],
     {"run_linear", "transition_batch", "qr_advance_series"}),
])
def test_streamed_layers_reached(tmp_path, capsys, monkeypatch, argv, reached):
    # the per-chunk consumers run inside run_linear through their modules, so a
    # tracer wrapping them sees every step: a metric the stream skipped would be 0
    from glmstab import cli

    calls = _counting(monkeypatch)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert set(calls) == reached
    _, steps = calls["run_linear"]
    assert steps > 0
    assert calls["transition_batch"][1] == steps
    for layer in reached & {"lte_series", "qr_advance_series"}:
        assert calls[layer][1] == steps, layer
    if "reference_batch" in reached:     # each chunk's rows overlap the next by k
        assert calls["reference_batch"][1] >= steps
