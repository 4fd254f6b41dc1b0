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
