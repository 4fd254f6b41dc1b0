"""The settable values of the library's public functions and of the CLI, pinned.

Every parameter with a default on a public function of the numerical modules is a
value some caller may set. A fixed numerical setting belongs in a module constant
(glm.DIVERGENCE_FACTOR, spectra.DRIFT_TOL, problems.QUAD_PANELS, ...), which a
test patches with mock.patch.object; a new default fails this test until it is
added below. Likewise every option of a CLI subcommand is pinned, so a new flag
fails until it is added to CLI_OPTIONS.
"""

import inspect

from glmstab import cli, glm, linalg, onestep, problems, spectra

MODULES = (glm, spectra, problems, onestep, linalg)

PINNED = {
    "glm.stage_times": {"t0": 0.0},
    "glm.transition_batch": {"t0": 0.0},
    "glm.run_linear": {"t0": 0.0, "keep_transitions": False, "on_chunk": None},
    "spectra.new_matrix_trail": {"t0": 0.0},
    "spectra.vector_trail_from_values": {"t0": 0.0},
    "spectra.mu_appr": {"denominator": "t0", "sum_start": "origin"},
    "spectra.integral_separation_logs": {"a0": 0.05, "T0": 1.0},
    "spectra.continuous_qr_oracle": {"t0": 0.0},
    "problems.propagate_exact": {"scratch": None},
    "problems.reference_batch": {"x0": (1.0, 0.0), "t0": 0.0},
    "linalg.qr_chain": {"n0": 0},
    "linalg.rank_deficient": {"where": ""},
}


def defaulted_parameters():
    """{module.function: {parameter: default}} over the public functions defined in
    MODULES that have a defaulted parameter."""
    found = {}
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for name, fn in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            defaults = {p.name: p.default
                        for p in inspect.signature(fn).parameters.values()
                        if p.default is not inspect.Parameter.empty}
            if defaults:
                found[f"{short}.{name}"] = defaults
    return found


def test_defaulted_parameters_are_pinned():
    assert defaulted_parameters() == PINNED
    assert sum(map(len, PINNED.values())) == 17


# The tables compute their columns under the published convention, so they take no
# estimator flags; run and spectrum share the problem, span and estimator flags.
PROBLEM = {"--method", "--config", "--h", "--tfinal", "--denominator", "--sum-start"}
CLI_OPTIONS = {
    "run": PROBLEM | {"--start", "--n0", "--lte-scale", "--out"},
    "table1": {"--out"},
    "table2": {"--b1-reading", "--out"},
    "counterexample": {"--method", "--h", "--D", "--L", "--steps", "--out"},
    "spectrum": PROBLEM | {"--mode", "--H", "--oracle-h", "--out"},
    "converge": {"--method", "--tfinal", "--out"},
}


def cli_options():
    """{subcommand: its option strings, --help aside}, read from cli.build_parser()."""
    sub, = (a for a in cli.build_parser()._actions if isinstance(a.choices, dict))
    return {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()}


def test_cli_options_are_pinned():
    assert cli_options() == CLI_OPTIONS
    assert sum(map(len, CLI_OPTIONS.values())) == 32
