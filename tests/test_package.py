"""The package's public names are the union of its modules' lists."""

import padambench
from padambench import harness, optim, problems, theory

MODULES = (harness, optim, problems, theory)

# exported before the package list was derived from the module lists, less
# the single-check wrappers run_trajectory_checks replaced
EARLIER_NAMES = {
    "CSV_HEADER", "OPTIMIZERS", "BoundConstants", "BoundInputs",
    "CheckResult", "DimensionError", "GrowthEstimate", "HypothesisError",
    "NumericError", "OptState", "PadamConfig", "RunSpec", "Schedule",
    "StepOutcome", "StochasticProblem", "TheoryReport", "Trace",
    "TraceFormatError", "adagrad_step", "adam_step", "adamw_step",
    "amsgrad_step", "bound_constants", "bound_q0", "bound_value",
    "check_smoothness_gap",
    "estimate_growth_s", "finite_diff_grad", "init_state",
    "make_logistic", "make_mlp", "make_quadratic", "make_rosenbrock",
    "make_sparse_growth", "mean_channel", "optimal_alpha", "padam_step",
    "read_trace_csv", "repeat_runs", "report_to_dict", "run",
    "run_trajectory_checks", "schedule_lr", "select_output_indices",
    "sgd_momentum_step", "verify_bound",
    "write_trace_csv", "__version__",
}


def test_all_is_the_module_lists_plus_version():
    expected = [name for mod in MODULES for name in mod.__all__]
    assert padambench.__all__ == expected + ["__version__"]
    assert len(set(padambench.__all__)) == len(padambench.__all__)


def test_each_name_is_the_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(padambench, name) is getattr(mod, name), name


def test_earlier_names_still_exported():
    assert len(EARLIER_NAMES) == 48
    assert EARLIER_NAMES <= set(padambench.__all__)
    for name in EARLIER_NAMES:
        assert hasattr(padambench, name), name
