"""Differentially private partition selection.

Release the set of group-by keys present in user data while keeping the
release (epsilon, delta)-differentially private. Provides the optimal
keep-probability primitive, the equivalent truncated-geometric noisy
thresholding with publishable counts, Laplace and Gaussian baselines, and a
deterministic streaming pipeline over (user, partition) rows.

The public names are resolved on first use (PEP 562), so ``import partsel``
loads none of the submodules and each caller pays only for what it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_MODULES = {
    "baselines": (
        "GaussianPrimitive",
        "LaplacePrimitive",
        "calibrate_gaussian_sigma",
        "gaussian_primitive",
        "midpoint",
        "percentile_n",
        "pi_gaussian",
        "pi_laplace",
    ),
    "params": (
        "ConfigurationError",
        "IngestMode",
        "InputFormatError",
        "Neighboring",
        "PrivacyParams",
        "StrictViolationError",
    ),
    "pipeline": (
        "PartitionHistogram",
        "dual_threshold_release",
        "ingest",
        "read_rows",
        "release",
        "select_partitions",
        "thresholded_release",
        "write_release",
        "write_selection",
    ),
    "primitive": (
        "OptPrimitive",
        "pi_opt",
        "pi_opt_many",
    ),
    "truncated_geometric": (
        "TsgdParams",
        "tsgd_params",
        "tsgd_sample",
        "tsgd_sample_many",
        "tsgd_tail",
    ),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
