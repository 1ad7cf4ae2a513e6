"""Two-weight companion construction on the unit circle.

Given a matrix weight w0 with unit mean Schatten norm, build the companion
weight w1 and the boundary operators that make the analytic projection a
contraction from L2(w0) to L2(w1), then verify the defining identities
numerically.

Importing the package loads none of its modules: each public name below
loads its home module on first use (PEP 562), so `import twoweight.cli`
stays small and each subcommand loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"
DEFAULT_SEED = 1729

# public name -> the module that defines it
_HOMES = {
    "CircleGrid": "circle", "FourierSeries": "circle", "MatrixSampleField": "circle",
    "circle_mean": "circle", "fourier_coefficients": "circle",
    "MatrixWeight": "weights", "FIXTURE_NAMES": "weights", "fixture": "weights",
    "normalize": "weights", "koosis_transform": "weights", "muckenhoupt_sup": "weights",
    "random_polynomial_weight": "weights", "load_weight_spec": "weights",
    "save_weight_spec": "weights",
    "HerglotzEvaluator": "herglotz", "radial_limit": "herglotz",
    "DeBrangesSystem": "debranges", "CompanionWeightResult": "debranges",
    "build_system": "debranges",
    "TruncatedModel": "model", "build_model": "model", "cross_validate": "model",
    "psi_direct": "model", "spectral_nu1": "model",
    "HardyOperators": "hardy", "RationalTestFunction": "hardy",
    "random_test_functions": "hardy",
    "Report": "verify", "SuiteConfig": "verify", "run_suite": "verify",
    "run_weight_checks": "verify", "parse_report": "verify",
    "KoosisResult": "koosis", "koosis_pipeline": "koosis",
    "nondegeneracy_report": "debranges",
}

__all__ = [*_HOMES, "DEFAULT_SEED", "__version__"]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
