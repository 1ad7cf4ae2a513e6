"""Two-weight companion construction on the unit circle.

Given a matrix weight w0 with unit mean Schatten norm, build the companion
weight w1 and the boundary operators that make the analytic projection a
contraction from L2(w0) to L2(w1), then verify the defining identities
numerically.
"""

from .circle import CircleGrid, FourierSeries, MatrixSampleField, circle_mean, fourier_coefficients
from .debranges import CompanionWeightResult, DeBrangesSystem, build_system
from .hardy import HardyOperators, RationalTestFunction, random_test_functions
from .herglotz import HerglotzEvaluator, radial_limit
from .model import (TruncatedModel, build_model, cross_validate, psi_direct,
                    spectral_nu1)
from .verify import (DEFAULT_SEED, KoosisResult, Report, SuiteConfig,
                     koosis_pipeline, nondegeneracy_report, parse_report,
                     run_suite, run_weight_checks)
from .weights import (FIXTURE_NAMES, MatrixWeight, fixture, koosis_transform,
                      load_weight_spec, muckenhoupt_sup, normalize,
                      random_polynomial_weight, save_weight_spec)

__version__ = "0.1.0"

__all__ = [
    "CircleGrid", "FourierSeries", "MatrixSampleField", "circle_mean",
    "fourier_coefficients",
    "MatrixWeight", "FIXTURE_NAMES", "fixture", "normalize",
    "koosis_transform", "muckenhoupt_sup", "random_polynomial_weight",
    "load_weight_spec", "save_weight_spec",
    "HerglotzEvaluator", "radial_limit",
    "DeBrangesSystem", "CompanionWeightResult", "build_system",
    "TruncatedModel", "build_model", "cross_validate", "psi_direct",
    "spectral_nu1",
    "HardyOperators", "RationalTestFunction", "random_test_functions",
    "Report", "SuiteConfig", "run_suite", "run_weight_checks", "parse_report",
    "KoosisResult", "koosis_pipeline", "nondegeneracy_report", "DEFAULT_SEED",
    "__version__",
]
