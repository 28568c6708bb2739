"""Depth-based nonparametric multivariate homogeneity tests.

Core pieces: three empirical depth functions, the directed quality-index
pair they induce, the minimum/product/sum test statistics (plus maximum,
depth-rank, modified depth-rank, MANOVA, Cramer, and energy baselines),
permutation and asymptotic calibration, k-sample generalizations, scale
curves, and a simulation harness for size and power studies.
"""

from .calibration import (
    CalibrationSpec,
    chi2_1_pvalue,
    evaluate_statistics,
    half_normal_pvalue,
    mc_asymptotic_min_pvalue,
    permutation_report,
)
from .dataset import LabeledDataset, load_csv, skulls_path
from .depths import DepthKind, depth_values
from .errors import (
    DegenerateSample,
    DepthTestError,
    DimensionMismatch,
    DomainError,
    MissingGroupColumn,
    NonNumericCell,
    ParseError,
    SingularCovariance,
    SingularScatter,
    SizeLimit,
    UnknownStatistic,
)
from .quality import QualityMatrix, QualityPair, quality, quality_brute_oracle, quality_matrix
from .scale_curve import ScaleCurve, default_alpha_grid, hull_volume, scale_curve
from .simulation import (
    ASYMPTOTIC_UPPER_95,
    PowerTable,
    ScenarioSpec,
    SCENARIOS,
    TypeOneTable,
    power_table,
    sample_scenario,
    type1_quantiles,
)
from .two_sample import TestOutcome, cramer_univariate, manova

__version__ = "0.1.0"

__all__ = [
    "ASYMPTOTIC_UPPER_95",
    "CalibrationSpec",
    "DegenerateSample",
    "DepthKind",
    "DepthTestError",
    "DimensionMismatch",
    "DomainError",
    "LabeledDataset",
    "MissingGroupColumn",
    "NonNumericCell",
    "ParseError",
    "PowerTable",
    "QualityMatrix",
    "QualityPair",
    "SCENARIOS",
    "ScaleCurve",
    "ScenarioSpec",
    "SingularCovariance",
    "SingularScatter",
    "SizeLimit",
    "TestOutcome",
    "TypeOneTable",
    "UnknownStatistic",
    "chi2_1_pvalue",
    "cramer_univariate",
    "default_alpha_grid",
    "depth_values",
    "evaluate_statistics",
    "half_normal_pvalue",
    "hull_volume",
    "load_csv",
    "manova",
    "mc_asymptotic_min_pvalue",
    "permutation_report",
    "power_table",
    "quality",
    "quality_brute_oracle",
    "quality_matrix",
    "sample_scenario",
    "scale_curve",
    "skulls_path",
    "type1_quantiles",
]
