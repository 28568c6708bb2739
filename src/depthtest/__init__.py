"""Depth-based nonparametric multivariate homogeneity tests.

Core pieces: three empirical depth functions, the directed quality-index
pair they induce, the minimum/product/sum test statistics (plus maximum,
depth-rank, modified depth-rank, MANOVA, Cramer, and energy baselines),
permutation and asymptotic calibration, k-sample generalizations, scale
curves, and a simulation harness for size and power studies.
"""

from .calibration import (
    CalibrationSpec,
    PairCoefficients,
    STATISTIC_NAMES,
    chi2_1_pvalue,
    default_tail,
    evaluate_statistics,
    half_normal_pvalue,
    mc_asymptotic_min_pvalue,
    pair_coefficients,
    permutation_report,
)
from .dataset import LabeledDataset, dump_csv, load_csv, skulls_path
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
    TiedRanks,
    UnknownStatistic,
)
from .quality import QualityMatrix, QualityPair, quality, quality_brute_oracle, quality_matrix
from .scale_curve import ScaleCurve, default_alpha_grid, hull_volume, scale_curve, trimmed_region_points
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
from .two_sample import (
    EigenSummary,
    TestOutcome,
    bdbr_univariate,
    cramer_univariate,
    energy_normalized,
    manova,
    manova_eigen,
)

__version__ = "0.1.0"

__all__ = [
    "ASYMPTOTIC_UPPER_95",
    "CalibrationSpec",
    "DegenerateSample",
    "DepthKind",
    "DepthTestError",
    "DimensionMismatch",
    "DomainError",
    "EigenSummary",
    "LabeledDataset",
    "MissingGroupColumn",
    "NonNumericCell",
    "PairCoefficients",
    "ParseError",
    "PowerTable",
    "QualityMatrix",
    "QualityPair",
    "STATISTIC_NAMES",
    "SCENARIOS",
    "ScaleCurve",
    "ScenarioSpec",
    "SingularCovariance",
    "SingularScatter",
    "SizeLimit",
    "TestOutcome",
    "TiedRanks",
    "TypeOneTable",
    "UnknownStatistic",
    "bdbr_univariate",
    "chi2_1_pvalue",
    "cramer_univariate",
    "default_alpha_grid",
    "default_tail",
    "depth_values",
    "dump_csv",
    "energy_normalized",
    "evaluate_statistics",
    "half_normal_pvalue",
    "hull_volume",
    "load_csv",
    "manova",
    "manova_eigen",
    "mc_asymptotic_min_pvalue",
    "pair_coefficients",
    "permutation_report",
    "power_table",
    "quality",
    "quality_brute_oracle",
    "quality_matrix",
    "sample_scenario",
    "scale_curve",
    "skulls_path",
    "trimmed_region_points",
    "type1_quantiles",
]
