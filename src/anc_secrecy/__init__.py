"""Secure analog-network-coding rates in Gaussian layered relay networks.

Exact SNR/rate evaluation for amplify-and-forward relay layers with an
eavesdropper on one layer, closed-form globally optimal scaling factors for
symmetric diamond and equal-gain layered networks, high-SNR cutset-gap
analysis, and a brute-force search oracle that validates every closed form.
"""
from .network import (
    LayeredNetwork,
    RateReport,
    RegimeViolationError,
    ScalingVector,
    beta_max_vector,
    rates,
)
from .diamond import (
    DiamondSolution,
    SnoopAnalysis,
    SubsetResult,
    best_snoop_subset,
    diamond_opt,
)
from .layered import (
    CoefficientSet,
    LayerMSolution,
    LayeredSolution,
    extract_coefficients,
    lemma_beta_M,
    optimal_scaling,
)
from .highsnr import (
    HighSnrReport,
    achievable_highsnr,
    cutset_bound,
    gap_bound,
    high_snr_report,
    high_snr_scaling,
)
from .oracle import (
    OracleDiagnostics,
    OracleResult,
    SearchConfig,
    VerificationReport,
    maximize_secrecy,
    verify_against_closed_form,
)
from .cli import ExperimentConfig, SweepSpec, bundled_presets

__version__ = "0.1.0"

__all__ = [
    "LayeredNetwork",
    "RateReport",
    "RegimeViolationError",
    "ScalingVector",
    "beta_max_vector",
    "rates",
    "DiamondSolution",
    "SnoopAnalysis",
    "SubsetResult",
    "best_snoop_subset",
    "diamond_opt",
    "CoefficientSet",
    "LayerMSolution",
    "LayeredSolution",
    "extract_coefficients",
    "lemma_beta_M",
    "optimal_scaling",
    "HighSnrReport",
    "achievable_highsnr",
    "cutset_bound",
    "gap_bound",
    "high_snr_report",
    "high_snr_scaling",
    "OracleDiagnostics",
    "OracleResult",
    "SearchConfig",
    "VerificationReport",
    "maximize_secrecy",
    "verify_against_closed_form",
    "ExperimentConfig",
    "SweepSpec",
    "bundled_presets",
]
