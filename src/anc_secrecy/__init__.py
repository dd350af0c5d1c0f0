"""Secure analog-network-coding rates in Gaussian layered relay networks.

Exact SNR/rate evaluation for amplify-and-forward relay layers with an
eavesdropper on one layer, closed-form globally optimal scaling factors for
symmetric diamond and equal-gain layered networks, high-SNR cutset-gap
analysis, and a brute-force search oracle that validates every closed form.
"""
from .network import (
    LayeredNetwork,
    PowerFlow,
    RateReport,
    RegimeViolationError,
    ScalingVector,
    beta_max_vector,
    max_scaling_with_layer,
    propagate,
    rates,
)
from .diamond import (
    DiamondSolution,
    SnoopAnalysis,
    SubsetResult,
    best_snoop_subset,
    diamond_opt,
    snr_e_by_k,
)
from .layered import (
    CoefficientSet,
    LayerMSolution,
    LayeredSolution,
    extract_coefficients,
    lemma_beta_M,
    optimal_scaling,
    reduced_snrs,
)
from .highsnr import (
    HighSnrReport,
    achievable_highsnr,
    cutset_bound,
    gap_bound,
    high_snr_report,
    high_snr_scaling,
    noise_power_bound,
    plateau_index,
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
    "PowerFlow",
    "RateReport",
    "RegimeViolationError",
    "ScalingVector",
    "beta_max_vector",
    "max_scaling_with_layer",
    "propagate",
    "rates",
    "DiamondSolution",
    "SnoopAnalysis",
    "SubsetResult",
    "best_snoop_subset",
    "diamond_opt",
    "snr_e_by_k",
    "CoefficientSet",
    "LayerMSolution",
    "LayeredSolution",
    "extract_coefficients",
    "lemma_beta_M",
    "optimal_scaling",
    "reduced_snrs",
    "HighSnrReport",
    "achievable_highsnr",
    "cutset_bound",
    "gap_bound",
    "high_snr_report",
    "high_snr_scaling",
    "noise_power_bound",
    "plateau_index",
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
