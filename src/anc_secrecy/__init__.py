"""Secure analog-network-coding rates in Gaussian layered relay networks.

Exact SNR/rate evaluation for amplify-and-forward relay layers with an
eavesdropper on one layer, the lemma's closed-form globally optimal scaling
factors for layered networks with a common eavesdropper gain and one power
cap per layer (the symmetric diamond at L = 1), high-SNR cutset-gap
analysis, the eavesdropper's snooping-subset analysis, and a brute-force
search oracle that validates every closed form.
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
    SnoopAnalysis,
    SubsetResult,
    best_snoop_subset,
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
    "SnoopAnalysis",
    "SubsetResult",
    "best_snoop_subset",
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
