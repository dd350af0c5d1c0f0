"""The package's public names, pinned: an export is added or removed on
purpose. The references that only tests need live in tests/conftest.py."""
from dataclasses import fields

import pytest

import anc_secrecy

PUBLIC = [
    "LayeredNetwork", "RateReport", "RegimeViolationError", "ScalingVector",
    "beta_max_vector", "rates",
    "SnoopAnalysis", "SubsetResult", "best_snoop_subset",
    "CoefficientSet", "LayerMSolution", "LayeredSolution", "extract_coefficients",
    "lemma_beta_M", "optimal_scaling",
    "HighSnrReport", "achievable_highsnr", "cutset_bound", "gap_bound", "high_snr_report",
    "high_snr_scaling",
    "OracleDiagnostics", "OracleResult", "SearchConfig", "VerificationReport",
    "maximize_secrecy", "verify_against_closed_form",
    "ExperimentConfig", "SweepSpec", "bundled_presets",
]

REMOVED = [
    ("network", "PowerFlow"), ("network", "propagate"),
    ("network", "max_scaling_with_layer"), ("layered", "reduced_snrs"),
    ("diamond", "snr_e_by_k"), ("highsnr", "noise_power_bound"),
    ("highsnr", "plateau_index"), ("cli", "_lists"),
    ("diamond", "diamond_opt"), ("diamond", "DiamondSolution"),
]


def test_all_is_pinned():
    assert anc_secrecy.__all__ == PUBLIC


def test_every_public_name_resolves():
    namespace = {}
    exec("from anc_secrecy import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(anc_secrecy, name), name


@pytest.mark.parametrize("module, name", REMOVED, ids=[n for _, n in REMOVED])
def test_removed_name_is_gone(module, name):
    assert not hasattr(anc_secrecy, name)
    assert not hasattr(getattr(anc_secrecy, module), name)


def test_removed_members_are_gone():
    assert not hasattr(anc_secrecy.ExperimentConfig, "to_dict")
    assert {"A", "B", "C", "D"}.isdisjoint(f.name for f in fields(anc_secrecy.CoefficientSet))
