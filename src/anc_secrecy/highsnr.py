"""High-SNR behavior: delta-scaled amplification, the cutset upper bound on
the secrecy capacity, the exact achievable secrecy rate under delta-scaling,
and the analytic bound on the gap between the two.

A network is in the delta-high-SNR regime when every relay layer's input SNR
is at least 1/delta. Each relay then uses beta_i^2 = P / ((1+delta) *
P_Ri_max) with P_Ri_max the largest possible received signal power at its
layer (P_s h_s^2 for layer 1, N^2 P h_{i-1}^2 afterwards), which is feasible
whenever the regime holds. These formulas assume the eavesdropper overhears
the last layer, where its received powers mirror the destination's scaled by
h_e^2 / h_t^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import (
    LayeredNetwork,
    RateReport,
    RegimeViolationError,
    ScalingVector,
    cascade,
)


@dataclass(frozen=True)
class HighSnrReport:
    delta: float
    c_cut: float
    r_s_delta: float
    actual_gap: float
    gap_bound: float


def _uniform(net: LayeredNetwork) -> tuple[int, float]:
    n = net.uniform_N
    p = net.uniform_P
    if n is None or p is None:
        raise ValueError("high-SNR formulas require uniform layer width and power cap")
    return n, p


def _last_layer_he(net: LayeredNetwork) -> float:
    """The common eavesdropper gain, on the last layer: the cut and the
    high-SNR formulas hold only there."""
    he = net.common_h_e
    if he is None or net.M != net.L:
        raise ValueError("high-SNR formulas require a common eavesdropper gain "
                         "on the last layer (M = L)")
    return he


def _delta_betas(net: LayeredNetwork, delta: float) -> list[float]:
    n, p = _uniform(net)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    p_r1 = net.P_s * net.h_s ** 2
    if p_r1 <= 0:
        why = "underflows to 0" if net.P_s and net.h_s else "= 0"
        raise ValueError(f"layer 1 receives no signal (P_s h_s^2 {why})")
    betas = [math.sqrt(p / ((1.0 + delta) * p_r1))]
    for i in range(2, net.L + 1):
        p_ri = n ** 2 * p * net.h[i - 2] ** 2
        if p_ri <= 0:
            why = ("dead hop gain" if not net.h[i - 2] else "relay caps of 0" if not p
                   else "N^2 P h^2 underflows to 0")
            raise ValueError(f"layer {i} receives no signal ({why})")
        betas.append(math.sqrt(p / ((1.0 + delta) * p_ri)))
    return betas


def _check_regime(net: LayeredNetwork, betas: list[float], delta: float) -> None:
    """Input SNR of every layer, under the delta-scaled vector itself, must
    reach 1/delta. Skipped at delta = 0, which is the idealized limit."""
    if delta == 0:
        return
    c = cascade(net, [(b,) * n for b, n in zip(betas, net.nodes_per_layer)])
    for l in range(net.L):
        snr = float(c.sig[l] / (c.fwd[l] + net.sigma2))
        if snr * delta < 1.0 - 1e-9:
            raise RegimeViolationError(layer=l + 1, snr=snr, delta=delta)


def high_snr_scaling(net: LayeredNetwork, delta: float) -> ScalingVector:
    """Delta-scaled amplification vector, beta_i^2 = P / ((1+delta) P_Ri_max).

    Raises RegimeViolationError naming the first layer whose input SNR falls
    short of 1/delta. At delta = 0 the vector is the maximum coherent
    scaling, P / P_Ri_max, with no regime check.
    """
    n, _ = _uniform(net)
    betas = _delta_betas(net, delta)
    _check_regime(net, betas, delta)
    return ScalingVector(beta=tuple((b,) * n for b in betas), beta_max=None)


def _half_log_difference(snr_t: float, snr_e: float, offset: float = 0.0) -> float:
    """max(0, 1/2 (offset + log2(1 + snr_t) - log2(1 + snr_e))), from the log
    terms rather than the log of their ratio, which is 0 or nan where an SNR
    overflows. inf where snr_t overflows; 0 where only snr_e does, because
    then |h_e| > |h_t|, both the cut and the delta-scaled rate are 0, and so
    is the gap."""
    if math.isinf(snr_t):
        return math.inf
    if math.isinf(snr_e):
        return 0.0
    return max(0.0, 0.5 * (offset + math.log2(1.0 + snr_t) - math.log2(1.0 + snr_e)))


def cutset_bound(net: LayeredNetwork) -> float:
    """Upper bound on the secrecy capacity from the multiple-access cut
    between the last relay layer (M = L) and the destination / the
    eavesdropper, clamped at 0 because a secrecy capacity is never negative:

        C_cut = max(0, 1/2 log2(1 + P_t/sigma2) - 1/2 log2(1 + P_e/sigma2)),
        P_t = N^2 P h_t^2,  P_e = N^2 P h_e^2.

    inf where P_t/sigma2 leaves the float range, 0 where only P_e/sigma2
    does (see `_half_log_difference`).
    """
    he = _last_layer_he(net)
    coherent = float(np.sqrt(net.layer_power(net.L - 1)).sum()) ** 2
    s2 = net.sigma2
    return _half_log_difference(coherent * net.h_t ** 2 / s2, coherent * he ** 2 / s2)


def achievable_highsnr(net: LayeredNetwork, delta: float) -> RateReport:
    """Achievable secrecy rate under delta-scaling, by the closed power
    formulas (independent of the generic propagation code path):

      P_st = N^2 P h_t^2 / (1+delta)^L, exact P_zt as the per-layer noise
      sum, and the eavesdropper's powers mirrored through h_e^2 / h_t^2.

    Requires the eavesdropper on the last layer (M = L).
    """
    n, p = _uniform(net)
    he = _last_layer_he(net)
    if net.h_t == 0:
        raise ValueError("dead destination gain (h_t = 0)")
    betas = _delta_betas(net, delta)
    _check_regime(net, betas, delta)
    s2 = net.sigma2
    L = net.L
    h_t2 = net.h_t ** 2

    p_st = n ** 2 * p * h_t2 / (1.0 + delta) ** L
    p_zt = 0.0
    for i in range(1, L + 1):
        term = n * betas[i - 1] ** 2 * net.gain_out(i - 1) ** 2
        for j in range(i + 1, L):
            term *= (n * betas[j - 1] * net.h[j - 1]) ** 2
        if i < L:
            term *= n ** 2 * betas[L - 1] ** 2 * h_t2
        p_zt += s2 * term

    p_se = p_st * he ** 2 / h_t2
    p_ze = p_zt * he ** 2 / h_t2
    snr_t = p_st / (p_zt + s2)
    snr_e = p_se / (p_ze + s2)
    return RateReport.from_snrs(snr_t, snr_e)


def noise_power_bound(net: LayeredNetwork, delta: float) -> float:
    """Upper bound on the total noise power reaching the destination under
    delta-scaling: N P h_t^2 (1 - (1+delta)^-L)."""
    n, p = _uniform(net)
    return n * p * net.h_t ** 2 * (1.0 - (1.0 + delta) ** -net.L)


def gap_bound(net: LayeredNetwork, delta: float) -> float:
    """Analytic bound on C_cut minus the delta-scaled achievable secrecy
    rate, valid for L*delta < 1 with the last layer snooped (M = L):

        max(0, 1/2 [ -log2(1 - L delta) + log2(1 + L delta N P h_t^2/sigma2)
                                        - log2(1 + L delta N P h_e^2/sigma2) ]).

    The derivation bounds the unclamped difference, which goes negative
    where |h_e| is enough above |h_t|; there C_cut and the delta-scaled
    rate are both 0, so the gap is 0 and the bound is clamped at 0 like the
    cut. inf and 0 where the SNR terms leave the float range, as for
    `cutset_bound`.
    """
    n, p = _uniform(net)
    he = _last_layer_he(net)
    ld = net.L * delta
    if ld >= 1.0:
        raise ValueError(f"L*delta = {ld:.6g} >= 1: the bound is vacuous")
    s2 = net.sigma2
    return _half_log_difference(ld * n * p * net.h_t ** 2 / s2, ld * n * p * he ** 2 / s2,
                                -math.log2(1.0 - ld))


def high_snr_report(net: LayeredNetwork, delta: float) -> HighSnrReport:
    """Cutset bound, delta-scaled achievable rate, actual gap, and the
    analytic gap bound in one record."""
    c_cut = cutset_bound(net)
    r_s = achievable_highsnr(net, delta).r_s
    return HighSnrReport(delta=delta, c_cut=c_cut, r_s_delta=r_s,
                         actual_gap=c_cut - r_s,
                         gap_bound=gap_bound(net, delta))


def plateau_index(values, rel_slope: float = 1e-4) -> int | None:
    """Largest index whose step from its predecessor has relative slope
    below rel_slope; None when the curve never flattens."""
    vals = list(values)
    for i in range(len(vals) - 1, 0, -1):
        denom = max(abs(vals[i]), 1e-300)
        if abs(vals[i] - vals[i - 1]) / denom < rel_slope:
            return i
    return None
