"""High-SNR behavior: delta-scaled amplification, the cutset upper bound on
the secrecy capacity, the exact achievable secrecy rate under delta-scaling,
and the analytic bound on the gap between the two.

The formulas hold on the lemma's class of layered networks as far as it
concerns the powers: one power cap within each layer, while widths and caps
may differ between layers. For layer i of width n_i and cap p_i, the largest
signal power it can receive is P_R1 = P_s h_s^2 for layer 1 and
P_R(i+1) = n_i^2 p_i h_i^2 afterwards, with h_L = h_t, so that P_R(L+1) is
the destination's. Each relay of layer i uses beta_i^2 = p_i / ((1+delta)
P_Ri). Every layer's signal then grows by P_R(i+1) / ((1+delta) P_Ri), so
the destination receives the signal P_R(L+1) / (1+delta)^L, and the noise
that layer i adds arrives there as

    P_R(L+1) (sigma2 / P_Ri) / (n_i (1+delta)^(L-i+1)).

A network is in the delta-high-SNR regime when every relay layer's input
SNR under this scaling is at least 1/delta. That makes the scaling feasible
and gives sigma2 / P_Ri <= delta, so the noise sums to at most
P_R(L+1) / min n_i (1 - (1+delta)^-L) by the geometric series (see
`gap_bound`). Each noise term is formed from sigma2 / P_Ri, which the
regime keeps small: sigma2 P_R(L+1) alone can overflow.

The cut, the achievable rate and the gap bound also need a common
eavesdropper gain on the last layer (M = L), where the eavesdropper's
received powers mirror the destination's scaled by (h_e / h_t)^2. The cut
and the gap bound form their SNR pair in one helper, `_cut`. Where h_e^2,
or (h_e / h_t)^2, passes the float range, |h_e| > |h_t|: both bounds are
0 and the delta-scaled rate takes its limit, 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .network import (
    LayeredNetwork,
    RateReport,
    RegimeViolationError,
    ScalingVector,
    _MAX_GAIN,
    _number,
    cascade,
)


@dataclass(frozen=True)
class HighSnrReport:
    delta: float
    c_cut: float
    r_s_delta: float
    actual_gap: float
    gap_bound: float


def _layer_caps(net: LayeredNetwork) -> tuple[float, ...]:
    """Each layer's one power cap (see `LayeredNetwork.layer_caps`)."""
    caps = net.layer_caps
    if None in caps:
        raise ValueError("high-SNR formulas require one power cap within each layer")
    return caps


def _last_layer_he(net: LayeredNetwork) -> float:
    """The common eavesdropper gain, on the last layer: the cut and the
    high-SNR formulas hold only there."""
    he = net.common_h_e
    if he is None or net.M != net.L:
        raise ValueError("high-SNR formulas require a common eavesdropper gain "
                         "on the last layer (M = L)")
    return he


def _delta_scaling(net: LayeredNetwork, delta: float
                   ) -> tuple[list[float], list[tuple[float, ...]]]:
    """P_R1..P_R(L+1) and the delta-scaled betas, one row per layer, after
    checking the regime. Raises where a relay layer receives no signal."""
    delta = _number("delta", delta)
    caps = _layer_caps(net)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    p_r = [net.P_s * net.h_s ** 2]
    if p_r[0] <= 0:
        why = "underflows to 0" if net.P_s and net.h_s else "= 0"
        raise ValueError(f"layer 1 receives no signal (P_s h_s^2 {why})")
    for i, (n, p) in enumerate(zip(net.nodes_per_layer, caps), start=1):
        p_r.append(n ** 2 * p * net.gain_out(i - 1) ** 2)
        if i < net.L and p_r[i] <= 0:
            why = ("dead hop gain" if not net.h[i - 1] else "relay caps of 0" if not p
                   else "N^2 P h^2 underflows to 0")
            raise ValueError(f"layer {i + 1} receives no signal ({why})")
    rows = [(math.sqrt(p / ((1.0 + delta) * p_ri)),) * n
            for n, p, p_ri in zip(net.nodes_per_layer, caps, p_r)]
    _check_regime(net, rows, delta)
    return p_r, rows


def _check_regime(net: LayeredNetwork, rows: list[tuple[float, ...]], delta: float) -> None:
    """Input SNR of every layer, under the delta-scaled vector itself, must
    reach 1/delta. Skipped at delta = 0, which is the idealized limit."""
    if delta == 0:
        return
    c = cascade(net, lambda l, bmax: rows[l])
    for l in range(net.L):
        snr = float(c.sig[l] / (c.fwd[l] + net.sigma2))
        if snr * delta < 1.0 - 1e-9:
            raise RegimeViolationError(layer=l + 1, snr=snr, delta=delta)


def high_snr_scaling(net: LayeredNetwork, delta: float) -> ScalingVector:
    """Delta-scaled amplification vector, beta_i^2 = p_i / ((1+delta) P_Ri).

    Raises RegimeViolationError naming the first layer whose input SNR falls
    short of 1/delta. At delta = 0 the vector is the maximum coherent
    scaling, p_i / P_Ri, with no regime check.
    """
    return ScalingVector(beta=_delta_scaling(net, delta)[1], beta_max=None)


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


def _cut(net: LayeredNetwork, power: float, offset: float = 0.0) -> float:
    """`_half_log_difference` of the cut's SNR pair at a power: power
    h_t^2 / sigma2 at the destination, power h_e^2 / sigma2 at the common
    eavesdropper of the last layer, which it checks first. 0 where h_e^2
    passes the float range: h_e is then above every h_t a network takes
    (`network._MAX_GAIN`), the case of `_half_log_difference` where only
    snr_e overflows."""
    he, s2 = _last_layer_he(net), net.sigma2
    if abs(he) > _MAX_GAIN:
        return 0.0
    return _half_log_difference(power * net.h_t ** 2 / s2, power * he ** 2 / s2, offset)


def cutset_bound(net: LayeredNetwork) -> float:
    """Upper bound on the secrecy capacity from the multiple-access cut
    between the last relay layer (M = L) and the destination / the
    eavesdropper, clamped at 0 because a secrecy capacity is never negative:

        C_cut = max(0, 1/2 log2(1 + P_t/sigma2) - 1/2 log2(1 + P_e/sigma2)),
        P_t = (sum sqrt P_L)^2 h_t^2,  P_e = (sum sqrt P_L)^2 h_e^2.

    inf where P_t/sigma2 leaves the float range, 0 where only P_e/sigma2
    does (see `_half_log_difference`).
    """
    r = 0.0
    for p in net.P[net.L - 1]:
        r += math.sqrt(p)
    return _cut(net, r * r)


def achievable_highsnr(net: LayeredNetwork, delta: float) -> RateReport:
    """Achievable secrecy rate under delta-scaling, by the closed power
    formulas of the module docstring (independent of the generic
    propagation code path):

      P_st = P_R(L+1) / (1+delta)^L, P_zt = sum_i P_R(L+1) (sigma2 / P_Ri)
      / (n_i (1+delta)^(L-i+1)), and the eavesdropper's powers mirrored
      through (h_e / h_t)^2, a ratio formed before it scales a power.

    Where that ratio's square passes the float range, the eavesdropper's SNR
    takes its limit, P_st / P_zt, and the rate its limit, r_s = 0: |h_e| >
    |h_t| there (see `_half_log_difference`). Requires the eavesdropper on
    the last layer (M = L).
    """
    he = _last_layer_he(net)
    if net.h_t == 0:
        raise ValueError("dead destination gain (h_t = 0)")
    p_r, _ = _delta_scaling(net, delta)
    s2 = net.sigma2
    L = net.L

    def powers(top: float) -> tuple[float, float]:
        # the destination's signal and noise powers where P_R(L+1) = top;
        # explicit +=: the built-in sum() of floats is compensated from Python 3.12 on
        noise = 0.0
        for i, (n, p_ri) in enumerate(zip(net.nodes_per_layer, p_r)):
            noise += top * (s2 / p_ri) / (n * (1.0 + delta) ** (L - i))
        return top / (1.0 + delta) ** L, noise
    p_st, p_zt = powers(p_r[L])
    snr_t = p_st / (p_zt + s2)
    ratio = he / net.h_t
    if abs(ratio) > _MAX_GAIN:
        # the mirror passes the float range: snr_e at its limit as the mirror
        # grows, p_st / p_zt, formed per unit of P_R(L+1), which cancels. It
        # is at least snr_t, so r_s = 0; max keeps it so where sigma2 is
        # negligible beside p_zt and the two round apart
        sig, noise = powers(1.0)
        return RateReport.from_snrs(snr_t, max(snr_t, sig / noise if noise else math.inf))
    mirror = ratio ** 2
    return RateReport.from_snrs(snr_t, p_st * mirror / (p_zt * mirror + s2))


def _width_factor(net: LayeredNetwork) -> float:
    """n_L^2 / min n_i: times p_L it takes the place of N P in the uniform
    network's bounds, and it is exactly N there."""
    n = net.nodes_per_layer
    return n[-1] * n[-1] / min(n)


def _bound_delta(delta: float) -> None:
    """The bounds rest on the regime sigma2 / P_Ri <= delta, which is checked
    only at delta > 0; at delta = 0 they are not bounds."""
    if not _number("delta", delta) > 0:
        raise ValueError(f"delta = {delta:.6g}: the bounds need delta > 0")


def gap_bound(net: LayeredNetwork, delta: float) -> float:
    """Analytic bound on C_cut minus the delta-scaled achievable secrecy
    rate, valid for L*delta < 1 with the last layer snooped (M = L). With
    K = n_L^2 p_L / min n_i (N P on a uniform network):

        max(0, 1/2 [ -log2(1 - L delta) + log2(1 + L delta K h_t^2/sigma2)
                                        - log2(1 + L delta K h_e^2/sigma2) ]).

    Derivation, for |h_e| <= |h_t|: with a = P_R(L+1)/sigma2, r =
    (h_e/h_t)^2, s = (1+delta)^-L >= 1 - L delta and the noise over sigma2
    z <= a (1 - s) / min n_i <= L delta a / min n_i = Z (in the regime
    layer i's term is at most a delta / (min n_i (1+delta)^(L-i+1)), and
    delta sum_k=1..L (1+delta)^-k = 1 - s), the gap is 1/2 log2 of
    (1+a)(1+z)(1+rz+ars) / ((1+z+as)(1+rz)(1+ar)). Its factor
    (1+z)/(1+rz) grows with z, so it is at most (1+Z)/(1+rZ), and the rest
    is at most 1/(1 - L delta). Where |h_e| is enough above |h_t| the
    unclamped bound goes negative; there C_cut and the delta-scaled rate
    are both 0, so the gap is 0 and the bound is clamped at 0 like the cut.
    inf and 0 where the SNR terms leave the float range, as for
    `cutset_bound`. Raises for delta <= 0, where the regime is not checked.
    """
    _last_layer_he(net)  # M != L is refused before delta
    _bound_delta(delta)
    ld = net.L * delta
    if ld >= 1.0:
        raise ValueError(f"L*delta = {ld:.6g} >= 1: the bound is vacuous")
    return _cut(net, ld * _width_factor(net) * _layer_caps(net)[-1], -math.log2(1.0 - ld))


def high_snr_report(net: LayeredNetwork, delta: float) -> HighSnrReport:
    """Cutset bound, delta-scaled achievable rate, actual gap, and the
    analytic gap bound in one record. Raises for delta <= 0, as the gap
    bound does."""
    _bound_delta(delta)
    c_cut = cutset_bound(net)
    r_s = achievable_highsnr(net, delta).r_s
    return HighSnrReport(delta=delta, c_cut=c_cut, r_s_delta=r_s,
                         actual_gap=c_cut - r_s,
                         gap_bound=gap_bound(net, delta))

