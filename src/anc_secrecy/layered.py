"""Globally optimal scaling for the lemma's layered networks, those with
equal per-hop gains, a common eavesdropper gain and one power cap within
each layer (widths and caps may differ between layers): upstream layers at
maximum power, the snooped layer from a closed-form stationary point,
downstream layers at maximum power.

With layers M+1..L transmitting at full power (their bounds adapt to
whatever layer M sends), the destination SNR is exactly a ratio linear in
S = (sum beta_M)^2 and Q = sum beta_M^2:

    SNR_t = rho * A * S * h_M^2 / (B * S * h_M^2 + C * Q * h_M^2 + D)
    SNR_e = rho * E * S * h_e^2 / (F * S * h_e^2 + Q * h_e^2 + 1)

E and F come from the upstream propagation; A = alpha*E, B = lam*E + mu*F,
C = mu and D = nu from a backward recursion over the full-power layers
(see `extract_coefficients`). The common optimal beta_M then solves a
quadratic in beta_M^2 whose coefficients generalize the printed two-node
form to any N. They are computed from terms of known sign, so whenever the
lemma's sign condition holds the quadratic has cal_A < 0 < cal_C in floating
point too, and the closed form answers for every network it applies to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import (
    Cascade,
    LayeredNetwork,
    RateReport,
    ScalingVector,
    cascade,
    max_scaling_with_layer,
    rates,
)


@dataclass(frozen=True)
class CoefficientSet:
    """Reduced-form constants of the layer-M subproblem.

    E, F describe the source side at the given upstream scaling; alpha, lam,
    mu, nu the downstream compounds; A = alpha*E, B = lam*E + mu*F, C = mu,
    D = nu the destination-SNR coefficients; cal_A, cal_B, cal_C the
    stationary-point quadratic coefficients (in beta_M^2) for layer M's
    width N.
    """

    E: float
    F: float
    alpha: float
    lam: float
    mu: float
    nu: float
    A: float
    B: float
    C: float
    D: float
    cal_A: float
    cal_B: float
    cal_C: float


@dataclass(frozen=True)
class LayerMSolution:
    beta_opt: float
    beta_glb: float
    clipped: bool
    sign_positive: bool


@dataclass(frozen=True)
class LayeredSolution:
    """diagnostics is always empty; it is kept for the benchmark tracer."""

    beta: ScalingVector
    rate: RateReport
    layer_m: LayerMSolution
    diagnostics: tuple[str, ...] = ()


def closed_form_applies(net: LayeredNetwork) -> bool:
    """Whether the lemma covers net: a common eavesdropper gain and one power
    cap within each layer. With unequal caps inside any layer, "every other
    layer at maximum" is not optimal."""
    return net.common_h_e is not None and all(len(set(row)) == 1 for row in net.P)


def _require_lemma_network(net: LayeredNetwork) -> tuple[int, float]:
    """Layer M's width and the common eavesdropper gain of a lemma network."""
    if not closed_form_applies(net):
        raise ValueError("closed-form layered optimizer requires a common eavesdropper "
                         "gain and one power cap within each layer")
    return net.nodes_per_layer[net.M - 1], net.common_h_e


def extract_coefficients(net: LayeredNetwork) -> CoefficientSet:
    """The layer-M subproblem coefficients by an exact backward recursion.

    Layers 1..M-1 send at their maxima, fixing E and F. Up to the factor
    1/rx, a full-power layer l > M maps (sig, fwd, 1) linearly to
    (a sig, a fwd + sigma2 q, rx), with a = (sum sqrt P_l)^2 g_l and
    q = (sum P_l) g_l. So the destination's noise plus sigma2 is a linear
    form (d1, d2, d3) in the state leaving layer M: from (0, 1, sigma2), each
    layer L..M+1 steps it to (d1 a + d3, d2 a + d3, sigma2 (d2 q + d3)).
    Then alpha = prod a, lam = rho d1, mu = d2 and nu = d3 / sigma2.
    """
    n, he = _require_lemma_network(net)
    return _coefficients(net, n, he, cascade(net, lambda l, bmax: bmax))


def _coefficients(net: LayeredNetwork, n: int, he: float, c: Cascade) -> CoefficientSet:
    """The coefficients with layers 1..M-1 sending as in the cascade c.

    The stationary quadratic (in beta_M^2) is built from terms of known sign,
    sign = h_M^2 alpha - h_e^2 nu and slack = n lam E + t excess >= 0, with
    t = nF + 1 and excess = mu - alpha stepped beside d2 as excess a + d3.
    So sign > 0 gives cal_A < 0 < cal_C in floating point too.
    """
    # the source-side compounds: sig_M = P_s E and fwd_M = sigma2 F
    e_val, f_val = net.h_s ** 2, 0.0
    for l in range(net.M - 1):
        g = net.h[l] ** 2
        e_val *= c.s_sum[l] * g
        f_val = (f_val * c.s_sum[l] + c.q_sum[l]) * g
    e_val, f_val = float(e_val), float(f_val)
    s2 = net.sigma2
    rho = net.P_s / s2
    downstream = []
    for l in range(net.M, net.L):
        p = net.layer_power(l)
        g = net.gain_out(l) ** 2
        downstream.append((float(np.sqrt(p).sum()) ** 2 * g, float(p.sum()) * g))
    alpha = math.prod((a for a, _ in downstream), start=1.0)
    d1, d2, d3, excess = 0.0, 1.0, s2, 0.0
    for a, q in reversed(downstream):
        d1, d2, d3, excess = d1 * a + d3, d2 * a + d3, s2 * (d2 * q + d3), excess * a + d3
    lam, mu, nu = rho * d1, d2, d3 / s2

    h_m2, he2 = net.gain_out(net.M - 1) ** 2, he ** 2
    t = n * f_val + 1.0
    sign = h_m2 * alpha - he2 * nu
    slack = n * lam * e_val + t * excess
    cal_a = -n ** 2 * h_m2 * he2 * (
        alpha * t * (t + n * rho * e_val) * sign
        + h_m2 * slack * (n * lam * e_val + t * (mu + alpha) + n * rho * alpha * e_val))
    return CoefficientSet(E=e_val, F=f_val, alpha=alpha, lam=lam, mu=mu, nu=nu,
                          A=alpha * e_val, B=lam * e_val + mu * f_val, C=mu, D=nu,
                          cal_A=cal_a, cal_B=-2.0 * n * nu * h_m2 * he2 * slack,
                          cal_C=nu * sign)


def reduced_snrs(coeffs: CoefficientSet, h_m: float, h_e: float, rho: float,
                 s_val: float, q_val: float) -> tuple[float, float]:
    """SNR_t and SNR_e rebuilt from the extracted coefficients at given
    S = (sum beta_M)^2 and Q = sum beta_M^2."""
    h_m2, he2 = h_m ** 2, h_e ** 2
    snr_t = (rho * coeffs.A * s_val * h_m2
             / (coeffs.B * s_val * h_m2 + coeffs.C * q_val * h_m2 + coeffs.D))
    snr_e = (rho * coeffs.E * s_val * he2
             / (coeffs.F * s_val * he2 + q_val * he2 + 1.0))
    return snr_t, snr_e


def lemma_beta_M(coeffs: CoefficientSet, h_M: float, h_e: float,
                 beta_M_max: float) -> LayerMSolution:
    """Common optimal scaling for the snooped layer's nodes.

    When h_M^2 alpha - h_e^2 nu > 0 the interior stationary point is
    beta_glb^2 = (|B|/2|A|)(sqrt(1 + 4|A|C/B^2) - 1) in the quadratic's
    coefficients, clipped at beta_M_max; otherwise zero is optimal. The
    rationalized form 2C / (|B| + sqrt(B^2 + 4|A|C)) is used, which is the
    same root and covers B = 0. The sign condition gives cal_A < 0 < cal_C
    (see `_coefficients`), so the root always exists; its denominator is zero
    only without an eavesdropper (h_e = 0), where beta_glb = inf and beta_M
    clips to its bound.
    """
    sign = h_M ** 2 * coeffs.alpha - h_e ** 2 * coeffs.nu
    if sign <= 0:
        return LayerMSolution(beta_opt=0.0, beta_glb=0.0, clipped=False,
                              sign_positive=False)
    cal_a, cal_b, cal_c = coeffs.cal_A, coeffs.cal_B, coeffs.cal_C
    denom = abs(cal_b) + math.sqrt(cal_b ** 2 + 4.0 * abs(cal_a) * cal_c)
    beta_glb = math.sqrt(2.0 * cal_c / denom) if denom else math.inf
    clipped = beta_glb >= beta_M_max * (1 - 1e-12)
    beta_opt = min(beta_M_max, beta_glb)
    return LayerMSolution(beta_opt=beta_opt, beta_glb=beta_glb, clipped=clipped,
                          sign_positive=True)


def optimal_scaling(net: LayeredNetwork) -> LayeredSolution:
    """Network-wide optimal scaling vector and its rates.

    Layers 1..M-1 and M+1..L transmit at maximum power; layer M uses the
    closed-form common optimum. All bounds cascade front-to-back from the
    actual upstream values, so downstream layers still reach full power when
    layer M backs off. h_e = 0 (no eavesdropper) clips layer M to its bound,
    so everything sends at max; a dead path into layer M gives r_s = 0.
    """
    n, he = _require_lemma_network(net)
    allmax = cascade(net, lambda l, bmax: bmax)
    m = net.M - 1
    sol_m = lemma_beta_M(_coefficients(net, n, he, allmax), net.gain_out(m), he,
                         float(allmax.bounds[m][0]))
    sv = max_scaling_with_layer(net, m, sol_m.beta_opt)
    return LayeredSolution(beta=sv, rate=rates(net, sv), layer_m=sol_m)
