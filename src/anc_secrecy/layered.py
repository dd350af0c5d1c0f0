"""Globally optimal scaling for uniform-N layered networks with equal
per-hop gains: upstream layers at maximum power, the snooped layer from a
closed-form stationary point, downstream layers at maximum power.

With layers M+1..L transmitting at full power (their bounds adapt to
whatever layer M sends), the destination SNR is exactly a ratio linear in
S = (sum beta_M)^2 and Q = sum beta_M^2:

    SNR_t = rho * A * S * h_M^2 / (B * S * h_M^2 + C * Q * h_M^2 + D)
    SNR_e = rho * E * S * h_e^2 / (F * S * h_e^2 + Q * h_e^2 + 1)

E and F come from the upstream propagation; A = alpha*E, B = lam*E + mu*F,
C = mu and D = nu from a backward recursion over the full-power layers
(see `extract_coefficients`). The common optimal beta_M then solves a
quadratic in beta_M^2 whose coefficients generalize the printed two-node
form to any N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import (
    Cascade,
    DegenerateNetworkError,
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
    stationary-point quadratic coefficients (in beta_M^2) for the actual
    layer width N.
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
    needs_oracle: bool = False
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True)
class LayeredSolution:
    beta: ScalingVector
    rate: RateReport
    layer_m: LayerMSolution | None
    diagnostics: tuple[str, ...] = ()


def _require_lemma_network(net: LayeredNetwork) -> tuple[int, float]:
    n = net.uniform_N
    if n is None:
        raise ValueError("closed-form layered optimizer requires a uniform layer width")
    he = net.common_h_e
    if he is None:
        raise ValueError("closed-form layered optimizer requires a common eavesdropper gain")
    p_m = net.layer_power(net.M - 1)
    if len(set(p_m.tolist())) != 1:
        raise ValueError("layer M must have a uniform power cap")
    return n, he


def extract_coefficients(net: LayeredNetwork, beta_upstream=None) -> CoefficientSet:
    """The layer-M subproblem coefficients by an exact backward recursion.

    Layers 1..M-1 use beta_upstream (their maxima when omitted), fixing E
    and F. Up to the factor 1/rx, a full-power layer l > M maps (sig, fwd, 1)
    linearly to (a sig, a fwd + sigma2 q, rx), with a = (sum sqrt P_l)^2 g_l
    and q = (sum P_l) g_l. So the destination's noise plus sigma2 is a linear
    form (d1, d2, d3) in the state leaving layer M: from (0, 1, sigma2), each
    layer L..M+1 steps it to (d1 a + d3, d2 a + d3, sigma2 (d2 q + d3)).
    Then alpha = prod a, lam = rho d1, mu = d2 and nu = d3 / sigma2.
    """
    n, he = _require_lemma_network(net)
    m = net.M - 1
    return _coefficients(net, n, he, cascade(
        net, lambda l, bmax: bmax if beta_upstream is None or l >= m else beta_upstream[l]))


def _coefficients(net: LayeredNetwork, n: int, he: float, c: Cascade) -> CoefficientSet:
    """The coefficients with layers 1..M-1 sending as in the cascade c."""
    # the source-side compounds: sig_M = P_s E and fwd_M = sigma2 F
    e_val, f_val = net.h_s ** 2, 0.0
    for l in range(net.M - 1):
        g = net.h[l] ** 2
        e_val *= c.s_sum[l] * g
        f_val = (f_val * c.s_sum[l] + c.q_sum[l]) * g
    e_val, f_val = float(e_val), float(f_val)
    if e_val <= 0:
        raise DegenerateNetworkError("dead source path into layer M")
    s2 = net.sigma2
    rho = net.P_s / s2
    downstream = []
    for l in range(net.M, net.L):
        p = net.layer_power(l)
        g = net.gain_out(l) ** 2
        downstream.append((float(np.sqrt(p).sum()) ** 2 * g, float(p.sum()) * g))
    alpha = math.prod((a for a, _ in downstream), start=1.0)
    d1, d2, d3 = 0.0, 1.0, s2
    for a, q in reversed(downstream):
        d1, d2, d3 = d1 * a + d3, d2 * a + d3, s2 * (d2 * q + d3)
    lam, mu, nu = rho * d1, d2, d3 / s2

    h_m2 = net.gain_out(net.M - 1) ** 2
    cal_a, cal_b, cal_c = _stationary_coefficients(
        n=n, rho=rho, h_m2=h_m2, he2=he ** 2,
        E=e_val, F=f_val, alpha=alpha, lam=lam, mu=mu, nu=nu)
    return CoefficientSet(E=e_val, F=f_val, alpha=alpha, lam=lam, mu=mu, nu=nu,
                          A=alpha * e_val, B=lam * e_val + mu * f_val, C=mu, D=nu,
                          cal_A=cal_a, cal_B=cal_b, cal_C=cal_c)


def _stationary_coefficients(n, rho, h_m2, he2, E, F, alpha, lam, mu, nu):
    """Quadratic (in beta_M^2) whose positive root is the interior optimum.

    Written for general layer width n; at n = 2 the (n F + 1) factors
    collapse to the two-node (2F+1) form.
    """
    t = n * F + 1.0
    cal_c = nu * (h_m2 * alpha - he2 * nu)
    cal_b = 2.0 * n * nu * h_m2 * he2 * ((alpha - mu) * t - n * lam * E)
    cal_a = n ** 2 * h_m2 * he2 * (
        he2 * alpha * nu * t * (t + n * rho * E)
        - h_m2 * (n * lam * E + t * mu) * (t * mu + n * (lam + rho * alpha) * E)
    )
    return cal_a, cal_b, cal_c


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
    same root and covers the B = 0 and A = 0 degeneracies without branching.
    """
    sign = h_M ** 2 * coeffs.alpha - h_e ** 2 * coeffs.nu
    if sign <= 0:
        return LayerMSolution(beta_opt=0.0, beta_glb=0.0, clipped=False,
                              sign_positive=False)
    cal_a, cal_b, cal_c = coeffs.cal_A, coeffs.cal_B, coeffs.cal_C
    diagnostics: list[str] = []
    if cal_a > 0 or cal_c <= 0:
        # the sign condition is supposed to force cal_A < 0 < cal_C
        diagnostics.append(
            f"unexpected stationary-coefficient signs: cal_A={cal_a:.3e}, cal_C={cal_c:.3e}")
        if cal_a >= 0 and cal_b == 0:
            return LayerMSolution(beta_opt=beta_M_max, beta_glb=math.nan,
                                  clipped=True, sign_positive=True,
                                  needs_oracle=True, diagnostics=tuple(diagnostics))
    if cal_a == 0 and cal_b == 0:
        return LayerMSolution(beta_opt=beta_M_max, beta_glb=math.nan, clipped=True,
                              sign_positive=True, needs_oracle=True,
                              diagnostics=("degenerate stationarity: cal_A = cal_B = 0",))
    disc = math.sqrt(max(cal_b ** 2 + 4.0 * abs(cal_a) * cal_c, 0.0))
    x = 2.0 * cal_c / (abs(cal_b) + disc)
    beta_glb = math.sqrt(max(x, 0.0))
    clipped = beta_glb >= beta_M_max * (1 - 1e-12)
    beta_opt = min(beta_M_max, beta_glb)
    return LayerMSolution(beta_opt=beta_opt, beta_glb=beta_glb, clipped=clipped,
                          sign_positive=True, diagnostics=tuple(diagnostics))


def optimal_scaling(net: LayeredNetwork) -> LayeredSolution:
    """Network-wide optimal scaling vector and its rates.

    Layers 1..M-1 and M+1..L transmit at maximum power; layer M uses the
    closed-form common optimum. All bounds cascade front-to-back from the
    actual upstream values, so downstream layers still reach full power when
    layer M backs off. h_e = 0 means no eavesdropper: everything at max.
    """
    n, he = _require_lemma_network(net)
    allmax = cascade(net, lambda l, bmax: bmax)
    if he == 0.0:
        sv = allmax.scaling()
        return LayeredSolution(beta=sv, rate=rates(net, sv), layer_m=None,
                               diagnostics=("no eavesdropper: all layers at max",))

    m = net.M - 1
    sol_m = lemma_beta_M(_coefficients(net, n, he, allmax), net.gain_out(m), he,
                         float(allmax.bounds[m][0]))
    if sol_m.needs_oracle:
        from .oracle import SearchConfig, maximize_secrecy
        res = maximize_secrecy(net, cfg=SearchConfig(restarts=8))
        return LayeredSolution(beta=res.beta, rate=res.rate, layer_m=sol_m,
                               diagnostics=sol_m.diagnostics
                               + ("layer-M optimum from search fallback",))

    sv = max_scaling_with_layer(net, m, sol_m.beta_opt)
    return LayeredSolution(beta=sv, rate=rates(net, sv), layer_m=sol_m,
                           diagnostics=sol_m.diagnostics)
