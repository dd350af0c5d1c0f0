"""Globally optimal scaling for the lemma's layered networks, those with
equal per-hop gains, a common eavesdropper gain and one power cap within
each layer (widths and caps may differ between layers): upstream layers at
maximum power, the snooped layer from a closed-form stationary point,
downstream layers at maximum power.

With layers M+1..L transmitting at full power (their bounds adapt to
whatever layer M sends), the destination SNR is exactly a ratio linear in
S = (sum beta_M)^2 and Q = sum beta_M^2:

    SNR_t = A * S * h_M^2 / (B * S * h_M^2 + C * Q * h_M^2 + D)
    SNR_e = snr * S * h_e^2 / (F * S * h_e^2 + Q * h_e^2 + 1)

snr and F, the signal and the forwarded-noise power entering layer M over
sigma2, come from the upstream propagation; A = alpha*snr,
B = d1*snr + mu*F, C = mu and D = nu from a backward recursion over the
full-power layers (see `extract_coefficients`). So the source power enters
only through these SNRs, never as P_s / sigma2 alone. The common optimal
beta_M then solves a quadratic in beta_M^2 whose coefficients generalize
the printed two-node form to any N. They are computed from terms of known
sign, so whenever the lemma's sign condition holds the quadratic has
cal_A < 0 < cal_C in floating point too, and the closed form answers for
every network it applies to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .network import (
    Cascade,
    LayeredNetwork,
    RateColumns,
    RateReport,
    ScalingVector,
    _rate_reports,
    cascade,
)


@dataclass(frozen=True)
class CoefficientSet:
    """Reduced-form constants of the layer-M subproblem.

    snr and F describe the source side at the given upstream scaling: the
    signal power entering layer M over sigma2 (the lemma's rho E) and the
    forwarded noise power there over sigma2. alpha, d1 (the lemma's
    lam / rho), mu and nu are the downstream compounds, from which the
    destination-SNR coefficients of the module docstring follow; cal_A,
    cal_B, cal_C the stationary-point quadratic coefficients (in beta_M^2)
    for layer M's width N.
    """

    snr: float
    F: float
    alpha: float
    d1: float
    mu: float
    nu: float
    cal_A: float
    cal_B: float
    cal_C: float


@dataclass(frozen=True)
class LayerMSolution:
    """Layer M's common optimum (see `lemma_beta_M`): a float beta_opt and
    beta_glb and a bool clipped for one point, (B,) arrays for a batch, with
    one bool sign_positive either way."""

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
    diagnostics: ClassVar[tuple[str, ...]] = ()


def closed_form_applies(net: LayeredNetwork) -> bool:
    """Whether the lemma covers net: a common eavesdropper gain and one power
    cap within each layer. With unequal caps inside any layer, "every other
    layer at maximum" is not optimal."""
    return net.common_h_e is not None and None not in net.layer_caps


def _require_lemma_network(net: LayeredNetwork) -> tuple[int, float]:
    """Layer M's width and the common eavesdropper gain of a lemma network."""
    if not closed_form_applies(net):
        raise ValueError("closed-form layered optimizer requires a common eavesdropper "
                         "gain and one power cap within each layer")
    return net.nodes_per_layer[net.M - 1], net.common_h_e


def extract_coefficients(net: LayeredNetwork) -> CoefficientSet:
    """The layer-M subproblem coefficients by an exact backward recursion.

    Layers 1..M-1 send at their maxima, fixing snr and F. Up to the factor
    1/rx, a full-power layer l > M maps (sig, fwd, 1) linearly to
    (a sig, a fwd + sigma2 q, rx), with a = (sum sqrt P_l)^2 g_l and
    q = (sum P_l) g_l. So the destination's noise plus sigma2 is a linear
    form (d1, d2, d3) in the state leaving layer M: from (0, 1, sigma2), each
    layer L..M+1 steps it to (d1 a + d3, d2 a + d3, sigma2 (d2 q + d3)).
    Then alpha = prod a, mu = d2 and nu = d3 / sigma2; d1 is the lemma's
    lam / rho, which enters the SNRs only as lam E = d1 snr.
    """
    n, he = _require_lemma_network(net)
    return _coefficients(net, n, he, cascade(net, lambda l, bmax: bmax))


def _coefficients(net: LayeredNetwork, n: int, he: float, c: Cascade) -> CoefficientSet:
    """The coefficients with layers 1..M-1 sending as in the cascade c, of
    one point or, elementwise, of a batch of source powers (as in
    `cascade`); only snr, F and what is built from them vary with P_s.

    The source power enters only through SNRs, read off c: snr = sig_M /
    sigma2 (rho E) and F = fwd_M / sigma2. So no P_s / sigma2 is formed on its
    own, which could overflow while every power and SNR is in range. The
    stationary quadratic (in beta_M^2) is built from terms of known sign,
    sign = h_M^2 alpha - h_e^2 nu and slack = n d1 snr + t excess >= 0, with
    t = nF + 1 and excess = mu - alpha stepped beside d2 as excess a + d3.
    So sign > 0 gives cal_A < 0 < cal_C in floating point too. Raises
    OverflowError when the quadratic's coefficients leave the float range.
    """
    s2, m = net.sigma2, net.M - 1
    snr, f_val = c.sig[m] / s2, c.fwd[m] / s2
    downstream = []
    for l in range(net.M, net.L):
        r = p_sum = 0.0
        for p in net.P[l]:
            r += math.sqrt(p)
            p_sum += p
        g = net.gain_out(l) ** 2
        downstream.append((r * r * g, p_sum * g))
    alpha = math.prod((a for a, _ in downstream), start=1.0)
    d1, d2, d3, excess = 0.0, 1.0, s2, 0.0
    for a, q in reversed(downstream):
        d1, d2, d3, excess = d1 * a + d3, d2 * a + d3, s2 * (d2 * q + d3), excess * a + d3
    mu, nu = d2, d3 / s2

    h_m2, he2 = net.gain_out(m) ** 2, he ** 2
    t = n * f_val + 1.0
    sign = h_m2 * alpha - he2 * nu
    lam_e = d1 * snr
    slack = n * lam_e + t * excess
    cal_a = -n ** 2 * h_m2 * he2 * (
        alpha * t * (t + n * snr) * sign
        + h_m2 * slack * (n * lam_e + t * (mu + alpha) + n * alpha * snr))
    cal_b = -2.0 * n * nu * h_m2 * he2 * slack
    cal_c = nu * sign
    finite = (np.isfinite(x).all() if isinstance(x, np.ndarray) else math.isfinite(x)
              for x in (cal_a, cal_b, cal_c))
    if not all(finite):
        raise OverflowError("the layer-M quadratic's coefficients are not finite")
    return CoefficientSet(snr=snr, F=f_val, alpha=alpha, d1=d1, mu=mu, nu=nu,
                          cal_A=cal_a, cal_B=cal_b, cal_C=cal_c)


def lemma_beta_M(coeffs: CoefficientSet, h_M: float, h_e: float,
                 beta_M_max: float | np.ndarray) -> LayerMSolution:
    """Common optimal scaling for the snooped layer's nodes.

    When h_M^2 alpha - h_e^2 nu > 0 the interior stationary point is
    beta_glb^2 = (|B|/2|A|)(sqrt(1 + 4|A|C/B^2) - 1) in the quadratic's
    coefficients, clipped at beta_M_max; otherwise zero is optimal. The
    rationalized form 2C / (|B| + sqrt(B^2 + 4|A|C)) is used, which is the
    same root and covers B = 0; B^2 is formed as B * B, the squaring rule of
    `network`. The sign condition gives cal_A < 0 < cal_C (see
    `_coefficients`), so the root always exists. Its denominator is zero
    without an eavesdropper (h_e = 0), or where the coefficients underflow
    to 0; then beta_glb = inf and beta_M clips to its bound. Raises
    OverflowError when the discriminant leaves the float range, which would
    otherwise round beta_glb to 0.

    Elementwise over a batch: coeffs as `_coefficients` returns it for a
    batch and a (B,) beta_M_max give a LayerMSolution of (B,) arrays, but
    one sign_positive, since the sign does not depend on P_s. A point, a
    scalar beta_M_max, runs the same numpy body as a 0-d array and gets
    floats and bools back. It keeps no float path of its own, unlike
    `cascade` and `_rate_reports`: it runs once per solve, never in the
    search oracle's per-point deferrals.
    """
    sign = h_M ** 2 * coeffs.alpha - h_e ** 2 * coeffs.nu
    bmax = np.asarray(beta_M_max, dtype=float)
    if sign <= 0:
        beta_opt = beta_glb = np.zeros_like(bmax)
    else:
        cal_a, cal_b, cal_c = coeffs.cal_A, coeffs.cal_B, coeffs.cal_C
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            denom = abs(cal_b) + np.sqrt(cal_b * cal_b + 4.0 * abs(cal_a) * cal_c)
            # 2C + 1 over a zero denominator is inf, also where C is 0; over
            # any other, the 1 is not added and the quotient is 2C / denom
            beta_glb = np.sqrt((2.0 * cal_c + (denom == 0)) / denom)
        if (denom == math.inf).any():
            raise OverflowError("the layer-M quadratic's root is not finite")
        beta_opt = np.minimum(bmax, beta_glb)
    clipped = (sign > 0) & (beta_glb >= bmax * (1 - 1e-12))
    if bmax.ndim == 0:
        beta_opt, beta_glb, clipped = float(beta_opt), float(beta_glb), bool(clipped)
    return LayerMSolution(beta_opt, beta_glb, clipped, sign > 0)


def _lemma_points(net: LayeredNetwork, P_s: np.ndarray | None = None
                  ) -> tuple[Cascade, Cascade, LayerMSolution]:
    """The lemma at each source power of the (B,) vector P_s in one batched
    pass, or at net.P_s alone when P_s is None: the all-max cascade, its
    coefficients, `lemma_beta_M` over them, and the cascade with layer M at
    that optimum. Returns the optimal cascade, the all-max one and layer M's
    solution. Neither cascade is checked here beyond the kernel's end test:
    `optimal_scaling` reports opt through a ScalingVector, which checks it,
    and `optimal_rates` needs no more (see there)."""
    n, he = _require_lemma_network(net)
    m = net.M - 1
    allmax = cascade(net, lambda l, bmax: bmax, P_s)
    sol = lemma_beta_M(_coefficients(net, n, he, allmax), net.gain_out(m), he,
                       allmax.bounds[m][0])
    opt = cascade(net, lambda l, bmax: [sol.beta_opt] * len(bmax) if l == m else bmax, P_s)
    return opt, allmax, sol


def optimal_scaling(net: LayeredNetwork) -> LayeredSolution:
    """Network-wide optimal scaling vector and its rates.

    Layers 1..M-1 and M+1..L transmit at maximum power; layer M uses the
    closed-form common optimum. All bounds cascade front-to-back from the
    actual upstream values, so downstream layers still reach full power when
    layer M backs off. h_e = 0 (no eavesdropper) clips layer M to its bound,
    so everything sends at max; a dead path into layer M gives r_s = 0.
    This is the one-point case of `optimal_rates`.
    """
    opt, _, sol_m = _lemma_points(net)
    # the ScalingVector's checks are the one check of opt. The all-max
    # cascade is not reported: its layers before M are opt's, and a NaN
    # bound at layer M reaches opt's beta_M through the minimum.
    return LayeredSolution(beta=opt.scaling(), rate=_rate_reports(net, opt).point(),
                           layer_m=sol_m)


def optimal_rates(net: LayeredNetwork, P_s) -> tuple[RateColumns, RateColumns]:
    """The optimal and the all-max rates at each source power of the vector
    P_s, in one batched pass, as columns. Point for point they equal
    `optimal_scaling(net).rate` and `rates(net, beta_max_vector(net))` with
    net.P_s set to that power, bit for bit. The kernel's end test is the
    one check of the betas."""
    opt, allmax, _ = _lemma_points(net, np.asarray(P_s, dtype=float))
    # ScalingVector's checks could not fire here. A nan or inf beta makes
    # its layer's q_sum, and with sigma2 > 0 every fwd after it, non-finite,
    # so the kernel has raised OverflowError. Every other beta is its own
    # bound, except opt's in layer M, np.minimum(bound, beta_glb) with
    # beta_glb >= 0; so none is negative or above its bound.
    return _rate_reports(net, opt), _rate_reports(net, allmax)
