"""Shared test helpers: independent rate oracles, the paper's reference
formulas, and random-instance draws.

The path-enumeration evaluator below is deliberately literal: it sums gain
products over every explicit relay path, with no shared code or recursion
tricks from the package, so it can serve as an independent cross-check of
the layer-by-layer power propagation. The reference formulas (the paper's
symmetric-diamond optimum, the lemma's reduced SNRs, SNR_e with k snooped
relays, the high-SNR noise bound) are written out here rather than in the
package, which never needs them: each checks a result or a step of a
derivation against what the package computes. The diamond optimum keeps its
own arithmetic, so it checks the lemma's closed form at L = 1.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from anc_secrecy import (
    CoefficientSet,
    ExperimentConfig,
    LayeredNetwork,
    RateReport,
    ScalingVector,
    beta_max_vector,
    rates,
)
from anc_secrecy.highsnr import _bound_delta, _layer_caps, _width_factor
from anc_secrecy.layered import closed_form_applies
from anc_secrecy.network import cascade


def rates_by_path_enumeration(net: LayeredNetwork, scaling: ScalingVector,
                              snooped=None):
    """(snr_t, snr_e) from literal sums over all relay paths.

    h_st is the sum over all L-tuples of node choices of the product of hop
    gains and scalings along the path; each relay's forwarded-noise gain is
    the same sum restricted to paths starting at that relay. The eavesdropper
    hears only the snooped layer-M nodes through their individual gains.
    """
    L = net.L
    beta = [list(map(float, row)) for row in scaling.beta]
    he = net.h_e
    m = net.M - 1
    n_m = net.nodes_per_layer[m]
    snoop = tuple(range(n_m)) if snooped is None else tuple(sorted(snooped))
    s2 = net.sigma2

    def hop_gain(l):  # gain out of relay layer l
        return net.h[l] if l < L - 1 else net.h_t

    # destination: source path sum
    h_st = 0.0
    for combo in itertools.product(*[range(n) for n in net.nodes_per_layer]):
        prod = net.h_s
        for l, node in enumerate(combo):
            prod *= beta[l][node] * hop_gain(l)
        h_st += prod

    # destination: per-relay noise path sums
    noise_sq = 0.0
    for l in range(L):
        for j in range(net.nodes_per_layer[l]):
            total = 0.0
            tail_layers = [range(n) for n in net.nodes_per_layer[l + 1:]]
            for combo in itertools.product(*tail_layers):
                prod = beta[l][j] * hop_gain(l)
                for k, node in enumerate(combo, start=l + 1):
                    prod *= beta[k][node] * hop_gain(k)
                total += prod
            noise_sq += total ** 2
    snr_t = (net.P_s / s2) * h_st ** 2 / (1.0 + noise_sq)

    # eavesdropper: paths must end at a snooped layer-M node
    if not snoop:
        return snr_t, 0.0
    h_se = 0.0
    for combo in itertools.product(*[range(n) for n in net.nodes_per_layer[:m + 1]]):
        if combo[m] not in snoop:
            continue
        prod = net.h_s
        for l, node in enumerate(combo[:-1]):
            prod *= beta[l][node] * net.h[l]
        prod *= beta[m][combo[m]] * he[combo[m]]
        h_se += prod
    e_noise_sq = 0.0
    for l in range(m + 1):
        for j in range(net.nodes_per_layer[l]):
            if l == m:
                e_noise_sq += (beta[m][j] * he[j]) ** 2 if j in snoop else 0.0
                continue
            total = 0.0
            mids = [range(n) for n in net.nodes_per_layer[l + 1:m + 1]]
            for combo in itertools.product(*mids):
                if combo[-1] not in snoop:
                    continue
                prod = beta[l][j] * net.h[l]
                for k, node in enumerate(combo[:-1], start=l + 1):
                    prod *= beta[k][node] * net.h[k]
                prod *= beta[m][combo[-1]] * he[combo[-1]]
                total += prod
            e_noise_sq += total ** 2
    snr_e = (net.P_s / s2) * h_se ** 2 / (1.0 + e_noise_sq)
    return snr_t, snr_e


def scan_symmetric_diamond(net: LayeredNetwork, step: float = 1e-4,
                           refine_iters: int = 60):
    """Test-local 1-D oracle for symmetric diamonds: grid over the common
    scaling at the given step, then golden-section refinement."""
    n = net.nodes_per_layer[0]
    he = net.common_h_e
    rho = net.P_s * net.h_s ** 2 / net.sigma2
    bmax = math.sqrt(net.uniform_P / (net.P_s * net.h_s ** 2 + net.sigma2))

    def obj(b):
        s = (n * b) ** 2
        q = n * b ** 2
        snr_t = rho * s * net.h_t ** 2 / (1 + q * net.h_t ** 2)
        snr_e = rho * s * he ** 2 / (1 + q * he ** 2)
        return 0.5 * (math.log2(1 + snr_t) - math.log2(1 + snr_e))

    xs = np.append(np.arange(0.0, bmax, step), bmax)
    vals = [obj(x) for x in xs]
    j = int(np.argmax(vals))
    lo, hi = xs[max(j - 1, 0)], xs[min(j + 1, len(xs) - 1)]
    invphi = (math.sqrt(5) - 1) / 2
    c, d = hi - (hi - lo) * invphi, lo + (hi - lo) * invphi
    fc, fd = obj(c), obj(d)
    for _ in range(refine_iters):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * invphi
            fc = obj(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * invphi
            fd = obj(d)
    best = max([(vals[j], xs[j]), (fc, c), (fd, d)])
    return best[1], max(best[0], 0.0)


# ---------------------------------------------------------------------------
# reference formulas and policies
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DiamondSolution:
    """Common optimal scaling for all N relays of a symmetric diamond."""

    beta_opt: float
    beta_glb: float
    clipped: bool
    rate: RateReport
    eavesdropper_absent: bool = False


def _require_symmetric_diamond(net: LayeredNetwork) -> float:
    """The common eavesdropper gain of a symmetric diamond: the lemma's class
    at L = 1."""
    if not (net.L == 1 and closed_form_applies(net)):
        raise ValueError("symmetric diamond requires a single relay layer (L=1), "
                         "a common eavesdropper gain and a uniform relay power cap")
    return net.common_h_e


def diamond_opt(net: LayeredNetwork) -> DiamondSolution:
    """Globally optimal common scaling factor for a symmetric diamond.

    beta_glb^2 = sqrt(1 / (N^2 h_t^2 h_e^2 (1 + N P_s h_s^2 / sigma2)))
    and the optimum is min(beta_max, beta_glb) when |h_t| > |h_e|, zero
    otherwise. h_e = 0 means there is nothing to hide from: the rate is
    increasing in beta and the bound is optimal (flagged on the result).
    """
    he = _require_symmetric_diamond(net)
    n = net.nodes_per_layer[0]
    bmax = float(beta_max_vector(net).beta[0][0])
    ht, he = abs(net.h_t), abs(he)

    def symmetric(beta: float) -> ScalingVector:
        return ScalingVector(beta=((beta,) * n,), beta_max=((bmax,) * n,))

    if he == 0.0:
        return DiamondSolution(beta_opt=bmax, beta_glb=math.inf, clipped=True,
                               rate=rates(net, symmetric(bmax)),
                               eavesdropper_absent=True)
    if ht <= he:
        beta_glb = _diamond_glb(net, n, ht, he) if ht > 0 else math.inf
        return DiamondSolution(beta_opt=0.0, beta_glb=beta_glb, clipped=False,
                               rate=rates(net, symmetric(0.0)))
    beta_glb = _diamond_glb(net, n, ht, he)
    clipped = beta_glb >= bmax * (1 - 1e-12)
    beta_opt = min(bmax, beta_glb)
    return DiamondSolution(beta_opt=beta_opt, beta_glb=beta_glb, clipped=clipped,
                           rate=rates(net, symmetric(beta_opt)))


def _diamond_glb(net: LayeredNetwork, n: int, ht: float, he: float) -> float:
    rho = net.P_s * net.h_s ** 2 / net.sigma2
    x2 = math.sqrt(1.0 / (n ** 2 * ht ** 2 * he ** 2 * (1.0 + n * rho)))
    return math.sqrt(x2)


def fixed_betas(beta):
    """The cascade policy that holds each layer's betas as given."""
    return lambda l, bmax: beta[l]


def max_scaling_with_layer(net: LayeredNetwork, layer: int, beta_layer) -> ScalingVector:
    """All layers at max except `layer` (0-based), which uses beta_layer, a
    scalar for every node or one value per node. Downstream bounds follow
    the actual upstream values, so later layers still send at full power."""
    n = net.nodes_per_layer[layer]
    row = [float(beta_layer)] * n if np.isscalar(beta_layer) else list(map(float, beta_layer))
    return cascade(net, lambda l, bmax: row if l == layer else bmax).scaling()


def reduced_snrs(co: CoefficientSet, h_m: float, h_e: float,
                 s_val: float, q_val: float) -> tuple[float, float]:
    """SNR_t and SNR_e of the lemma's reduced form at S = (sum beta_M)^2 and
    Q = sum beta_M^2, with A = alpha snr, B = d1 snr + mu F, C = mu, D = nu:

        SNR_t = A S h_M^2 / (B S h_M^2 + C Q h_M^2 + D)
        SNR_e = snr S h_e^2 / (F S h_e^2 + Q h_e^2 + 1)
    """
    a, b, c, d = co.alpha * co.snr, co.d1 * co.snr + co.mu * co.F, co.mu, co.nu
    h_m2, he2 = h_m ** 2, h_e ** 2
    snr_t = a * s_val * h_m2 / (b * s_val * h_m2 + c * q_val * h_m2 + d)
    snr_e = co.snr * s_val * he2 / (co.F * s_val * he2 + q_val * he2 + 1.0)
    return snr_t, snr_e


def snr_e_by_k(net: LayeredNetwork, k: int, beta: float | None = None) -> float:
    """Eavesdropper SNR when snooping k relays of a symmetric diamond, all
    relays at a common scaling (defaults to beta_max):

        SNR_e^k = (P_s h_s^2 / sigma2) k^2 beta^2 h_e^2 / (1 + k beta^2 h_e^2)
    """
    he = _require_symmetric_diamond(net)
    if not 0 <= k <= net.nodes_per_layer[0]:
        raise ValueError("k must be in 0..N")
    if beta is None:
        beta = float(beta_max_vector(net).beta[0][0])
    rho = net.P_s * net.h_s ** 2 / net.sigma2
    x = beta ** 2 * he ** 2
    return rho * k ** 2 * x / (1.0 + k * x)


def noise_power_bound(net: LayeredNetwork, delta: float) -> float:
    """Upper bound on the total noise power reaching the destination under
    delta-scaling, the step `gap_bound`'s derivation rests on:

        (n_L^2 p_L / min n_i) h_t^2 (1 - (1+delta)^-L),

    N P h_t^2 (1 - (1+delta)^-L) on a uniform network. In the regime
    sigma2 / P_Ri <= delta, so layer i's noise term is at most
    P_R(L+1) delta / (min n_i (1+delta)^(L-i+1)), and
    delta sum_k=1..L (1+delta)^-k = 1 - (1+delta)^-L. Raises for delta <= 0.
    """
    _bound_delta(delta)
    return _width_factor(net) * _layer_caps(net)[-1] * net.h_t ** 2 * (
        1.0 - (1.0 + delta) ** -net.L)


def plateau_index(values, rel_slope: float = 1e-4) -> int | None:
    """Largest index whose step from its predecessor has relative slope
    below rel_slope; None when the curve never flattens."""
    vals = list(values)
    for i in range(len(vals) - 1, 0, -1):
        denom = max(abs(vals[i]), 1e-300)
        if abs(vals[i] - vals[i - 1]) / denom < rel_slope:
            return i
    return None


def _lists(value):
    """value with every tuple, nested too, as a list, as JSON writes it."""
    return [_lists(v) for v in value] if isinstance(value, tuple) else value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The JSON config that `ExperimentConfig.from_dict` reads back as cfg.
    h_e and P are written per node, the form the network stores."""
    out = {
        "network": {key: _lists(value) for key, value in asdict(cfg.network).items()},
        "mode": cfg.mode,
        "seed": cfg.seed,
    }
    if cfg.sweep is not None:
        out["sweep"] = {"variable": cfg.sweep.variable, "from": cfg.sweep.start,
                        "to": cfg.sweep.stop, "points": cfg.sweep.points,
                        "scale": cfg.sweep.scale}
    if cfg.delta is not None:
        out["delta"] = cfg.delta
    if cfg.output is not None:
        out["output"] = cfg.output
    return out


# ---------------------------------------------------------------------------
# random instance draws (plain rng functions so seeds stay explicit)
# ---------------------------------------------------------------------------
def extreme_value(rng: np.random.Generator) -> float:
    """An ordinary value, or one log-uniform in 1e-150..1e150."""
    if rng.random() < 0.5:
        return float(rng.uniform(0.01, 2.0))
    return float(10.0 ** rng.uniform(-150, 150))


def random_network(rng: np.random.Generator, L_max: int = 4, N_max: int = 3,
                   per_node_he: bool = False) -> LayeredNetwork:
    """General evaluation-grade network: possibly ragged layer widths."""
    L = int(rng.integers(1, L_max + 1))
    nodes = tuple(int(rng.integers(1, N_max + 1)) for _ in range(L))
    M = int(rng.integers(1, L + 1))
    if per_node_he and rng.random() < 0.5:
        h_e = tuple(float(rng.uniform(0.02, 1.0)) for _ in range(nodes[M - 1]))
    else:
        h_e = float(rng.uniform(0.02, 1.0))
    return LayeredNetwork(
        L=L, nodes_per_layer=nodes,
        h_s=float(rng.uniform(0.05, 1.3)),
        h=tuple(float(rng.uniform(0.05, 1.3)) for _ in range(L - 1)),
        h_t=float(rng.uniform(0.05, 1.3)), h_e=h_e, M=M,
        P_s=float(rng.uniform(0.1, 30.0)), P=float(rng.uniform(0.1, 30.0)),
        sigma2=float(rng.uniform(0.3, 2.0)))


def random_ecgal(rng: np.random.Generator, L_max: int = 3, N_max: int = 3,
                 M: int | None = None) -> LayeredNetwork:
    """Uniform-width network with a common eavesdropper gain (lemma-grade)."""
    L = int(rng.integers(1, L_max + 1))
    N = int(rng.integers(1, N_max + 1))
    return LayeredNetwork(
        L=L, nodes_per_layer=(N,) * L,
        h_s=float(rng.uniform(0.05, 1.3)),
        h=tuple(float(rng.uniform(0.05, 1.3)) for _ in range(L - 1)),
        h_t=float(rng.uniform(0.05, 1.3)),
        h_e=float(rng.uniform(0.02, 1.0)),
        M=int(rng.integers(1, L + 1)) if M is None else min(M, L),
        P_s=float(rng.uniform(0.1, 30.0)), P=float(rng.uniform(0.1, 30.0)),
        sigma2=float(rng.uniform(0.3, 2.0)))


def random_diamond(rng: np.random.Generator, N_max: int = 3) -> LayeredNetwork:
    return LayeredNetwork.diamond(
        N=int(rng.integers(1, N_max + 1)),
        h_s=float(rng.uniform(0.05, 1.3)), h_t=float(rng.uniform(0.05, 1.3)),
        h_e=float(rng.uniform(0.02, 1.0)),
        P_s=float(rng.uniform(0.1, 30.0)), P=float(rng.uniform(0.1, 30.0)),
        sigma2=float(rng.uniform(0.3, 2.0)))


def random_feasible_scaling(rng: np.random.Generator,
                            net: LayeredNetwork) -> ScalingVector:
    """Uniform draw in the feasible set via the cascaded-bound map."""
    return cascade(net, lambda l, bmax: rng.random(len(bmax)) * bmax).scaling()
