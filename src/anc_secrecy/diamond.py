"""Closed-form optimal scaling for symmetric diamond networks and
eavesdropper snooping-subset analysis.

For a symmetric diamond (one relay layer, common gains, common power cap)
the secrecy-rate-maximizing common scaling factor has a closed form: zero
when the eavesdropper's gain dominates the destination's, otherwise the
interior stationary point clipped at the power bound. Asymmetric diamonds
have no closed form, so per-subset optima come from the search oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .layered import closed_form_applies
from .network import LayeredNetwork, RateReport, ScalingVector, beta_max_vector, rates
from .oracle import OracleResult, SearchConfig, maximize_secrecy

# One oracle call per subset. Timed on a 2-vCPU Xeon, a default call takes
# 0.05-0.4 s on an 8-node diamond, so its 2^8 - 1 = 255 subsets take about
# a minute; calls at 9 and 10 nodes put all 511 or 1,023 subsets at about
# 3 and 8 min.
_MAX_SNOOP_SUBSETS = 255


@dataclass(frozen=True)
class DiamondSolution:
    """Common optimal scaling for all N relays of a symmetric diamond."""

    beta_opt: float
    beta_glb: float
    clipped: bool
    rate: RateReport
    eavesdropper_absent: bool = False


@dataclass(frozen=True)
class SubsetResult:
    subset: tuple[int, ...]
    beta: ScalingVector
    rate: RateReport


@dataclass(frozen=True)
class SnoopAnalysis:
    """Outcome of the eavesdropper's subset choice under the stated protocol:
    for every candidate subset the relays play their secrecy-maximizing
    scaling, then the eavesdropper picks the subset with the largest
    resulting rate."""

    best_subset: tuple[int, ...]
    best_r_e: float
    results: tuple[SubsetResult, ...]
    symmetric_shortcut: bool


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


def best_snoop_subset(net: LayeredNetwork, cfg: SearchConfig | None = None) -> SnoopAnalysis:
    """Eavesdropper's best snooping subset of layer-M nodes (0-based).

    For each candidate subset the relays' scaling maximizes the secrecy rate
    for that subset (via the search oracle; asymmetric diamonds have no
    closed form), then the subset with the largest achieved eavesdropper
    rate wins. When the network is symmetric in the snooped layer, subsets
    of equal size are equivalent and one representative per size suffices.
    """
    cfg = cfg or SearchConfig()
    n_m = net.nodes_per_layer[net.M - 1]
    symmetric = len(set(net.h_e)) == 1 and len(set(net.P[net.M - 1])) == 1
    count = n_m if symmetric else 2 ** n_m - 1
    if count > _MAX_SNOOP_SUBSETS:
        raise ValueError(f"snoop enumeration of {count} subsets exceeds the limit of "
                         f"{_MAX_SNOOP_SUBSETS} (one oracle call each)")

    if symmetric:
        subsets = [tuple(range(k)) for k in range(1, n_m + 1)]
    else:
        subsets = [s for k in range(1, n_m + 1) for s in combinations(range(n_m), k)]

    results = []
    for subset in subsets:
        res: OracleResult = maximize_secrecy(net, snooped=subset, cfg=cfg)
        results.append(SubsetResult(subset=subset, beta=res.beta, rate=res.rate))

    best = max(results, key=lambda r: (r.rate.r_e, -len(r.subset)))
    return SnoopAnalysis(best_subset=best.subset, best_r_e=best.rate.r_e,
                         results=tuple(results), symmetric_shortcut=symmetric)


def snr_e_by_k(net: LayeredNetwork, k: int, beta: float | None = None) -> float:
    """Eavesdropper SNR when snooping k relays of a symmetric diamond, all
    relays at a common scaling (defaults to beta_max):

        SNR_e^k = (P_s h_s^2 / sigma2) k^2 beta^2 h_e^2 / (1 + k beta^2 h_e^2)
    """
    he = _require_symmetric_diamond(net)
    n = net.nodes_per_layer[0]
    if not 0 <= k <= n:
        raise ValueError("k must be in 0..N")
    if beta is None:
        beta = float(beta_max_vector(net).beta[0][0])
    rho = net.P_s * net.h_s ** 2 / net.sigma2
    x = beta ** 2 * he ** 2
    return rho * k ** 2 * x / (1.0 + k * x)
