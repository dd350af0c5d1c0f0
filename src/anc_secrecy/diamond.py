"""The eavesdropper's snooping-subset analysis.

For every candidate subset of layer M the relays play their
secrecy-maximizing scaling against it, found by the search oracle, and the
eavesdropper picks the subset with the largest resulting rate. Where layer
M is symmetric (a common h_e and one power cap), subsets of equal size are
equivalent and one per size is searched.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .network import LayeredNetwork, RateReport, ScalingVector
from .oracle import OracleResult, SearchConfig, maximize_secrecy

# One oracle call per subset. Timed on a 2-vCPU Xeon over nine seeded draws,
# a default call takes 0.03-0.7 s on an 8-node diamond, 0.2 s on average, so
# its 2^8 - 1 = 255 subsets take about a minute; calls at 9 and 10 nodes
# (0.18 and 0.08 s on average over five draws each; from 9 nodes on the
# coarse scan has no exhaustive grid) put all 511 or 1,023 subsets at about
# 1.5 min each.
_MAX_SNOOP_SUBSETS = 255


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
    symmetric = net.common_h_e is not None and net.layer_caps[net.M - 1] is not None
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

