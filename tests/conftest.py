"""Shared test helpers: independent rate oracles and random-instance draws.

The path-enumeration evaluator below is deliberately literal: it sums gain
products over every explicit relay path, with no shared code or recursion
tricks from the package, so it can serve as an independent cross-check of
the layer-by-layer power propagation.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from anc_secrecy import LayeredNetwork, ScalingVector
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
# random instance draws (plain rng functions so seeds stay explicit)
# ---------------------------------------------------------------------------
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
