"""Layered amplify-and-forward relay network model and exact rate evaluation.

A source feeds L relay layers in series; every relay scales its noisy
received sum by a per-node factor beta and retransmits, and the last layer
reaches the destination. An eavesdropper overhears the transmissions of one
relay layer M. All channel gains between two adjacent layers are equal, so
every node of a layer sees identical input statistics: a coherent source
component, a forwarded-noise component common to the whole layer, and its
own thermal noise. Received powers therefore propagate front-to-back with
two scalars per layer, which the one kernel `cascade_layers` computes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class RegimeViolationError(ValueError):
    """A relay layer's input SNR is below 1/delta, so the delta-scaled
    amplification is not feasible."""

    def __init__(self, layer: int, snr: float, delta: float):
        self.layer = layer
        self.snr = snr
        self.delta = delta
        super().__init__(
            f"layer {layer} input SNR {snr:.6g} is below 1/delta = {1.0 / delta:.6g}"
        )


def _as_float_tuple(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _as_int(key: str, value) -> int:
    """value as an int; integral floats such as 2.0 pass, 1.9 does not."""
    try:
        out = int(value)
        integral = out == value
    except (ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"{key} must be a finite integer, got {value!r}")
    return out


def _all_finite(value) -> bool:
    """True when a float, or every float of a nested tuple, is finite."""
    if isinstance(value, tuple):
        return all(_all_finite(v) for v in value)
    return math.isfinite(value)


@dataclass(frozen=True)
class LayeredNetwork:
    """Network description.

    L relay layers with nodes_per_layer[l] nodes each. h_s is the
    source-to-layer-1 gain, h[i] the gain from layer i+1 to layer i+2
    (len L-1), h_t the last-layer-to-destination gain, and h_e the gains from
    the nodes of the snooped layer M (1-based) to the eavesdropper. P holds
    the per-relay transmit power caps, one row per layer. h_e and P are
    accepted as a scalar or per node; they are stored per node, so a network
    built with a scalar equals the one built with its expansion.
    """

    L: int
    nodes_per_layer: tuple[int, ...]
    h_s: float
    h: tuple[float, ...]
    h_t: float
    h_e: tuple[float, ...]
    M: int
    P_s: float
    P: tuple[tuple[float, ...], ...]
    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "L", _as_int("L", self.L))
        object.__setattr__(self, "M", _as_int("M", self.M))
        object.__setattr__(self, "nodes_per_layer",
                           tuple(_as_int("nodes_per_layer", n) for n in self.nodes_per_layer))
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if len(self.nodes_per_layer) != self.L:
            raise ValueError("nodes_per_layer must have L entries")
        if any(n < 1 for n in self.nodes_per_layer):
            raise ValueError("every layer needs at least one node")
        if not 1 <= self.M <= self.L:
            raise ValueError("M must be in 1..L")
        # a scalar h_e or P is stored per node, so every reader sees one form
        h_e, P = self.h_e, self.P
        if not isinstance(h_e, (tuple, list, np.ndarray)):
            h_e = (h_e,) * self.nodes_per_layer[self.M - 1]
        if not isinstance(P, (tuple, list, np.ndarray)):
            P = [(P,) * n for n in self.nodes_per_layer]
        object.__setattr__(self, "h_s", float(self.h_s))
        object.__setattr__(self, "h", _as_float_tuple(self.h))
        object.__setattr__(self, "h_t", float(self.h_t))
        object.__setattr__(self, "h_e", _as_float_tuple(h_e))
        object.__setattr__(self, "P_s", float(self.P_s))
        object.__setattr__(self, "P", tuple(_as_float_tuple(row) for row in P))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        for key in ("h_s", "h", "h_t", "h_e", "P_s", "P", "sigma2"):
            if not _all_finite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)!r}")

        if len(self.h) != self.L - 1:
            raise ValueError("h must have L-1 inter-layer gains")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be > 0")
        if self.P_s < 0:
            raise ValueError("P_s must be >= 0")
        if len(self.h_e) != self.nodes_per_layer[self.M - 1]:
            raise ValueError("per-node h_e must have one entry per node of layer M")
        if len(self.P) != self.L:
            raise ValueError("per-node P must have one row per layer")
        for l, row in enumerate(self.P):
            if len(row) != self.nodes_per_layer[l]:
                raise ValueError(f"P row {l + 1} does not match layer width")
        if any(p < 0 for row in self.P for p in row):
            raise ValueError("relay powers must be >= 0")

    @classmethod
    def diamond(cls, N, h_s, h_t, h_e, P_s, P, sigma2) -> "LayeredNetwork":
        """Single relay layer between source and destination."""
        return cls(L=1, nodes_per_layer=(N,), h_s=h_s, h=(), h_t=h_t, h_e=h_e,
                   M=1, P_s=P_s, P=P, sigma2=sigma2)

    # -- structural helpers -------------------------------------------------
    def layer_power(self, l: int) -> np.ndarray:
        """Per-node transmit power caps of layer l (0-based)."""
        return np.asarray(self.P[l])

    def gain_out(self, l: int) -> float:
        """Gain out of relay layer l (0-based); h_t for the last layer."""
        return self.h[l] if l < self.L - 1 else self.h_t

    @property
    def uniform_N(self) -> int | None:
        ns = set(self.nodes_per_layer)
        return self.nodes_per_layer[0] if len(ns) == 1 else None

    @property
    def uniform_P(self) -> float | None:
        vals = {p for row in self.P for p in row}
        return next(iter(vals)) if len(vals) == 1 else None

    @property
    def common_h_e(self) -> float | None:
        """Scalar eavesdropper gain if all snooped-layer gains agree."""
        return self.h_e[0] if len(set(self.h_e)) == 1 else None


@dataclass(frozen=True)
class ScalingVector:
    """Per-node amplification factors with optional per-node upper bounds."""

    beta: tuple[tuple[float, ...], ...]
    beta_max: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(_as_float_tuple(row) for row in self.beta))
        if self.beta_max is not None:
            object.__setattr__(self, "beta_max",
                               tuple(_as_float_tuple(row) for row in self.beta_max))
        for row in self.beta:
            if any(not math.isfinite(b) or b < 0 for b in row):
                raise ValueError("scaling factors must be finite and >= 0")
        if self.beta_max is not None:
            if tuple(len(r) for r in self.beta_max) != tuple(len(r) for r in self.beta):
                raise ValueError("beta and beta_max shapes differ")
            for brow, mrow in zip(self.beta, self.beta_max):
                for b, m in zip(brow, mrow):
                    if b > m * (1 + 1e-9) + 1e-15:
                        raise ValueError(f"beta {b} exceeds its bound {m}")

    def layer(self, l: int) -> np.ndarray:
        return np.asarray(self.beta[l], dtype=float)

    def flat(self) -> np.ndarray:
        return np.concatenate([np.asarray(row, dtype=float) for row in self.beta])


@dataclass(frozen=True)
class PowerFlow:
    """Received powers at each relay layer's input and at the destination.

    signal_power / noise_power are the coherent source power and the
    accumulated forwarded-noise power at a node's input (own thermal noise
    excluded); rx_power adds sigma2. All nodes of one layer share the same
    entries.
    """

    signal_power: tuple[float, ...]
    noise_power: tuple[float, ...]
    rx_power: tuple[float, ...]
    dest_signal: float
    dest_noise: float


@dataclass(frozen=True)
class RateReport:
    """SNRs and rates (bits/s/Hz, base-2 logs) for one scaling configuration."""

    snr_t: float
    snr_e: float
    r_t: float
    r_e: float
    r_s: float

    @classmethod
    def from_snrs(cls, snr_t: float, snr_e: float) -> "RateReport":
        r_t = 0.5 * math.log2(1.0 + snr_t)
        r_e = 0.5 * math.log2(1.0 + snr_e)
        return cls(snr_t=snr_t, snr_e=snr_e, r_t=r_t, r_e=r_e, r_s=max(r_t - r_e, 0.0))


class Cascade(NamedTuple):
    """One front-to-back propagation, per relay layer: the betas used, their
    bounds and the sums s_sum = (sum beta)^2 and q_sum = sum beta^2. sig and
    fwd are the signal and forwarded-noise powers entering each layer, then
    the destination's."""

    betas: list
    bounds: list
    s_sum: list
    q_sum: list
    sig: list
    fwd: list

    def scaling(self) -> ScalingVector:
        """The betas used, with their bounds, of a single-point cascade."""
        return ScalingVector(beta=self.betas, beta_max=self.bounds)


def cascade_layers(net: LayeredNetwork, policy):
    """The power-propagation kernel: exact front-to-back recursion.

    policy(l, bmax) -> betas actually used at layer l, given its bound
    bmax = sqrt(P_l / rx_l); the received power of layer l+1 is computed from
    those betas, so bounds always reflect the actual upstream transmissions.
    Policies returning (B, N_l) arrays propagate a batch of B points at once.
    Yields (betas, bmax, s_sum, q_sum, sig, fwd) per relay layer, with the
    powers entering it, then the destination's (sig, fwd) padded with None.
    Only the current layer is held, so a large batch stays cheap.
    """
    s2 = net.sigma2
    sig, fwd = net.P_s * net.h_s ** 2, 0.0
    for l in range(net.L):
        rx = sig + fwd + s2
        # a batch's received powers form a column against the layer's nodes
        col = rx[:, None] if isinstance(rx, np.ndarray) else rx
        bmax = np.sqrt(net.layer_power(l) / col)
        b = np.asarray(policy(l, bmax), dtype=float)
        g = net.gain_out(l) ** 2
        # ** squares one point's numpy-scalar sum by libm pow, like a float,
        # and a batch's sums elementwise
        s_sum = b.sum(axis=-1) ** 2
        q_sum = (b ** 2).sum(axis=-1)
        yield b, bmax, s_sum, q_sum, sig, fwd
        sig, fwd = sig * s_sum * g, (fwd * s_sum + s2 * q_sum) * g
    yield None, None, None, None, sig, fwd


def cascade(net: LayeredNetwork, policy) -> Cascade:
    """Every record of `cascade_layers`, for one point or a small batch."""
    betas, bounds, s_sum, q_sum, sig, fwd = map(list, zip(*cascade_layers(net, policy)))
    return Cascade(betas[:-1], bounds[:-1], s_sum[:-1], q_sum[:-1], sig, fwd)


def beta_max_vector(net: LayeredNetwork) -> ScalingVector:
    """Per-node maximum scaling factors, beta_max^2 = P / P_Rx.

    Bounds are computed front-to-back with every upstream layer at its own
    maximum, starting from P_Rx,1 = P_s h_s^2 + sigma2.
    """
    return cascade(net, lambda l, bmax: bmax).scaling()


def propagate(net: LayeredNetwork, scaling: ScalingVector) -> PowerFlow:
    """Exact signal/noise power propagation for a given scaling vector."""
    c = cascade(net, lambda l, bmax: scaling.layer(l))
    return PowerFlow(signal_power=tuple(map(float, c.sig[:-1])),
                     noise_power=tuple(map(float, c.fwd[:-1])),
                     rx_power=tuple(float(s + f + net.sigma2) for s, f in zip(c.sig, c.fwd[:-1])),
                     dest_signal=float(c.sig[-1]), dest_noise=float(c.fwd[-1]))


def _snooped_nodes(net: LayeredNetwork, snooped: Iterable[int] | None) -> tuple[int, ...]:
    """The snooped layer-M nodes (0-based) as a sorted tuple without
    repeats; None means the whole layer."""
    n_m = net.nodes_per_layer[net.M - 1]
    if snooped is None:
        return tuple(range(n_m))
    snoop = tuple(sorted(set(int(i) for i in snooped)))
    if any(i < 0 or i >= n_m for i in snoop):
        raise ValueError("snooped node index out of range for layer M")
    return snoop


def rates(net: LayeredNetwork, scaling: ScalingVector,
          snooped: Iterable[int] | None = None) -> RateReport:
    """Destination and eavesdropper SNRs and rates for a scaling vector.

    snooped selects which layer-M nodes (0-based) the eavesdropper hears;
    default is the whole layer. Only the snooped nodes' transmissions reach
    the eavesdropper: the coherent source component and the noise forwarded
    from layers 1..M-1 arrive through them, plus their own thermal noise.
    """
    c = cascade(net, lambda l, bmax: scaling.layer(l))
    snr_t = float(c.sig[-1] / (c.fwd[-1] + net.sigma2))

    m = net.M - 1
    snoop = _snooped_nodes(net, snooped)
    if not snoop:
        return RateReport.from_snrs(snr_t, 0.0)

    b_m, he = c.betas[m], net.h_e
    w = float(sum(b_m[i] * he[i] for i in snoop)) ** 2
    own = float(sum((b_m[i] * he[i]) ** 2 for i in snoop))
    s2 = net.sigma2
    snr_e = float(c.sig[m] * w / (c.fwd[m] * w + s2 * own + s2))
    return RateReport.from_snrs(snr_t, snr_e)


def max_scaling_with_layer(net: LayeredNetwork, layer: int,
                           beta_layer: Sequence[float] | float) -> ScalingVector:
    """All layers at max except `layer` (0-based), which uses beta_layer.

    Downstream bounds are computed from the actual upstream values, so layers
    after `layer` still transmit at full power even when beta_layer is below
    its own bound.
    """
    def policy(l, bmax):
        if l != layer:
            return bmax
        if np.isscalar(beta_layer):
            return np.full_like(bmax, float(beta_layer))
        return np.asarray(beta_layer, dtype=float)

    return cascade(net, policy).scaling()
