"""Layered amplify-and-forward relay network model and exact rate evaluation.

A source feeds L relay layers in series; every relay scales its noisy
received sum by a per-node factor beta and retransmits, and the last layer
reaches the destination. An eavesdropper overhears the transmissions of one
relay layer M. All channel gains between two adjacent layers are equal, so
every node of a layer sees identical input statistics: a coherent source
component, a forwarded-noise component common to the whole layer, and its
own thermal noise. Received powers therefore propagate front-to-back with
two scalars per layer, which the one kernel `cascade` computes, for one
point or for a batch of source powers.

One summation rule, one squaring rule and one overflow rule hold for the
whole library. The nodes of a layer, and the eavesdropper's terms, are
summed by += in node order, for a point, for a batch and in the search
oracle's objective (`oracle._Objective`) alike, and so are a layer's power
caps and their roots (`layered._coefficients`, `highsnr.cutset_bound`)
and the noise terms of `highsnr.achievable_highsnr`, in layer order.
Every square of a node sum, of a sum of roots of caps or of an
eavesdropper term is taken as x * x, and so is cal_B in the
discriminant of the lemma's quadratic (`layered.lemma_beta_M`). Each += and
each x * x is one correctly rounded operation for a float and for every
element of an array alike, so a point computed alone and the same point
inside a batch agree bit for bit, and the oracle's objective equals `rates`
on the same betas. Only the network's own gains are squared by `**`, the
same way everywhere. Where the eavesdropper's powers pass the float range,
`_rate_reports` forms that point's SNR again from terms scaled by a power of
two; the oracle's objective takes the kernel's value there rather than
rescaling on its own.

One rule picks the arithmetic: the type of the values passed in decides,
never an option. A batch runs on numpy (B,) columns. `cascade` and
`_rate_reports` also run a single point on Python floats (`+=`, `*`,
math.sqrt, math.frexp and ldexp): the search oracle defers each point whose
state is not finite to them one at a time, and numpy's overhead on
1-element arrays would dominate that traffic. Such a point still equals the
same point as a one-column batch bit for bit. Layer M's coefficients and
optimum run once per solve: `layered._coefficients` tests finiteness by
np.isfinite alone, which takes a float and an array alike, and
`layered.lemma_beta_M` has one numpy body, which takes a point as a 0-d
array. ScalingVector reads a point's betas and bounds with the number
parser every model input goes through, `_number`; a batch's betas get no
such check, since the kernel's end test is the one a batched sweep needs
(see `layered.optimal_rates`).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple

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


def _number(key: str, value, depth: int = 0, integer: bool = False):
    """A finite number, or lists of them nested `depth` deep, as floats, or as
    ints when `integer` (integral values such as 2.0 only). Booleans and
    strings are not numbers. Errors read "<key>: must be ..."."""
    if depth:
        if not isinstance(value, (list, tuple, np.ndarray)):
            raise ValueError(f"{key}: must be a list, got {value!r}")
        return tuple(_number(key, v, depth - 1, integer) for v in value)
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise ValueError(f"{key}: must be a number, got {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key}: must be a number, got {value!r}") from None
    if integer and out.is_integer():
        # an int stays exact, also beyond float precision
        return int(value) if isinstance(value, int) else int(out)
    if integer or not math.isfinite(out):
        raise ValueError(f"{key}: must be {'a finite integer' if integer else 'finite'}, "
                         f"got {value!r}")
    return out


# nodes in all layers at most. Measured on 2 vCPUs, one node per layer
# costs the most: a 37-point sweep of 100,000 such layers takes 3.7-6.1 s at
# a 341 MB peak and its solve 1.9 s; 150,000 layers take 8.4-9.4 s, 200,000
# 9.2 s. A 100,000-relay diamond's 100-point sweep takes 2.0 s (309 MB)
_MAX_NODES = 100_000
# the largest gain whose square is a float: nextafter(_MAX_GAIN, inf) ** 2 overflows
_MAX_GAIN = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class LayeredNetwork:
    """Network description.

    L relay layers with nodes_per_layer[l] nodes each. h_s is the
    source-to-layer-1 gain, h[i] the gain from layer i+1 to layer i+2
    (len L-1), h_t the last-layer-to-destination gain, and h_e the gains from
    the nodes of the snooped layer M (1-based) to the eavesdropper. P holds
    the per-relay transmit power caps, one row per layer. h_e and P are
    accepted as a scalar or per node; they are stored per node, so a network
    built with a scalar equals the one built with its expansion. Every
    number goes through `_number`, whose errors name the field; an h_s, h[i]
    or h_t whose square passes the float range raises OverflowError naming
    it.
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
        for key in ("L", "M"):
            object.__setattr__(self, key, _number(key, getattr(self, key), integer=True))
        if self.L < 1:
            raise ValueError("L must be >= 1")
        # h's length is checked before anything of length L is parsed or
        # expanded, so a huge L with a short h fails at once
        object.__setattr__(self, "h", _number("h", self.h, 1))
        if len(self.h) != self.L - 1:
            raise ValueError("h must have L-1 inter-layer gains")
        object.__setattr__(self, "nodes_per_layer",
                           _number("nodes_per_layer", self.nodes_per_layer, 1, integer=True))
        if len(self.nodes_per_layer) != self.L:
            raise ValueError("nodes_per_layer must have L entries")
        if any(n < 1 for n in self.nodes_per_layer):
            raise ValueError("every layer needs at least one node")
        # before h_e and P are expanded to one entry per node
        if sum(self.nodes_per_layer) > _MAX_NODES:
            raise ValueError(f"nodes_per_layer: must total <= {_MAX_NODES:,} nodes, "
                             f"got {sum(self.nodes_per_layer)}")
        if not 1 <= self.M <= self.L:
            raise ValueError("M must be in 1..L")
        # a scalar h_e or P is stored per node, so every reader sees one form
        if not isinstance(self.h_e, (tuple, list, np.ndarray)):
            object.__setattr__(self, "h_e", (self.h_e,) * self.nodes_per_layer[self.M - 1])
        if not isinstance(self.P, (tuple, list, np.ndarray)):
            object.__setattr__(self, "P", [(self.P,) * n for n in self.nodes_per_layer])
        for key, depth in (("h_s", 0), ("h_t", 0), ("h_e", 1), ("P_s", 0), ("P", 2),
                           ("sigma2", 0)):
            object.__setattr__(self, key, _number(key, getattr(self, key), depth))
        # every reader squares the gains by **, which raises past the float range
        for key, g in (("h_s", self.h_s), *((f"h[{i}]", g) for i, g in enumerate(self.h)),
                       ("h_t", self.h_t)):
            if abs(g) > _MAX_GAIN:
                raise OverflowError(f"{key}: its square overflows the float range, got {g!r}")

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
    def gain_out(self, l: int) -> float:
        """Gain out of relay layer l (0-based); h_t for the last layer."""
        return self.h[l] if l < self.L - 1 else self.h_t

    @property
    def layer_caps(self) -> tuple[float | None, ...]:
        """Each layer's power cap where its nodes share one, else None. The
        lemma's class has one cap within each layer."""
        return tuple(row[0] if len(set(row)) == 1 else None for row in self.P)

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
    """Per-node amplification factors with optional per-node upper bounds.

    beta and beta_max are rows of numbers read by the library's number
    parser, whose errors name `beta` or `beta_max`. Every beta is >= 0, and
    within its bound (up to 1e-9 relative, 1e-15 absolute) when the bounds
    are given; an offending beta is named with its bound, the first in row
    order."""

    beta: tuple[tuple[float, ...], ...]
    beta_max: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta", _number("beta", self.beta, 2))
        if any(b < 0 for row in self.beta for b in row):
            raise ValueError("scaling factors must be finite and >= 0")
        if self.beta_max is not None:
            object.__setattr__(self, "beta_max", _number("beta_max", self.beta_max, 2))
            if [len(row) for row in self.beta_max] != [len(row) for row in self.beta]:
                raise ValueError("beta and beta_max shapes differ")
            for brow, mrow in zip(self.beta, self.beta_max):
                for b, m in zip(brow, mrow):
                    if b > m * (1 + 1e-9) + 1e-15:
                        raise ValueError(f"beta {b} exceeds its bound {m}")

    def flat(self) -> np.ndarray:
        return np.concatenate([np.asarray(row, dtype=float) for row in self.beta])


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
        return RateColumns.from_snrs([snr_t], [snr_e]).point()


class RateColumns(NamedTuple):
    """RateReport's fields as columns, one entry per point of a batch."""

    snr_t: list
    snr_e: list
    r_t: list
    r_e: list
    r_s: list

    @classmethod
    def from_snrs(cls, snr_t: list, snr_e: list) -> "RateColumns":
        """The rates of SNR columns, each point's logs by math.log2."""
        r_t = [0.5 * math.log2(1.0 + t) for t in snr_t]
        r_e = [0.5 * math.log2(1.0 + e) for e in snr_e]
        return cls(snr_t, snr_e, r_t, r_e, [max(t - e, 0.0) for t, e in zip(r_t, r_e)])

    def point(self, k: int = 0) -> RateReport:
        """Point k's rates."""
        return RateReport(*(column[k] for column in self))


class Cascade(NamedTuple):
    """One front-to-back propagation, per relay layer: the betas used and
    their bounds, a list with one entry per node. sig and fwd are the signal
    and forwarded-noise powers entering each layer, then the destination's.
    A point's entries are floats (the oracle's per-point deferrals run on
    them, see `network`); a batch's are (B,) columns, one element per point,
    except those that do not vary with P_s (fwd into layer 1)."""

    betas: list
    bounds: list
    sig: list
    fwd: list

    def scaling(self) -> ScalingVector:
        """The betas used, with their bounds, of a single-point cascade."""
        return ScalingVector(beta=self.betas, beta_max=self.bounds)


def cascade(net: LayeredNetwork, policy, P_s=None) -> Cascade:
    """The power-propagation kernel: exact front-to-back recursion.

    policy(l, bmax) -> betas actually used at layer l, one per node, given
    their bounds bmax = [sqrt(P_l,i / rx_l)]; the received power of layer l+1
    is computed from those betas, so bounds always reflect the actual
    upstream transmissions. A policy that holds fixed betas ignores bmax:
    `rates` passes lambda l, bmax: scaling.beta[l].

    One body runs a point on Python floats and a batch: a (B,) vector P_s of
    source powers in place of net.P_s makes every power and bound a (B,)
    column, and a policy then returns one column (or float) per node. Only
    sqrt depends on the type; the float point keeps the search oracle's
    per-point deferrals (see `network`) free of numpy's per-call overhead.
    A layer's nodes are summed by += in node order and squared as s * s,
    each correctly rounded alike for a float and for every element of a
    column, so each point of a batch equals that point propagated alone,
    bit for bit. A float ignores np.errstate, so the kernel itself raises
    OverflowError where a power passes the float range.
    """
    s2 = net.sigma2
    sig, fwd = (net.P_s if P_s is None else P_s) * net.h_s ** 2, 0.0
    sqrt = np.sqrt if isinstance(sig, np.ndarray) else math.sqrt
    layers = []
    for l in range(net.L):
        rx = sig + fwd + s2
        bmax = [sqrt(p / rx) for p in net.P[l]]
        b = list(policy(l, bmax))
        # explicit +=: the built-in sum() of floats is compensated from Python 3.12 on
        s_sum = q_sum = 0.0
        for x in b:
            s_sum += x
            q_sum += x * x
        layers.append((b, bmax, sig, fwd))
        g = net.gain_out(l) ** 2
        s_sum *= s_sum
        sig, fwd = sig * s_sum * g, (fwd * s_sum + s2 * q_sum) * g
    # a power past the float range anywhere reaches the destination as inf or nan
    end = sig + fwd
    if not (np.isfinite(end).all() if isinstance(end, np.ndarray) else math.isfinite(end)):
        raise OverflowError("the destination's received power is not finite")
    betas, bounds, sigs, fwds = map(list, zip(*layers))
    return Cascade(betas, bounds, sigs + [sig], fwds + [fwd])


def beta_max_vector(net: LayeredNetwork) -> ScalingVector:
    """Per-node maximum scaling factors, beta_max^2 = P / P_Rx.

    Bounds are computed front-to-back with every upstream layer at its own
    maximum, starting from P_Rx,1 = P_s h_s^2 + sigma2.
    """
    return cascade(net, lambda l, bmax: bmax).scaling()


def _snooped_nodes(net: LayeredNetwork, snooped: Iterable[int] | None) -> tuple[int, ...]:
    """The snooped layer-M nodes (0-based) as a sorted tuple without
    repeats, read by the library's number parser from any iterable; None
    means the whole layer."""
    n_m = net.nodes_per_layer[net.M - 1]
    if snooped is None:
        return tuple(range(n_m))
    snoop = tuple(sorted(set(_number("snooped", tuple(snooped), 1, integer=True))))
    if any(i < 0 or i >= n_m for i in snoop):
        raise ValueError("snooped node index out of range for layer M")
    return snoop


def _rate_reports(net: LayeredNetwork, c: Cascade,
                  snoop: Iterable[int] | None = None) -> RateColumns:
    """The rates of each point of a cascade, one point's or a batch's (see
    `rates`), as columns. snoop holds the snooped nodes as `_snooped_nodes`
    gives them, None the whole layer; their terms are summed by += in node
    order (to 0 where none is snooped) and squared as t * t, and each
    point's logs are taken by math.log2, so a point of a batch equals the
    point alone. A point runs on floats, a batch on (B,) columns, with the
    same operations in the same order."""
    s2, m = net.sigma2, net.M - 1
    point = not isinstance(c.sig[-1], np.ndarray)
    snr_t = c.sig[-1] / (c.fwd[-1] + s2)
    snr_t = [float(snr_t)] if point else snr_t.tolist()
    terms = [c.betas[m][i] * net.h_e[i]
             for i in (range(net.nodes_per_layer[m]) if snoop is None else snoop)]

    def powers(scale):
        # the eavesdropper's signal and noise powers with every term times
        # scale, a power of two: each rounding is the unscaled one, barring
        # overflow and underflow, and the SNR is their ratio
        w = own = 0.0
        for t in terms:
            t = t * scale
            w += t
            own += t * t
        w = w * w
        return c.sig[m] * w, c.fwd[m] * w + s2 * own + s2 * scale * scale

    # where a square or a product passes the float range, the point's
    # largest term is scaled into [0.5, 1): no square overflows then, and a
    # product does only where a power itself is near the float maximum
    if point:
        # floats: the oracle defers non-finite points here one by one, 4x faster than (1,) arrays
        num, den = powers(1.0)
        if not (math.isfinite(num) and math.isfinite(den)):
            # a nan term makes the SNR nan at any scale
            num, den = powers(math.ldexp(1.0, -math.frexp(max(map(abs, terms)))[1]))
        return RateColumns.from_snrs(snr_t, [float(num / den)])
    with np.errstate(over="ignore", invalid="ignore"):
        num, den = powers(1.0)
    fits = np.isfinite(num) & np.isfinite(den)
    if not fits.all():
        big = np.max(np.abs(terms), axis=0)
        num, den = powers(np.where(fits, 1.0, np.ldexp(1.0, -np.frexp(big)[1])))
    return RateColumns.from_snrs(snr_t, (num / den).tolist())


def rates(net: LayeredNetwork, scaling: ScalingVector,
          snooped: Iterable[int] | None = None) -> RateReport:
    """Destination and eavesdropper SNRs and rates for a scaling vector.

    snooped selects which layer-M nodes (0-based) the eavesdropper hears;
    default is the whole layer. Only the snooped nodes' transmissions reach
    the eavesdropper: the coherent source component and the noise forwarded
    from layers 1..M-1 arrive through them, plus their own thermal noise.
    The scaling's rows must have the network's layer widths.
    """
    widths = tuple(len(row) for row in scaling.beta)
    if widths != net.nodes_per_layer:
        raise ValueError(f"scaling: row widths {widths} do not match "
                         f"nodes_per_layer {net.nodes_per_layer}")
    return _rate_reports(net, cascade(net, lambda l, bmax: scaling.beta[l]),
                         _snooped_nodes(net, snooped)).point()

