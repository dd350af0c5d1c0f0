"""Brute-force / global-search maximizer of the secrecy rate.

Ground truth for the closed-form optimizers: a coarse scan over the feasible
box followed by multi-start cyclic coordinate ascent with golden-section
refinement. The search runs in normalized coordinates u in [0,1]^(L*N),
where each node's scaling is u times its cascaded upper bound, so every
iterate is feasible by construction (projection is implicit).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .network import (LayeredNetwork, RateReport, ScalingVector, _snooped_nodes, cascade,
                      cascade_layers, rates)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section steps per line search; each line also evaluates its two
# starting points
_GOLDEN_STEPS = 28
# coordinate-ascent cycles before a start is reported unconverged
_MAX_CYCLES = 60
# exhaustive-grid points per axis (step 0.01), cut until the grid fits the budget
_GRID_POINTS = 101
_GRID_BUDGET = 20_000
_RANDOM_SCAN = 4_096
# line-search abscissae: linear coverage plus a logarithmic tail toward 0,
# because an optimum can sit at a tiny fraction of the feasible bound when
# the eavesdropper dominates (the secrecy-positive region is then a thin
# sliver next to zero)
_LINE_SCAN = np.unique(np.concatenate((
    [0.0], np.logspace(-6.0, -1.0, 6), np.linspace(1.0 / 12.0, 1.0, 12))))
_LOG_FAMILY = np.concatenate(([0.0], np.logspace(-7.0, 0.0, 22)))


@dataclass(frozen=True)
class SearchConfig:
    """Search knobs. Deterministic for a fixed seed."""

    restarts: int = 64
    refine_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class OracleDiagnostics:
    n_evals: int
    n_starts: int
    n_merged: int
    converged: bool
    starts_agree: bool
    multimodal: bool
    best_objective: float
    start_objectives: tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "n_evals": self.n_evals,
            "n_starts": self.n_starts,
            "n_merged": self.n_merged,
            "converged": self.converged,
            "starts_agree": self.starts_agree,
            "multimodal": self.multimodal,
            "best_objective": self.best_objective,
            "start_objectives": list(self.start_objectives),
        }


class OracleResult(NamedTuple):
    beta: ScalingVector
    rate: RateReport
    diagnostics: OracleDiagnostics


@dataclass(frozen=True)
class VerificationReport:
    kind: str
    rate_closed: float
    rate_oracle: float
    rate_deviation: float
    max_coord_deviation: float
    passed: bool


def _pow2(x):
    return x ** 2


def _pow2_rows(t: np.ndarray) -> np.ndarray:
    # libm pow per element, as the scalar path squares; t * t differs in
    # the last bit on about 0.1% of inputs
    return np.array([x ** 2 for x in t.tolist()])


class _Objective:
    """Exact r_t - r_e (unclamped) over normalized coordinates u in [0,1]^dim.

    One recursion serves a single point (`u` a list of floats) and a batch
    (`u` a (dim, B) array, one point per column). Both apply the same float
    operations in the same order: nodes summed in node order, eavesdropper
    terms squared by pow, math.log2 per point. A batched value therefore
    equals the scalar value bit for bit. A state is (sig, fwd, snr_e)
    entering a layer, so a line search that moves only layer l computes the
    layers before l once.
    """

    def __init__(self, net: LayeredNetwork, snoop: tuple[int, ...]):
        self.L, self.s2 = net.L, net.sigma2
        offs = np.cumsum([0] + list(net.nodes_per_layer)).tolist()
        # per layer: (coordinate, power cap) of each node, squared gain out,
        # and the snooped (node, h_e) pairs on layer M
        self.layers = [(list(zip(range(offs[l], offs[l + 1]), net.layer_power(l).tolist())),
                        net.gain_out(l) ** 2,
                        [(i, net.h_e[i]) for i in snoop] if l == net.M - 1 else [])
                       for l in range(net.L)]
        self.start = (net.P_s * net.h_s ** 2, 0.0, 0.0)

    def advance(self, u, state, l0: int, l1: int, sqrt=math.sqrt, square=_pow2):
        """The state entering layer l1 from the state entering layer l0."""
        s2 = self.s2
        sig, fwd, snr_e = state
        for nodes, g, eav in self.layers[l0:l1]:
            rx = sig + fwd + s2
            s_sum = q_sum = 0.0
            bs = []
            for k, p in nodes:
                b = u[k] * sqrt(p / rx)
                s_sum += b
                q_sum += b * b
                bs.append(b)
            if eav:
                w = own = 0.0
                for i, h in eav:
                    w += bs[i] * h
                    own += square(bs[i] * h)
                w *= w
                snr_e = sig * w / (fwd * w + s2 * own + s2)
            s_sum *= s_sum
            sig, fwd = sig * s_sum * g, (fwd * s_sum + s2 * q_sum) * g
        return sig, fwd, snr_e

    def value(self, state) -> float:
        sig, fwd, snr_e = state
        return 0.5 * (math.log2(1.0 + sig / (fwd + self.s2)) - math.log2(1.0 + snr_e))

    def __call__(self, u) -> float:
        return self.value(self.advance(u, self.start, 0, self.L))

    def batch(self, X: np.ndarray, states: np.ndarray, l0: int) -> list[float]:
        """Values of the columns of X from per-column states (B, 3) entering
        layer l0."""
        out = self.advance(X, tuple(states.T), l0, self.L, np.sqrt, _pow2_rows)
        return list(map(self.value, zip(*(a.tolist() for a in out))))


def _batch_objective(net: LayeredNetwork, snoop: tuple[int, ...], U: np.ndarray) -> np.ndarray:
    """Vectorized r_t - r_e over a (B, dim) matrix of normalized coordinates."""
    offs = np.cumsum([0] + list(net.nodes_per_layer)).tolist()
    s2, m = net.sigma2, net.M - 1
    layers = cascade_layers(net, lambda l, bmax: U[:, offs[l]:offs[l + 1]] * bmax)
    for l, (b, _, _, _, sig, fwd) in enumerate(layers):
        if l == m:
            b_m, sig_m, fwd_m = b, sig, fwd
    snr_t = sig / (fwd + s2)
    if snoop:
        idx = list(snoop)
        t = b_m[:, idx] * np.asarray(net.h_e)[idx]
        w = t.sum(axis=1) ** 2
        own = (t ** 2).sum(axis=1)
        snr_e = sig_m * w / (fwd_m * w + s2 * own + s2)
    else:
        snr_e = np.zeros(U.shape[0])
    return 0.5 * (np.log2(1.0 + snr_t) - np.log2(1.0 + snr_e))


def _top_k(vals: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values, largest first and ties by index: the
    first k of a stable argsort of -vals, without sorting the rest."""
    neg = -vals
    cand = np.arange(neg.size)
    if k < neg.size:
        kth = np.partition(neg, k - 1)[k - 1]
        cand = np.flatnonzero(~(neg > kth))
    return cand[np.argsort(neg[cand], kind="stable")[:k]]


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_STEPS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def _refine(obj: _Objective, starts: np.ndarray, lines: list[tuple[int, int, int]],
            max_cycles: int, tol: float) -> tuple[list[tuple[float, np.ndarray, bool]], int, int]:
    """Cyclic coordinate ascent with golden-section line searches, all
    starts in lockstep.

    Each cycle runs every line (layer, lo, hi) in turn, moving u[lo:hi] to
    a common value: the single coordinates, then each wide layer as a block;
    block moves escape the diagonal traps where every single-coordinate move
    from a coordinate-wise maximum loses. A line is a coarse scan, batched
    over the starts, plus a golden-section refinement of the bracketing
    interval. At each cycle boundary, live starts in bitwise-equal states
    merge into the lowest-index one: their futures are identical, so only
    the work is shared. Returns per-start (best, u, converged), the number
    of evaluations performed and the number of merged starts.
    """
    n, ns, scan = len(starts), _LINE_SCAN.size, _LINE_SCAN.tolist()
    us = [s.astype(float) for s in starts]
    rep, best, conv = list(range(n)), [0.0] * n, [False] * n
    live, evals = list(range(n)), 0
    for cycle in range(max_cycles + 1):
        groups: dict[bytes, int] = {}
        for k in live:
            rep[k] = groups.setdefault(us[k].tobytes(), k)
        live = list(groups.values())
        if cycle == 0:
            for k in live:
                best[k] = obj(us[k].tolist())
            evals += len(live)
        if cycle == max_cycles or not live:
            break
        before = [best[k] for k in live]
        for l, lo, hi in lines:
            uls = [us[k].tolist() for k in live]
            states = [obj.advance(ul, obj.start, 0, l) for ul in uls]
            X = np.repeat(np.array(uls).T, ns, axis=1)
            X[lo:hi] = np.tile(_LINE_SCAN, len(live))
            vals = obj.batch(X, np.repeat(states, ns, axis=0), l)
            for g, (k, ul, state) in enumerate(zip(live, uls, states)):
                row = vals[g * ns:(g + 1) * ns]
                j = int(np.argmax(row))

                def f(x):
                    ul[lo:hi] = [x] * (hi - lo)
                    return obj.value(obj.advance(ul, state, l, obj.L))

                x_best, v_best = scan[j], row[j]
                x_g, v_g = _golden_max(f, scan[max(j - 1, 0)], scan[min(j + 1, ns - 1)])
                if v_g > v_best:
                    x_best, v_best = x_g, v_g
                if v_best > best[k]:
                    best[k] = v_best
                    us[k][lo:hi] = x_best
            evals += len(live) * (ns + _GOLDEN_STEPS + 2)
        still = []
        for k, b0 in zip(live, before):
            if best[k] - b0 < tol:
                conv[k] = True
            else:
                still.append(k)
        live = still
    finals = []
    for k in range(n):
        r = k
        while rep[r] != r:
            r = rep[r]
        finals.append((best[r], us[r], conv[r]))
    return finals, evals, sum(r != k for k, r in enumerate(rep))


def maximize_secrecy(net: LayeredNetwork, snooped: Iterable[int] | None = None,
                     cfg: SearchConfig | None = None) -> OracleResult:
    """Search the feasible box for the scaling vector maximizing R_t - R_e.

    Coarse phase: exhaustive grid when the total dimension is at most 8
    (resolution limited by an evaluation budget), otherwise a seeded random
    scan. The best candidates seed cyclic coordinate ascent with
    golden-section line refinement. Deterministic for a fixed config.
    """
    cfg = cfg or SearchConfig()
    dim = int(sum(net.nodes_per_layer))
    if dim > 16:
        raise ValueError("search dimension above 16 is unsupported")
    snoop = _snooped_nodes(net, snooped)

    rng = np.random.default_rng(cfg.seed)
    cands = [np.ones((1, dim))]
    if dim <= 8:
        per_dim = _GRID_POINTS
        while per_dim > 2 and per_dim ** dim > _GRID_BUDGET:
            per_dim -= 1
        axes = [np.linspace(0.0, 1.0, per_dim)] * dim
        mesh = np.meshgrid(*axes, indexing="ij")
        cands.append(np.stack([g.ravel() for g in mesh], axis=1))
    # per-layer symmetric product grid: all nodes of a layer share one value
    per_layer = int(round(3000 ** (1.0 / net.L)))
    per_layer = max(3, min(per_layer, 41))
    sym_axes = np.meshgrid(*([np.linspace(0.0, 1.0, per_layer)] * net.L),
                           indexing="ij")
    sym = np.stack([g.ravel() for g in sym_axes], axis=1)
    cands.append(np.repeat(sym, net.nodes_per_layer, axis=1))
    # one layer backed off onto a log scale, everything else at the bound
    offs = np.cumsum([0] + list(net.nodes_per_layer)).tolist()
    for l in range(net.L):
        fam = np.ones((_LOG_FAMILY.size, dim))
        fam[:, offs[l]:offs[l + 1]] = _LOG_FAMILY[:, None]
        cands.append(fam)
    cands.append(rng.random((_RANDOM_SCAN, dim)))
    U = np.vstack(cands)
    vals = _batch_objective(net, snoop, U)
    n_starts = min(cfg.restarts, len(vals))
    order = _top_k(vals, n_starts)
    starts = U[order]
    initial_best = float(vals[order[0]])

    lines = [(l, i, i + 1) for l in range(net.L) for i in range(offs[l], offs[l + 1])]
    lines += [(l, offs[l], offs[l + 1]) for l in range(net.L) if net.nodes_per_layer[l] > 1]
    finals, evals, n_merged = _refine(_Objective(net, snoop), starts, lines,
                                      _MAX_CYCLES, cfg.refine_tol)
    total_evals = int(U.shape[0]) + evals

    best_val = max(v for v, _, _ in finals)
    # deterministic tie-break: among near-best finals, lexicographically
    # smallest beta vector
    tied = [u for v, u, _ in finals if best_val - v <= cfg.refine_tol]
    sv = min((cascade(net, lambda l, bmax: u[offs[l]:offs[l + 1]] * bmax) for u in tied),
             key=lambda c: np.concatenate(c.betas).tolist()).scaling()
    report = rates(net, sv, snooped=snoop)
    spread = max(v for v, _, _ in finals) - min(v for v, _, _ in finals)
    agree = spread <= max(cfg.refine_tol, 1e-9)
    diag = OracleDiagnostics(
        n_evals=total_evals,
        n_starts=n_starts,
        n_merged=n_merged,
        converged=all(c for _, _, c in finals),
        starts_agree=agree,
        multimodal=not agree,
        best_objective=max(best_val, initial_best),
        start_objectives=tuple(float(v) for v, _, _ in finals),
    )
    return OracleResult(beta=sv, rate=report, diagnostics=diag)


def verify_against_closed_form(net: LayeredNetwork,
                               cfg: SearchConfig | None = None) -> VerificationReport:
    """Run the closed-form optimizer and the search on the same network.

    PASS iff the secrecy rates agree within max(1e-4 absolute, 1e-4 relative).
    """
    from .diamond import diamond_opt
    from .layered import optimal_scaling

    if net.L == 1:
        sol = diamond_opt(net)
        kind = "diamond"
        rate_closed = sol.rate.r_s
        beta_closed = np.full(net.nodes_per_layer[0], sol.beta_opt)
    else:
        sol = optimal_scaling(net)
        kind = "layered"
        rate_closed = sol.rate.r_s
        beta_closed = sol.beta.flat()

    res = maximize_secrecy(net, cfg=cfg)
    rate_oracle = res.rate.r_s
    dev = abs(rate_closed - rate_oracle)
    tol = max(1e-4, 1e-4 * max(abs(rate_closed), abs(rate_oracle)))
    coord_dev = float(np.max(np.abs(beta_closed - res.beta.flat())))
    return VerificationReport(kind=kind, rate_closed=rate_closed,
                              rate_oracle=rate_oracle, rate_deviation=dev,
                              max_coord_deviation=coord_dev, passed=dev <= tol)
