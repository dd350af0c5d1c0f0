"""Brute-force / global-search maximizer of the secrecy rate.

Ground truth for the closed-form optimizers: a coarse scan over the feasible
box followed by multi-start cyclic coordinate ascent with golden-section
refinement. The search runs in normalized coordinates u in [0,1]^(L*N),
where each node's scaling is u times its cascaded upper bound, so every
iterate is feasible by construction (projection is implicit).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar, Iterable, NamedTuple

import numpy as np

from .layered import optimal_scaling
from .network import (LayeredNetwork, RateReport, ScalingVector, _rate_reports,
                      _snooped_nodes, cascade)

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
    seed: int = 0
    refine_tol: ClassVar[float] = 1e-10

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
        """The fields by name, with start_objectives as a list, as JSON writes it."""
        return {**asdict(self), "start_objectives": list(self.start_objectives)}


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
    passed: bool


class _Objective:
    """Exact r_t - r_e (unclamped) over normalized coordinates u in [0,1]^dim.

    One recursion serves a single point (`u` a list of floats), a line
    scan's batch and the coarse scan's candidates (`u` a (dim, B) array, one
    point per column); only sqrt depends on the type. It applies the
    kernel's float operations in the kernel's order, with the library's one
    squaring rule (x * x, see `network`): nodes summed in node order, the
    eavesdropper's SNR formed as `_rate_reports` forms it. A point's value
    therefore equals r_t - r_e of `rates` on the same betas bit for bit, and
    a batched value equals the scalar one; `scan` alone takes np.log2. A
    state is (sig, fwd, snr_e) entering a layer, so a line search that moves
    only layer l computes the layers before l once.
    """

    def __init__(self, net: LayeredNetwork, snoop: tuple[int, ...]):
        self.L, self.s2 = net.L, net.sigma2
        offs = np.cumsum([0] + list(net.nodes_per_layer)).tolist()
        m, eav = net.M - 1, [(i, net.h_e[i]) for i in snoop]
        # snooped term i is at most |h_e,i| sqrt(P_i / sigma2) (rx >= sigma2),
        # so w and each of the eavesdropper's powers (sig * w, fwd * w,
        # s2 * own) are at most n^2 max(1, sigma2) times the largest square.
        # Only where three times that could pass the float range are the h_e
        # pairs scaled by 2^-k and the `+ s2` term by 2^-2k (kept above 0,
        # so a point without snooped transmission still has an SNR of 0): a
        # power of two changes no rounding, so a network in range keeps its
        # bits, and the SNR, a ratio, its value.
        caps = net.P[m]
        tops = [2 * math.log2(abs(h)) + math.log2(caps[i]) for i, h in eav if h and caps[i]]
        k = 0
        if tops:
            bits = max(tops) + math.log2(3 * len(eav) * len(eav)) + max(0.0, -math.log2(self.s2))
            k = max(0, math.ceil((bits - 1022) / 2))
        self.s2_e = max(math.ldexp(self.s2, -2 * k), math.ulp(0.0))
        # per layer: (coordinate, power cap) of each node, squared gain out,
        # and the snooped (node, h_e) pairs on layer M
        self.layers = [(list(zip(range(offs[l], offs[l + 1]), net.layer_power(l).tolist())),
                        net.gain_out(l) ** 2,
                        [(i, math.ldexp(h, -k)) for i, h in eav] if l == m else [])
                       for l in range(net.L)]
        self.start = (net.P_s * net.h_s ** 2, 0.0, 0.0)

    def advance(self, u, state, l0: int, l1: int, sqrt=math.sqrt):
        """The state entering layer l1 from the state entering layer l0."""
        s2 = self.s2
        sig, fwd, snr_e = state
        for nodes, g, eav in self.layers[l0:l1]:
            rx = sig + fwd + s2
            # explicit +=: the built-in sum() of floats is compensated from Python 3.12 on
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
                    t = bs[i] * h
                    w += t
                    own += t * t
                w *= w
                snr_e = sig * w / (fwd * w + s2 * own + self.s2_e)
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
        out = self.advance(X, tuple(states.T), l0, self.L, np.sqrt)
        return list(map(self.value, zip(*(a.tolist() for a in out))))

    def scan(self, U: np.ndarray) -> np.ndarray:
        """Values of the rows of a (B, dim) matrix, for ranking coarse-scan
        candidates: the logs are np.log2's, so a value may differ from the
        scalar one in the last bits."""
        sig, fwd, snr_e = self.advance(U.T, self.start, 0, self.L, np.sqrt)
        return 0.5 * (np.log2(1.0 + sig / (fwd + self.s2)) - np.log2(1.0 + snr_e))


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


def _refine(obj: _Objective, starts: np.ndarray, lines: list[tuple[int, int, int]]
            ) -> tuple[list[tuple[float, np.ndarray, bool]], int, int]:
    """Cyclic coordinate ascent with golden-section line searches, all
    starts in lockstep, for at most _MAX_CYCLES cycles; a start has converged
    once a cycle gains less than SearchConfig.refine_tol.

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
    for cycle in range(_MAX_CYCLES + 1):
        groups: dict[bytes, int] = {}
        for k in live:
            rep[k] = groups.setdefault(us[k].tobytes(), k)
        live = list(groups.values())
        if cycle == 0:
            for k in live:
                best[k] = obj(us[k].tolist())
            evals += len(live)
        if cycle == _MAX_CYCLES or not live:
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
            if best[k] - b0 < SearchConfig.refine_tol:
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
    obj = _Objective(net, snoop)
    vals = obj.scan(U)
    n_starts = min(cfg.restarts, len(vals))
    order = _top_k(vals, n_starts)
    starts = U[order]
    initial_best = float(vals[order[0]])

    lines = [(l, i, i + 1) for l in range(net.L) for i in range(offs[l], offs[l + 1])]
    lines += [(l, offs[l], offs[l + 1]) for l in range(net.L) if net.nodes_per_layer[l] > 1]
    finals, evals, n_merged = _refine(obj, starts, lines)

    best_val = max(v for v, _, _ in finals)
    # deterministic tie-break: among near-best finals, lexicographically
    # smallest beta vector
    tied = [u for v, u, _ in finals if best_val - v <= cfg.refine_tol]
    chosen = min((cascade(net, lambda l, bmax: u[offs[l]:offs[l + 1]] * bmax) for u in tied),
                 key=lambda c: np.concatenate(c.betas).tolist())
    agree = best_val - min(v for v, _, _ in finals) <= max(cfg.refine_tol, 1e-9)
    diag = OracleDiagnostics(
        n_evals=int(U.shape[0]) + evals,
        n_starts=n_starts,
        n_merged=n_merged,
        converged=all(c for _, _, c in finals),
        starts_agree=agree,
        multimodal=not agree,
        best_objective=max(best_val, initial_best),
        start_objectives=tuple(float(v) for v, _, _ in finals),
    )
    return OracleResult(beta=chosen.scaling(), rate=_rate_reports(net, chosen, snoop).point(),
                        diagnostics=diag)


def verify_against_closed_form(net: LayeredNetwork,
                               cfg: SearchConfig | None = None) -> VerificationReport:
    """Run the closed form the CLI prints, `optimal_scaling`, and the search
    on the same network; kind is "diamond" at L = 1 and "layered" otherwise.

    PASS iff the secrecy rates agree within max(1e-4 absolute, 1e-4 relative).
    """
    closed = optimal_scaling(net)
    res = maximize_secrecy(net, cfg=cfg)
    rate_closed, rate_oracle = closed.rate.r_s, res.rate.r_s
    dev = abs(rate_closed - rate_oracle)
    tol = max(1e-4, 1e-4 * max(abs(rate_closed), abs(rate_oracle)))
    return VerificationReport(kind="diamond" if net.L == 1 else "layered", rate_closed=rate_closed,
                              rate_oracle=rate_oracle, rate_deviation=dev, passed=dev <= tol)
