"""Brute-force / global-search maximizer of the secrecy rate.

Ground truth for the closed-form optimizers: a coarse scan over the feasible
box followed by multi-start cyclic coordinate ascent with golden-section
refinement. The search runs in normalized coordinates u in [0,1]^(L*N),
where each node's scaling is u times its cascaded upper bound, so every
iterate is feasible by construction (projection is implicit).
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import ClassVar, Iterable, NamedTuple

import numpy as np

from .layered import optimal_scaling
from .network import (Cascade, LayeredNetwork, RateReport, ScalingVector, _number,
                      _rate_reports, _snooped_nodes, cascade)

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
# candidates per call at most: the per-layer symmetric grid alone has 3^L
# points from L = 7 on, so this refuses every search on 13 or more layers
_MAX_CANDIDATES = 1_000_000
# the coarse scan's block size in rows, roughly: the rows are split evenly
# into round(rows / _SCAN_BLOCK) blocks. A block's temporaries (about 32 KB
# each) then stay in cache, and the allocator does not hand the heap back
# after one block only to page-fault it in again for the next
_SCAN_BLOCK = 4_096
# line-search abscissae: linear coverage plus a logarithmic tail toward 0,
# because an optimum can sit at a tiny fraction of the feasible bound when
# the eavesdropper dominates (the secrecy-positive region is then a thin
# sliver next to zero)
_LINE_SCAN = np.sort(np.concatenate((
    [0.0], np.logspace(-6.0, -1.0, 6), np.linspace(1.0 / 12.0, 1.0, 12))))
_LOG_FAMILY = np.concatenate(([0.0], np.logspace(-7.0, 0.0, 22)))


@dataclass(frozen=True)
class SearchConfig:
    """Search knobs. Deterministic for a fixed seed."""

    restarts: int = 64
    seed: int = 0
    refine_tol: ClassVar[float] = 1e-10

    def __post_init__(self):
        # integers by the model's parser, so a bad value names its key
        for key in ("restarts", "seed"):
            object.__setattr__(self, key, _number(key, getattr(self, key), integer=True))
        if self.restarts < 1:
            raise ValueError(f"restarts: must be >= 1, got {self.restarts!r}")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class OracleDiagnostics:
    """What a search did. n_evals counts objective evaluations: the coarse
    scan's candidates, each distinct start's first value, and 19 + 30 for
    each line search run (its scan points and golden-section points, whether
    read from the line's batch or evaluated alone), but neither a batch column
    that no search reads nor a line search served from the memo of searches
    already run (see `_refine`), so it reads lower than starts times lines
    times cycles. multimodal is set
    where the starts end more than max(refine_tol, 1e-9) apart, and
    start_objectives holds each start's final value, so their max is the
    best value found."""

    n_evals: int
    n_starts: int
    converged: bool
    multimodal: bool
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
    kernel's float operations in the kernel's order, under the library's
    rules (see `network`): nodes and eavesdropper terms summed by += in node
    order, every square as x * x. `advance` is the one layer step; it forms
    a snooped node's eavesdropper term beside its beta. A state is (sig,
    fwd, num, den) entering a layer, the last two the eavesdropper's signal
    and noise powers, so a line search that moves only layer l computes the
    layers before l once and steps from layer l on for each x. Where
    a state entry is not finite, the value is the kernel's at that u, which
    rescues the eavesdropper's SNR, or raises OverflowError where a power
    itself passes the float range: the objective keeps no overflow rule of
    its own. A point's value therefore equals r_t - r_e of `rates` on the
    same betas bit for bit, and a batched value equals the scalar one; `scan`
    alone takes np.log2.
    """

    def __init__(self, net: LayeredNetwork, snoop: tuple[int, ...]):
        self.net, self.snoop, self.L, self.s2 = net, snoop, net.L, net.sigma2
        self.offs = np.cumsum([0] + list(net.nodes_per_layer)).tolist()
        # per layer: (coordinate, power cap, eavesdropper gain or None where
        # the node is not snooped) of each node, squared gain out, and
        # whether the layer is snooped (layer M with a snooped node)
        m, h_e = net.M - 1, {i: net.h_e[i] for i in snoop}
        self.layers = [([(k, p, h_e.get(k - self.offs[l]) if l == m else None)
                         for k, p in zip(range(self.offs[l], self.offs[l + 1]), net.P[l])],
                        net.gain_out(l) ** 2, l == m and bool(snoop))
                       for l in range(net.L)]
        self.start = (net.P_s * net.h_s ** 2, 0.0, 0.0, 1.0)

    def kernel(self, u) -> Cascade:
        """The kernel's cascade at u, each node's beta u times its bound: a
        point's for a vector u, a batch's for the rows of a (B, dim) matrix."""
        u, offs = np.asarray(u, dtype=float), self.offs
        cols = u.tolist() if u.ndim == 1 else list(u.T)
        return cascade(self.net,
                       lambda l, bmax: [x * b for x, b in zip(cols[offs[l]:offs[l + 1]], bmax)],
                       None if u.ndim == 1 else np.full(len(u), self.net.P_s))

    def kernel_values(self, u) -> list[float]:
        """r_t - r_e of `kernel(u)`'s points, by `_rate_reports`."""
        rates = _rate_reports(self.net, self.kernel(u), self.snoop)
        return [t - e for t, e in zip(rates.r_t, rates.r_e)]

    def advance(self, u, state, l0: int, l1: int, sqrt=math.sqrt):
        """The state entering layer l1 from the state entering layer l0: the
        one layer step, for a point and a batch alike."""
        s2 = self.s2
        sig, fwd, num, den = state
        for nodes, g, snooped in self.layers[l0:l1]:
            rx = sig + fwd + s2
            # explicit +=: the built-in sum() of floats is compensated from Python 3.12 on
            s_sum = q_sum = w = own = 0.0
            for k, p, h in nodes:
                b = u[k] * sqrt(p / rx)
                s_sum += b
                q_sum += b * b
                if h is not None:
                    t = b * h
                    w += t
                    own += t * t
            if snooped:
                w *= w
                num, den = sig * w, fwd * w + s2 * own + s2
            s_sum *= s_sum
            sig, fwd = sig * s_sum * g, (fwd * s_sum + s2 * q_sum) * g
        return sig, fwd, num, den

    def value(self, state, u) -> float:
        """r_t - r_e of a state leaving the network, reached at u; where the
        state is not finite, the kernel's value at u."""
        sig, fwd, num, den = state
        if sig + fwd + num + den < math.inf:  # false for inf and nan
            return 0.5 * (math.log2(1.0 + sig / (fwd + self.s2)) - math.log2(1.0 + num / den))
        return self.kernel_values(u)[0]

    def __call__(self, u) -> float:
        return self.value(self.advance(u, self.start, 0, self.L), u)

    def line(self, ul: list[float], state, l: int, lo: int, hi: int):
        """f(x), the value at ul with u[lo:hi] (all in layer l) set to x, by
        `advance` from the state entering layer l, so f(x) == self(u) bit for
        bit. ul is copied, and f writes x into the copy."""
        u, n = list(ul), hi - lo

        def f(x: float) -> float:
            u[lo:hi] = [x] * n
            return self.value(self.advance(u, state, l, self.L), u)
        return f

    def _terms(self, X: np.ndarray, states, l0: int):
        """The numpy half of a batch: per column, 1 + the destination's SNR,
        1 + the eavesdropper's and the sum of the state leaving the network,
        as arrays, by `advance` from the states entering layer l0."""
        state = tuple(states.T) if isinstance(states, np.ndarray) else states
        with np.errstate(over="ignore", invalid="ignore"):
            sig, fwd, num, den = self.advance(X, state, l0, self.L, np.sqrt)
            return 1.0 + sig / (fwd + self.s2), 1.0 + num / den, sig + fwd + num + den

    def columns(self, X: np.ndarray, states: np.ndarray, l0: int):
        """The columns of X from the states entering layer l0, a (B, 4) array
        of per-column states, as one reader: value(i) is column i's value.
        The numpy recursion runs for every column at once; a value is formed
        only when value(i) is called, by math.log2 as the scalar value is, so
        equal to it bit for bit. Where a column's state is not finite,
        value(i) is the kernel's value at that column, and so may raise, as
        the scalar value does: a column never read never reaches the kernel."""
        t, e, total = (a.tolist() for a in self._terms(X, states, l0))

        def value(i: int) -> float:
            if total[i] < math.inf:  # false for inf and nan
                return 0.5 * (math.log2(t[i]) - math.log2(e[i]))
            return self.kernel_values(X[:, i])[0]
        return value

    def scan(self, U) -> np.ndarray:
        """Values of the rows of a (B, dim) matrix, or of the store
        `_candidates` returns, for ranking coarse-scan candidates, as an
        array: the logs are np.log2's, so a value may differ from the scalar
        one in the last bits, where `columns` reads each by math.log2. The
        rows run in round(B / _SCAN_BLOCK) even blocks (at least one), cut as
        np.array_split cuts them; a store's block is decoded a coordinate at
        a time (`_Columns`) into the floats a matrix holds, and every
        value is elementwise, so neither the blocks nor the store change any
        of them. One np.isfinite pass finds a block's rows whose
        state is not finite, and they take the kernel's values, all in one
        batch. The recursion starts from self.start as floats, the point
        path's rule (see `network`): the state becomes (B,) columns at the
        first layer, and the eavesdropper's powers stay floats where no node
        is snooped."""
        k = max(1, round(len(U) / _SCAN_BLOCK))
        q, r = divmod(len(U), k)
        ends = [i * q + min(i, r) for i in range(k + 1)]
        vals = []
        for a, b in zip(ends, ends[1:]):
            X = _Columns(U, a, b) if isinstance(U, _Store) else U[a:b].T
            t, e, total = self._terms(X, self.start, 0)
            with np.errstate(over="ignore", invalid="ignore"):
                vals.append(0.5 * (np.log2(t) - np.log2(e)))
                defer = np.flatnonzero(~np.isfinite(total))
                if defer.size:
                    vals[-1][defer] = self.kernel_values(U[a + defer])
        return np.concatenate(vals)


def _top_k(vals: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values, largest first and ties by index: the
    first k of a stable argsort of -vals, without sorting the rest."""
    neg = -vals
    if k < neg.size:
        kth = np.partition(neg, k - 1)[k - 1]
        cand = np.flatnonzero(~(neg > kth))
    else:
        cand = np.arange(neg.size)
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


def _line_batch() -> np.ndarray:
    """A line search's batch: the points of _LINE_SCAN, then the points the
    golden-section search evaluates on each end bracket of a line that keeps
    falling toward x = 0 or rising toward x = 1, recorded from `_golden_max`
    itself. The two end paths lie in (0, 1e-6) and (11/12, 1), so no point
    repeats."""
    scan = _LINE_SCAN.tolist()
    batch = list(scan)
    for lo, hi, slope in ((scan[0], scan[1], -1.0), (scan[-2], scan[-1], 1.0)):
        _golden_max(lambda x: batch.append(x) or slope * x, lo, hi)
    return np.array(batch)


# a line whose scan peaks at an end of _LINE_SCAN mostly keeps rising
# toward that end, so every golden-section comparison steps toward it and
# its points are known before the search runs: `_refine` evaluates them in
# the line's batch beside the scan, and finds a point's column here
_LINE_BATCH = _line_batch()
_BATCH_COLUMN = {x: i for i, x in enumerate(_LINE_BATCH.tolist())}


def _refine(obj: _Objective, starts: np.ndarray, lines: list[tuple[int, int, int]]
            ) -> tuple[list[tuple[float, np.ndarray, bool]], int]:
    """Cyclic coordinate ascent with golden-section line searches, all
    starts in lockstep, for at most _MAX_CYCLES cycles; a start has converged
    once a cycle gains less than SearchConfig.refine_tol, or nothing at a
    nan best.

    Each cycle runs every line (layer, lo, hi) in turn, moving u[lo:hi] to
    a common value: the single coordinates, then each wide layer as a block;
    block moves escape the diagonal traps where every single-coordinate move
    from a coordinate-wise maximum loses. A line search is a coarse scan,
    batched over the searches a line needs, plus a golden-section refinement
    of the bracketing interval. Search g's columns of the batch, from
    g * _LINE_BATCH.size on, hold its scan and the golden-section points of
    both end brackets, each point's column in one table (`_BATCH_COLUMN`).
    One reader over the whole batch (`_Objective.columns`) gives a column's
    value by batch index, formed only when it is read. Where the scan peaks
    at an end, the refinement reads every point the batch holds from it,
    which it does while it keeps stepping toward that end; any other point,
    and every point of an interior peak, is evaluated alone by
    `_Objective.line`. Both give the same value bit for bit, so the batch
    changes no comparison. A line search reads
    only the coordinates outside its line, so its result (x, value) is kept
    in a memo for the call, keyed on the line and the bytes of those
    coordinates. A start whose key is there, from its own earlier cycle or
    from another start, takes the stored result under its own test (value
    above its best); only the distinct missing keys are searched, so starts
    in equal states share all their work. The memo changes no result.
    Returns per-start (best, u, converged) and the number of evaluations:
    each distinct start's first value once, and 19 + 30 per line search run,
    its scan and golden-section points, however many batch columns it read.
    """
    n, ns, nc, scan = len(starts), _LINE_SCAN.size, _LINE_BATCH.size, _LINE_SCAN.tolist()
    us = [s.astype(float) for s in starts]
    # each distinct start's first value, evaluated once
    distinct = {u.tobytes(): u for u in us}
    first = {key: obj(u.tolist()) for key, u in distinct.items()}
    best, conv = [first[u.tobytes()] for u in us], [False] * n
    live, evals = list(range(n)), len(first)
    # (line index, coordinates outside the line) -> that search's (x, value)
    memo: dict[tuple[int, bytes], tuple[float, float]] = {}
    for _ in range(_MAX_CYCLES):
        if not live:
            break
        before = [best[k] for k in live]
        for i, (l, lo, hi) in enumerate(lines):
            keys = [(i, us[k][:lo].tobytes() + us[k][hi:].tobytes()) for k in live]
            # one search per key not yet in the memo, at any start that has
            # it: a search reads no coordinate inside its line
            todo = {key: k for k, key in zip(live, keys) if key not in memo}
            if todo:
                uls = [us[k].tolist() for k in todo.values()]
                states = [obj.advance(ul, obj.start, 0, l) for ul in uls]
                X = np.repeat(np.array(uls).T, nc, axis=1)
                X[lo:hi] = np.tile(_LINE_BATCH, len(uls))
                value = obj.columns(X, np.repeat(states, nc, axis=0), l)
                for g, (key, ul, state) in enumerate(zip(todo, uls, states)):
                    at = g * nc
                    row = list(map(value, range(at, at + ns)))
                    j = int(np.argmax(row))
                    f = line = obj.line(ul, state, l, lo, hi)
                    if j in (0, ns - 1):
                        # this end's golden-section points are read from the batch

                        def f(x):
                            i = _BATCH_COLUMN.get(x)
                            return line(x) if i is None else value(at + i)
                    x_g, v_g = _golden_max(f, scan[max(j - 1, 0)], scan[min(j + 1, ns - 1)])
                    memo[key] = (x_g, v_g) if v_g > row[j] else (scan[j], row[j])
                evals += len(todo) * (ns + _GOLDEN_STEPS + 2)
            for k, key in zip(live, keys):
                x, v = memo[key]
                if v > best[k]:
                    best[k] = v
                    us[k][lo:hi] = x
        for k, b0 in zip(live, before):
            # a nan best never improves, so a nan gain ends the start too
            conv[k] = not best[k] - b0 >= SearchConfig.refine_tol
        live = [k for k in live if not conv[k]]
    return list(zip(best, us, conv)), evals


class _Store:
    """The coarse scan's candidates: the rows of a (B, dim) float matrix,
    kept compact and decoded only where read. The structured rows are uint8
    codes into one float table, one column per row; the random rows are a
    (_RANDOM_SCAN, dim) view of the seed's stream. store[index] is the rows
    at an index array, as the matrix indexed so gives them; `_Columns` reads
    a block of rows a coordinate at a time, as the scan does. Every decoded
    float is the float the matrix holds."""

    def __init__(self, codes: np.ndarray, table: np.ndarray, random: np.ndarray):
        self.codes, self.table, self.random = codes, table, random

    def __len__(self) -> int:
        return self.codes.shape[1] + len(self.random)

    def __getitem__(self, index) -> np.ndarray:
        index, n = np.asarray(index), self.codes.shape[1]
        rows = np.empty((index.size, len(self.codes)))
        coded = index < n
        rows[coded] = self.table.take(self.codes[:, index[coded]]).T
        rows[~coded] = self.random[index[~coded] - n]
        return rows


class _Columns:
    """Rows a to b of a store as the (dim, b - a) matrix `_Objective.advance`
    reads: its row k, the block's coordinate k, is decoded into a contiguous
    array when read. The recursion reads each coordinate once, so one
    decoded row at a time is alive, of the size of the block's other
    temporaries."""

    def __init__(self, store: _Store, a: int, b: int):
        self.store, self.a, self.b = store, a, b

    def __getitem__(self, k: int) -> np.ndarray:
        store, a, b = self.store, self.a, self.b
        n = store.codes.shape[1]
        coded = store.table.take(store.codes[k, a:b])
        if b <= n:
            return coded
        return np.concatenate((coded, store.random[max(a - n, 0):b - n, k]))


@functools.lru_cache(maxsize=16)
def _stream(seed: int) -> np.ndarray:
    """The first _RANDOM_SCAN * 16 draws of np.random.default_rng(seed),
    read-only: the first _RANDOM_SCAN * dim of them are, in order, the draws
    of random((_RANDOM_SCAN, dim)) for every dim up to 16."""
    stream = np.random.default_rng(seed).random(_RANDOM_SCAN * 16)
    stream.flags.writeable = False
    return stream


@functools.lru_cache(maxsize=16)
def _candidates(widths: tuple[int, ...], seed: int) -> _Store:
    """The coarse scan's candidates for a network of these layer widths (at
    most 16 nodes in all), one per row of a read-only store, in this order:
    the all-ones point; the exhaustive grid when dim <= 8 (resolution
    limited by an evaluation budget); the per-layer symmetric grid, where
    all nodes of a layer share one value; one layer backed off onto a log
    scale, everything else at the bound, for each layer; and _RANDOM_SCAN
    points from np.random.default_rng(seed), which draws nothing else.

    A pure function of (widths, seed), so it is built once per pair and
    cached. Every structured coordinate is 1, a grid point, a symmetric-grid
    point or a log-family point, at most 1 + 101 + 41 + 23 = 166 values, so
    those candidates are kept as uint8 codes into a table of them; the
    random points are a view of `_stream(seed)`, shared by all widths.
    Raises ValueError, before any array is built, where the count passes
    _MAX_CANDIDATES. That limit caps an entry at 8.5 MB of codes (L = 12
    with dim 16: 535,814 candidates; 68.6 MB as floats), so the cache holds
    at most about 144 MB with its streams (1.1 GB as floats), and about
    1 MB for the nine shapes `verify` draws (5.0 MB as floats).
    """
    dim, L = sum(widths), len(widths)
    per_dim = _GRID_POINTS
    while per_dim > 2 and per_dim ** dim > _GRID_BUDGET:
        per_dim -= 1
    per_layer = max(3, min(int(round(3000 ** (1.0 / L))), 41))
    sizes = [1, per_dim ** dim if dim <= 8 else 0, per_layer ** L,
             L * _LOG_FAMILY.size, _RANDOM_SCAN]
    if sum(sizes) > _MAX_CANDIDATES:
        raise ValueError(f"the coarse scan's {sum(sizes)} candidates exceed the limit of "
                         f"{_MAX_CANDIDATES} (the per-layer grid has {per_layer}^{L} points)")
    # code 0 is 1.0, a coordinate at its bound; the grid's values follow from
    # code grid on, the symmetric grid's from sym and the log family's from log
    axes = [[1.0], np.linspace(0.0, 1.0, per_dim if sizes[1] else 0),
            np.linspace(0.0, 1.0, per_layer), _LOG_FAMILY]
    grid, sym, log = np.cumsum([len(x) for x in axes[:3]]).tolist()
    table = np.concatenate(axes)
    codes = np.zeros((dim, sum(sizes[:4])), np.uint8)
    at = np.cumsum(sizes).tolist()
    if sizes[1]:
        mesh = np.meshgrid(*([np.arange(grid, grid + per_dim, dtype=np.uint8)] * dim),
                           indexing="ij")
        for row, g in zip(codes[:, at[0]:at[1]], mesh):
            row[:] = g.ravel()
    offs = np.cumsum((0,) + widths).tolist()
    mesh = np.meshgrid(*([np.arange(sym, sym + per_layer, dtype=np.uint8)] * L), indexing="ij")
    for l, g in enumerate(mesh):
        codes[offs[l]:offs[l + 1], at[1]:at[2]] = g.ravel()
        a = at[2] + l * _LOG_FAMILY.size
        codes[offs[l]:offs[l + 1], a:a + _LOG_FAMILY.size] = np.arange(log, len(table))
    codes.flags.writeable = table.flags.writeable = False
    return _Store(codes, table, _stream(seed)[:_RANDOM_SCAN * dim].reshape(_RANDOM_SCAN, dim))


def maximize_secrecy(net: LayeredNetwork, snooped: Iterable[int] | None = None,
                     cfg: SearchConfig | None = None) -> OracleResult:
    """Search the feasible box for the scaling vector maximizing R_t - R_e.

    Coarse phase: `_Objective.scan` ranks the candidates of `_candidates`,
    built once per (layer widths, seed) and cached read-only: an exhaustive
    grid when the total dimension is at most 8, structured families and a
    seeded random scan. The best candidates seed cyclic coordinate ascent
    with golden-section line refinement. Deterministic for a fixed config.
    Raises ValueError where the dimension passes 16 or the candidates pass
    _MAX_CANDIDATES, and OverflowError where a power passes the float range
    at a point the search evaluates, or where the best rate it finds is not
    finite.
    """
    cfg = cfg or SearchConfig()
    dim = int(sum(net.nodes_per_layer))
    if dim > 16:
        raise ValueError("search dimension above 16 is unsupported")
    obj = _Objective(net, _snooped_nodes(net, snooped))

    U = _candidates(tuple(net.nodes_per_layer), cfg.seed)
    vals = obj.scan(U)
    n_starts = min(cfg.restarts, len(vals))
    order = _top_k(vals, n_starts)
    starts = U[order]

    offs = obj.offs
    lines = [(l, i, i + 1) for l in range(net.L) for i in range(offs[l], offs[l + 1])]
    lines += [(l, offs[l], offs[l + 1]) for l in range(net.L) if net.nodes_per_layer[l] > 1]
    finals, evals = _refine(obj, starts, lines)

    best_val = max(v for v, _, _ in finals)
    # deterministic tie-break: among near-best finals, lexicographically
    # smallest beta vector, each distinct final propagated once
    tied = {u.tobytes(): u for v, u, _ in finals if best_val - v <= cfg.refine_tol}
    if not tied:
        # nothing ties with an inf or nan best: the rate left the float range
        raise OverflowError(f"the search's best secrecy rate is {best_val}")
    chosen = min(map(obj.kernel, tied.values()),
                 key=lambda c: [b for row in c.betas for b in row])
    diag = OracleDiagnostics(
        n_evals=len(U) + evals,
        n_starts=n_starts,
        converged=all(c for _, _, c in finals),
        # `not <=`, so that a nan spread counts as multimodal
        multimodal=not best_val - min(v for v, _, _ in finals) <= max(cfg.refine_tol, 1e-9),
        start_objectives=tuple(float(v) for v, _, _ in finals),
    )
    return OracleResult(beta=chosen.scaling(), rate=_rate_reports(net, chosen, obj.snoop).point(),
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
