"""Search-oracle behavior: determinism, feasibility, and agreement with the
closed forms on reference instances."""
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from anc_secrecy import (
    LayeredNetwork,
    SearchConfig,
    maximize_secrecy,
    verify_against_closed_form,
)
from anc_secrecy.network import _rate_reports, cascade
from anc_secrecy import oracle
from anc_secrecy.oracle import (_BATCH_COLUMN, _GOLDEN_STEPS, _GRID_BUDGET, _GRID_POINTS,
                                _LINE_BATCH, _LINE_SCAN, _LOG_FAMILY, _RANDOM_SCAN, _SCAN_BLOCK,
                                _candidates, _golden_max, _Objective, _refine, _top_k)
from conftest import fixed_betas, random_diamond, random_ecgal

EXAMPLE1 = LayeredNetwork.diamond(N=3, h_s=0.6, h_t=0.3, h_e=(0.2, 0.6, 0.4),
                                  P_s=5.0, P=5.0, sigma2=1.0)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)


@pytest.mark.parametrize("key, value, message", [
    ("restarts", 2.5, "must be a finite integer"),
    ("restarts", True, "must be a number"),
    ("restarts", math.nan, "must be a finite integer"),
    ("restarts", 0, "must be >= 1"),
    ("restarts", -1, "must be >= 1"),
    ("seed", -1, "must be >= 0"),
    ("seed", 1.5, "must be a finite integer"),
    ("seed", "3", "must be a number"),
    ("seed", True, "must be a number")])
def test_search_config_names_the_bad_key(key, value, message):
    with pytest.raises(ValueError, match=rf"^{key}: {message}, got "):
        SearchConfig(**{key: value})


def test_search_config_takes_integral_floats():
    cfg = SearchConfig(restarts=6.0, seed=2.0)
    assert cfg == SearchConfig(restarts=6, seed=2) and type(cfg.restarts) is int


def test_determinism():
    cfg = SearchConfig(restarts=6, seed=1234)
    a = maximize_secrecy(EXAMPLE1, snooped=(1, 2), cfg=cfg)
    b = maximize_secrecy(EXAMPLE1, snooped=(1, 2), cfg=cfg)
    assert a.beta.beta == b.beta.beta
    assert a.rate == b.rate


def test_seed_changes_are_harmless_here():
    r1 = maximize_secrecy(EXAMPLE1, snooped=(1, 2), cfg=SearchConfig(restarts=6, seed=1))
    r2 = maximize_secrecy(EXAMPLE1, snooped=(1, 2), cfg=SearchConfig(restarts=6, seed=2))
    assert r1.rate.r_s == pytest.approx(r2.rate.r_s, abs=1e-7)


def test_example1_case1_argmax():
    res = maximize_secrecy(EXAMPLE1, snooped=(0, 1, 2),
                           cfg=SearchConfig(restarts=8, seed=0))
    assert res.beta.flat() == pytest.approx([1.3363, 0.0, 0.0], abs=1e-3)
    assert res.rate.r_e == pytest.approx(0.081749, abs=1e-4)


def test_example1_case2_argmax():
    res = maximize_secrecy(EXAMPLE1, snooped=(1, 2),
                           cfg=SearchConfig(restarts=8, seed=0))
    assert res.beta.flat() == pytest.approx([1.3363, 0.0, 0.7298], abs=1e-3)
    assert res.rate.r_e == pytest.approx(0.095368, abs=1e-4)


def test_symmetric_diamond_equal_components():
    rng = np.random.default_rng(101)
    done = 0
    seed = 0
    while done < 5:
        seed += 1
        net = random_diamond(rng)
        if abs(net.h_t) < 1.4 * abs(net.common_h_e):
            continue
        done += 1
        res = maximize_secrecy(net, cfg=SearchConfig(restarts=6, seed=seed))
        flat = res.beta.flat()
        assert np.max(flat) - np.min(flat) < 1e-3


def test_iterates_feasible():
    # the returned point respects the cascaded bounds exactly
    rng = np.random.default_rng(7)
    for k in range(10):
        net = random_ecgal(rng)
        res = maximize_secrecy(net, cfg=SearchConfig(restarts=4, seed=k))
        for brow, mrow in zip(res.beta.beta, res.beta.beta_max):
            for b, m in zip(brow, mrow):
                assert 0.0 <= b <= m
        c = cascade(net, fixed_betas(res.beta.beta))
        for l in range(net.L):
            for n, b in enumerate(res.beta.beta[l]):
                assert b ** 2 * (c.sig[l] + c.fwd[l] + net.sigma2) <= net.P[l][n] * (1 + 1e-12)


def test_ascent_diagnostics():
    res = maximize_secrecy(EXAMPLE1, cfg=SearchConfig(restarts=6, seed=3))
    d = res.diagnostics
    assert d.n_starts == 6
    assert d.n_evals > 0
    assert isinstance(d.as_dict()["start_objectives"], list)
    assert len(d.start_objectives) == d.n_starts


def test_dimension_guard():
    net = LayeredNetwork(L=5, nodes_per_layer=(4, 4, 4, 4, 4), h_s=0.5,
                         h=(0.5,) * 4, h_t=0.5, h_e=0.1, M=5, P_s=5, P=5,
                         sigma2=1)
    with pytest.raises(ValueError):
        maximize_secrecy(net)


def test_verification_report_smoke():
    rng = np.random.default_rng(301)
    cfg = SearchConfig(restarts=6, seed=5)
    for _ in range(15):
        rep = verify_against_closed_form(random_diamond(rng), cfg=cfg)
        assert rep.kind == "diamond"
        assert rep.passed, rep
    for _ in range(15):
        rep = verify_against_closed_form(random_ecgal(rng), cfg=cfg)
        assert rep.kind in ("diamond", "layered")
        assert rep.passed, rep


def test_clipping_boundary_instance():
    # adversarial instance with the interior point within 1% of the bound,
    # found by bisecting the eavesdropper gain; the closed form still matches
    from anc_secrecy import beta_max_vector, extract_coefficients, lemma_beta_M

    base = dict(L=2, nodes_per_layer=(2, 2), h_s=0.7, h=(0.6,), h_t=0.5, M=2,
                P_s=10.0, P=10.0, sigma2=1.0)
    bmax_m = None
    lo, hi = 1e-4, 0.49
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        net = LayeredNetwork(h_e=mid, **base)
        co = extract_coefficients(net)
        bmax_m = beta_max_vector(net).beta[1][0]
        sol = lemma_beta_M(co, bmax_m)
        if sol.beta_glb > bmax_m:
            lo = mid  # smaller h_e pushes the interior point out
        else:
            hi = mid
    net = LayeredNetwork(h_e=0.5 * (lo + hi), **base)
    co = extract_coefficients(net)
    sol = lemma_beta_M(co, bmax_m)
    assert abs(sol.beta_glb - bmax_m) / bmax_m < 0.01
    rep = verify_against_closed_form(net, cfg=SearchConfig(restarts=6, seed=9))
    assert rep.passed, rep


def _lines(net):
    offs = np.cumsum([0] + list(net.nodes_per_layer)).tolist()
    lines = [(l, i, i + 1) for l in range(net.L) for i in range(offs[l], offs[l + 1])]
    return lines + [(l, offs[l], offs[l + 1]) for l in range(net.L)
                    if net.nodes_per_layer[l] > 1]


RAGGED = [
    LayeredNetwork(L=3, nodes_per_layer=(1, 3, 2), h_s=0.7, h=(0.5, 1.1), h_t=0.4,
                   h_e=0.3, M=M, P_s=6.0, P=((4.0,), (2.0, 3.0, 5.0), (1.0, 7.0)),
                   sigma2=0.8)
    for M in (1, 2, 3)
] + [
    LayeredNetwork(L=2, nodes_per_layer=(3, 2), h_s=0.9, h=(0.6,), h_t=0.2,
                   h_e=(0.4, 0.05, 0.9), M=1, P_s=20.0, P=3.0, sigma2=1.3),
    LayeredNetwork(L=2, nodes_per_layer=(2, 3), h_s=0.3, h=(1.2,), h_t=0.8,
                   h_e=(0.7, 0.1, 0.3), M=2, P_s=2.0, P=9.0, sigma2=0.5),
    EXAMPLE1,
]


def _subsets(n):
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]


def _column_values(obj, X, states, l0):
    """Every value of `_Objective.columns` read in order, by math.log2."""
    return list(map(obj.columns(X, states, l0), range(X.shape[1])))


@pytest.mark.parametrize("net", RAGGED)
def test_batched_line_values_equal_scalar_objective(net):
    rng = np.random.default_rng(17)
    n_m = net.nodes_per_layer[net.M - 1]
    dim = sum(net.nodes_per_layer)
    ns = _LINE_SCAN.size
    # off-scan abscissae, from a generator of their own so the bases stay as drawn
    xs = np.random.default_rng(71).random(6).tolist()
    for snoop in _subsets(n_m):
        obj = _Objective(net, snoop)
        bases = rng.random((3, dim)).tolist() + [[1.0] * dim, [0.0] * dim]
        for l, lo, hi in _lines(net):
            states = [obj.advance(u, obj.start, 0, l) for u in bases]
            X = np.repeat(np.array(bases).T, ns, axis=1)
            X[lo:hi] = np.tile(_LINE_SCAN, len(bases))
            batched = _column_values(obj, X, np.repeat(states, ns, axis=0), l)
            scalar = [obj(col) for col in X.T.tolist()]
            assert batched == scalar, (snoop, l, lo, hi)
            # the coarse scan takes np.log2: equal up to rounding
            np.testing.assert_allclose(obj.scan(X.T), scalar, rtol=0, atol=1e-12)
            # the per-line evaluator, at the scan's points and off them
            for g, (u, state) in enumerate(zip(bases, states)):
                f = obj.line(u, state, l, lo, hi)
                assert [f(x) for x in _LINE_SCAN.tolist()] == scalar[g * ns:(g + 1) * ns]
                for x in xs:
                    col = list(u)
                    col[lo:hi] = [x] * (hi - lo)
                    assert f(x) == obj(col), (snoop, l, lo, hi, u, x)


def _kernel_objective(net, u, snoop):
    """r_t - r_e of the kernel's cascade at betas u * bound."""
    offs = np.cumsum((0,) + net.nodes_per_layer).tolist()
    c = cascade(net, lambda l, bmax: [x * b for x, b in zip(u[offs[l]:offs[l + 1]], bmax)])
    rep = _rate_reports(net, c, snoop).point()
    return rep.r_t - rep.r_e


def test_objective_is_the_kernels_rates():
    # the oracle's objective at u equals r_t - r_e of the kernel's cascade
    # at betas u * bound, bit for bit: one squaring rule, one summation
    # order, at every width a layer of a searchable network can have
    rng = np.random.default_rng(41)
    for _ in range(40):
        L = int(rng.integers(1, 4))
        widths = tuple(int(n) for n in rng.integers(1, 17, L))
        offs = np.cumsum((0,) + widths).tolist()
        for M in range(1, L + 1):
            net = LayeredNetwork(
                L=L, nodes_per_layer=widths, h_s=float(rng.uniform(0.05, 1.5)),
                h=tuple(rng.uniform(0.05, 1.5, L - 1).tolist()),
                h_t=float(rng.uniform(0.05, 1.5)),
                h_e=tuple(rng.uniform(0.01, 1.5, widths[M - 1]).tolist()), M=M,
                P_s=float(rng.uniform(0.1, 30.0)),
                P=tuple(tuple(rng.uniform(0.1, 30.0, n).tolist()) for n in widths),
                sigma2=float(rng.uniform(0.2, 2.0)))
            snoop = tuple(np.flatnonzero(rng.random(widths[M - 1]) < 0.6).tolist())
            obj = _Objective(net, snoop)
            for _ in range(25):
                u = rng.random(offs[-1])
                u[rng.random(offs[-1]) < 0.2] = rng.choice([0.0, 1.0])
                assert obj(u.tolist()) == _kernel_objective(net, u.tolist(), snoop), \
                    (net, snoop, u.tolist())


def test_objective_defers_to_the_kernel_past_the_float_range():
    # the eavesdropper's signal power passes the float range, its SNR does
    # not: the objective takes the kernel's value there, which rescues the
    # SNR point by point, in every form the objective is evaluated
    net = LayeredNetwork.diamond(
        N=2, h_s=1.0, h_t=1.0, h_e=(9.207416006867998e+109, 1.0347502824058397e+151),
        P_s=188.22786081696952, P=4.226992132749403e+290, sigma2=4.1640104539120186e-299)
    u = [1.3895988059463554e-05, 4.472909140396663e-10]
    obj = _Objective(net, (0, 1))
    want = _kernel_objective(net, u, (0, 1))
    assert want == 4.643668444259674e-05
    assert obj(u) == want
    X = np.array([u, [1.0, 1.0]]).T
    assert _column_values(obj, X, np.array([obj.start] * 2), 0)[0] == want
    assert obj.scan(X.T)[0] == pytest.approx(want, rel=1e-12)
    # the per-line evaluator at u's own coordinate; the block line moves both
    # nodes to u[0], where the state is not finite either
    for l, lo, hi in _lines(net):
        v = list(u)
        v[lo:hi] = [u[lo]] * (hi - lo)
        assert not math.isfinite(sum(obj.advance(v, obj.start, 0, net.L)))
        got = obj.line(u, obj.advance(u, obj.start, 0, l), l, lo, hi)(u[lo])
        assert got == obj(v) == _kernel_objective(net, v, (0, 1))
        if hi - lo == 1:
            assert got == want


def _block_sizes(obj, U):
    """obj.scan(U), and the number of rows of each block it ran."""
    sizes, terms = [], obj._terms

    def spy(X, states, l0):
        assert states == obj.start  # the start state as floats
        sizes.append(X.shape[1])
        return terms(X, states, l0)
    obj._terms = spy
    try:
        return obj.scan(U), sizes
    finally:
        del obj._terms


def _one_block(obj, U):
    """obj.scan(U) with all of U's rows in one block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_SCAN_BLOCK", math.inf)
        vals, sizes = _block_sizes(obj, U)
    assert sizes == [len(U)]
    return vals


def test_blocked_scan_equals_one_batch():
    # three even blocks; about half the candidates defer to the kernel
    # (their eavesdropper power passes the float range), in every block, and
    # the point of the test above sits in the first block and the last
    net = LayeredNetwork.diamond(
        N=2, h_s=1.0, h_t=1.0, h_e=(9.207416006867998e+109, 1.0347502824058397e+151),
        P_s=188.22786081696952, P=4.226992132749403e+290, sigma2=4.1640104539120186e-299)
    obj = _Objective(net, (0, 1))
    rng = np.random.default_rng(8)
    n = 3 * _SCAN_BLOCK + 1000
    U = rng.random((n, 2))
    U[rng.random(n) < 0.5] *= 1e-150
    U[[5, n - 7]] = [1.3895988059463554e-05, 4.472909140396663e-10]
    vals, sizes = _block_sizes(obj, U)
    assert sizes == [len(b) for b in np.array_split(U, 3)]
    assert np.array_equal(vals, _one_block(obj, U))
    assert np.isfinite(vals).all()
    assert vals[5] == vals[n - 7] == pytest.approx(4.643668444259674e-05, rel=1e-12)


@pytest.mark.parametrize("rows, blocks", [(1, 1), (2_000, 1), (4_161, 1), (6_200, 2),
                                          (4 * _SCAN_BLOCK, 4), (26_593, 6)])
def test_scan_splits_its_rows_evenly(rows, blocks):
    # round(rows / _SCAN_BLOCK) blocks, at least one, within a row of each other
    obj = _Objective(EXAMPLE1, (0, 1, 2))
    U = np.random.default_rng(rows).random((rows, 3))
    vals, sizes = _block_sizes(obj, U)
    assert len(sizes) == blocks and sum(sizes) == rows and max(sizes) - min(sizes) <= 1
    assert np.array_equal(vals, _one_block(obj, U))


def test_scan_without_snooped_nodes():
    # no eavesdropper term: the eavesdropper's powers stay the start's floats
    # through every layer, and the blocked scan still equals one block bit for bit
    net = LayeredNetwork(L=2, nodes_per_layer=(2, 3), h_s=0.7, h=(0.6,), h_t=0.5,
                         h_e=(0.3, 0.2, 0.4), M=2, P_s=10.0, P=10.0, sigma2=1.0)
    obj = _Objective(net, ())
    U = np.random.default_rng(3).random((2 * _SCAN_BLOCK + 500, 5))
    num, den = obj.advance(U.T, obj.start, 0, net.L, np.sqrt)[2:]
    assert (type(num), type(den)) == (float, float)
    vals, sizes = _block_sizes(obj, U)
    assert len(sizes) == 2
    assert np.array_equal(vals, _one_block(obj, U))


def test_scan_block_whose_state_sum_overflows_defers_nothing():
    # each column's state is finite (about 1e306), but a block's sum over
    # its columns passes the float range: the columns are tested one by
    # one, and none goes to the kernel
    net = LayeredNetwork.diamond(N=1, h_s=1.0, h_t=1.0, h_e=1e-3, P_s=1e300, P=1e306,
                                 sigma2=1.0)
    obj = _Objective(net, (0,))
    U = np.random.default_rng(4).uniform(0.5, 1.0, (_SCAN_BLOCK, 1))
    with np.errstate(over="ignore"):
        total = sum(obj.advance(U.T, obj.start, 0, net.L, np.sqrt))
        assert np.isfinite(total).all() and total.sum() == math.inf

    def kernel_values(u):
        raise AssertionError("a finite column deferred to the kernel")
    obj.kernel_values = kernel_values
    vals, sizes = _block_sizes(obj, U)
    assert sizes == [_SCAN_BLOCK] and np.isfinite(vals).all()
    assert np.array_equal(vals, _one_block(obj, U))
    assert _column_values(obj, U.T, np.array([obj.start]), 0) == [obj(u) for u in U.tolist()]


def test_import_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma; the line-scan abscissae are built by
    # np.sort, which gives the same bytes, so importing the package does not
    import anc_secrecy
    src = str(Path(anc_secrecy.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", "import sys, anc_secrecy; "
                          "print('numpy.ma' in sys.modules, 'numpy' in sys.modules)"],
                         capture_output=True, text=True, env=env, check=True).stdout
    assert out.split() == ["False", "True"]
    unique = np.unique(np.concatenate((
        [0.0], np.logspace(-6.0, -1.0, 6), np.linspace(1.0 / 12.0, 1.0, 12))))
    assert _LINE_SCAN.dtype == unique.dtype and _LINE_SCAN.tobytes() == unique.tobytes()


def _candidates_before_the_cache(widths, seed):
    """The coarse scan's candidates as maximize_secrecy built them inline
    before they were cached: one per row."""
    dim, L = sum(widths), len(widths)
    rng = np.random.default_rng(seed)
    cands = [np.ones((1, dim))]
    if dim <= 8:
        per_dim = _GRID_POINTS
        while per_dim > 2 and per_dim ** dim > _GRID_BUDGET:
            per_dim -= 1
        mesh = np.meshgrid(*([np.linspace(0.0, 1.0, per_dim)] * dim), indexing="ij")
        cands.append(np.stack([g.ravel() for g in mesh], axis=1))
    per_layer = max(3, min(int(round(3000 ** (1.0 / L))), 41))
    sym_axes = np.meshgrid(*([np.linspace(0.0, 1.0, per_layer)] * L), indexing="ij")
    sym = np.stack([g.ravel() for g in sym_axes], axis=1)
    cands.append(np.repeat(sym, widths, axis=1))
    offs = np.cumsum((0,) + widths).tolist()
    for l in range(L):
        fam = np.ones((_LOG_FAMILY.size, dim))
        fam[:, offs[l]:offs[l + 1]] = _LOG_FAMILY[:, None]
        cands.append(fam)
    cands.append(rng.random((_RANDOM_SCAN, dim)))
    return np.vstack(cands)


def _decoded(store):
    """Every row of a candidate store, decoded: the (B, dim) float matrix."""
    return store[np.arange(len(store))]


@pytest.mark.parametrize("widths", [(1,), (3,), (2, 2), (1, 3, 2), (3, 3, 3), (2, 1, 4, 1, 3),
                                    (1,) * 8])
def test_candidates_are_cached_read_only(widths):
    C = _candidates(widths, 4)
    rows = _decoded(C)
    assert rows.flags.c_contiguous and rows.shape[1] == sum(widths)
    for part in (C.codes, C.table, C.random):
        with pytest.raises(ValueError):
            part.flat[0] = 0
    assert _candidates(widths, 4) is C
    assert np.array_equal(rows, _candidates_before_the_cache(widths, 4))
    # only the seeded block depends on the seed
    other = _decoded(_candidates(widths, 5))
    assert np.array_equal(other[:-_RANDOM_SCAN], rows[:-_RANDOM_SCAN])
    assert (other[-_RANDOM_SCAN:] != rows[-_RANDOM_SCAN:]).all()


# the deferral-heavy diamond of test_blocked_scan_equals_one_batch: most of
# its candidates defer to the kernel
DEFERRING = LayeredNetwork.diamond(
    N=2, h_s=1.0, h_t=1.0, h_e=(9.207416006867998e+109, 1.0347502824058397e+151),
    P_s=188.22786081696952, P=4.226992132749403e+290, sigma2=4.1640104539120186e-299)


def _ragged(widths, M):
    """A network of these widths snooped at layer M, with per-node h_e and
    a cap per layer."""
    L = len(widths)
    return LayeredNetwork(L=L, nodes_per_layer=widths, h_s=0.7,
                          h=tuple(np.linspace(0.6, 1.3, L - 1).tolist()), h_t=0.4,
                          h_e=tuple(np.linspace(0.1, 0.5, widths[M - 1]).tolist()), M=M,
                          P_s=6.0, P=tuple((3.0 + l,) * n for l, n in enumerate(widths)),
                          sigma2=0.8)


@pytest.mark.parametrize("net, snoop", [(_ragged((2, 1, 4, 1, 3), 3), (0, 2, 3)),
                                        (_ragged((1,) * 8, 5), (0,)), (DEFERRING, (0, 1))])
def test_scan_over_the_store_equals_the_matrix(net, snoop):
    # byte for byte, over blocks of coded rows, of random rows and one of both
    obj = _Objective(net, snoop)
    C = _candidates(net.nodes_per_layer, 6)
    deferred, kernel_values = [], obj.kernel_values

    def spy(u):
        deferred.append(len(u))
        return kernel_values(u)
    obj.kernel_values = spy
    vals = obj.scan(C)
    assert (sum(deferred) > len(C) // 2) == (net is DEFERRING)
    matrix = _candidates_before_the_cache(net.nodes_per_layer, 6)
    assert vals.tobytes() == obj.scan(matrix).tobytes()
    # a block's decoded coordinates are the matrix's, contiguous
    a = C.codes.shape[1] - 5
    X, want = oracle._Columns(C, a, a + 9), matrix[a:a + 9]
    for k in range(sum(net.nodes_per_layer)):
        assert X[k].flags.c_contiguous and X[k].tobytes() == want[:, k].copy().tobytes()


@pytest.mark.parametrize("net", [RAGGED[1], EXAMPLE1, DEFERRING])
def test_search_over_the_store_equals_the_matrix(net):
    # the same starts, bit for bit, and the same result and n_evals as a
    # search over the candidate matrix
    def search():
        starts, refine = [], oracle._refine

        def spy(obj, s, lines):
            starts.append(np.array(s))
            return refine(obj, s, lines)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_refine", spy)
            res = maximize_secrecy(net, cfg=SearchConfig(restarts=7, seed=11))
        return res, starts[0]
    res, starts = search()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_candidates", _candidates_before_the_cache)
        want, want_starts = search()
    assert starts.tobytes() == want_starts.tobytes() and len(starts) == 7
    assert res == want and res.diagnostics.n_evals == want.diagnostics.n_evals


def test_search_reuses_its_candidates():
    cfg = SearchConfig(restarts=6, seed=77)
    _candidates.cache_clear()
    first = maximize_secrecy(RAGGED[0], cfg=cfg)
    assert _candidates.cache_info().misses == 1
    second = maximize_secrecy(RAGGED[0], cfg=cfg)
    assert _candidates.cache_info().hits == 1
    assert (first.beta, first.rate, first.diagnostics) == \
        (second.beta, second.rate, second.diagnostics)


@pytest.mark.parametrize("L, count", [(13, 1_598_719), (16, 43_051_186)])
def test_search_refuses_more_candidates_than_the_limit(monkeypatch, L, count):
    # the per-layer grid has 3^L points: refused before any grid is built
    def meshgrid(*args, **kwargs):
        raise AssertionError("a candidate grid was built")

    monkeypatch.setattr("numpy.meshgrid", meshgrid)
    net = LayeredNetwork(L=L, nodes_per_layer=(1,) * L, h_s=0.6, h=(0.5,) * (L - 1),
                         h_t=0.3, h_e=0.2, M=L, P_s=5.0, P=5.0, sigma2=1.0)
    with pytest.raises(ValueError, match=f"{count} candidates exceed the limit of 1000000"):
        maximize_secrecy(net)
    # L = 12 (535,814 candidates) passes the guard and reaches the grid
    with pytest.raises(AssertionError, match="a candidate grid was built"):
        _candidates((1,) * 12, 0)


def test_search_with_squares_past_the_float_range():
    # sigma2 times a snooped term squared passes the float range (1e320),
    # yet every power and the eavesdropper's SNR (about 2e-100) are in range
    net = LayeredNetwork.diamond(N=2, h_s=1.0, h_t=1.0, h_e=(1e60, 1.1e60), P_s=1.0,
                                 P=1e200, sigma2=1e100)
    with np.errstate(all="raise"):
        res = maximize_secrecy(net, cfg=SearchConfig(restarts=4))
    assert res.rate.r_s == 0.0
    assert 0.0 <= res.rate.snr_e < 1e-99
    assert all(np.isfinite(v) for v in res.diagnostics.start_objectives)


@pytest.mark.parametrize("changes", [dict(sigma2=1e-320), dict(P_s=1e300, h_s=1e10)])
def test_search_refuses_results_past_the_float_range(changes):
    # sigma2 = 1e-320 takes the destination's SNR past the float range, and
    # P_s h_s^2 = 1e320 the powers themselves: the search raises rather than
    # rank or report values that are not finite
    net = replace(LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.689, h=(0.603,),
                                 h_t=0.203, h_e=0.031, M=2, P_s=5e8, P=500.0, sigma2=1.0),
                  **changes)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OverflowError):
        maximize_secrecy(net, cfg=SearchConfig(restarts=4))


def test_search_refuses_an_infinite_best_rate():
    # every power is in range, but sigma2 = 1e-300 takes the destination's
    # SNR past it: the best rate is inf, and inf - inf is nan, so no final
    # ties with it, and the search raises rather than pick a beta vector
    net = LayeredNetwork.diamond(N=2, h_s=1.0, h_t=1.0, h_e=(0.5, 0.6), P_s=1e10, P=1e10,
                                 sigma2=1e-300)
    with pytest.raises(OverflowError, match="^the search's best secrecy rate is inf$"):
        maximize_secrecy(net)


@pytest.mark.parametrize("net", RAGGED[2:])
def test_lockstep_refinement_matches_solo(net):
    rng = np.random.default_rng(23)
    obj = _Objective(net, tuple(range(net.nodes_per_layer[net.M - 1])))
    dim = sum(net.nodes_per_layer)
    distinct = rng.random((4, dim))
    distinct[3] = 1.0
    starts = distinct[[0, 1, 0, 2, 3, 1, 3]]  # duplicates, out of order
    lines = _lines(net)
    together, evals = _refine(obj, starts, lines)
    alone = [_refine(obj, s[None, :], lines) for s in distinct]
    for k, (best, u, conv) in enumerate(together):
        b1, u1, c1 = alone[[0, 1, 0, 2, 3, 1, 3][k]][0][0]
        assert (best, u.tobytes(), conv) == (b1, u1.tobytes(), c1)
    # the duplicates cost nothing: the memo serves every search they need
    assert evals == _refine(obj, distinct, lines)[1]
    assert evals <= sum(a[1] for a in alone)
    # a converged start, and the same start moved inside the first line,
    # agree outside that line: the first stops after one cycle, yet they
    # share that line's searches
    u = alone[0][0][0][1].copy()
    moved = u.copy()
    moved[lines[0][1]] = u[lines[0][1]] / 2
    pair = np.array([u, moved])
    together, evals = _refine(obj, pair, lines)
    alone = [_refine(obj, s[None, :], lines) for s in pair]
    for (best, u, conv), ((b1, u1, c1),) in zip(together, (a[0] for a in alone)):
        assert (best, u.tobytes(), conv) == (b1, u1.tobytes(), c1)
    assert evals < sum(a[1] for a in alone)


def test_top_k_matches_stable_argsort():
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(1, 60))
        vals = rng.integers(0, 6, n).astype(float)  # many planted ties
        vals[rng.random(n) < 0.2] = -0.0
        if trial % 3 == 0:
            vals = vals + rng.random(n) * 1e-3
        for k in range(1, n + 2):
            np.testing.assert_array_equal(_top_k(vals, k),
                                          np.argsort(-vals, kind="stable")[:k])


def _pinned_network(d: dict) -> LayeredNetwork:
    f = float.fromhex
    return LayeredNetwork(L=d["L"], nodes_per_layer=tuple(d["nodes_per_layer"]),
                          h_s=f(d["h_s"]), h=tuple(map(f, d["h"])), h_t=f(d["h_t"]),
                          h_e=tuple(map(f, d["h_e"])), M=d["M"], P_s=f(d["P_s"]),
                          P=tuple(tuple(map(f, row)) for row in d["P"]),
                          sigma2=f(d["sigma2"]))


def test_oracle_reproduces_its_pins():
    # seeded diamonds and 2-3 layer networks with per-node caps and h_e and
    # random snooped subsets; the pins hold every result and diagnostic to
    # the bit (floats as float.hex)
    cases = json.loads((Path(__file__).parent / "data" / "oracle_pins.json").read_text())
    assert len(cases) == 12
    for case in cases:
        net = _pinned_network(case["network"])
        res = maximize_secrecy(net, snooped=case["snooped"],
                               cfg=SearchConfig(restarts=case["restarts"], seed=case["seed"]))
        want = case["expect"]
        for key in ("beta", "beta_max"):
            rows = getattr(res.beta, key)
            assert [[b.hex() for b in row] for row in rows] == want[key], case
        assert {k: v.hex() for k, v in asdict(res.rate).items()} == want["rate"], case
        diag = res.diagnostics.as_dict()
        diag["start_objectives"] = [v.hex() for v in diag["start_objectives"]]
        assert diag == want["diagnostics"], case


@pytest.mark.parametrize("end, f", [(0, lambda x: math.exp(-x)),
                                    (_LINE_SCAN.size - 1, lambda x: x * x)])
def test_end_paths_are_the_points_the_golden_search_evaluates(end, f):
    # on the bracket of each end of the line scan, a line falling toward 0
    # or rising toward 1 makes the golden-section search ask for that end's
    # stored points, in their order, bit for bit; the batch holds them, in
    # that order, after the scan
    scan = _LINE_SCAN.tolist()
    lo, hi = scan[max(end - 1, 0)], scan[min(end + 1, len(scan) - 1)]
    asked = []
    _golden_max(lambda x: asked.append(x) or f(x), lo, hi)
    col = len(scan) + (0 if end == 0 else _GOLDEN_STEPS + 2)
    path = _LINE_BATCH[col:col + _GOLDEN_STEPS + 2].tolist()
    assert [x.hex() for x in path] == [x.hex() for x in asked]
    assert [x.hex() for x in _LINE_BATCH[col:col + len(path)].tolist()] == [x.hex() for x in asked]
    assert [_BATCH_COLUMN[x] for x in path] == list(range(col, col + len(path)))
    assert len(path) == _GOLDEN_STEPS + 2 and all(lo < x < hi for x in path)
    assert sorted(_BATCH_COLUMN.values()) == list(range(_LINE_BATCH.size))
    assert _LINE_BATCH[:len(scan)].tolist() == scan
    assert _LINE_BATCH.size == len(scan) + 2 * (_GOLDEN_STEPS + 2)


def test_a_batch_column_is_formed_only_when_read():
    # at u = 1 the destination's power passes the float range, and the
    # kernel raises there; at u = 0 every power is in range. A batch holding
    # both gives the finite column's value without touching the other, and
    # the other raises only when read, as the point itself does
    net = LayeredNetwork.diamond(N=1, h_s=1.0, h_t=1e10, h_e=0.5, P_s=1.0, P=1e300, sigma2=1.0)
    obj = _Objective(net, (0,))
    value = obj.columns(np.array([[0.0, 1.0]]), np.array([obj.start] * 2), 0)
    assert value(0) == obj([0.0])
    for point in (lambda: value(1), lambda: obj([1.0])):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OverflowError):
            point()


def _result_bits(res):
    diag = res.diagnostics.as_dict()
    diag["start_objectives"] = [v.hex() for v in diag["start_objectives"]]
    return ([[b.hex() for b in row] for row in res.beta.beta],
            {k: v.hex() for k, v in asdict(res.rate).items()}, diag)


def _ragged_draw(rng):
    """L 1-3, ragged widths 1-2, every M; a cap per layer or per node, a
    scalar or per-node h_e, and a random nonempty snooped subset of layer M."""
    L = int(rng.integers(1, 4))
    widths = tuple(int(rng.integers(1, 3)) for _ in range(L))
    M = int(rng.integers(1, L + 1))
    P = ([[float(rng.uniform(0.1, 30.0))] * n for n in widths] if rng.random() < 0.5
         else [rng.uniform(0.1, 30.0, n).tolist() for n in widths])
    h_e = (float(rng.uniform(0.02, 1.0)) if rng.random() < 0.5
           else rng.uniform(0.02, 1.0, widths[M - 1]).tolist())
    net = LayeredNetwork(L=L, nodes_per_layer=widths, h_s=float(rng.uniform(0.05, 1.3)),
                         h=tuple(rng.uniform(0.05, 1.3, L - 1).tolist()),
                         h_t=float(rng.uniform(0.05, 1.3)), h_e=h_e, M=M,
                         P_s=float(rng.uniform(0.1, 30.0)), P=P,
                         sigma2=float(rng.uniform(0.3, 2.0)))
    snoop = np.flatnonzero(rng.random(widths[M - 1]) < 0.6).tolist()
    return net, tuple(snoop) or (int(rng.integers(widths[M - 1])),)


# an extreme_value draw: some of its line batches hold columns past the
# float range, which the search reads, and the kernel rescues
_EXTREME = LayeredNetwork(
    L=1, nodes_per_layer=(2,), h_s=8.34145553313156e+52, h=(), h_t=2.827658315158127e+19,
    h_e=(1.5552364764033838e-149, 5.00483268712105e+140), M=1, P_s=22325.200208972965,
    P=((1.0145271035983704e+35, 5.196464336502346e+86),), sigma2=0.3135421097132975)


def test_end_paths_from_the_batch_change_no_result(monkeypatch):
    # the search with the end brackets' golden-section points read from the
    # line batch, and with none read (an empty table): every beta, rate and
    # diagnostic is the same to the bit, and each golden-section search asks
    # for the same points in the same order
    rng = np.random.default_rng(2024)
    cases = [_ragged_draw(rng) for _ in range(300)] + [(_EXTREME, None)]
    searches, golden = [], oracle._golden_max

    def spy(f, lo, hi):
        xs = []
        searches.append(((lo, hi), xs))
        return golden(lambda x: xs.append(x) or f(x), lo, hi)
    monkeypatch.setattr(oracle, "_golden_max", spy)

    def run():
        searches.clear()
        return ([_result_bits(maximize_secrecy(net, snoop, SearchConfig(restarts=2)))
                 for net, snoop in cases], list(searches))
    served, served_searches = run()
    monkeypatch.setattr(oracle, "_BATCH_COLUMN", {})
    assert run() == (served, served_searches)
    # the draw holds end-peaked searches that keep stepping toward their end
    # throughout, and ones whose comparisons leave that one-way path, which
    # then evaluate their remaining points alone
    scan = _LINE_SCAN.tolist()
    k = len(scan) + _GOLDEN_STEPS + 2
    ends = {(scan[0], scan[1]): _LINE_BATCH[len(scan):k].tolist(),
            (scan[-2], scan[-1]): _LINE_BATCH[k:].tolist()}
    one_way = [xs == ends[b] for b, xs in served_searches if b in ends]
    assert sum(one_way) >= 1000 and len(one_way) - sum(one_way) >= 30, \
        (len(served_searches), len(one_way), sum(one_way))


def test_extreme_draw_reads_batch_columns_past_the_float_range(monkeypatch):
    # _EXTREME's line batches hold columns whose state is not finite, and the
    # search reads some of them, by the kernel: the result is the same with
    # and without the end paths read from the batch
    nonfinite, columns = [], _Objective.columns

    def spy(self, X, states, l0):
        nonfinite.append(int((~np.isfinite(self._terms(X, states, l0)[2])).sum()))
        return columns(self, X, states, l0)
    monkeypatch.setattr(_Objective, "columns", spy)
    served = _result_bits(maximize_secrecy(_EXTREME, cfg=SearchConfig(restarts=6)))
    assert sum(nonfinite) > 0
    monkeypatch.setattr(oracle, "_BATCH_COLUMN", {})
    assert _result_bits(maximize_secrecy(_EXTREME, cfg=SearchConfig(restarts=6))) == served
