"""Symmetric-diamond closed form, subset analysis, and SNR_e^k monotonicity."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anc_secrecy import (
    LayeredNetwork,
    ScalingVector,
    SearchConfig,
    beta_max_vector,
    best_snoop_subset,
    maximize_secrecy,
    rates,
)
from conftest import (
    diamond_opt,
    random_diamond,
    random_feasible_scaling,
    scan_symmetric_diamond,
    snr_e_by_k,
)

FIG4_NET = LayeredNetwork.diamond(N=3, h_s=0.278, h_t=0.379, h_e=0.073,
                                  P_s=10.0, P=10.0, sigma2=1.0)
EXAMPLE1 = LayeredNetwork.diamond(N=3, h_s=0.6, h_t=0.3, h_e=(0.2, 0.6, 0.4),
                                  P_s=5.0, P=5.0, sigma2=1.0)


class TestDiamondOpt:
    def test_eavesdropper_dominates(self):
        net = LayeredNetwork.diamond(N=2, h_s=0.5, h_t=0.3, h_e=0.5, P_s=4, P=4,
                                     sigma2=1)
        sol = diamond_opt(net)
        assert sol.beta_opt == 0.0
        assert sol.rate.r_s == 0.0

    def test_tie_resolves_to_zero(self):
        net = LayeredNetwork.diamond(N=2, h_s=0.5, h_t=0.3, h_e=0.3, P_s=4, P=4,
                                     sigma2=1)
        assert diamond_opt(net).beta_opt == 0.0

    def test_single_relay_no_source_power(self):
        # with P_s h_s^2 = 0 the stationary point collapses to 1/(h_t h_e)
        net = LayeredNetwork.diamond(N=1, h_s=0.4, h_t=0.9, h_e=0.2, P_s=0.0,
                                     P=100.0, sigma2=1.0)
        sol = diamond_opt(net)
        assert sol.beta_glb ** 2 == pytest.approx(1.0 / (0.9 * 0.2), rel=1e-12)

    def test_fig4_parameters_vs_scan(self):
        sol = diamond_opt(FIG4_NET)
        b_scan, r_scan = scan_symmetric_diamond(FIG4_NET, step=1e-4)
        assert sol.beta_opt == pytest.approx(b_scan, abs=1e-4)
        assert sol.rate.r_s == pytest.approx(r_scan, abs=1e-8)

    def test_no_eavesdropper_flag(self):
        net = LayeredNetwork.diamond(N=2, h_s=0.5, h_t=0.4, h_e=0.0, P_s=4, P=4,
                                     sigma2=1)
        sol = diamond_opt(net)
        assert sol.eavesdropper_absent
        assert sol.clipped
        bmax = beta_max_vector(net).beta[0][0]
        assert sol.beta_opt == pytest.approx(bmax, rel=1e-14)
        assert sol.rate.snr_e == 0.0

    def test_rejects_non_diamond(self):
        net = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.5, h=(0.4,),
                             h_t=0.3, h_e=0.1, M=1, P_s=4, P=4, sigma2=1)
        with pytest.raises(ValueError):
            diamond_opt(net)

    def test_rejects_asymmetric_gains(self):
        with pytest.raises(ValueError):
            diamond_opt(EXAMPLE1)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_oracle_dominance(seed):
    # closed-form rate is never beaten by random feasible vectors
    rng = np.random.default_rng(seed)
    net = random_diamond(rng)
    sol = diamond_opt(net)
    best = sol.rate.r_s
    for _ in range(200):
        sv = random_feasible_scaling(rng, net)
        assert rates(net, sv).r_s <= best + 1e-9


def test_oracle_dominance_dense():
    # 10^4 random feasible vectors on a handful of networks
    rng = np.random.default_rng(99)
    for _ in range(5):
        net = random_diamond(rng)
        best = diamond_opt(net).rate.r_s
        for _ in range(10_000):
            sv = random_feasible_scaling(rng, net)
            assert rates(net, sv).r_s <= best + 1e-9


def test_argmax_symmetry():
    # the free search lands on (nearly) equal components when h_t > h_e
    rng = np.random.default_rng(5)
    found = 0
    while found < 8:
        net = random_diamond(rng)
        he = net.common_h_e
        if abs(net.h_t) < 1.4 * abs(he):
            continue
        found += 1
        res = maximize_secrecy(net, cfg=SearchConfig(restarts=6, seed=found))
        flat = res.beta.flat()
        assert np.max(flat) - np.min(flat) < 1e-3


def test_clipping_correctness_gradient():
    # when unclipped, the returned point is stationary: central finite
    # difference of R_s in the common beta is below 1e-5 at step 1e-6
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 10:
        net = random_diamond(rng)
        he = net.common_h_e
        if abs(net.h_t) <= abs(he):
            continue
        sol = diamond_opt(net)
        if sol.clipped:
            continue
        checked += 1
        n = net.nodes_per_layer[0]
        h = 1e-6

        def rs_at(b):
            return rates(net, ScalingVector(beta=((b,) * n,))).r_s

        grad = (rs_at(sol.beta_opt + h) - rs_at(sol.beta_opt - h)) / (2 * h)
        assert abs(grad) < 1e-5


class TestSnoopSubsets:
    def test_example1_case1(self):
        analysis = best_snoop_subset(EXAMPLE1, cfg=SearchConfig(restarts=8, seed=0))
        by_subset = {r.subset: r for r in analysis.results}
        full = by_subset[(0, 1, 2)]
        assert full.beta.flat() == pytest.approx([1.3363, 0.0, 0.0], abs=1e-3)
        assert full.rate.r_e == pytest.approx(0.081749, abs=1e-4)

    def test_example1_case2_beats_full_set(self):
        analysis = best_snoop_subset(EXAMPLE1, cfg=SearchConfig(restarts=8, seed=0))
        by_subset = {r.subset: r for r in analysis.results}
        two = by_subset[(1, 2)]
        assert two.beta.flat() == pytest.approx([1.3363, 0.0, 0.7298], abs=1e-3)
        assert two.rate.r_e == pytest.approx(0.095368, abs=1e-4)
        assert two.rate.r_e > by_subset[(0, 1, 2)].rate.r_e
        assert analysis.best_r_e >= two.rate.r_e

    def test_symmetric_all_max_regime_snoops_everything(self):
        # strong destination advantage forces all-max scaling; snooping more
        # nodes then always helps the eavesdropper
        net = LayeredNetwork.diamond(N=3, h_s=0.9, h_t=0.9, h_e=0.05, P_s=2.0,
                                     P=2.0, sigma2=1.0)
        sol = diamond_opt(net)
        assert sol.clipped
        analysis = best_snoop_subset(net, cfg=SearchConfig(restarts=4, seed=0))
        assert analysis.symmetric_shortcut
        assert analysis.best_subset == (0, 1, 2)

    def test_shortcut_needs_only_layer_m_symmetric(self):
        # the first layer's cap differs from layer M's; permuting layer M's
        # nodes is still a symmetry, so one subset per size suffices
        net = LayeredNetwork(L=2, nodes_per_layer=(2, 3), h_s=0.6, h=(0.5,), h_t=0.4,
                             h_e=0.2, M=2, P_s=5.0, P=((4.0, 4.0), (9.0, 9.0, 9.0)),
                             sigma2=1.0)
        analysis = best_snoop_subset(net, cfg=SearchConfig(restarts=4, seed=0))
        assert analysis.symmetric_shortcut
        assert [r.subset for r in analysis.results] == [(0,), (0, 1), (0, 1, 2)]

    def test_first_width_over_the_subset_limit_runs_no_oracle_call(self, monkeypatch):
        # 2^9 - 1 = 511 subsets exceed the limit of 255 (2^8 - 1)
        class OracleCalled(Exception):
            pass

        def oracle(*args, **kwargs):
            raise OracleCalled

        monkeypatch.setattr("anc_secrecy.diamond.maximize_secrecy", oracle)

        def asymmetric(n):
            return LayeredNetwork.diamond(N=n, h_s=0.6, h_t=0.3,
                                          h_e=tuple(0.1 + 0.01 * i for i in range(n)),
                                          P_s=5.0, P=5.0, sigma2=1.0)

        with pytest.raises(OracleCalled):
            best_snoop_subset(asymmetric(8))
        with pytest.raises(ValueError, match="511 subsets exceeds the limit of 255"):
            best_snoop_subset(asymmetric(9))

    def test_rejects_wide_asymmetric_enumeration(self):
        # 2^21 subsets: rejected unless the symmetric per-size shortcut applies
        wide = LayeredNetwork.diamond(N=21, h_s=0.6, h_t=0.3,
                                      h_e=tuple(0.1 + 0.01 * i for i in range(21)),
                                      P_s=5.0, P=5.0, sigma2=1.0)
        with pytest.raises(ValueError):
            best_snoop_subset(wide)


class TestSnrEByK:
    def test_k_zero(self):
        assert snr_e_by_k(FIG4_NET, 0) == 0.0

    def test_closed_formula(self):
        b = 0.8
        val = snr_e_by_k(FIG4_NET, 2, beta=b)
        rho = 10.0 * 0.278 ** 2
        x = b ** 2 * 0.073 ** 2
        assert val == pytest.approx(rho * 4 * x / (1 + 2 * x), rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_monotone_in_k(self, seed):
        rng = np.random.default_rng(seed)
        net = random_diamond(rng)
        vals = [snr_e_by_k(net, k) for k in range(net.nodes_per_layer[0] + 1)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_fig4_per_k_rates_increase(self):
        # per-k secrecy-optimal scaling, then the eavesdropper's achieved
        # rate grows with the number of snooped nodes
        re_by_k = []
        for k in range(1, 4):
            res = maximize_secrecy(FIG4_NET, snooped=tuple(range(k)),
                                   cfg=SearchConfig(restarts=6, seed=k))
            re_by_k.append(res.rate.r_e)
        assert re_by_k[0] < re_by_k[1] < re_by_k[2]
