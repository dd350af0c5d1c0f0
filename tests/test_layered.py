"""Layered closed form: coefficient extraction, stationary point, assembly."""
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from anc_secrecy import (
    ExperimentConfig,
    LayeredNetwork,
    SearchConfig,
    beta_max_vector,
    diamond_opt,
    extract_coefficients,
    lemma_beta_M,
    maximize_secrecy,
    max_scaling_with_layer,
    optimal_scaling,
    rates,
    reduced_snrs,
)
from anc_secrecy.cli import main
from conftest import random_ecgal, random_feasible_scaling

FIG5A = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.689, h=(0.603,),
                       h_t=0.203, h_e=0.031, M=2, P_s=500.0, P=500.0, sigma2=1.0)


def edge_draws(rng, count):
    """Lemma-grade networks with M = L and h_e = h_t (1 - eps), eps
    log-uniform in [1e-16, 1e-8]: the sign condition holds by a hair, where
    a stationary quadratic written with differences of large terms cancels."""
    for _ in range(count):
        net = random_ecgal(rng)
        eps = 10.0 ** rng.uniform(-16, -8)
        yield replace(net, M=net.L, h_e=net.h_t * (1 - eps))


class TestExtraction:
    def test_diamond_reduction(self):
        # no downstream layers: alpha = 1, F = 0, mu = nu = 1, lam = 0,
        # A = E = h_s^2 and the quartic reproduces the diamond form
        net = LayeredNetwork.diamond(N=3, h_s=0.6, h_t=0.3, h_e=0.2, P_s=5, P=5,
                                     sigma2=1)
        co = extract_coefficients(net)
        assert co.alpha == 1.0
        assert co.F == 0.0
        assert co.E == pytest.approx(0.36, rel=1e-14)
        assert co.A == pytest.approx(co.alpha * co.E, rel=1e-14)
        assert co.mu == pytest.approx(1.0, rel=1e-10)
        assert co.nu == pytest.approx(1.0, rel=1e-10)
        assert co.lam == pytest.approx(0.0, abs=1e-10)
        assert co.C == co.mu and co.D == co.nu

    def test_reconstruction_at_fresh_points(self):
        # SNR_t rebuilt from (A, B, C, D) matches direct propagation at 100
        # fresh layer-M vectors, 1e-10 relative
        rng = np.random.default_rng(7)
        net = random_ecgal(rng, L_max=3, N_max=2)
        while net.L != 3 or net.uniform_N != 2:
            net = random_ecgal(rng, L_max=3, N_max=2)
        co = extract_coefficients(net)
        rho = net.P_s / net.sigma2
        h_m = net.gain_out(net.M - 1)
        bounds = beta_max_vector(net)
        bmax_m = bounds.beta[net.M - 1][0]
        for _ in range(100):
            vec = rng.uniform(0, bmax_m, size=net.uniform_N)
            sv = max_scaling_with_layer(net, net.M - 1, vec)
            direct = rates(net, sv)
            s_val = float(vec.sum()) ** 2
            q_val = float((vec ** 2).sum())
            snr_t, snr_e = reduced_snrs(co, h_m, net.common_h_e, rho, s_val, q_val)
            assert snr_t == pytest.approx(direct.snr_t, rel=1e-10, abs=1e-13)
            assert snr_e == pytest.approx(direct.snr_e, rel=1e-10, abs=1e-13)

    def test_reconstruction_single_node_layers(self):
        # with one node in layer M, (sum beta)^2 and sum beta^2 coincide;
        # the coefficients must still reproduce the real network's SNRs
        rng = np.random.default_rng(13)
        for _ in range(20):
            net = random_ecgal(rng, L_max=3, N_max=1)
            co = extract_coefficients(net)
            rho = net.P_s / net.sigma2
            h_m = net.gain_out(net.M - 1)
            bmax_m = beta_max_vector(net).beta[net.M - 1][0]
            for _ in range(10):
                b = float(rng.uniform(0, bmax_m))
                sv = max_scaling_with_layer(net, net.M - 1, (b,))
                direct = rates(net, sv)
                snr_t, snr_e = reduced_snrs(co, h_m, net.common_h_e, rho,
                                            b ** 2, b ** 2)
                assert snr_t == pytest.approx(direct.snr_t, rel=1e-10, abs=1e-13)
                assert snr_e == pytest.approx(direct.snr_e, rel=1e-10, abs=1e-13)

    def test_two_node_coefficients_match_printed_form(self):
        # at N = 2 the general stationary coefficients equal the two-node
        # form written with (2F+1) factors
        rng = np.random.default_rng(21)
        for _ in range(20):
            net = random_ecgal(rng, L_max=3, N_max=2)
            if net.uniform_N != 2:
                continue
            co = extract_coefficients(net)
            rho = net.P_s / net.sigma2
            hm2 = net.gain_out(net.M - 1) ** 2
            he2 = net.common_h_e ** 2
            t = 2 * co.F + 1
            cal_c = co.nu * (hm2 * co.alpha - he2 * co.nu)
            cal_b = 4 * hm2 * he2 * co.nu * ((co.alpha - co.mu) * t - 2 * co.lam * co.E)
            cal_a = 4 * hm2 * he2 * (
                he2 * co.alpha * co.nu * t * (t + 2 * rho * co.E)
                - hm2 * (2 * co.lam * co.E + t * co.mu)
                * (t * co.mu + 2 * (co.lam + rho * co.alpha) * co.E))
            assert co.cal_C == pytest.approx(cal_c, rel=1e-12, abs=1e-300)
            assert co.cal_B == pytest.approx(cal_b, rel=1e-9, abs=1e-18)
            assert co.cal_A == pytest.approx(cal_a, rel=1e-9, abs=1e-18)

    def test_fig5a_coefficients_feed_the_optimum(self):
        co = extract_coefficients(FIG5A)
        bmax_m = beta_max_vector(FIG5A).beta[1][0]
        sol = lemma_beta_M(co, FIG5A.h_t, FIG5A.common_h_e, bmax_m)
        # frozen by an independent scratch derivation: the interior point
        # exceeds the bound, so the optimum clips at beta_max
        assert sol.sign_positive
        assert sol.clipped
        assert sol.beta_opt == pytest.approx(0.8294871274138641, rel=1e-12)

    def test_dead_layer_M_gain_silences_layer_M(self):
        # nothing layer M sends reaches the destination, so the sign
        # condition fails, layer M stays silent and the rate is zero, as the
        # search finds
        net = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.5, h=(0.0,),
                             h_t=0.4, h_e=0.2, M=1, P_s=4, P=4, sigma2=1)
        sol = optimal_scaling(net)
        assert not sol.layer_m.sign_positive
        assert sol.beta.beta[0] == (0.0, 0.0)
        res = maximize_secrecy(net, cfg=SearchConfig(restarts=6, seed=0))
        assert sol.rate.r_s == 0.0
        assert res.rate.r_s == 0.0

    def test_nonnegative_compounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            net = random_ecgal(rng)
            co = extract_coefficients(net)
            assert co.E >= 0 and co.F >= 0 and co.alpha >= 0
            assert co.mu >= -1e-9 and co.nu >= -1e-9


class TestLemmaBetaM:
    def test_zero_branch(self):
        net = LayeredNetwork.diamond(N=2, h_s=0.5, h_t=0.2, h_e=0.6, P_s=4, P=4,
                                     sigma2=1)
        co = extract_coefficients(net)
        sol = lemma_beta_M(co, net.h_t, net.common_h_e, 1.0)
        assert not sol.sign_positive
        assert sol.beta_opt == 0.0

    def test_sign_condition_soundness(self):
        # positive sign condition forces cal_A < 0 and cal_C > 0
        rng = np.random.default_rng(17)
        positives = 0
        for _ in range(300):
            net = random_ecgal(rng)
            co = extract_coefficients(net)
            h_m = net.gain_out(net.M - 1)
            if h_m ** 2 * co.alpha - net.common_h_e ** 2 * co.nu > 0:
                positives += 1
                assert co.cal_A < 0
                assert co.cal_C > 0
        assert positives > 50  # the draw exercises the branch
        for net in edge_draws(np.random.default_rng(18), 4000):
            co = extract_coefficients(net)
            if net.h_t ** 2 * co.alpha - net.common_h_e ** 2 * co.nu > 0:
                assert co.cal_A < 0
                assert co.cal_C > 0

    def test_barely_positive_sign_gives_sign_free_root(self):
        # at M = L, cal_B = 0 and the root does not depend on the sign:
        # beta^2 = 1 / (n |h_t h_e| sqrt(t (t + n rho E))), t = nF + 1
        checked = 0
        for net in edge_draws(np.random.default_rng(19), 500):
            sol = optimal_scaling(net)
            if not sol.layer_m.sign_positive:
                continue
            checked += 1
            co = extract_coefficients(net)
            n, rho = net.uniform_N, net.P_s / net.sigma2
            t = n * co.F + 1
            root = 1 / math.sqrt(n * abs(net.h_t * net.common_h_e)
                                 * math.sqrt(t * (t + n * rho * co.E)))
            assert sol.layer_m.beta_glb == pytest.approx(root, rel=1e-12)
        assert checked > 400

    def test_diamond_specialization_exact(self):
        # lemma path on L=1 equals the diamond closed form to machine precision
        rng = np.random.default_rng(31)
        for _ in range(100):
            net = random_ecgal(rng, L_max=1)
            d_sol = diamond_opt(net)
            l_sol = optimal_scaling(net)
            b_l = l_sol.beta.beta[0][0]
            assert b_l == pytest.approx(d_sol.beta_opt, rel=1e-12, abs=1e-15)
            assert l_sol.rate.r_s == pytest.approx(d_sol.rate.r_s, rel=1e-12,
                                                   abs=1e-15)


class TestOptimalScaling:
    def test_fig5a_against_search(self):
        sol = optimal_scaling(FIG5A)
        res = maximize_secrecy(FIG5A, cfg=SearchConfig(restarts=8, seed=2))
        assert sol.rate.r_s == pytest.approx(res.rate.r_s, abs=1e-3)
        assert sol.rate.r_s >= res.rate.r_s - 1e-9

    def test_upstream_and_downstream_at_max(self):
        rng = np.random.default_rng(41)
        net = random_ecgal(rng, L_max=3)
        while net.L < 3:
            net = random_ecgal(rng, L_max=3)
        sol = optimal_scaling(net)
        m = net.M - 1
        for l in range(net.L):
            if l == m:
                continue
            assert sol.beta.beta[l] == pytest.approx(sol.beta.beta_max[l], rel=1e-12)

    def test_clipping_branch_all_max(self):
        # tiny eavesdropper gain pushes the interior point past the bound,
        # so the whole network transmits at max; the search agrees
        net = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.7, h=(0.6,),
                             h_t=0.5, h_e=1e-4, M=2, P_s=10.0, P=10.0, sigma2=1.0)
        sol = optimal_scaling(net)
        assert sol.layer_m.clipped
        allmax = beta_max_vector(net)
        assert sol.beta.beta == allmax.beta
        res = maximize_secrecy(net, cfg=SearchConfig(restarts=6, seed=0))
        assert sol.rate.r_s == pytest.approx(res.rate.r_s, abs=1e-6)

    def test_no_eavesdropper_all_max(self):
        net = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.7, h=(0.6,),
                             h_t=0.5, h_e=0.0, M=2, P_s=10.0, P=10.0, sigma2=1.0)
        sol = optimal_scaling(net)
        assert sol.beta.beta == beta_max_vector(net).beta
        assert sol.rate.snr_e == 0.0

    @pytest.mark.parametrize("net", [
        LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.0, h=(0.6,), h_t=0.5,
                       h_e=0.2, M=2, P_s=4.0, P=4.0, sigma2=1.0),
        LayeredNetwork(L=3, nodes_per_layer=(2, 2, 2), h_s=0.7, h=(0.0, 0.6), h_t=0.5,
                       h_e=0.2, M=2, P_s=4.0, P=4.0, sigma2=1.0),
    ], ids=["h_s", "h_1"])
    def test_dead_path_into_layer_M_gives_zero_rate(self, tmp_path, net):
        # nothing of the source reaches layer M, so every scaling has r_s = 0
        sol = optimal_scaling(net)
        res = maximize_secrecy(net, cfg=SearchConfig(restarts=6, seed=0))
        assert sol.rate.r_s == 0.0
        assert res.rate.r_s == 0.0
        path = tmp_path / "dead.json"
        path.write_text(json.dumps(ExperimentConfig(network=net, mode="solve").to_dict()),
                        encoding="utf-8")
        assert main(["solve", "--config", str(path)]) == 0

    def test_rejects_ragged_widths(self):
        net = LayeredNetwork(L=2, nodes_per_layer=(2, 3), h_s=0.7, h=(0.6,),
                             h_t=0.5, h_e=0.1, M=2, P_s=10.0, P=10.0, sigma2=1.0)
        with pytest.raises(ValueError):
            optimal_scaling(net)

    def test_stationarity_when_unclipped(self):
        # central finite difference in each layer-M coordinate, step 1e-6
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 10:
            net = random_ecgal(rng)
            sol = optimal_scaling(net)
            lm = sol.layer_m
            if lm is None or not lm.sign_positive or lm.clipped or lm.beta_opt < 1e-3:
                continue
            checked += 1
            m = net.M - 1
            base = [list(row) for row in sol.beta.beta]
            for n in range(net.uniform_N):
                grads = []
                for s in (+1e-6, -1e-6):
                    vec = list(base[m])
                    vec[n] += s
                    sv = max_scaling_with_layer(net, m, vec)
                    grads.append(rates(net, sv).r_s)
                assert abs(grads[0] - grads[1]) / 2e-6 < 1e-5

    def test_oracle_dominance_random_vectors(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            net = random_ecgal(rng)
            best = optimal_scaling(net).rate.r_s
            for _ in range(500):
                sv = random_feasible_scaling(rng, net)
                assert rates(net, sv).r_s <= best + 1e-9
