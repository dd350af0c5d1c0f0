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
    extract_coefficients,
    lemma_beta_M,
    maximize_secrecy,
    optimal_scaling,
    rates,
    verify_against_closed_form,
)
from anc_secrecy.cli import SweepSpec, main
from anc_secrecy.layered import _coefficients, _lemma_points, closed_form_applies, optimal_rates
from anc_secrecy.network import cascade
from conftest import (
    config_to_dict,
    diamond_opt,
    extreme_value,
    max_scaling_with_layer,
    random_ecgal,
    random_feasible_scaling,
    reduced_snrs,
)

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


def capped_draw(rng, per_node_off_m: bool) -> LayeredNetwork:
    """Criterion 4's gains on L 2-3 layers with a common h_e. By default the
    widths are 1-3 and each layer has its own common cap; per_node_off_m
    gives width 2 and two different caps on one layer other than M."""
    L = int(rng.integers(2, 4))
    M = int(rng.integers(1, L + 1))
    nodes = (2,) * L if per_node_off_m else tuple(int(rng.integers(1, 4)) for _ in range(L))
    caps = [(float(rng.uniform(0.1, 30.0)),) * n for n in nodes]
    if per_node_off_m:
        k = int(rng.choice([l for l in range(L) if l != M - 1]))
        caps[k] = tuple(float(rng.uniform(0.1, 30.0)) for _ in range(2))
    return LayeredNetwork(
        L=L, nodes_per_layer=nodes, h_s=float(rng.uniform(0.05, 1.3)),
        h=tuple(float(rng.uniform(0.05, 1.3)) for _ in range(L - 1)),
        h_t=float(rng.uniform(0.05, 1.3)), h_e=float(rng.uniform(0.02, 1.0)), M=M,
        P_s=float(rng.uniform(0.1, 30.0)), P=tuple(caps),
        sigma2=float(rng.uniform(0.3, 2.0)))


class TestExtraction:
    def test_diamond_reduction(self):
        # no downstream layers: alpha = 1, F = 0, mu = nu = 1, d1 = 0,
        # so A = snr = P_s h_s^2 / sigma2 and the quartic reproduces the
        # diamond form
        net = LayeredNetwork.diamond(N=3, h_s=0.6, h_t=0.3, h_e=0.2, P_s=5, P=5,
                                     sigma2=1)
        co = extract_coefficients(net)
        assert co.alpha == 1.0
        assert co.F == 0.0
        assert co.snr == pytest.approx(5 * 0.36, rel=1e-14)
        assert co.mu == pytest.approx(1.0, rel=1e-10)
        assert co.nu == pytest.approx(1.0, rel=1e-10)
        assert co.d1 == pytest.approx(0.0, abs=1e-10)

    def test_reconstruction_at_fresh_points(self):
        # SNR_t rebuilt from (A, B, C, D) matches direct propagation at 100
        # fresh layer-M vectors, 1e-10 relative
        rng = np.random.default_rng(7)
        net = random_ecgal(rng, L_max=3, N_max=2)
        while net.L != 3 or net.nodes_per_layer[0] != 2:
            net = random_ecgal(rng, L_max=3, N_max=2)
        co = extract_coefficients(net)
        h_m = net.gain_out(net.M - 1)
        bounds = beta_max_vector(net)
        bmax_m = bounds.beta[net.M - 1][0]
        for _ in range(100):
            vec = rng.uniform(0, bmax_m, size=net.nodes_per_layer[0])
            sv = max_scaling_with_layer(net, net.M - 1, vec)
            direct = rates(net, sv)
            s_val = float(vec.sum()) ** 2
            q_val = float((vec ** 2).sum())
            snr_t, snr_e = reduced_snrs(co, h_m, net.common_h_e, s_val, q_val)
            assert snr_t == pytest.approx(direct.snr_t, rel=1e-10, abs=1e-13)
            assert snr_e == pytest.approx(direct.snr_e, rel=1e-10, abs=1e-13)

    def test_reconstruction_single_node_layers(self):
        # with one node in layer M, (sum beta)^2 and sum beta^2 coincide;
        # the coefficients must still reproduce the real network's SNRs
        rng = np.random.default_rng(13)
        for _ in range(20):
            net = random_ecgal(rng, L_max=3, N_max=1)
            co = extract_coefficients(net)
            h_m = net.gain_out(net.M - 1)
            bmax_m = beta_max_vector(net).beta[net.M - 1][0]
            for _ in range(10):
                b = float(rng.uniform(0, bmax_m))
                sv = max_scaling_with_layer(net, net.M - 1, (b,))
                direct = rates(net, sv)
                snr_t, snr_e = reduced_snrs(co, h_m, net.common_h_e, b ** 2, b ** 2)
                assert snr_t == pytest.approx(direct.snr_t, rel=1e-10, abs=1e-13)
                assert snr_e == pytest.approx(direct.snr_e, rel=1e-10, abs=1e-13)

    def test_two_node_coefficients_match_printed_form(self):
        # at N = 2 the general stationary coefficients equal the two-node
        # form written with (2F+1) factors
        rng = np.random.default_rng(21)
        for _ in range(20):
            net = random_ecgal(rng, L_max=3, N_max=2)
            if net.nodes_per_layer[0] != 2:
                continue
            co = extract_coefficients(net)
            hm2 = net.gain_out(net.M - 1) ** 2
            he2 = net.common_h_e ** 2
            t = 2 * co.F + 1
            cal_c = co.nu * (hm2 * co.alpha - he2 * co.nu)
            # the printed form's rho E and lam E are snr and d1 snr
            cal_b = 4 * hm2 * he2 * co.nu * ((co.alpha - co.mu) * t - 2 * co.d1 * co.snr)
            cal_a = 4 * hm2 * he2 * (
                he2 * co.alpha * co.nu * t * (t + 2 * co.snr)
                - hm2 * (2 * co.d1 * co.snr + t * co.mu)
                * (t * co.mu + 2 * (co.d1 + co.alpha) * co.snr))
            assert co.cal_C == pytest.approx(cal_c, rel=1e-12, abs=1e-300)
            assert co.cal_B == pytest.approx(cal_b, rel=1e-9, abs=1e-18)
            assert co.cal_A == pytest.approx(cal_a, rel=1e-9, abs=1e-18)

    def test_fig5a_coefficients_feed_the_optimum(self):
        co = extract_coefficients(FIG5A)
        bmax_m = beta_max_vector(FIG5A).beta[1][0]
        sol = lemma_beta_M(co, bmax_m)
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
            assert co.snr >= 0 and co.F >= 0 and co.alpha >= 0
            assert co.mu >= -1e-9 and co.nu >= -1e-9

    def test_coefficients_past_the_float_range_raise(self):
        # the quadratic's coefficients grow as P^2 and pass the float range at
        # P = 1e200, where an infinite cal_A would give beta_M = 0 and r_s = 0
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(OverflowError, match="not finite"):
            extract_coefficients(replace(FIG5A, P=1e200))


class TestLemmaBetaM:
    def test_zero_branch(self):
        net = LayeredNetwork.diamond(N=2, h_s=0.5, h_t=0.2, h_e=0.6, P_s=4, P=4,
                                     sigma2=1)
        co = extract_coefficients(net)
        sol = lemma_beta_M(co, 1.0)
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
        # beta^2 = 1 / (n |h_t h_e| sqrt(t (t + n snr))), t = nF + 1
        checked = 0
        for net in edge_draws(np.random.default_rng(19), 500):
            sol = optimal_scaling(net)
            if not sol.layer_m.sign_positive:
                continue
            checked += 1
            co = extract_coefficients(net)
            n = net.nodes_per_layer[0]
            t = n * co.F + 1
            root = 1 / math.sqrt(n * abs(net.h_t * net.common_h_e)
                                 * math.sqrt(t * (t + n * co.snr)))
            assert sol.layer_m.beta_glb == pytest.approx(root, rel=1e-12)
        assert checked > 400

    @staticmethod
    def _batch(net, P_s):
        m = net.M - 1
        allmax = cascade(net, lambda l, bmax: bmax, P_s)
        co = _coefficients(net, net.nodes_per_layer[m], net.common_h_e, allmax)
        return lemma_beta_M(co, allmax.bounds[m][0])

    @staticmethod
    def _alone(net, p):
        net_p = replace(net, P_s=p)
        m = net.M - 1
        co = extract_coefficients(net_p)
        sol = lemma_beta_M(co, beta_max_vector(net_p).beta[m][0])
        if sol.sign_positive:
            # the root on Python floats, by math.sqrt, with B^2 as B * B
            denom = abs(co.cal_B) + math.sqrt(co.cal_B * co.cal_B
                                              + 4.0 * abs(co.cal_A) * co.cal_C)
            assert sol.beta_glb == (math.sqrt(2.0 * co.cal_C / denom) if denom else math.inf)
        return sol

    @pytest.mark.parametrize("net, covers", [
        (FIG5A, lambda sol: 0 < sol.clipped.sum() < sol.clipped.size),
        (LayeredNetwork.diamond(N=2, h_s=0.5, h_t=0.2, h_e=0.6, P_s=4, P=4, sigma2=1),
         lambda sol: not sol.sign_positive),
        (replace(FIG5A, h_e=0.0), lambda sol: np.isinf(sol.beta_glb).all())],
        ids=["clipped_and_not", "sign_not_positive", "no_eavesdropper"])
    def test_batch_equals_each_point_alone(self, net, covers):
        P_s = np.geomspace(1.0, 1e9, 37)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            batch = self._batch(net, P_s)
            for k, p in enumerate(P_s.tolist()):
                sol = self._alone(net, p)
                assert type(sol.beta_opt) is float and type(sol.clipped) is bool
                assert sol == replace(batch, beta_opt=batch.beta_opt[k],
                                      beta_glb=batch.beta_glb[k], clipped=batch.clipped[k])
        assert covers(batch)

    @pytest.mark.parametrize("net, bound, covers", [
        (FIG5A, None, lambda sol: math.isfinite(sol.beta_glb)),
        (LayeredNetwork.diamond(N=2, h_s=0.5, h_t=0.2, h_e=0.6, P_s=4, P=4, sigma2=1), None,
         lambda sol: not sol.sign_positive),
        (replace(FIG5A, h_e=0.0), None, lambda sol: sol.beta_glb == math.inf and sol.clipped),
        (FIG5A, math.nan, lambda sol: math.isnan(sol.beta_opt) and not sol.clipped),
        (replace(FIG5A, h_e=0.0), math.nan, lambda sol: math.isnan(sol.beta_opt))],
        ids=["interior", "sign_not_positive", "no_eavesdropper", "nan_bound",
             "nan_bound_no_eavesdropper"])
    def test_point_on_floats_equals_a_one_column_batch(self, net, bound, covers):
        # a point runs on floats, and its minimum propagates nan as
        # np.minimum does: it is the one-column batch, bit for bit
        m = net.M - 1
        sols = []
        for P_s in (None, np.array([net.P_s])):
            allmax = cascade(net, lambda l, bmax: bmax, P_s)
            co = _coefficients(net, net.nodes_per_layer[m], net.common_h_e, allmax)
            bmax = allmax.bounds[m][0]
            if bound is not None:
                bmax = bound if P_s is None else np.array([bound])
            sols.append(lemma_beta_M(co, bmax))
        point, column = sols
        assert (type(point.beta_opt), type(point.beta_glb), type(point.clipped)) == \
            (float, float, bool)
        assert point.sign_positive == column.sign_positive
        assert np.array([point.beta_opt, point.beta_glb, point.clipped]).tobytes() == \
            np.array([column.beta_opt[0], column.beta_glb[0], column.clipped[0]]).tobytes()
        assert covers(point)

    def test_root_denominator_underflowing_to_zero_clips(self):
        # h_e > 0, but cal_C = nu * sign underflows to 0, and cal_A and cal_B
        # with it: the root's denominator is 0, so beta_glb = inf and layer M
        # clips to its bound, as without an eavesdropper
        net = LayeredNetwork(
            L=3, nodes_per_layer=(3, 2, 1), h_s=1.2939473979909746,
            h=(2.6276495435959335e+83, 1.37949096783336e-31), h_t=8.242845192508372e-81,
            h_e=8.527216863236646e-144, M=2, P_s=0.5458693363677517,
            P=9.792624044207778e-32, sigma2=5.646733537664175e-92)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            alone = optimal_scaling(net).layer_m
            batch = self._batch(net, np.array([net.P_s, 2 * net.P_s]))
        assert alone.sign_positive and alone.clipped and alone.beta_glb == math.inf
        assert batch.clipped.all() and np.isinf(batch.beta_glb).all()

    def test_overflowing_point_raises_in_a_batch_as_alone(self):
        # the discriminant passes the float range from about P_s = 1e-30 on
        net = LayeredNetwork(L=2, nodes_per_layer=(1, 1), h_s=0.5, h=(0.8,), h_t=0.6,
                             h_e=0.7, M=1, P_s=1.0, P=1e60, sigma2=1e-100)
        P_s = np.array([1e-90, 1e-60, 1e-40, 1e3])
        fits = self._batch(net, P_s[:3])
        assert [self._alone(net, p).beta_opt for p in P_s[:3].tolist()] \
            == fits.beta_opt.tolist()
        for call in (lambda: self._batch(net, P_s), lambda: self._alone(net, 1e3)):
            with pytest.raises(OverflowError, match="the layer-M quadratic's root is not finite"):
                call()

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
        path.write_text(json.dumps(config_to_dict(ExperimentConfig(network=net, mode="solve"))),
                        encoding="utf-8")
        assert main(["solve", "--config", str(path)]) == 0

    def test_rejects_per_node_caps_off_layer_m(self):
        net = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.7, h=(0.6,),
                             h_t=0.5, h_e=0.1, M=2, P_s=10.0,
                             P=((5.33, 30.5), (10.0, 10.0)), sigma2=1.0)
        with pytest.raises(ValueError, match="one power cap within each layer"):
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
            for n in range(net.nodes_per_layer[0]):
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


class TestLemmaClass:
    """The lemma covers a common h_e with one cap within each layer; widths
    and caps may differ between layers. Criterion 4's restarts and
    tolerance."""

    CFG = SearchConfig(restarts=6, seed=2718)

    def test_ragged_widths_with_per_layer_caps_match_the_oracle(self):
        rng = np.random.default_rng(4242)
        for _ in range(60):
            net = capped_draw(rng, per_node_off_m=False)
            assert closed_form_applies(net)
            rep = verify_against_closed_form(net, cfg=self.CFG)
            assert rep.passed, (net, rep)

    @pytest.mark.parametrize("M", [1, 2])
    def test_source_power_over_noise_past_the_float_range(self, M):
        # P_s / sigma2 = 1e400, though every power and SNR is in range
        net = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=1e-160, h=(0.5,), h_t=0.5,
                             h_e=0.1, M=M, P_s=1e300, P=1e-150, sigma2=1e-100)
        rep = verify_against_closed_form(net, cfg=self.CFG)
        assert rep.passed, rep

    def test_per_node_caps_off_layer_m_go_to_the_search(self):
        # every layer but M at its maximum is no longer optimal there: the
        # search matches or beats that point, and beats it on some draws
        rng = np.random.default_rng(4243)
        beaten = 0
        for _ in range(60):
            net = capped_draw(rng, per_node_off_m=True)
            assert not closed_form_applies(net)
            m = net.M - 1
            allmax = cascade(net, lambda l, bmax: bmax)
            lemma = lemma_beta_M(
                _coefficients(net, net.nodes_per_layer[m], net.common_h_e, allmax),
                float(allmax.bounds[m][0]))
            r_lemma = rates(net, max_scaling_with_layer(net, m, lemma.beta_opt)).r_s
            r_search = maximize_secrecy(net, cfg=self.CFG).rate.r_s
            tol = max(1e-4, 1e-4 * max(abs(r_lemma), abs(r_search)))
            assert r_search >= r_lemma - tol, net
            beaten += r_search > r_lemma + tol
        assert beaten > 0

    def test_batched_betas_are_finite_and_within_their_bounds(self):
        # optimal_rates checks no beta itself: the kernel's end test has to
        # catch every beta that ScalingVector would refuse. L 1-3, ragged
        # widths 1-3, every M, per-layer caps, ordinary and extreme values
        rng = np.random.default_rng(4245)
        returned = 0
        for _ in range(1000):
            L = int(rng.integers(1, 4))
            widths = tuple(int(rng.integers(1, 4)) for _ in range(L))
            net = LayeredNetwork(
                L=L, nodes_per_layer=widths, h_s=extreme_value(rng),
                h=tuple(extreme_value(rng) for _ in range(L - 1)), h_t=extreme_value(rng),
                h_e=extreme_value(rng), M=int(rng.integers(1, L + 1)), P_s=1.0,
                P=[[extreme_value(rng)] * n for n in widths], sigma2=extreme_value(rng))
            P_s = np.array([extreme_value(rng) for _ in range(4)])
            with np.errstate(all="ignore"):
                try:
                    optimal_rates(net, P_s)
                except OverflowError:
                    continue
                opt, allmax, _ = _lemma_points(net, P_s)
            returned += 1
            # the all-max betas are their own bounds
            for c in (opt, allmax):
                for brow, mrow in zip(c.betas, c.bounds):
                    for b, m in zip(brow, mrow):
                        ok = np.isfinite(b) & (b >= 0) & (b <= m * (1 + 1e-9) + 1e-15)
                        assert ok.all(), (net, P_s, b, m)
        assert returned > 500, returned

    def test_sweep_accepts_ragged_widths_with_per_layer_caps(self, tmp_path):
        rng = np.random.default_rng(4244)
        for i in range(3):
            net = capped_draw(rng, per_node_off_m=False)
            cfg = ExperimentConfig(network=net, mode="sweep",
                                   sweep=SweepSpec(1.0, 1e9, 5, "log"))
            path = tmp_path / f"ragged{i}.json"
            path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
            assert main(["sweep", "--config", str(path),
                         "--output", str(tmp_path / f"ragged{i}.csv")]) == 0


def test_lemma_reads_the_sign_from_its_coefficients():
    # the sign is formed once, with the quadratic, from the network's gains;
    # lemma_beta_M takes it from there, so a replaced sign decides alone
    m = FIG5A.M - 1
    co = extract_coefficients(FIG5A)
    want = FIG5A.gain_out(m) ** 2 * co.alpha - FIG5A.common_h_e ** 2 * co.nu
    assert co.sign.hex() == want.hex() and co.sign > 0
    bmax = beta_max_vector(FIG5A).beta[m][0]
    assert lemma_beta_M(co, bmax).sign_positive
    sol = lemma_beta_M(replace(co, sign=-1.0), bmax)
    assert (sol.beta_opt, sol.beta_glb, sol.clipped, sol.sign_positive) == (0.0, 0.0, False, False)
    batch = lemma_beta_M(replace(co, sign=-1.0), np.full(3, bmax))
    assert not batch.beta_opt.any() and not batch.beta_glb.any() and not batch.sign_positive


# an eavesdropper gain whose square passes the float range
_HUGE_HE = (1e155, 1e160, 1e300, -1e300)


@pytest.mark.parametrize("h_e", _HUGE_HE)
@pytest.mark.parametrize("L, M", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_eavesdropper_gain_past_the_square_limit_gives_zero(h_e, L, M):
    # the lemma's sign is <= 0 there: beta_M = 0 and r_s = 0, without the
    # quadratic, for a point and a batch alike, and the search agrees
    net = LayeredNetwork(L=L, nodes_per_layer=(2,) * L, h_s=1.0, h=(0.7,) * (L - 1), h_t=1.0,
                         h_e=h_e, M=M, P_s=10.0, P=10.0, sigma2=1.0)
    co = extract_coefficients(net)
    assert co.sign < 0 and math.isnan(co.cal_A)
    sol = optimal_scaling(net)
    assert sol.beta.beta[M - 1] == (0.0, 0.0) and not sol.layer_m.sign_positive
    assert sol.rate.r_s == 0.0
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        opt, _ = optimal_rates(net, [1.0, 10.0, 1e6])
    assert opt.r_s == [0.0] * 3
    rep = verify_against_closed_form(net, SearchConfig(restarts=6))
    assert rep.passed and rep.rate_oracle == 0.0


def test_eavesdropper_gain_past_the_square_limit_with_an_overflowed_nu():
    # sigma2 = 1e300 sends d3, and so nu, past the float range, while the
    # true nu is above 1e300: the sign is truly negative, and the closed
    # form answers as the search does
    net = LayeredNetwork(L=2, nodes_per_layer=(1, 1), h_s=5.426, h=(0.1196,), h_t=1.7797,
                         h_e=1e160, M=1, P_s=1.0, P=63.11, sigma2=1e300)
    co = extract_coefficients(net)
    assert co.nu == math.inf and co.sign == -math.inf
    rep = verify_against_closed_form(net, SearchConfig(restarts=6))
    assert rep.passed and rep.rate_closed == rep.rate_oracle == 0.0


def test_eavesdropper_gain_past_the_square_limit_with_a_positive_sign_named():
    # nu is tiny beside h_M^2 alpha / h_e^2, so the sign is positive and the
    # quadratic needs h_e^2: the error names h_e
    net = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=1.0, h=(1e154,), h_t=1.0,
                         h_e=1.4e154, M=1, P_s=1.0, P=1e-10, sigma2=1e-300)
    for call in (extract_coefficients, optimal_scaling):
        with pytest.raises(OverflowError,
                           match=r"^h_e: its square overflows the float range, got 1\.4e\+154$"):
            call(net)
