"""Network model, bound computation, propagation, and rate evaluation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anc_secrecy import (
    LayeredNetwork,
    RateReport,
    ScalingVector,
    beta_max_vector,
    propagate,
    rates,
)
from conftest import random_feasible_scaling, random_network, rates_by_path_enumeration


EXAMPLE1 = LayeredNetwork.diamond(N=3, h_s=0.6, h_t=0.3, h_e=(0.2, 0.6, 0.4),
                                  P_s=5.0, P=5.0, sigma2=1.0)


class TestValidation:
    def test_rejects_bad_sigma2(self):
        with pytest.raises(ValueError):
            LayeredNetwork.diamond(N=2, h_s=1, h_t=1, h_e=0.1, P_s=1, P=1, sigma2=0.0)

    def test_rejects_bad_M(self):
        with pytest.raises(ValueError):
            LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=1, h=(0.5,), h_t=1,
                           h_e=0.1, M=3, P_s=1, P=1, sigma2=1)

    def test_rejects_wrong_h_length(self):
        with pytest.raises(ValueError):
            LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=1, h=(), h_t=1,
                           h_e=0.1, M=1, P_s=1, P=1, sigma2=1)

    def test_rejects_mismatched_per_node_he(self):
        with pytest.raises(ValueError):
            LayeredNetwork.diamond(N=3, h_s=1, h_t=1, h_e=(0.1, 0.2), P_s=1, P=1,
                                   sigma2=1)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            ScalingVector(beta=((-0.1, 0.0),))

    def test_rejects_beta_above_bound(self):
        with pytest.raises(ValueError):
            ScalingVector(beta=((1.5,),), beta_max=((1.0,),))

    @pytest.mark.parametrize("cls, override, message", [
        (LayeredNetwork, dict(L=0, nodes_per_layer=()), "L must be >= 1"),
        (LayeredNetwork, dict(nodes_per_layer=(2,)), "nodes_per_layer must have L entries"),
        (LayeredNetwork, dict(nodes_per_layer=(2, 0)), "every layer needs at least one node"),
        (LayeredNetwork, dict(P_s=-1.0), "P_s must be >= 0"),
        (LayeredNetwork, dict(P=((5.0, 5.0),)), "per-node P must have one row per layer"),
        (LayeredNetwork, dict(P=((5.0, 5.0), (5.0,))), "P row 2 does not match layer width"),
        (LayeredNetwork, dict(P=((5.0, 5.0), (5.0, -1.0))), "relay powers must be >= 0"),
        (LayeredNetwork, dict(P=-1.0), "relay powers must be >= 0"),
        (ScalingVector, dict(beta_max=((2.0,),)), "beta and beta_max shapes differ")])
    def test_structural_error_messages(self, cls, override, message):
        base = (dict(L=2, nodes_per_layer=(2, 2), h_s=0.6, h=(0.5,), h_t=0.4, h_e=0.2,
                     M=2, P_s=5.0, P=5.0, sigma2=1.0) if cls is LayeredNetwork
                else dict(beta=((1.0, 1.0),), beta_max=((2.0, 2.0),)))
        with pytest.raises(ValueError, match=rf"^{message}$"):
            cls(**{**base, **override})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["h_s", "h", "h_t", "h_e", "h_e_node", "P_s", "P",
                                     "P_node", "sigma2"])
    def test_rejects_non_finite_values(self, key, bad):
        params = dict(L=2, nodes_per_layer=(2, 2), h_s=0.6, h=(0.5,), h_t=0.4,
                      h_e=0.2, M=2, P_s=5.0, P=5.0, sigma2=1.0)
        if key == "h_e_node":
            key, params["h_e"] = "h_e", (0.2, bad)
        elif key == "P_node":
            key, params["P"] = "P", ((5.0, 5.0), (bad, 5.0))
        elif key == "h":
            params["h"] = (bad,)
        else:
            params[key] = bad
        with pytest.raises(ValueError, match=rf"^{key} must be finite"):
            LayeredNetwork(**params)

    @pytest.mark.parametrize("key", ["L", "M", "nodes_per_layer"])
    def test_rejects_non_finite_integers(self, key):
        params = dict(L=1, nodes_per_layer=(2,), h_s=0.6, h=(), h_t=0.4, h_e=0.2,
                      M=1, P_s=5.0, P=5.0, sigma2=1.0)
        params[key] = (math.inf,) if key == "nodes_per_layer" else math.nan
        with pytest.raises(ValueError, match=rf"^{key} must be a finite integer"):
            LayeredNetwork(**params)

    @pytest.mark.parametrize("key", ["L", "M", "nodes_per_layer"])
    def test_rejects_non_integral_integers(self, key):
        # int() would truncate these to a valid, different network
        params = dict(L=2, nodes_per_layer=(2, 2), h_s=0.6, h=(0.5,), h_t=0.4, h_e=0.2,
                      M=2, P_s=5.0, P=5.0, sigma2=1.0)
        params[key] = (2.5, 2) if key == "nodes_per_layer" else 2.5
        with pytest.raises(ValueError, match=rf"^{key} must be a finite integer"):
            LayeredNetwork(**params)
        params[key] = (2.0, 2) if key == "nodes_per_layer" else 2.0
        net = LayeredNetwork(**params)
        assert (net.L, net.M, net.nodes_per_layer) == (2, 2, (2, 2))


class TestBetaMax:
    def test_example1_value(self):
        # beta_max = sqrt(P / (P_s h_s^2 + sigma2)) = sqrt(5 / 2.8)
        sv = beta_max_vector(EXAMPLE1)
        assert sv.beta[0] == pytest.approx((1.3363062095621219,) * 3, rel=1e-12)

    def test_noise_only_input(self):
        net = LayeredNetwork.diamond(N=2, h_s=0.7, h_t=0.3, h_e=0.1, P_s=0.0,
                                     P=5.0, sigma2=1.0)
        sv = beta_max_vector(net)
        assert sv.beta[0][0] ** 2 == pytest.approx(5.0, rel=1e-14)

    def test_two_layer_bounds(self):
        # frozen from an independent front-to-back hand recursion:
        # P_Rx,1 = 500*0.689^2 + 1, then layer 1 at max feeding layer 2
        net = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.689, h=(0.603,),
                             h_t=0.203, h_e=0.031, M=2, P_s=500.0, P=500.0,
                             sigma2=1.0)
        sv = beta_max_vector(net)
        assert sv.beta[0][0] == pytest.approx(1.4483311063630322, rel=1e-12)
        assert sv.beta[1][0] == pytest.approx(0.8294871274138641, rel=1e-12)

    def test_per_node_power_caps(self):
        # nodes of one layer share the received power, so their bounds scale
        # with sqrt of their individual caps
        net = LayeredNetwork(L=1, nodes_per_layer=(3,), h_s=0.6, h=(), h_t=0.3,
                             h_e=0.2, M=1, P_s=5.0, P=((5.0, 1.25, 20.0),),
                             sigma2=1.0)
        sv = beta_max_vector(net)
        b = sv.beta[0]
        assert b[1] == pytest.approx(b[0] / 2, rel=1e-14)
        assert b[2] == pytest.approx(b[0] * 2, rel=1e-14)
        flow = propagate(net, sv)
        for n, cap in enumerate((5.0, 1.25, 20.0)):
            assert b[n] ** 2 * flow.rx_power[0] == pytest.approx(cap, rel=1e-12)


class TestPropagate:
    def test_all_zero_scaling(self):
        net = random_network(np.random.default_rng(0))
        zeros = ScalingVector(beta=tuple((0.0,) * n for n in net.nodes_per_layer))
        flow = propagate(net, zeros)
        if net.L > 1:
            assert flow.signal_power[1] == 0.0
        assert flow.dest_signal == 0.0
        assert flow.dest_noise == 0.0  # destination sees only its own noise

    def test_single_relay_chain(self):
        net = LayeredNetwork(L=1, nodes_per_layer=(1,), h_s=0.8, h=(), h_t=0.5,
                             h_e=0.1, M=1, P_s=3.0, P=2.0, sigma2=0.7)
        beta = 0.9
        flow = propagate(net, ScalingVector(beta=((beta,),)))
        assert flow.dest_signal == pytest.approx(3.0 * 0.64 * beta ** 2 * 0.25, rel=1e-14)
        assert flow.dest_noise == pytest.approx(0.7 * beta ** 2 * 0.25, rel=1e-14)

    def test_example1_optimum_powers(self):
        # frozen by hand: beta = (sqrt(5/2.8), 0, 0), two-path formula
        b = math.sqrt(5.0 / 2.8)
        flow = propagate(EXAMPLE1, ScalingVector(beta=((b, 0.0, 0.0),)))
        assert flow.dest_signal == pytest.approx(0.2892857142857143, rel=1e-13)
        assert flow.dest_noise == pytest.approx(0.16071428571428573, rel=1e-13)
        assert flow.rx_power[0] == pytest.approx(2.8, rel=1e-14)

    def test_rx_power_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            net = random_network(rng)
            sv = random_feasible_scaling(rng, net)
            flow = propagate(net, sv)
            for s, nz, rx in zip(flow.signal_power, flow.noise_power, flow.rx_power):
                assert rx == pytest.approx(s + nz + net.sigma2, rel=1e-12)
                assert rx >= 0 and s >= 0 and nz >= 0


class TestRates:
    def test_example1_case1_re(self):
        b = math.sqrt(5.0 / 2.8)
        rep = rates(EXAMPLE1, ScalingVector(beta=((b, 0.0, 0.0),)), snooped=(0, 1, 2))
        # SNR_e = 1.8 * (0.2 b)^2 / (1 + 0.04 b^2) = 0.12 exactly
        assert rep.snr_e == pytest.approx(0.12, abs=1e-14)
        assert rep.r_e == pytest.approx(0.081749, abs=1e-6)

    def test_example1_case2_re(self):
        b = math.sqrt(5.0 / 2.8)
        rep = rates(EXAMPLE1, ScalingVector(beta=((b, 0.0, 0.7298),)), snooped=(1, 2))
        assert rep.r_e == pytest.approx(0.095368, abs=1e-6)

    def test_equal_gains_zero_secrecy(self):
        net = LayeredNetwork.diamond(N=2, h_s=0.5, h_t=0.4, h_e=0.4, P_s=4, P=4,
                                     sigma2=1)
        sv = beta_max_vector(net)
        rep = rates(net, sv)
        assert rep.snr_t == pytest.approx(rep.snr_e, rel=1e-14)
        assert rep.r_s == 0.0

    def test_empty_snoop_set(self):
        sv = beta_max_vector(EXAMPLE1)
        rep = rates(EXAMPLE1, sv, snooped=())
        assert rep.snr_e == 0.0
        assert rep.r_e == 0.0
        assert rep.r_s == rep.r_t

    def test_out_of_range_snoop_rejected(self):
        sv = beta_max_vector(EXAMPLE1)
        with pytest.raises(ValueError):
            rates(EXAMPLE1, sv, snooped=(3,))

    def test_dead_path_gives_zero_rate(self):
        net = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.5, h=(0.0,),
                             h_t=0.4, h_e=0.2, M=1, P_s=4, P=4, sigma2=1)
        rep = rates(net, beta_max_vector(net))
        assert rep.r_t == 0.0
        assert rep.r_s == 0.0


class TestRateReportInvariants:
    @given(st.floats(0, 1e6), st.floats(0, 1e6))
    def test_from_snrs(self, snr_t, snr_e):
        rep = RateReport.from_snrs(snr_t, snr_e)
        assert rep.r_t == pytest.approx(0.5 * math.log2(1 + snr_t))
        assert rep.r_e == pytest.approx(0.5 * math.log2(1 + snr_e))
        assert rep.r_s >= 0.0
        assert (rep.r_s == 0.0) == (rep.r_t <= rep.r_e)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_power_constraint_respected(seed):
    # beta within bounds implies transmit power within P * (1 + 1e-12)
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    sv = random_feasible_scaling(rng, net)
    flow = propagate(net, sv)
    for l in range(net.L):
        powers = net.layer_power(l)
        for n, b in enumerate(sv.beta[l]):
            assert b ** 2 * flow.rx_power[l] <= powers[n] * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_layer_permutation_symmetry(seed):
    # permuting nodes within a layer of a symmetric beta leaves rates unchanged
    rng = np.random.default_rng(seed)
    net = random_network(rng, per_node_he=False)
    sv = beta_max_vector(net)
    rep = rates(net, sv)
    layer = int(rng.integers(0, net.L))
    perm = rng.permutation(net.nodes_per_layer[layer])
    beta = [list(row) for row in sv.beta]
    beta[layer] = [beta[layer][i] for i in perm]
    rep_p = rates(net, ScalingVector(beta=tuple(tuple(r) for r in beta)))
    assert rep_p == rep


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_node_relabeling_of_arbitrary_beta(seed):
    # with a common eavesdropper gain the nodes of a layer are exchangeable,
    # so shuffling an arbitrary feasible beta only perturbs summation order
    rng = np.random.default_rng(seed)
    net = random_network(rng, per_node_he=False)
    sv = random_feasible_scaling(rng, net)
    rep = rates(net, sv)
    layer = int(rng.integers(0, net.L))
    perm = rng.permutation(net.nodes_per_layer[layer])
    beta = [list(row) for row in sv.beta]
    beta[layer] = [beta[layer][i] for i in perm]
    rep_p = rates(net, ScalingVector(beta=tuple(tuple(r) for r in beta)))
    assert rep_p.snr_t == pytest.approx(rep.snr_t, rel=1e-12, abs=1e-15)
    assert rep_p.snr_e == pytest.approx(rep.snr_e, rel=1e-12, abs=1e-15)


def test_scaling_consistency_against_path_enumeration():
    # propagation-based rates match the literal modified-channel-gain sums
    # within 1e-10 relative, over 1000 random networks up to L=4, N=3
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        net = random_network(rng, L_max=4, N_max=3, per_node_he=True)
        sv = random_feasible_scaling(rng, net)
        n_m = net.nodes_per_layer[net.M - 1]
        k = int(rng.integers(0, n_m + 1))
        snoop = tuple(sorted(rng.choice(n_m, size=k, replace=False))) if k else ()
        rep = rates(net, sv, snooped=snoop)
        snr_t, snr_e = rates_by_path_enumeration(net, sv, snooped=snoop)
        assert rep.snr_t == pytest.approx(snr_t, rel=1e-10, abs=1e-12)
        assert rep.snr_e == pytest.approx(snr_e, rel=1e-10, abs=1e-12)


def test_degenerate_beta_max_guard():
    # the received power always includes sigma2 > 0: validation rejects
    # sigma2 <= 0 upfront
    with pytest.raises(ValueError):
        LayeredNetwork.diamond(N=1, h_s=0.0, h_t=0.0, h_e=0.0, P_s=0, P=1,
                               sigma2=-1.0)
