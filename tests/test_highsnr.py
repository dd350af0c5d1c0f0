"""Delta-scaled amplification, cutset bound, achievable rate, gap bound."""
import math
from dataclasses import replace

import numpy as np
import pytest

from anc_secrecy import (
    LayeredNetwork,
    RegimeViolationError,
    achievable_highsnr,
    cutset_bound,
    gap_bound,
    high_snr_report,
    high_snr_scaling,
    rates,
)
from anc_secrecy.network import cascade
from conftest import fixed_betas, noise_power_bound, plateau_index, snr_e_by_k

FIG5A = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.689, h=(0.603,),
                       h_t=0.203, h_e=0.031, M=2, P_s=500.0, P=500.0, sigma2=1.0)
FIG5B = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.260, h=(0.925,),
                       h_t=0.113, h_e=0.012, M=2, P_s=500.0, P=500.0, sigma2=1.0)


def _regime_net(rng):
    """Random uniform net with last-layer snoop, h_t > h_e, strong powers."""
    L = int(rng.integers(1, 4))
    N = int(rng.integers(1, 4))
    h_e = float(rng.uniform(0.02, 0.3))
    return LayeredNetwork(
        L=L, nodes_per_layer=(N,) * L,
        h_s=float(rng.uniform(0.3, 1.2)),
        h=tuple(float(rng.uniform(0.3, 1.2)) for _ in range(L - 1)),
        h_t=float(rng.uniform(0.35, 1.2)), h_e=h_e, M=L,
        P_s=float(rng.uniform(5e3, 5e5)), P=float(rng.uniform(5e2, 5e3)),
        sigma2=1.0)


def _ragged_regime_net(rng):
    """Random net of the lemma's class with last-layer snoop, h_t > h_e and
    strong powers: L 1-4, widths 1-4 and one cap drawn per layer."""
    L = int(rng.integers(1, 5))
    widths = tuple(int(rng.integers(1, 5)) for _ in range(L))
    return LayeredNetwork(
        L=L, nodes_per_layer=widths,
        h_s=float(rng.uniform(0.3, 1.2)),
        h=tuple(float(rng.uniform(0.3, 1.2)) for _ in range(L - 1)),
        h_t=float(rng.uniform(0.35, 1.2)), h_e=float(rng.uniform(0.02, 0.3)), M=L,
        P_s=float(rng.uniform(5e3, 5e5)),
        P=[[float(rng.uniform(5e2, 5e3))] * n for n in widths], sigma2=1.0)


GENERATORS = pytest.mark.parametrize("make", [_regime_net, _ragged_regime_net],
                                     ids=["uniform", "ragged"])


class TestDeltaScaling:
    def test_delta_zero_is_max_coherent(self):
        sv = high_snr_scaling(FIG5A, 0.0)
        b1 = math.sqrt(500.0 / (500.0 * 0.689 ** 2))
        b2 = math.sqrt(500.0 / (4 * 500.0 * 0.603 ** 2))
        assert sv.beta[0][0] == pytest.approx(b1, rel=1e-14)
        assert sv.beta[1][0] == pytest.approx(b2, rel=1e-14)

    def test_fig5a_delta_betas(self):
        # frozen by hand: beta_i = sqrt(P / ((1+delta) P_Ri_max))
        sv = high_snr_scaling(FIG5A, 0.005)
        assert sv.beta[0][0] == pytest.approx(1.4477639130734878, rel=1e-12)
        assert sv.beta[1][0] == pytest.approx(0.8271221692434768, rel=1e-12)

    def test_regime_violation_names_layer(self):
        weak = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.26, h=(0.925,),
                              h_t=0.113, h_e=0.012, M=2, P_s=500.0, P=500.0,
                              sigma2=1.0)
        # layer 1 input SNR is 500 * 0.26^2 = 33.8 < 1/0.005 = 200
        with pytest.raises(RegimeViolationError) as err:
            high_snr_scaling(weak, 0.005)
        assert err.value.layer == 1

    @GENERATORS
    def test_feasibility_chain_within_bounds(self, make):
        # in-regime delta scaling never exceeds the true cascaded bounds
        rng = np.random.default_rng(8)
        for _ in range(40):
            net = make(rng)
            delta = float(rng.uniform(0.001, 0.05))
            try:
                sv = high_snr_scaling(net, delta)
            except RegimeViolationError:
                continue
            c = cascade(net, fixed_betas(sv.beta))
            for l in range(net.L):
                tx = sv.beta[l][0] ** 2 * (c.sig[l] + c.fwd[l] + net.sigma2)
                assert tx <= net.layer_caps[l] * (1 + 1e-12)

    def test_source_power_invariance_of_signal(self):
        # the delta-scaled source power at the destination does not depend
        # on P_s: layer-1 scaling absorbs it
        from dataclasses import replace
        for p_s in (1e4, 1e6, 1e8):
            net = replace(FIG5A, P_s=p_s)
            c = cascade(net, fixed_betas(high_snr_scaling(net, 0.005).beta))
            expected = 4 * 500.0 * 0.203 ** 2 / 1.005 ** 2
            assert c.sig[-1] == pytest.approx(expected, rel=1e-12)


class TestCutset:
    def test_equal_gains_zero(self):
        net = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.7, h=(0.6,),
                             h_t=0.4, h_e=0.4, M=2, P_s=10, P=10, sigma2=1)
        assert cutset_bound(net) == 0.0

    def test_fig5a_value(self):
        # 0.5 log2(83.418 / 2.922), hand arithmetic of the stated formula
        assert cutset_bound(FIG5A) == pytest.approx(
            0.5 * math.log2(83.418 / 2.922), rel=1e-12)

    def test_clamped_at_zero_when_eavesdropper_is_stronger(self):
        net = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.7, h=(0.6,),
                             h_t=0.1, h_e=0.3, M=2, P_s=10, P=10, sigma2=1)
        assert cutset_bound(net) == 0.0

    def test_requires_last_layer_snooped(self):
        net = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.7, h=(0.6,),
                             h_t=0.4, h_e=0.1, M=1, P_s=10, P=10, sigma2=1)
        with pytest.raises(ValueError, match="M = L"):
            cutset_bound(net)

    def test_no_eavesdropper(self):
        net = LayeredNetwork(L=1, nodes_per_layer=(2,), h_s=0.7, h=(), h_t=0.4,
                             h_e=0.0, M=1, P_s=10, P=10, sigma2=1)
        assert cutset_bound(net) == pytest.approx(
            0.5 * math.log2(1 + 4 * 10 * 0.16), rel=1e-12)

    def test_snr_terms_past_the_float_range(self):
        # N^2 P h^2 / sigma2 passes the float maximum for h = 1e60, where the
        # ratio of the two terms is 0 or nan: the eavesdropper's term alone
        # gives 0, the destination's gives inf
        net = LayeredNetwork.diamond(N=2, h_s=1.0, h_t=1.0, h_e=1e60, P_s=1.0,
                                     P=1e200, sigma2=1e100)
        assert cutset_bound(net) == 0.0
        assert cutset_bound(replace(net, h_t=2e60)) == math.inf
        # L delta N P h^2 / sigma2 = 1e298 h^2
        near = replace(net, h_e=(1e6, 1e6), sigma2=1e-100)
        assert gap_bound(near, 0.005) == 0.0
        assert gap_bound(replace(near, h_t=2e6), 0.005) == math.inf


class TestAchievable:
    def test_single_layer_delta_zero_matches_allmax_diamond(self):
        from anc_secrecy import beta_max_vector
        net = LayeredNetwork.diamond(N=2, h_s=0.9, h_t=0.5, h_e=0.1, P_s=2e4,
                                     P=400.0, sigma2=1.0)
        rep = achievable_highsnr(net, 0.0)
        # at delta = 0 the scaling equals P/(P_s h_s^2) for the single layer,
        # which is the bound without the noise correction; rates nearly match
        # the all-max evaluation in the high-SNR regime
        direct = rates(net, beta_max_vector(net))
        assert rep.r_s == pytest.approx(direct.r_s, rel=2e-3)

    @GENERATORS
    def test_two_paths_agree(self, make):
        # formula-based quantities equal the generic propagation evaluation
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 30:
            net = make(rng)
            delta = float(rng.uniform(0.0, 0.05))
            try:
                formula = achievable_highsnr(net, delta)
            except RegimeViolationError:
                continue
            checked += 1
            direct = rates(net, high_snr_scaling(net, delta))
            assert formula.snr_t == pytest.approx(direct.snr_t, rel=1e-10)
            assert formula.snr_e == pytest.approx(direct.snr_e, rel=1e-10)
            assert formula.r_s == pytest.approx(direct.r_s, rel=1e-10, abs=1e-12)

    def test_requires_last_layer_snoop(self):
        net = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.7, h=(0.6,),
                             h_t=0.4, h_e=0.1, M=1, P_s=1e5, P=100, sigma2=1)
        with pytest.raises(ValueError):
            achievable_highsnr(net, 0.01)

    def test_noise_terms_summed_left_to_right(self):
        # the noise terms are added one by one in layer order, bit for bit:
        # the built-in sum() of floats is compensated from Python 3.12 on,
        # which would make the rate depend on the interpreter
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 400:
            L = int(rng.integers(1, 6))
            widths = tuple(int(rng.integers(1, 7)) for _ in range(L))
            net = LayeredNetwork(
                L=L, nodes_per_layer=widths, h_s=float(rng.uniform(0.3, 1.2)),
                h=tuple(float(rng.uniform(0.3, 1.2)) for _ in range(L - 1)),
                h_t=float(rng.uniform(0.35, 1.2)), h_e=float(rng.uniform(0.02, 0.3)), M=L,
                P_s=float(rng.uniform(5e3, 5e5)),
                P=[[float(rng.uniform(5e2, 5e3))] * n for n in widths],
                sigma2=float(rng.uniform(0.3, 2.0)))
            delta = float(rng.uniform(0.001, 0.05))
            try:
                rep = achievable_highsnr(net, delta)
            except RegimeViolationError:
                continue
            checked += 1
            s2 = net.sigma2
            p_r = [net.P_s * net.h_s ** 2] + [n ** 2 * net.P[i][0] * net.gain_out(i) ** 2
                                              for i, n in enumerate(widths)]
            p_zt = 0.0
            for i in range(L):
                p_zt = p_zt + p_r[L] * (s2 / p_r[i]) / (widths[i] * (1.0 + delta) ** (L - i))
            p_st = p_r[L] / (1.0 + delta) ** L
            mirror = (net.common_h_e / net.h_t) ** 2
            assert rep.snr_t == p_st / (p_zt + s2), net
            assert rep.snr_e == p_st * mirror / (p_zt * mirror + s2), net


class TestGapBound:
    def test_fig5a_fig5b_frozen(self):
        # frozen by hand arithmetic of the bound formula
        assert gap_bound(FIG5A, 0.005) == pytest.approx(0.2492668, abs=2e-7)
        assert gap_bound(FIG5B, 0.005) == pytest.approx(0.0928971, abs=2e-7)

    @pytest.mark.parametrize("delta", [0.0, -0.005])
    def test_delta_not_positive_refused(self, delta):
        # at delta = 0 the regime is not checked, and fig5a's actual gap
        # (0.0386) is above the formula's 0: no bound is reported there
        for bound in (gap_bound, noise_power_bound, high_snr_report):
            with pytest.raises(ValueError, match="the bounds need delta > 0"):
                bound(FIG5A, delta)

    @pytest.mark.parametrize("delta, message", [
        (math.nan, "must be finite"), (math.inf, "must be finite"),
        (-math.inf, "must be finite"), (True, "must be a number"),
        ("0.1", "must be a number")])
    def test_delta_not_a_finite_number_refused(self, delta, message):
        for call in (high_snr_scaling, achievable_highsnr, gap_bound, high_snr_report):
            with pytest.raises(ValueError, match=rf"^delta: {message}, got "):
                call(FIG5A, delta)

    def test_vacuous_region_rejected(self):
        with pytest.raises(ValueError):
            gap_bound(FIG5A, 0.5)  # L*delta = 1

    def test_requires_last_layer_snooped(self):
        # the bound compares against the cut at the last layer
        with pytest.raises(ValueError, match="M = L"):
            gap_bound(replace(FIG5A, M=1), 0.005)

    def test_decreasing_to_zero(self):
        vals = [gap_bound(FIG5A, 10.0 ** -k) for k in range(2, 9)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6


class TestSandwichAndNoiseBound:
    @GENERATORS
    def test_gap_sandwich(self, make):
        # 0 <= actual gap <= analytic bound whenever the regime holds
        rng = np.random.default_rng(23)
        reports = []
        while len(reports) < 40:
            net = make(rng)
            delta = float(rng.uniform(0.001, min(0.2, 0.9 / net.L)))
            try:
                reports.append(high_snr_report(net, delta))
            except RegimeViolationError:
                continue
        # h_e > h_t: the unclamped bound reads -0.63 beside a gap of 0
        reports.append(high_snr_report(replace(FIG5A, h_t=0.3, h_e=0.6), 0.005))
        for rep in reports:
            assert rep.r_s_delta <= rep.c_cut + 1e-9
            assert -1e-9 <= rep.actual_gap <= rep.gap_bound + 1e-9

    @GENERATORS
    def test_noise_power_bound(self, make):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 40:
            net = make(rng)
            delta = float(rng.uniform(0.001, 0.05))
            try:
                sv = high_snr_scaling(net, delta)
            except RegimeViolationError:
                continue
            checked += 1
            noise = cascade(net, fixed_betas(sv.beta)).fwd[-1]
            assert noise <= noise_power_bound(net, delta) * (1 + 1e-12)

    def test_bounds_need_the_narrowest_layer(self):
        # layer 1 (one node) sits near the regime's edge, sigma2 / P_R1 =
        # 1/101 against delta = 0.01, so its noise term nearly reaches
        # P_R3 delta / n_1; a bound over n_L = 4 instead of min n_i = 1
        # would fall below the noise and below the gap
        net = LayeredNetwork(L=2, nodes_per_layer=(1, 4), h_s=1.0, h=(1.0,), h_t=1.0,
                             h_e=0.1, M=2, P_s=101.0, P=((1e6,), (1.0,) * 4),
                             sigma2=1.0)
        noise = cascade(net, fixed_betas(high_snr_scaling(net, 0.01).beta)).fwd[-1]
        assert noise <= noise_power_bound(net, 0.01)
        rep = high_snr_report(net, 0.01)
        assert 0.0 <= rep.actual_gap <= rep.gap_bound


class TestPlateau:
    def test_detects_flat_tail(self):
        ys = [1.0, 1.5, 1.9, 1.99, 1.9999, 1.99999, 1.999991]
        idx = plateau_index(ys, rel_slope=1e-4)
        assert idx == len(ys) - 1

    def test_none_when_still_rising(self):
        assert plateau_index([1.0, 2.0, 3.0], rel_slope=1e-4) is None


@pytest.mark.parametrize("net", [
    replace(FIG5A, nodes_per_layer=(2, 3), h_e=0.031, P=500.0),
    replace(FIG5A, P=((500.0, 500.0), (400.0, 400.0)))],
    ids=["ragged_width", "per_layer_cap"])
def test_lemma_class_networks_succeed(net):
    # widths and caps that differ between layers are in the lemma's class
    rep = high_snr_report(net, 0.005)
    assert rep.r_s_delta <= rep.c_cut + 1e-9
    assert -1e-9 <= rep.actual_gap <= rep.gap_bound + 1e-9
    formula = achievable_highsnr(net, 0.005)
    direct = rates(net, high_snr_scaling(net, 0.005))
    assert formula.r_s == pytest.approx(direct.r_s, rel=1e-10)
    noise = cascade(net, fixed_betas(high_snr_scaling(net, 0.005).beta)).fwd[-1]
    assert noise <= noise_power_bound(net, 0.005)


@pytest.mark.parametrize("call, message", [
    (lambda: high_snr_scaling(replace(FIG5A, P=((500.0, 400.0), (500.0, 500.0))), 0.005),
     "high-SNR formulas require one power cap within each layer"),
    (lambda: high_snr_scaling(FIG5A, -0.1), "delta must be >= 0"),
    (lambda: high_snr_scaling(replace(FIG5A, P_s=0.0), 0.005),
     r"layer 1 receives no signal \(P_s h_s\^2 = 0\)"),
    (lambda: high_snr_scaling(LayeredNetwork.diamond(N=2, h_s=1e-100, h_t=0.5, h_e=0.1,
                                                     P_s=1e-200, P=1.0, sigma2=1e-300), 0.005),
     r"layer 1 receives no signal \(P_s h_s\^2 underflows to 0\)"),
    (lambda: high_snr_scaling(replace(FIG5A, h=(0.0,)), 0.005),
     r"layer 2 receives no signal \(dead hop gain\)"),
    (lambda: high_snr_scaling(replace(FIG5A, P=0.0), 0.005),
     r"layer 2 receives no signal \(relay caps of 0\)"),
    (lambda: high_snr_scaling(replace(FIG5A, P=1e-200, h=(1e-100,)), 0.005),
     r"layer 2 receives no signal \(N\^2 P h\^2 underflows to 0\)"),
    (lambda: achievable_highsnr(replace(FIG5A, h_t=0.0), 0.005),
     r"dead destination gain \(h_t = 0\)"),
    (lambda: snr_e_by_k(LayeredNetwork.diamond(N=3, h_s=0.278, h_t=0.379, h_e=0.073,
                                                P_s=10.0, P=10.0, sigma2=1.0), 4),
     r"k must be in 0\.\.N")],
    ids=["unequal_caps_in_layer", "negative_delta", "no_source_power",
         "underflowing_source_signal", "dead_hop_gain", "zero_relay_caps",
         "underflowing_relay_signal", "dead_destination_gain", "k_out_of_range"])
def test_guard_messages(call, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        call()


@pytest.mark.parametrize("h_e", [1e155, 1e160, -1e300])
def test_eavesdropper_gain_past_the_square_limit_bounds_are_zero(h_e):
    # |h_e| is then above every h_t a network takes: the cut and the gap are
    # 0, and the delta-scaled rate takes its limit, 0
    net = LayeredNetwork.diamond(N=2, h_s=1.0, h_t=1.0, h_e=h_e, P_s=1e4, P=10.0, sigma2=1.0)
    assert cutset_bound(net) == 0.0 and gap_bound(net, 0.01) == 0.0
    rep = achievable_highsnr(net, 0.01)
    # the eavesdropper's SNR at its limit, P_st / P_zt = 2 (1 + delta) P_s / (1 + delta)
    assert rep.r_s == 0.0 and rep.snr_e == pytest.approx(2e4, rel=1e-12)
    assert rep.snr_e >= rep.snr_t
    report = high_snr_report(net, 0.01)
    assert (report.c_cut, report.r_s_delta, report.actual_gap, report.gap_bound) == (0.0,) * 4
    # a zero cap or an overflowing destination SNR changes nothing
    assert cutset_bound(replace(net, P=0.0)) == 0.0 and gap_bound(replace(net, P=0.0), 0.01) == 0.0
    assert cutset_bound(replace(net, P=1e300, sigma2=1e-300)) == 0.0


def test_mirror_past_the_square_limit_gives_zero_rate():
    # (h_e / h_t)^2 passes the float range while h_e^2 does not; h_t^2
    # underflows, so the destination's powers are 0
    net = LayeredNetwork.diamond(N=1, h_s=0.1158, h_t=1e-300, h_e=3.48, P_s=1e300, P=0.0374,
                                 sigma2=0.0183)
    rep = achievable_highsnr(net, 0.01)
    assert rep.r_s == 0.0 and rep.snr_t == 0.0 and math.isfinite(rep.snr_e)
    report = high_snr_report(net, 0.01)
    assert report.r_s_delta == 0.0 and report.actual_gap == report.c_cut
    # sigma2 is negligible beside the destination's noise here, and the
    # limit formed per unit of P_R(L+1) rounds to 29999.999999999996, below
    # snr_t = 30000: the eavesdropper's SNR is kept at snr_t, so r_s = 0
    net = LayeredNetwork.diamond(N=1, h_s=1.0, h_t=1e100, h_e=1e300, P_s=3e4, P=1.0,
                                 sigma2=1.0)
    rep = achievable_highsnr(net, 0.01)
    assert rep.snr_t == 30000.0 and rep.snr_e == rep.snr_t and rep.r_s == 0.0


def test_bounds_refuse_in_their_order_past_the_square_limit():
    # gap_bound checks M = L before delta, also where h_e^2 overflows
    net = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=1.0, h=(0.7,), h_t=1.0, h_e=1e160,
                         M=1, P_s=10.0, P=10.0, sigma2=1.0)
    for call in (cutset_bound, lambda n: gap_bound(n, 0.0), lambda n: gap_bound(n, 0.5)):
        with pytest.raises(ValueError, match=r"on the last layer \(M = L\)"):
            call(net)
    with pytest.raises(ValueError, match=r"the bounds need delta > 0"):
        gap_bound(replace(net, M=2), 0.0)
