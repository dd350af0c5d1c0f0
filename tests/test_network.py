"""Network model, bound computation, propagation, and rate evaluation."""
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anc_secrecy import (
    LayeredNetwork,
    RateReport,
    ScalingVector,
    beta_max_vector,
    rates,
)
from anc_secrecy.network import _MAX_NODES, _number, _rate_reports, cascade
from conftest import (fixed_betas, random_feasible_scaling, random_network,
                      rates_by_path_enumeration)


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

    @pytest.mark.parametrize("widths", [(_MAX_NODES + 1,), (1, _MAX_NODES),
                                        (_MAX_NODES // 2, _MAX_NODES // 2 + 1)])
    def test_rejects_nodes_over_the_limit_before_expansion(self, widths):
        # the limit is on all layers together, each of which may be under
        # it; the scalar h_e and P are never repeated once per node
        L = len(widths)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"^nodes_per_layer: must total <= "
                                                 rf"{_MAX_NODES:,} nodes, got {_MAX_NODES + 1}$"):
                LayeredNetwork(L=L, nodes_per_layer=widths, h_s=0.6, h=(0.5,) * (L - 1),
                               h_t=0.4, h_e=0.2, M=L, P_s=5.0, P=5.0, sigma2=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            ScalingVector(beta=((-0.1, 0.0),))

    def test_rejects_beta_above_bound(self):
        with pytest.raises(ValueError):
            ScalingVector(beta=((1.5,),), beta_max=((1.0,),))

    @staticmethod
    def _first_offender(beta, beta_max):
        # a literal loop over the layers in order, each layer's nodes in order
        for brow, mrow in zip(beta, beta_max):
            for b, m in zip(brow, mrow):
                if b > m * (1 + 1e-9) + 1e-15:
                    return f"beta {b} exceeds its bound {m}"
        return None

    def test_point_rows_name_the_first_offender(self):
        rng = np.random.default_rng(78)
        for _ in range(100):
            bounds = [rng.uniform(0.1, 2.0, int(rng.integers(1, 4))).tolist() for _ in range(3)]
            beta = [[b * float(rng.uniform(0.5, 1.0)) for b in row] for row in bounds]
            ScalingVector(beta=beta, beta_max=bounds)
            for _ in range(int(rng.integers(1, 4))):
                l = int(rng.integers(3))
                k = int(rng.integers(len(beta[l])))
                beta[l][k] = bounds[l][k] * float(rng.uniform(1.01, 2.0))
            with pytest.raises(ValueError) as exc:
                ScalingVector(beta=beta, beta_max=bounds)
            assert str(exc.value) == self._first_offender(beta, bounds)
            for bad in (math.nan, math.inf, -math.inf, -1e-300):
                beta[2][-1] = bad
                with pytest.raises(ValueError, match="finite and >= 0" if math.isfinite(bad)
                                   else rf"^beta: must be finite, got {bad}$"):
                    ScalingVector(beta=beta)
        with pytest.raises(ValueError, match="^beta and beta_max shapes differ$"):
            ScalingVector(beta=[[1.0, 1.0]], beta_max=[[2.0]])

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
        with pytest.raises(ValueError, match=rf"^{key}: must be finite"):
            LayeredNetwork(**params)

    @pytest.mark.parametrize("key", ["L", "M", "nodes_per_layer"])
    def test_rejects_non_finite_integers(self, key):
        params = dict(L=1, nodes_per_layer=(2,), h_s=0.6, h=(), h_t=0.4, h_e=0.2,
                      M=1, P_s=5.0, P=5.0, sigma2=1.0)
        params[key] = (math.inf,) if key == "nodes_per_layer" else math.nan
        with pytest.raises(ValueError, match=rf"^{key}: must be a finite integer"):
            LayeredNetwork(**params)

    @pytest.mark.parametrize("key", ["L", "M", "nodes_per_layer"])
    def test_rejects_non_integral_integers(self, key):
        # int() would truncate these to a valid, different network
        params = dict(L=2, nodes_per_layer=(2, 2), h_s=0.6, h=(0.5,), h_t=0.4, h_e=0.2,
                      M=2, P_s=5.0, P=5.0, sigma2=1.0)
        params[key] = (2.5, 2) if key == "nodes_per_layer" else 2.5
        with pytest.raises(ValueError, match=rf"^{key}: must be a finite integer"):
            LayeredNetwork(**params)
        params[key] = (2.0, 2) if key == "nodes_per_layer" else 2.0
        net = LayeredNetwork(**params)
        assert (net.L, net.M, net.nodes_per_layer) == (2, 2, (2, 2))

    @pytest.mark.parametrize("key, value", [
        ("h_s", None), ("h_s", True), ("h_s", "0.5"), ("h", 5), ("nodes_per_layer", 2),
        ("P", [[5, 5], [5, None]]), ("h_e", [0.2, "x"]), ("M", np.True_)])
    def test_rejects_non_numbers_naming_the_field(self, key, value):
        # booleans and numeric strings are not numbers, although float() takes them
        params = dict(L=2, nodes_per_layer=(2, 2), h_s=0.6, h=(0.5,), h_t=0.4, h_e=0.2,
                      M=2, P_s=5.0, P=5.0, sigma2=1.0)
        params[key] = value
        with pytest.raises(ValueError, match=rf"^{key}: must be a (number|list), got "):
            LayeredNetwork(**params)


    @pytest.mark.parametrize("kwargs, key", [
        (dict(beta=[["0.5"]]), "beta"), (dict(beta=[[True]]), "beta"),
        (dict(beta=[[b"1"]]), "beta"), (dict(beta=[[None]]), "beta"),
        (dict(beta=[0.5, 0.5]), "beta"),
        (dict(beta=[[0.5]], beta_max=[[math.nan]]), "beta_max"),
        (dict(beta=[[0.5]], beta_max=[[math.inf]]), "beta_max")])
    def test_scaling_reads_its_numbers_with_the_number_parser(self, kwargs, key):
        # float() would take the first three as 0.5, 1.0 and 1.0, and the
        # comparisons with a nan or inf bound pass
        with pytest.raises(ValueError, match=rf"^{key}: must be "):
            ScalingVector(**kwargs)

    @pytest.mark.parametrize("key", ["h_s", "h", "h_t"])
    def test_gain_whose_square_overflows_named(self, key):
        # every reader squares the gains by **, which raises past the float range
        params = dict(L=2, nodes_per_layer=(2, 2), h_s=0.6, h=(0.5,), h_t=0.4, h_e=0.2,
                      M=2, P_s=5.0, P=5.0, sigma2=1.0)
        largest = math.sqrt(sys.float_info.max)
        for gain in (largest, -largest):
            params[key] = (gain,) if key == "h" else gain
            net = LayeredNetwork(**params)
            assert net.h_s ** 2 + net.h[0] ** 2 + net.h_t ** 2 < math.inf
        name = "h[0]" if key == "h" else key
        for gain in (math.nextafter(largest, math.inf), -math.nextafter(largest, math.inf)):
            params[key] = (gain,) if key == "h" else gain
            with pytest.raises(OverflowError) as exc:
                LayeredNetwork(**params)
            assert str(exc.value) == f"{name}: its square overflows the float range, got {gain!r}"


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
        c = cascade(net, fixed_betas(sv.beta))
        rx = c.sig[0] + c.fwd[0] + net.sigma2
        for n, cap in enumerate((5.0, 1.25, 20.0)):
            assert b[n] ** 2 * rx == pytest.approx(cap, rel=1e-12)


class TestPropagate:
    def test_all_zero_scaling(self):
        net = random_network(np.random.default_rng(0))
        zeros = ScalingVector(beta=tuple((0.0,) * n for n in net.nodes_per_layer))
        c = cascade(net, fixed_betas(zeros.beta))
        if net.L > 1:
            assert c.sig[1] == 0.0
        assert c.sig[-1] == 0.0
        assert c.fwd[-1] == 0.0  # destination sees only its own noise

    def test_single_relay_chain(self):
        net = LayeredNetwork(L=1, nodes_per_layer=(1,), h_s=0.8, h=(), h_t=0.5,
                             h_e=0.1, M=1, P_s=3.0, P=2.0, sigma2=0.7)
        beta = 0.9
        c = cascade(net, fixed_betas(((beta,),)))
        assert c.sig[-1] == pytest.approx(3.0 * 0.64 * beta ** 2 * 0.25, rel=1e-14)
        assert c.fwd[-1] == pytest.approx(0.7 * beta ** 2 * 0.25, rel=1e-14)

    def test_example1_optimum_powers(self):
        # frozen by hand: beta = (sqrt(5/2.8), 0, 0), two-path formula
        b = math.sqrt(5.0 / 2.8)
        c = cascade(EXAMPLE1, fixed_betas(((b, 0.0, 0.0),)))
        assert c.sig[-1] == pytest.approx(0.2892857142857143, rel=1e-13)
        assert c.fwd[-1] == pytest.approx(0.16071428571428573, rel=1e-13)
        assert c.sig[0] + c.fwd[0] + EXAMPLE1.sigma2 == pytest.approx(2.8, rel=1e-14)

    def test_rx_power_identity(self):
        # each bound is sqrt(P / rx), rx = sig + fwd + sigma2 the power the
        # layer receives from the betas actually used upstream
        rng = np.random.default_rng(3)
        for _ in range(25):
            net = random_network(rng)
            sv = random_feasible_scaling(rng, net)
            c = cascade(net, fixed_betas(sv.beta))
            for l, (s, nz) in enumerate(zip(c.sig[:-1], c.fwd[:-1])):
                rx = s + nz + net.sigma2
                for m, p in zip(sv.beta_max[l], net.P[l]):
                    assert m ** 2 * rx == pytest.approx(p, rel=1e-12)
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

    @pytest.mark.parametrize("snooped", [[1.5], ["1"], [True], [0.999]])
    def test_snoop_index_that_is_not_an_integer_rejected(self, snooped):
        with pytest.raises(ValueError, match=r"^snooped: must be a"):
            rates(EXAMPLE1, beta_max_vector(EXAMPLE1), snooped=snooped)

    @pytest.mark.parametrize("snooped", [range(1, 3), {2, 1}, [1.0, 2], iter((2, 1))])
    def test_snoop_indices_from_any_iterable(self, snooped):
        sv = beta_max_vector(EXAMPLE1)
        assert rates(EXAMPLE1, sv, snooped=snooped) == rates(EXAMPLE1, sv, snooped=(1, 2))

    @pytest.mark.parametrize("beta, widths", [
        (((1.0, 1.0),), "(2,)"), (((1.0,) * 4,), "(4,)"), (((1.0,) * 3, (1.0,)), "(3, 1)")])
    def test_scaling_that_does_not_fit_the_network_rejected(self, beta, widths):
        # too few nodes, too many, and a row past the network's layers
        net = LayeredNetwork.diamond(N=3, h_s=0.6, h_t=0.3, h_e=0.2, P_s=5, P=5, sigma2=1)
        with pytest.raises(ValueError) as exc:
            rates(net, ScalingVector(beta=beta), snooped=(0, 1))
        assert str(exc.value) == f"scaling: row widths {widths} do not match nodes_per_layer (3,)"

    def test_dead_path_gives_zero_rate(self):
        net = LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=0.5, h=(0.0,),
                             h_t=0.4, h_e=0.2, M=1, P_s=4, P=4, sigma2=1)
        rep = rates(net, beta_max_vector(net))
        assert rep.r_t == 0.0
        assert rep.r_s == 0.0

    def test_powers_past_the_float_range_raise(self):
        # P_s h_s^2 = 1e320: a point on floats, which ignore np.errstate, and
        # a batch holding such a point both raise rather than return inf
        net = LayeredNetwork.diamond(N=2, h_s=1e10, h_t=1.0, h_e=0.5, P_s=1e300, P=1.0,
                                     sigma2=1.0)
        with pytest.raises(OverflowError):
            beta_max_vector(net)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OverflowError):
            cascade(net, lambda l, bmax: bmax, np.array([1.0, 1e300]))

    @pytest.mark.parametrize("h_e", [1e60, 1e200])
    def test_eavesdropper_snr_whose_terms_pass_the_float_range(self, h_e):
        # at P_s = 1 sigma2 times the squared eavesdropper terms is 2e320
        # (at h_e = 1e200 the squares alone pass the float range), while the
        # SNR is about 2e-100; from P_s = 1e130 on nothing overflows. A batch
        # over both kinds of points equals each point alone.
        net = LayeredNetwork.diamond(N=2, h_s=1.0, h_t=1.0, h_e=h_e, P_s=1.0, P=1e200,
                                     sigma2=1e100)
        P_s = np.geomspace(1.0, 1e140, 8)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert rates(net, beta_max_vector(net)).snr_e == pytest.approx(2e-100, rel=1e-14)
            batch = _rate_reports(net, cascade(net, lambda l, bmax: bmax, P_s))
            for k, p in enumerate(P_s.tolist()):
                net_p = LayeredNetwork.diamond(N=2, h_s=1.0, h_t=1.0, h_e=h_e, P_s=p,
                                               P=1e200, sigma2=1e100)
                assert batch.point(k) == rates(net_p, beta_max_vector(net_p))


def _scaled(fractions):
    """The policy that sends each node at its fraction of its bound."""
    return lambda l, bmax: [f * b for f, b in zip(fractions, bmax)]


def _point_and_one_column(net, policy, snoop=None):
    """_rate_reports of one point on floats, and of the same point as a
    one-column batch."""
    return (_rate_reports(net, cascade(net, policy), snoop),
            _rate_reports(net, cascade(net, policy, np.array([net.P_s])), snoop))


def _same_bits(point, column) -> bool:
    return (all(type(x) is float for field in point for x in field)
            and np.array(point).tobytes() == np.array(column).tobytes())


class TestPointOnFloats:
    """A point's rates run on floats; each is the same point's as a
    one-column batch, bit for bit."""

    def test_rescaled_eavesdropper_snr(self):
        # sigma2 times the squared eavesdropper terms passes the float range
        # (about 2e320), so the SNR (about 2e-100) comes from scaled terms
        net = LayeredNetwork.diamond(N=2, h_s=1.0, h_t=1.0, h_e=(1e60, 1.1e60), P_s=1.0,
                                     P=1e200, sigma2=1e100)
        rng = np.random.default_rng(12)
        for fractions in [[1.0, 1.0]] + rng.uniform(0.1, 1.0, (20, 2)).tolist():
            policy = _scaled(fractions)
            c = cascade(net, policy)
            own = 0.0
            for b, h in zip(c.betas[0], net.h_e):
                own += (b * h) * (b * h)
            assert math.isinf(net.sigma2 * own)
            point, column = _point_and_one_column(net, policy)
            assert 0.0 < point.snr_e[0] < 1e-90
            assert _same_bits(point, column), fractions

    def test_eight_or_more_snooped_terms(self):
        # the terms are summed by += in node order; a compensated sum (the
        # built-in sum() from Python 3.12 on, here math.fsum) would part from
        # it on some of these draws
        rng = np.random.default_rng(13)
        parted = 0
        for _ in range(60):
            n = int(rng.integers(8, 17))
            net = LayeredNetwork.diamond(
                N=n, h_s=float(rng.uniform(0.05, 1.3)), h_t=float(rng.uniform(0.05, 1.3)),
                h_e=tuple((10.0 ** rng.uniform(-3, 3, n)).tolist()),
                P_s=float(rng.uniform(0.1, 30.0)), P=(tuple(rng.uniform(0.1, 30.0, n).tolist()),),
                sigma2=float(rng.uniform(0.3, 2.0)))
            policy = _scaled(rng.random(n).tolist())
            snoop = sorted(rng.choice(n, int(rng.integers(8, n + 1)), replace=False).tolist())
            point, column = _point_and_one_column(net, policy, snoop)
            assert _same_bits(point, column), (net, snoop)
            terms = [b * net.h_e[i] for i, b in enumerate(cascade(net, policy).betas[0])
                     if i in snoop]
            w = 0.0
            for t in terms:
                w += t
            parted += math.fsum(terms) != w
        assert parted > 0

    def test_rescaled_point_overflows_to_inf_on_floats(self):
        # the eavesdropper's terms (1e156) overflow their square, and after
        # the rescale sig_M (1e308) times their sum still passes the float
        # range: a point on floats ignores np.errstate and gets snr_e = inf,
        # while the same point as a one-column batch raises under it
        net = LayeredNetwork.diamond(N=2, h_s=1.0, h_t=1.0, h_e=1e160, P_s=1e308, P=1e300,
                                     sigma2=1.0)
        with np.errstate(all="raise"):
            rep = rates(net, beta_max_vector(net))
            assert rep.snr_e == math.inf and rep.r_s == 0.0
            with pytest.raises(FloatingPointError):
                _rate_reports(net, cascade(net, lambda l, b: b, np.array([1e308])))


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
    c = cascade(net, fixed_betas(sv.beta))
    for l in range(net.L):
        for n, b in enumerate(sv.beta[l]):
            assert b ** 2 * (c.sig[l] + c.fwd[l] + net.sigma2) <= net.P[l][n] * (1 + 1e-12)


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


def _per_number(key, row):
    """A row parsed one number at a time, or the message of its first error."""
    try:
        return tuple(_number(key, v) for v in row)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("row", [
    [0.5, 2, 3.0], (), (1e300, -0.0, 10 ** 300), np.array([0.5, 1.0]), [np.float64(0.5), 1.0],
    [0.5, True], [1.0, math.nan], [-math.inf], [10 ** 400], [1.0, "x"], [None], [[1.0]]])
def test_row_parse_equals_the_per_number_parse(row):
    # a row of plain finite numbers is read in one pass; every other row
    # gives the values and the error messages of the number-by-number parse
    want = _per_number("beta", row)
    try:
        got = _number("beta", row, 1)
    except ValueError as exc:
        got = str(exc)
    assert got == want
    if isinstance(got, tuple):
        assert all(type(x) is float for x in got)
