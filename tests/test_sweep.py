"""The batched sweep against its per-point definition, cell for cell, and
the batched kernel and rates against their points alone, bit for bit."""
import json
from dataclasses import replace

import numpy as np
import pytest

from anc_secrecy import (
    ExperimentConfig,
    LayeredNetwork,
    SweepSpec,
    beta_max_vector,
    bundled_presets,
    cutset_bound,
    extract_coefficients,
    lemma_beta_M,
    optimal_scaling,
    rates,
)
from anc_secrecy.cli import _fmt, main, run
from anc_secrecy.layered import optimal_rates
from anc_secrecy.network import _rate_reports, cascade
from conftest import config_to_dict, max_scaling_with_layer


def _point_optimum(net_p: LayeredNetwork):
    """The lemma's rates at one point, assembled from public parts: the
    coefficients, layer M's optimum within its all-max bound, and every
    other layer at maximum."""
    m = net_p.M - 1
    sol = lemma_beta_M(extract_coefficients(net_p), net_p.gain_out(m), net_p.common_h_e,
                       beta_max_vector(net_p).beta[m][0])
    return rates(net_p, max_scaling_with_layer(net_p, m, sol.beta_opt))


def _point_row(net: LayeredNetwork, p_s: float) -> list[str]:
    """One sweep row computed point by point: a fresh network per point,
    the closed form on it, and the all-max rates from its bound vector."""
    net_p = replace(net, P_s=p_s)
    r_opt = _point_optimum(net_p).r_s
    r_allmax = rates(net_p, beta_max_vector(net_p)).r_s
    row = [_fmt(p_s), _fmt(r_opt), _fmt(r_allmax)]
    if net.M < net.L:
        return row + ["", ""]
    c_cut = cutset_bound(net_p)
    return row + [_fmt(c_cut), _fmt(c_cut - r_allmax)]


def _lemma_draw(rng) -> LayeredNetwork:
    """Criterion 4's gains on 1-3 layers of ragged widths 1-3, each layer
    with its own common cap, and a common h_e on layer M."""
    L = int(rng.integers(1, 4))
    nodes = tuple(int(rng.integers(1, 4)) for _ in range(L))
    return LayeredNetwork(
        L=L, nodes_per_layer=nodes, h_s=float(rng.uniform(0.05, 1.3)),
        h=tuple(float(rng.uniform(0.05, 1.3)) for _ in range(L - 1)),
        h_t=float(rng.uniform(0.05, 1.3)), h_e=float(rng.uniform(0.02, 1.0)), M=1,
        P_s=1.0, P=tuple((float(rng.uniform(0.1, 30.0)),) * n for n in nodes),
        sigma2=float(rng.uniform(0.3, 2.0)))


def test_batch_equals_the_per_point_rows():
    rng = np.random.default_rng(9090)
    checked = 0
    for _ in range(25):
        base = _lemma_draw(rng)
        low, high = 10 ** rng.uniform(-2, 1), 10 ** rng.uniform(6, 10)
        specs = [SweepSpec(float(low), float(high), 6, "log"),
                 SweepSpec(0.0, float(rng.uniform(1.0, 100.0)), 5, "linear")]
        for M in range(1, base.L + 1):
            net = replace(base, M=M, h_e=base.h_e[0])
            for spec in specs:
                _, rows = run(ExperimentConfig(network=net, mode="sweep", sweep=spec))
                assert rows == [_point_row(net, p) for p in spec.values().tolist()], net
                checked += len(rows)
    assert checked > 400


def test_fig5_presets_equal_the_per_point_rows():
    for name in ("fig5a", "fig5b"):
        cfg = bundled_presets()[name]
        _, rows = run(cfg)
        assert rows == [_point_row(cfg.network, p) for p in cfg.sweep.values().tolist()]


def _per_node_draw(rng, widths: tuple[int, int] = (1, 3)) -> LayeredNetwork:
    """1-3 layers of ragged widths in the closed range `widths` with a cap
    and, on layer M, an eavesdropper gain per node."""
    L = int(rng.integers(1, 4))
    nodes = tuple(int(rng.integers(widths[0], widths[1] + 1)) for _ in range(L))
    M = int(rng.integers(1, L + 1))
    return LayeredNetwork(
        L=L, nodes_per_layer=nodes, h_s=float(rng.uniform(0.05, 1.3)),
        h=tuple(float(rng.uniform(0.05, 1.3)) for _ in range(L - 1)),
        h_t=float(rng.uniform(0.05, 1.3)),
        h_e=tuple(float(rng.uniform(0.02, 1.0)) for _ in range(nodes[M - 1])), M=M,
        P_s=1.0, P=tuple(tuple(float(rng.uniform(0.1, 30.0)) for _ in range(n)) for n in nodes),
        sigma2=float(rng.uniform(0.3, 2.0)))


def test_batch_points_equal_the_points_alone():
    # every column of a batched cascade, its rates, and every rate of
    # optimal_rates, is the point computed alone (on floats), bit for bit;
    # the last draw's layers are 8-12 nodes wide, where a pairwise or a
    # compensated sum would part from the sequential one
    rng = np.random.default_rng(2026)
    P_s = np.geomspace(1e-2, 1e9, 37)
    for draw in range(61):
        net = _per_node_draw(rng, (8, 12) if draw == 60 else (1, 3))
        fractions = [rng.random(n) for n in net.nodes_per_layer]
        # the whole of layer M, and every other node of it
        snoops = (None, range(0, net.nodes_per_layer[net.M - 1], 2))
        for policy in (lambda l, bmax: bmax,
                       lambda l, bmax: [f * b for f, b in zip(fractions[l].tolist(), bmax)]):
            batch = cascade(net, policy, P_s)
            batch_rates = [_rate_reports(net, batch, snoop) for snoop in snoops]
            for k, p in enumerate(P_s.tolist()):
                net_p = replace(net, P_s=p)
                alone = cascade(net_p, policy)
                for name, rows, column in zip(batch._fields, batch, alone):
                    for row, value in zip(rows, column):
                        # a batch's entries that do not vary (fwd into layer
                        # 1) stay scalars; betas and bounds are node columns
                        point = np.take(row, k, axis=-1) if np.ndim(row) else row
                        assert np.array_equal(point, value), (net, p, name)
                for snoop, columns in zip(snoops, batch_rates):
                    assert columns.point(k) == _rate_reports(net_p, alone, snoop).point(), \
                        (net, p, snoop)
        # the draw made a lemma network: each layer's first cap for the
        # whole layer, and the first eavesdropper gain for all of layer M
        lemma = replace(net, h_e=net.h_e[0], P=tuple((row[0],) * len(row) for row in net.P))
        # optimal_rates' columns, point by point, in all five fields
        opt, allmax = optimal_rates(lemma, P_s)
        for k, p in enumerate(P_s.tolist()):
            net_p = replace(lemma, P_s=p)
            assert opt.point(k) == _point_optimum(net_p) == optimal_scaling(net_p).rate, \
                (lemma, p)
            assert allmax.point(k) == rates(net_p, beta_max_vector(net_p)), (lemma, p)


def test_no_source_powers_give_empty_columns():
    # an empty batch passes through layer M's optimum and its overflow test
    net = bundled_presets()["fig5a"].network
    for h_e in (net.common_h_e, 0.0):
        opt, allmax = optimal_rates(replace(net, h_e=h_e), [])
        assert opt.r_s == allmax.r_s == []


def test_sweep_whose_top_point_overflows_exits_2(tmp_path, capsys):
    # P_s h_s^2 passes the float range at the last point only
    d = config_to_dict(bundled_presets()["fig5a"])
    d["network"]["h_s"] = 1.5
    d["sweep"]["to"] = 1e308
    p = tmp_path / "top.json"
    p.write_text(json.dumps(d), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(p), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "model error: the inputs overflow the float range")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["solve", "sweep"])
def test_overflowing_coefficients_exit_2(tmp_path, capsys, mode):
    # at P = 1e200 the stationary quadratic's coefficients pass the float
    # range; at 1e100 they do not, and the optimum is about 2.7107
    d = config_to_dict(bundled_presets()["fig5a"])
    rows = {}
    for cap in (1e100, 1e200):
        d["network"]["P"] = cap
        p = tmp_path / "big.json"
        p.write_text(json.dumps(d), encoding="utf-8")
        rows[cap] = (main([mode, "--config", str(p)]), capsys.readouterr())
    code, (out, err) = rows[1e200]
    assert code == 2
    assert err.startswith("model error: the inputs overflow the float range")
    code, (out, err) = rows[1e100]
    assert code == 0, err
    last = out.splitlines()[-1].split(",")
    r_s = float(last[-1] if mode == "solve" else last[1])
    assert r_s == pytest.approx(2.7107, abs=2e-4)


@pytest.mark.parametrize("mode", ["solve", "sweep"])
def test_overflowing_root_exits_2(tmp_path, capsys, mode):
    # M = 1 on a 1x1 network: at P = 1e60, sigma2 = 1e-100 the quadratic's
    # coefficients are finite but its discriminant is not, which would round
    # beta_M to 0 and print r_s = 0; at P = 1e40, sigma2 = 1e-60 it stays in
    # range and the optimum is about 0.1926
    net = {"L": 2, "N": 1, "h_s": 0.5, "h": [0.8], "h_t": 0.6, "h_e": 0.7, "M": 1,
           "P_s": 1000.0}
    sweep = {"from": 100.0, "to": 1000.0, "points": 2}
    outcomes = {}
    for cap, sigma2 in ((1e60, 1e-100), (1e40, 1e-60)):
        p = tmp_path / "net.json"
        p.write_text(json.dumps({"network": {**net, "P": cap, "sigma2": sigma2},
                                 "mode": mode, "sweep": sweep}), encoding="utf-8")
        outcomes[cap] = (main([mode, "--config", str(p)]), capsys.readouterr())
    code, (out, err) = outcomes[1e60]
    assert code == 2
    assert err == ("model error: the inputs overflow the float range: "
                   "the layer-M quadratic's root is not finite\n")
    code, (out, err) = outcomes[1e40]
    assert code == 0, err
    last = out.splitlines()[-1].split(",")
    assert float(last[-1] if mode == "solve" else last[1]) == pytest.approx(0.1926, abs=1e-4)
