"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import time

import numpy as np
import pytest

from anc_secrecy import (
    ExperimentConfig,
    LayeredNetwork,
    SearchConfig,
    achievable_highsnr,
    beta_max_vector,
    bundled_presets,
    cutset_bound,
    extract_coefficients,
    gap_bound,
    high_snr_report,
    high_snr_scaling,
    optimal_scaling,
    rates,
    verify_against_closed_form,
)
from anc_secrecy.cli import run
from anc_secrecy.network import cascade
from conftest import (
    diamond_opt,
    fixed_betas,
    max_scaling_with_layer,
    noise_power_bound,
    plateau_index,
    random_diamond,
    random_feasible_scaling,
    reduced_snrs,
    snr_e_by_k,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_example1_reproduction():
    t0 = time.time()
    cfg = bundled_presets()["example1"]
    header, rows = run(cfg)
    elapsed = time.time() - t0

    bmax = beta_max_vector(cfg.network).beta[0][0]
    table = {row[0]: [float(x) for x in row[1:]] for row in rows}
    case1 = table["111"]  # all three snooped
    case2 = table["110"]  # nodes 2 and 3 snooped
    beta1 = case1[2:5]
    beta2 = case2[2:5]

    checks = [
        abs(bmax - 1.3363) <= 1e-3,
        abs(beta1[0] - 1.3363) <= 1e-3 and abs(beta1[1]) <= 1e-3 and abs(beta1[2]) <= 1e-3,
        abs(case1[0] - 0.081749) <= 1e-4,
        abs(beta2[0] - 1.3363) <= 1e-3 and abs(beta2[1]) <= 1e-3
        and abs(beta2[2] - 0.7298) <= 1e-3,
        abs(case2[0] - 0.095368) <= 1e-4,
        case2[0] > case1[0],
        elapsed < 10.0,
    ]
    _report(1, all(checks),
            f"beta_max={bmax:.5f}, case1 R_e={case1[0]:.6f}, "
            f"case2 R_e={case2[0]:.6f}, subset {{2,3}} beats {{1,2,3}}: "
            f"{case2[0] > case1[0]}, {elapsed:.2f}s")


def test_criterion_2_gap_bound_reproduction():
    t0 = time.time()
    values = {}
    for name, target in (("fig5a", 0.25), ("fig5b", 0.09)):
        cfg = bundled_presets()[name]
        _, rows = run(ExperimentConfig(network=cfg.network, mode="highsnr",
                                       delta=cfg.delta))
        values[name] = (float(rows[0][4]), target)
    elapsed = time.time() - t0
    ok = all(abs(v - t) <= 0.005 for v, t in values.values()) and elapsed < 1.0
    _report(2, ok,
            f"fig5a gap_bound={values['fig5a'][0]:.4f} (target 0.25), "
            f"fig5b gap_bound={values['fig5b'][0]:.4f} (target 0.09), {elapsed:.2f}s")


def test_criterion_3_actual_gap_reproduction():
    details = []
    ok_all = True
    for name, target in (("fig5a", 0.05), ("fig5b", 0.03)):
        cfg = bundled_presets()[name]
        t0 = time.time()
        _, rows = run(cfg)  # sweep mode
        elapsed = time.time() - t0
        r_allmax = [float(r[2]) for r in rows]
        idx = plateau_index(r_allmax, rel_slope=1e-4)
        assert idx is not None, f"{name}: sweep never flattens"
        gap_allmax = float(rows[idx][4])
        rep = high_snr_report(cfg.network, cfg.delta)  # P_s at the plateau end
        gap_delta = rep.actual_gap
        in_band = (abs(gap_allmax - target) <= 0.02) or (abs(gap_delta - target) <= 0.02)
        ok_all = ok_all and in_band and elapsed < 30.0
        details.append(f"{name}: allmax gap={gap_allmax:.4f}, "
                       f"delta gap={gap_delta:.4f} (target {target}), {elapsed:.1f}s")
    _report(3, ok_all, "; ".join(details))


def test_criterion_4_oracle_equivalence():
    t0 = time.time()
    cfg = SearchConfig(restarts=6, seed=2718)
    rng = np.random.default_rng(1729)
    failures = []

    for i in range(200):
        net = random_diamond(rng)
        rep = verify_against_closed_form(net, cfg=cfg)
        if not rep.passed:
            failures.append(("diamond", i, rep))

    count = 0
    while count < 200:
        L = int(rng.integers(1, 4))
        N = int(rng.integers(1, 4))
        for M in range(1, L + 1):  # every snooped layer is exercised
            net = LayeredNetwork(
                L=L, nodes_per_layer=(N,) * L,
                h_s=float(rng.uniform(0.05, 1.3)),
                h=tuple(float(rng.uniform(0.05, 1.3)) for _ in range(L - 1)),
                h_t=float(rng.uniform(0.05, 1.3)),
                h_e=float(rng.uniform(0.02, 1.0)), M=M,
                P_s=float(rng.uniform(0.1, 30.0)), P=float(rng.uniform(0.1, 30.0)),
                sigma2=float(rng.uniform(0.3, 2.0)))
            rep = verify_against_closed_form(net, cfg=cfg)
            count += 1
            if not rep.passed:
                failures.append(("ecgal", count, rep))

    elapsed = time.time() - t0
    ok = not failures and elapsed < 600.0
    _report(4, ok,
            f"200 diamonds + {count} layered instances, failures={len(failures)}, "
            f"{elapsed:.1f}s" + (f"; first: {failures[0]}" if failures else ""))


def test_criterion_5_invariant_suite():
    t0 = time.time()
    rng = np.random.default_rng(31415)
    n_instances = 1000
    recon_worst = 0.0

    for i in range(n_instances):
        # -- power-constraint respect + clamp on a general uniform net ------
        L = int(rng.integers(1, 4))
        N = int(rng.integers(1, 4))
        M = int(rng.integers(1, L + 1))
        net = LayeredNetwork(
            L=L, nodes_per_layer=(N,) * L,
            h_s=float(rng.uniform(0.05, 1.3)),
            h=tuple(float(rng.uniform(0.05, 1.3)) for _ in range(L - 1)),
            h_t=float(rng.uniform(0.05, 1.3)),
            h_e=float(rng.uniform(0.02, 1.0)), M=M,
            P_s=float(rng.uniform(0.1, 30.0)), P=float(rng.uniform(0.1, 30.0)),
            sigma2=float(rng.uniform(0.3, 2.0)))
        sv = random_feasible_scaling(rng, net)
        c = cascade(net, fixed_betas(sv.beta))
        for l in range(net.L):
            for n, b in enumerate(sv.beta[l]):
                assert b ** 2 * (c.sig[l] + c.fwd[l] + net.sigma2) <= net.P[l][n] * (1 + 1e-12)
        rep = rates(net, sv)
        assert rep.r_s >= 0.0
        assert (rep.r_s == 0.0) == (rep.r_t <= rep.r_e)

        # -- coefficient reconstruction, < 1e-10 relative -------------------
        co = extract_coefficients(net)
        h_m = net.gain_out(net.M - 1)
        bmax_m = beta_max_vector(net).beta[net.M - 1][0]
        vec = rng.uniform(0, bmax_m, size=N)
        direct = rates(net, max_scaling_with_layer(net, net.M - 1, vec))
        s_val = float(vec.sum()) ** 2
        q_val = float((vec ** 2).sum())
        snr_t, _ = reduced_snrs(co, h_m, net.common_h_e, s_val, q_val)
        err = abs(snr_t - direct.snr_t) / max(direct.snr_t, 1e-30)
        recon_worst = max(recon_worst, err)
        assert err < 1e-10

        # -- SNR_e^k monotonicity on a symmetric diamond --------------------
        dnet = random_diamond(rng)
        vals = [snr_e_by_k(dnet, k) for k in range(dnet.nodes_per_layer[0] + 1)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

        # -- high-SNR family: cutset dominance, gap sandwich, noise bound ---
        hL = int(rng.integers(1, 4))
        hN = int(rng.integers(1, 4))
        hnet = LayeredNetwork(
            L=hL, nodes_per_layer=(hN,) * hL,
            h_s=float(rng.uniform(0.3, 1.2)),
            h=tuple(float(rng.uniform(0.3, 1.2)) for _ in range(hL - 1)),
            h_t=float(rng.uniform(0.35, 1.2)),
            h_e=float(rng.uniform(0.02, 0.3)), M=hL,
            P_s=float(rng.uniform(5e3, 5e5)), P=float(rng.uniform(5e2, 5e3)),
            sigma2=1.0)
        delta = float(rng.uniform(0.002, min(0.2, 0.9 / hL)))
        sv_delta = high_snr_scaling(hnet, delta)  # regime holds by construction
        c_cut = cutset_bound(hnet)
        r_delta = achievable_highsnr(hnet, delta).r_s
        r_opt = optimal_scaling(hnet).rate.r_s
        assert r_delta <= c_cut + 1e-9
        assert r_opt <= c_cut + 1e-9
        assert -1e-9 <= c_cut - r_delta <= gap_bound(hnet, delta) + 1e-9
        noise = cascade(hnet, fixed_betas(sv_delta.beta)).fwd[-1]
        assert noise <= noise_power_bound(hnet, delta) * (1 + 1e-12)

    # -- gap_bound -> 0 as delta -> 0, strictly decreasing ------------------
    net5 = bundled_presets()["fig5a"].network
    seq = [gap_bound(net5, 10.0 ** -k) for k in range(2, 9)]
    assert all(b < a for a, b in zip(seq, seq[1:]))

    elapsed = time.time() - t0
    ok = elapsed < 300.0
    _report(5, ok,
            f"{n_instances} instances green; worst reconstruction error "
            f"{recon_worst:.2e}; gap_bound(1e-8)={seq[-1]:.2e}; {elapsed:.1f}s")


def test_criterion_6_specialization():
    rng = np.random.default_rng(9001)
    worst_beta = 0.0
    worst_rate = 0.0
    for _ in range(100):
        net = random_diamond(rng)
        d = diamond_opt(net)
        l = optimal_scaling(net)
        b_l = l.beta.beta[0][0]
        scale_b = max(abs(d.beta_opt), 1e-12)
        scale_r = max(abs(d.rate.r_s), 1e-12)
        worst_beta = max(worst_beta, abs(b_l - d.beta_opt) / scale_b)
        worst_rate = max(worst_rate, abs(l.rate.r_s - d.rate.r_s) / scale_r)
    ok = worst_beta < 1e-11 and worst_rate < 1e-11
    _report(6, ok,
            f"100 diamonds: worst relative deviation beta={worst_beta:.2e}, "
            f"rate={worst_rate:.2e}")
