"""Tabulate the cutset gap of the 2x2 layered presets across delta.

For each delta: the achievable secrecy rate under delta-scaling at the
high-SNR end of the source-power range, the actual gap to the cutset bound,
and the analytic gap bound. The bound shrinks to zero with delta.
"""
from anc_secrecy import RegimeViolationError, bundled_presets, high_snr_report


def main() -> None:
    for name in ("fig5a", "fig5b"):
        net = bundled_presets()[name].network
        print(f"\n{name}: h_s={net.h_s}, h_1={net.h[0]}, h_t={net.h_t}, "
              f"h_e={net.common_h_e}, nodes_per_layer={net.nodes_per_layer}, P={net.uniform_P}")
        print(f"{'delta':>9} {'C_cut':>9} {'R_s(delta)':>11} "
              f"{'actual gap':>11} {'gap bound':>10}")
        for delta in (0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0001):
            try:
                rep = high_snr_report(net, delta)
            except RegimeViolationError as exc:
                print(f"{delta:>9} network leaves the regime: {exc}")
                continue
            print(f"{delta:>9} {rep.c_cut:>9.5f} {rep.r_s_delta:>11.5f} "
                  f"{rep.actual_gap:>11.6f} {rep.gap_bound:>10.6f}")


if __name__ == "__main__":
    main()
