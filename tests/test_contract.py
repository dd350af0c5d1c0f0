"""Contract fuzz: seeded configs of ordinary and extreme magnitudes through
the in-process CLI, checked against the README's contract rather than
against values: exit codes, error messages, finite cells and the sweep's
orderings."""
import json
import math
import re

import numpy as np
import pytest

from anc_secrecy import LayeredNetwork
from anc_secrecy.cli import ExperimentConfig, SweepSpec, main
from anc_secrecy.layered import closed_form_applies
from conftest import config_to_dict, extreme_value

DRAWS = 500

# Python's and numpy's own texts. A message that is nothing but one of them
# names no condition of the inputs; an overflow is reported behind "the
# inputs overflow the float range: ".
_BARE = re.compile(r"model error: (?:math domain error|math range error"
                   r"|float division by zero|[\w ]+ encountered in [\w ]+)")


def _draw(rng) -> tuple[LayeredNetwork, SweepSpec, float]:
    """L 1-3, ragged widths 1-3, every M; scalar, per-layer or per-node caps
    and a scalar or per-node h_e."""
    L = int(rng.integers(1, 4))
    widths = tuple(int(rng.integers(1, 4)) for _ in range(L))
    M = int(rng.integers(1, L + 1))
    form = int(rng.integers(3))
    if form == 0:
        P = extreme_value(rng)
    elif form == 1:
        P = [[extreme_value(rng)] * n for n in widths]
    else:
        P = [[extreme_value(rng) for _ in range(n)] for n in widths]
    h_e = (extreme_value(rng) if rng.random() < 0.7
           else [extreme_value(rng) for _ in range(widths[M - 1])])
    net = LayeredNetwork(L=L, nodes_per_layer=widths, h_s=extreme_value(rng),
                         h=tuple(extreme_value(rng) for _ in range(L - 1)),
                         h_t=extreme_value(rng), h_e=h_e, M=M, P_s=extreme_value(rng), P=P,
                         sigma2=extreme_value(rng))
    start = extreme_value(rng)
    sweep = SweepSpec(start, start * 10.0 ** rng.uniform(1, 20), 4, "log")
    return net, sweep, float(rng.uniform(0.001, 0.2))


def _explicit(net: LayeredNetwork, delta: float = 0.005
              ) -> tuple[LayeredNetwork, SweepSpec, float]:
    return net, SweepSpec(net.P_s * 1e-8, net.P_s, 4, "log"), delta


def _item4(M: int) -> LayeredNetwork:
    # every power and SNR is in range, but P_s / sigma2 = 1e400 is not
    return LayeredNetwork(L=2, nodes_per_layer=(2, 2), h_s=1e-160, h=(0.5,), h_t=0.5,
                          h_e=0.1, M=M, P_s=1e300, P=1e-150, sigma2=1e-100)


# N^2 P h^2 / sigma2 past the float maximum for h = 1e60: the eavesdropper's
# term alone, then both terms of the cut. In the first, sigma2 times the
# eavesdropper's squared terms also passes it (2e320), while the SNR it
# enters is about 2e-100
_WIDE_CUT = LayeredNetwork.diamond(N=2, h_s=1.0, h_t=1.0, h_e=1e60, P_s=1.0, P=1e200,
                                   sigma2=1e100)

# (name, config, the exit code each listed mode must give)
EXPLICIT = [
    ("p_s_over_sigma2_M1", _explicit(_item4(1)), {"solve": 0, "sweep": 0}),
    ("p_s_over_sigma2_M2", _explicit(_item4(2)), {"solve": 0, "sweep": 0}),
    ("eavesdropper_cut_term_overflows", _explicit(_WIDE_CUT), {"solve": 0, "sweep": 0}),
    ("both_cut_terms_overflow", _explicit(LayeredNetwork.diamond(
        N=2, h_s=1.0, h_t=2e60, h_e=1e60, P_s=1.0, P=1e200, sigma2=1e100)), {}),
    ("highsnr_eavesdropper_terms_overflow", _explicit(LayeredNetwork(
        L=1, nodes_per_layer=(1,), h_s=1.1439462635158859e-07, h=(),
        h_t=1.4124211425024136, h_e=2.501804066288949e+127, M=1,
        P_s=4.890247384637787e+135, P=1.4831463870007775,
        sigma2=2.1296896541799853e-70)), {"highsnr": 0}),
    # h_e^2 P_st overflows where (h_e / h_t)^2 P_st does not
    ("highsnr_eavesdropper_mirror_overflows", _explicit(LayeredNetwork(
        L=1, nodes_per_layer=(3,), h_s=1.1758485097056415, h=(),
        h_t=1.0331283982284635e+131, h_e=9.660423375518073e+84, M=1,
        P_s=3.045258915512524e+69, P=5.769042870023556, sigma2=1.194726537771718),
        0.16430661573657815), {"highsnr": 0}),
    ("highsnr_ragged_per_layer_caps", _explicit(LayeredNetwork(
        L=2, nodes_per_layer=(2, 3), h_s=0.689, h=(0.603,), h_t=0.203, h_e=0.031, M=2,
        P_s=5e8, P=[[500.0] * 2, [400.0] * 3], sigma2=1.0)), {"highsnr": 0}),
]


def _cases():
    rng = np.random.default_rng(20261018)
    yield from EXPLICIT
    for i in range(DRAWS):
        yield f"draw{i}", _draw(rng), {}


def _check(name, mode, net, code, out, err):
    where = f"{name} {mode}: {net}"
    assert code in (0, 1, 2, 3), where
    if code == 2:
        assert err.startswith("model error: "), (where, err)
        assert not _BARE.fullmatch(err), (where, err)
    if code != 0:
        return
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows, where
    assert all(math.isfinite(float(c)) for r in rows for c in r if c), (where, out)
    if mode == "sweep":
        for r in rows:
            r_opt, r_allmax = float(r[1]), float(r[2])
            assert r_opt >= r_allmax - 1e-9, (where, r)
            # the cut is printed exactly where it holds, for M = L
            assert (r[3] != "") == (net.M == net.L), (where, r)
            if r[3]:
                assert float(r[3]) >= r_opt - 1e-9, (where, r)
    if mode == "highsnr":
        _, c_cut, r_s, gap, bound = map(float, rows[0])
        assert r_s <= c_cut + 1e-9, (where, rows)
        assert -1e-9 <= gap <= bound + 1e-9, (where, rows)


def test_cli_contract_on_seeded_extreme_configs(tmp_path, capsys):
    path = tmp_path / "config.json"
    for name, (net, sweep, delta), expected in _cases():
        cfg = ExperimentConfig(network=net, mode="sweep", sweep=sweep, delta=delta)
        path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
        # solve outside the lemma class runs the search, which the
        # oracle's own tests cover at a cost this test cannot afford
        modes = ("sweep", "highsnr") + (("solve",) if closed_form_applies(net) else ())
        for mode in modes:
            code = main([mode, "--config", str(path)])
            out, err = capsys.readouterr()
            _check(name, mode, net, code, out, err.strip())
            if mode in expected:
                assert code == expected[mode], (name, mode, err)
