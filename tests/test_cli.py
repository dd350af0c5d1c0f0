"""Config parsing, presets, CSV output, and CLI exit codes."""
import json
import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from anc_secrecy import ExperimentConfig, LayeredNetwork, bundled_presets
from anc_secrecy import cli
from anc_secrecy.cli import (_MAX_SWEEP_CELLS, _MAX_SWEEP_POINTS, MODES, ConfigError,
                             SweepSpec, load_config, main, run)
from anc_secrecy.network import _MAX_NODES
from conftest import config_to_dict


def _run_cli(args):
    return subprocess.run([sys.executable, "-W", "error", "-m", "anc_secrecy", *args],
                          capture_output=True, text=True)


EXAMPLE1_DICT = {
    "network": {"L": 1, "N": 3, "h_s": 0.6, "h": [], "h_t": 0.3,
                "h_e": [0.2, 0.6, 0.4], "M": 1, "P_s": 5.0, "P": 5.0,
                "sigma2": 1.0},
    "mode": "subset",
    "seed": 0,
}

_NET = EXAMPLE1_DICT["network"]
_SWEEP = {"from": 1.0, "to": 10.0, "points": 3}


def _without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


def _sweep_config(**sweep) -> dict:
    return {"network": _NET, "mode": "sweep", "sweep": sweep}


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(EXAMPLE1_DICT)
        again = ExperimentConfig.from_dict(config_to_dict(cfg))
        assert cfg == again

    def test_round_trip_all_presets(self):
        for name, cfg in bundled_presets().items():
            assert ExperimentConfig.from_dict(config_to_dict(cfg)) == cfg, name

    def test_round_trip_per_node_power(self):
        d = json.loads(json.dumps(EXAMPLE1_DICT))
        d["network"]["P"] = [[5.0, 1.25, 20.0]]
        cfg = ExperimentConfig.from_dict(d)
        assert cfg.network.P == ((5.0, 1.25, 20.0),)
        assert ExperimentConfig.from_dict(config_to_dict(cfg)) == cfg

    def test_scalar_and_per_node_forms_are_one_network(self):
        scalar = LayeredNetwork(L=2, nodes_per_layer=(2, 3), h_s=0.6, h=(0.5,), h_t=0.4,
                                h_e=0.2, M=2, P_s=5.0, P=4.0, sigma2=1.0)
        per_node = replace(scalar, h_e=[0.2, 0.2, 0.2], P=[[4.0, 4.0], [4.0, 4.0, 4.0]])
        assert scalar == per_node and hash(scalar) == hash(per_node)
        assert scalar.h_e == (0.2, 0.2, 0.2) and scalar.P == ((4.0, 4.0), (4.0, 4.0, 4.0))
        cfg = ExperimentConfig(network=scalar, mode="solve")
        assert config_to_dict(cfg)["network"]["P"] == [[4.0, 4.0], [4.0, 4.0, 4.0]]
        assert ExperimentConfig.from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_key_named(self):
        bad = dict(EXAMPLE1_DICT)
        bad["networkz"] = {}
        with pytest.raises(ConfigError, match="networkz"):
            ExperimentConfig.from_dict(bad)

    def test_missing_network_key_named(self):
        bad = json.loads(json.dumps(EXAMPLE1_DICT))
        del bad["network"]["h_t"]
        with pytest.raises(ConfigError, match="h_t"):
            ExperimentConfig.from_dict(bad)

    def test_long_L_rejected_before_expansion(self):
        # h's length fails first, before a million layers are parsed and
        # their power caps expanded
        bad = json.loads(json.dumps(EXAMPLE1_DICT))
        bad["network"].update(N=2, L=1_000_000, h=[0.5], h_e=0.2)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="h must have L-1"):
                ExperimentConfig.from_dict(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    @pytest.mark.parametrize("h", [[0.5], 0.5])
    def test_long_L_with_N_rejected_before_N_is_repeated(self, h):
        # N stands for L equal widths; h's length, or a scalar h, fails
        # before they are built, where 2**62 of them cannot even be asked for
        bad = json.loads(json.dumps(EXAMPLE1_DICT))
        bad["network"].update(N=2, L=2 ** 62, h=h, h_e=0.2)
        with pytest.raises(ConfigError, match="^network: h must have L-1"):
            ExperimentConfig.from_dict(bad)

    def test_sweep_points_over_the_limit_rejected(self):
        assert SweepSpec(1.0, 10.0, _MAX_SWEEP_POINTS, "log").points == _MAX_SWEEP_POINTS
        with pytest.raises(ConfigError, match=rf"^sweep.points: must be <= "
                                              rf"{_MAX_SWEEP_POINTS:,}, got {_MAX_SWEEP_POINTS + 1}$"):
            SweepSpec(1.0, 10.0, _MAX_SWEEP_POINTS + 1, "log")

    def test_sweep_points_times_nodes_over_the_limit_rejected(self, monkeypatch):
        # 25 relays: each point holds 25 columns, so 400,001 points are
        # just past the limit though under the points limit on their own
        def geomspace(*args, **kwargs):
            raise AssertionError("the sweep's points were built")

        monkeypatch.setattr("numpy.geomspace", geomspace)
        net = LayeredNetwork.diamond(N=25, h_s=0.6, h_t=0.3, h_e=0.2, P_s=5.0, P=5.0,
                                     sigma2=1.0)
        points = _MAX_SWEEP_CELLS // 25 + 1
        assert points <= _MAX_SWEEP_POINTS
        cfg = ExperimentConfig(network=net, mode="sweep",
                               sweep=SweepSpec(1.0, 10.0, points, "log"))
        with pytest.raises(ConfigError, match=rf"^sweep.points: times the network's nodes "
                                              rf"must be <= {_MAX_SWEEP_CELLS:,}, "
                                              rf"got {points * 25}$"):
            run(cfg)

    def test_empty_sweep_range_rejected(self):
        bad = json.loads(json.dumps(EXAMPLE1_DICT))
        bad["mode"] = "sweep"
        bad["sweep"] = {"from": 10.0, "to": 10.0, "points": 5}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_sweep_needs_two_points(self):
        bad = json.loads(json.dumps(EXAMPLE1_DICT))
        bad["mode"] = "sweep"
        bad["sweep"] = {"from": 1.0, "to": 10.0, "points": 1}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(p)


class TestPresets:
    def test_fig5a_parameters(self):
        net = bundled_presets()["fig5a"].network
        assert (net.h_s, net.h[0], net.h_t, net.common_h_e) == (0.689, 0.603, 0.203, 0.031)
        assert net.uniform_P == 500.0 and net.sigma2 == 1.0
        assert bundled_presets()["fig5a"].delta == 0.005

    def test_fig5b_parameters(self):
        net = bundled_presets()["fig5b"].network
        assert (net.h_s, net.h[0], net.h_t, net.common_h_e) == (0.260, 0.925, 0.113, 0.012)

    def test_example1_parameters(self):
        net = bundled_presets()["example1"].network
        assert net.h_e == (0.2, 0.6, 0.4)
        assert net.h_s == 0.6 and net.h_t == 0.3
        assert net.P_s == 5.0 and net.uniform_P == 5.0

    def test_fig4_parameters(self):
        net = bundled_presets()["fig4"].network
        assert (net.h_s, net.h_t, net.common_h_e) == (0.278, 0.379, 0.073)
        assert net.uniform_P == 10.0 and net.sigma2 == 1.0


class TestModes:
    def test_solve_columns(self, tmp_path):
        cfg = ExperimentConfig.from_dict(EXAMPLE1_DICT)
        header, rows = run(cfg)
        assert header == ["subset_bitmask", "r_e", "r_s",
                          "beta_1_1", "beta_1_2", "beta_1_3"]
        assert all(len(r) == len(header) for r in rows)

    def test_solve_mode_row(self):
        d = json.loads(json.dumps(EXAMPLE1_DICT))
        d["mode"] = "solve"
        header, rows = run(ExperimentConfig.from_dict(d))
        assert header[-5:] == ["snr_t", "snr_e", "r_t", "r_e", "r_s"]
        assert len(rows) == 1 and len(rows[0]) == 3 + 5

    def test_sweep_columns_and_schema(self):
        cfg = bundled_presets()["fig5a"]
        small = ExperimentConfig(network=cfg.network, mode="sweep",
                                 sweep=type(cfg.sweep)(1e4, 1e6, 5, "log"),
                                 delta=cfg.delta)
        header, rows = run(small)
        assert header == ["P_s", "r_s_opt", "r_s_allmax", "c_cut", "gap"]
        assert len(rows) == 5
        assert all(len(r) == 5 for r in rows)
        for row in rows:
            assert float(row[4]) == pytest.approx(
                float(row[3]) - float(row[2]), abs=1e-8)

    def test_sweep_leaves_cutset_columns_empty_below_last_layer(self):
        # the cutset bound assumes the eavesdropper on the last layer
        cfg = bundled_presets()["fig5a"]
        net = replace(cfg.network, M=1)
        header, rows = run(ExperimentConfig(
            network=net, mode="sweep", sweep=type(cfg.sweep)(1e2, 1e6, 3, "log")))
        assert len(rows) == 3
        for row in rows:
            assert row[3:] == ["", ""]
            assert float(row[1]) >= float(row[2]) - 1e-9

    def test_highsnr_row(self):
        cfg = bundled_presets()["fig5a"]
        header, rows = run(ExperimentConfig(network=cfg.network, mode="highsnr",
                                            delta=0.005))
        assert header == ["delta", "c_cut", "r_s_delta", "actual_gap", "gap_bound"]
        assert float(rows[0][4]) == pytest.approx(0.2492668, abs=1e-4)

    def test_nine_significant_digits(self):
        d = json.loads(json.dumps(EXAMPLE1_DICT))
        d["mode"] = "solve"
        _, rows = run(ExperimentConfig.from_dict(d))
        val = rows[0][0]  # beta_1_1 = 1.33630621 to 9 significant digits
        assert val == "1.33630621"


class TestCliProcess:
    def test_subset_preset_bitmask_row(self, tmp_path):
        out = tmp_path / "subset.csv"
        r = _run_cli(["subset", "--preset", "example1", "--output", str(out)])
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        assert lines[0].startswith("subset_bitmask,")
        row110 = next(l for l in lines if l.startswith("110,"))
        assert float(row110.split(",")[1]) == pytest.approx(0.095368, abs=1e-4)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            r = _run_cli(["subset", "--preset", "example1", "--output", str(out),
                          "--seed", "7"])
            assert r.returncode == 0, r.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "o.csv"
        r = _run_cli(["highsnr", "--preset", "fig5a", "--output", str(out)])
        assert r.returncode == 0, r.stderr
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_exit_1_unknown_key(self, tmp_path):
        bad = dict(EXAMPLE1_DICT)
        bad["bogus"] = 1
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad), encoding="utf-8")
        r = _run_cli(["solve", "--config", str(p)])
        assert r.returncode == 1
        assert "bogus" in r.stderr

    def test_exit_1_empty_sweep_range(self, tmp_path):
        bad = json.loads(json.dumps(EXAMPLE1_DICT))
        bad["sweep"] = {"from": 2.0, "to": 2.0, "points": 5}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad), encoding="utf-8")
        r = _run_cli(["sweep", "--config", str(p)])
        assert r.returncode == 1

    def test_exit_2_model_error(self, tmp_path):
        bad = json.loads(json.dumps(EXAMPLE1_DICT))
        bad["network"]["N"] = 2
        bad["network"]["L"] = 2
        bad["network"]["h"] = [0.5]
        bad["network"]["M"] = 2
        bad["network"]["h_e"] = 0.1
        bad["network"]["P"] = [[5.33, 30.5], [5.0, 5.0]]  # per-node caps off layer M
        bad["sweep"] = {"from": 1.0, "to": 100.0, "points": 3}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad), encoding="utf-8")
        r = _run_cli(["sweep", "--config", str(p)])
        # sweep requires the closed form, which names the condition it lacks
        assert r.returncode == 2, r.stderr
        assert "one power cap within each layer" in r.stderr

    @pytest.mark.parametrize("key, value", [("h_s", "NaN"), ("P", "Infinity"),
                                            ("sigma2", "-Infinity"), ("M", "NaN")])
    def test_exit_1_non_finite_value(self, tmp_path, key, value):
        text = json.dumps(EXAMPLE1_DICT).replace(
            f'"{key}": {json.dumps(EXAMPLE1_DICT["network"][key])}', f'"{key}": {value}')
        assert value in text
        p = tmp_path / "bad.json"
        p.write_text(text, encoding="utf-8")
        r = _run_cli(["solve", "--config", str(p)])
        assert r.returncode == 1, r.stderr
        assert key in r.stderr

    def test_exit_3_regime_violation(self, tmp_path):
        cfg = bundled_presets()["fig5b"]
        d = config_to_dict(cfg)
        d["network"]["P_s"] = 500.0  # layer-1 SNR 33.8 < 1/delta = 200
        d["mode"] = "highsnr"
        p = tmp_path / "weak.json"
        p.write_text(json.dumps(d), encoding="utf-8")
        r = _run_cli(["highsnr", "--config", str(p)])
        assert r.returncode == 3
        assert "layer 1" in r.stderr

    def test_exit_2_delta_not_positive(self, tmp_path, capsys):
        # at delta = 0 no regime is checked, so no bound is reported
        d = config_to_dict(bundled_presets()["fig5a"])
        d["delta"] = 0.0
        p = tmp_path / "zero.json"
        p.write_text(json.dumps(d), encoding="utf-8")
        assert main(["highsnr", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith(
            "model error: delta = 0: the bounds need delta > 0")

    def test_exit_2_search_over_the_candidate_limit(self, tmp_path, capsys, monkeypatch):
        # 16 layers of one node: one search at dim 16, whose per-layer grid
        # alone has 3^16 points; refused before any grid is built
        def meshgrid(*args, **kwargs):
            raise AssertionError("a candidate grid was built")

        monkeypatch.setattr("numpy.meshgrid", meshgrid)
        d = {"network": {"L": 16, "N": 1, "h_s": 0.6, "h": [0.5] * 15, "h_t": 0.3,
                         "h_e": 0.2, "M": 16, "P_s": 5.0, "P": 5.0, "sigma2": 1.0},
             "mode": "subset", "seed": 0}
        p = tmp_path / "deep.json"
        p.write_text(json.dumps(d), encoding="utf-8")
        assert main(["subset", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("model error: the coarse scan's 43051186 candidates")
        assert "exceed the limit of 1000000" in err

    @pytest.mark.parametrize("detail, printed", [
        ("Unable to allocate 7.28 TiB", "model error: out of memory: Unable to allocate 7.28 TiB"),
        ("", "model error: out of memory")])
    def test_exit_2_out_of_memory(self, capsys, monkeypatch, detail, printed):
        # a run under the size limits that still exhausts the machine; the
        # runner raises at once and allocates nothing
        def exhausted(cfg):
            raise MemoryError(detail)

        monkeypatch.setitem(cli._RUNNERS, "solve", exhausted)
        assert main(["solve", "--preset", "fig4"]) == 2
        assert capsys.readouterr() == ("", printed + "\n")

    def test_requires_exactly_one_source(self):
        r = _run_cli(["solve"])
        assert r.returncode == 1
        r = _run_cli(["solve", "--preset", "example1", "--config", "x.json"])
        assert r.returncode == 1

    @pytest.mark.parametrize("argv", [["solve"],
                                      ["solve", "--preset", "example1", "--config", "x.json"]])
    def test_exit_1_names_the_one_source_rule(self, capsys, argv):
        assert main(argv) == 1
        assert capsys.readouterr().err == \
            "config error: exactly one of --config or --preset is required\n"

    def test_search_whose_best_rate_is_inf_exits_2(self, tmp_path, capsys):
        # per-node h_e sends solve to the search, whose best rate is inf at
        # sigma2 = 1e-300 (see test_oracle)
        d = {"network": {"L": 1, "N": 2, "h_s": 1, "h": [], "h_t": 1, "h_e": [0.5, 0.6],
                         "M": 1, "P_s": 1e10, "P": 1e10, "sigma2": 1e-300},
             "mode": "solve"}
        p = tmp_path / "inf.json"
        p.write_text(json.dumps(d), encoding="utf-8")
        assert main(["solve", "--config", str(p)]) == 2
        assert capsys.readouterr().err == ("model error: the inputs overflow the float range: "
                                           "the search's best secrecy rate is inf\n")

    def test_stdout_when_no_output(self):
        r = _run_cli(["highsnr", "--preset", "fig5a"])
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith("delta,")

    @pytest.mark.parametrize("key, value", [
        ("h_s", None), ("h_s", "abc"), ("h_s", [0.6]), ("h", 5), ("h", ["x"]),
        ("h_t", {}), ("h_e", [0.2, None, 0.4]), ("P_s", "five"), ("P", [5.0, 5.0, 5.0]),
        ("P", [["a", 5.0, 5.0]]), ("sigma2", None)])
    def test_exit_1_non_numeric_value_names_key(self, tmp_path, capsys, key, value):
        bad = json.loads(json.dumps(EXAMPLE1_DICT))
        bad["network"][key] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["solve", "--config", str(p)]) == 1
        assert f"network.{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("sweep.from", None), ("sweep.to", "x"), ("sweep.points", "x"), ("delta", "x"),
        ("seed", "x"), ("seed", -3), ("output", 5), ("network.nodes_per_layer", 5),
        ("network.M", 1.9), ("network.N", 2.5), ("sweep.points", 2.7),
        # JSON booleans are not numbers, although Python's bool is an int
        ("seed", True), ("network.P_s", True), ("network.nodes_per_layer", [True, 2])])
    def test_exit_1_bad_value_names_dotted_key(self, tmp_path, capsys, key, value):
        bad = json.loads(json.dumps(EXAMPLE1_DICT))
        bad["sweep"] = {"from": 1.0, "to": 10.0, "points": 3}
        *parents, leaf = key.split(".")
        target = bad[parents[0]] if parents else bad
        target[leaf] = value
        if leaf == "nodes_per_layer":
            del target["N"]  # the two widths exclude each other
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["solve", "--config", str(p)]) == 1
        assert f"{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, key, value", [
        ("highsnr", "delta", math.nan), ("highsnr", "delta", math.inf),
        ("sweep", "sweep.to", math.inf), ("sweep", "sweep.from", -math.inf),
        ("solve", "network.h_s", "0.6"), ("solve", "seed", "2")])
    def test_exit_1_non_finite_or_string_number_names_dotted_key(self, tmp_path, capsys,
                                                                 mode, key, value):
        bad = json.loads(json.dumps(EXAMPLE1_DICT))
        bad.update(sweep={"from": 1.0, "to": 10.0, "points": 3}, delta=0.005)
        *parents, leaf = key.split(".")
        (bad[parents[0]] if parents else bad)[leaf] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad), encoding="utf-8")
        assert main([mode, "--config", str(p)]) == 1
        assert f"config error: {key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("key, value", [("h_s", 1e200), ("h_t", 1e200),
                                            ("sigma2", 1e-320), ("P", 1e308), ("P_s", 1e308)])
    def test_overflowing_inputs_exit_2(self, tmp_path, capsys, mode, key, value):
        d = config_to_dict(bundled_presets()["fig5a"])
        d["network"][key] = value
        p = tmp_path / "big.json"
        p.write_text(json.dumps(d), encoding="utf-8")
        code = main([mode, "--config", str(p)])
        out, err = capsys.readouterr()
        if key == "P_s":
            # no product overflows: the amplifiers scale the source power down
            assert code == 0, err
            cells = [c for row in out.splitlines()[1:] for c in row.split(",") if c]
            assert cells and all(math.isfinite(float(c)) for c in cells)
        else:
            assert code == 2
            assert err.startswith("model error: the inputs overflow the float range")

    @pytest.mark.parametrize("mode", ["sweep", "highsnr"])
    def test_cutset_bound_past_the_float_range_exits_2(self, tmp_path, capsys, mode):
        # numpy raises nothing here: the cutset bound overflows in Python floats
        d = config_to_dict(bundled_presets()["fig5a"])
        d["network"].update(P=1e290, sigma2=1e-20)
        p = tmp_path / "big.json"
        p.write_text(json.dumps(d), encoding="utf-8")
        assert main([mode, "--config", str(p)]) == 2
        assert "overflow the float range: a result is inf" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["solve", "subset"])
    def test_search_past_the_float_range_in_squares_exits_0(self, tmp_path, capsys, mode):
        # per-node h_e sends solve to the search; a snooped term squared
        # times sigma2 passes the float range, while the eavesdropper's SNR
        # is about 2e-100
        d = {"network": {"L": 1, "N": 2, "h_s": 1, "h": [], "h_t": 1,
                         "h_e": [1e60, 1.1e60], "M": 1, "P_s": 1, "P": 1e200,
                         "sigma2": 1e100},
             "mode": mode}
        p = tmp_path / "big.json"
        p.write_text(json.dumps(d), encoding="utf-8")
        code = main([mode, "--config", str(p)])
        out, err = capsys.readouterr()
        assert code == 0, err
        header, *rows = [line.split(",") for line in out.splitlines()]
        assert rows and all(float(r[header.index("r_s")]) == 0.0 for r in rows)

    @pytest.mark.parametrize("argv, config, named", [
        (["solve"], [], "config: top level"),
        (["solve"], {"mode": "solve"}, "network: missing"),
        (["solve"], {"network": _NET}, "mode: missing"),
        (["solve"], {"network": 5, "mode": "solve"}, "network: must be an object"),
        (["solve"], {"network": {**_NET, "h_x": 1}, "mode": "solve"},
         "network: unknown key 'h_x'"),
        (["solve"], {"network": _without(_NET, "N"), "mode": "solve"},
         "network.nodes_per_layer: missing"),
        (["sweep"], {"network": _NET, "mode": "sweep", "sweep": 5}, "sweep: must be an object"),
        (["sweep"], _sweep_config(**_SWEEP, step=2), "sweep: unknown key 'step'"),
        (["sweep"], _sweep_config(**_without(_SWEEP, "from")), "sweep.from: missing"),
        (["sweep"], _sweep_config(**_without(_SWEEP, "to")), "sweep.to: missing"),
        (["sweep"], _sweep_config(**_without(_SWEEP, "points")), "sweep.points: missing"),
        (["sweep"], _sweep_config(**_SWEEP, variable="P"), "sweep.variable: only 'P_s'"),
        (["sweep"], _sweep_config(**_SWEEP, scale="cubic"), "sweep.scale: must be"),
        (["solve"], {"network": _NET, "mode": "solved"}, "mode: must be one of"),
        (["sweep"], {"network": _NET, "mode": "solve"}, "sweep: required for sweep mode"),
        (["highsnr"], {"network": _NET, "mode": "solve"}, "delta: required for highsnr"),
        (["solve"], None, "config: cannot read"),
        (["solve", "--preset", "fig9"], None, "unknown preset 'fig9'"),
        # each size just past its limit, refused before anything is built
        (["sweep"], _sweep_config(**{**_SWEEP, "points": _MAX_SWEEP_POINTS + 1}),
         f"sweep.points: must be <= {_MAX_SWEEP_POINTS:,}"),
        (["sweep"], {"network": {**_NET, "N": 25, "h_e": 0.2}, "mode": "sweep",
                     "sweep": {**_SWEEP, "points": _MAX_SWEEP_CELLS // 25 + 1}},
         f"sweep.points: times the network's nodes must be <= {_MAX_SWEEP_CELLS:,}"),
        (["solve"], {"network": {**_NET, "N": _MAX_NODES + 1, "h_e": 0.2}, "mode": "solve"},
         f"network.nodes_per_layer: must total <= {_MAX_NODES:,} nodes"),
        (["solve"], {"network": {**_without(_NET, "N"), "L": 2, "M": 2, "h": [0.5], "h_e": 0.2,
                                 "nodes_per_layer": [_MAX_NODES // 2, _MAX_NODES // 2 + 1]},
                     "mode": "solve"},
         f"network.nodes_per_layer: must total <= {_MAX_NODES:,} nodes"),
        # N is not dropped in favour of nodes_per_layer
        (["solve"], {"network": {**_NET, "L": 2, "M": 2, "h": [0.5], "h_e": 0.2, "N": 5,
                                 "nodes_per_layer": [2, 2]}, "mode": "solve"},
         "network: give N or nodes_per_layer, not both"),
        (["solve"], {**EXAMPLE1_DICT, "x": 1}, "config: unknown key 'x'")])
    def test_exit_1_config_error_names_key(self, tmp_path, capsys, argv, config, named):
        # argv without a source reads the config from a file, None leaving it unwritten
        path = tmp_path / "config.json"
        if config is not None:
            path.write_text(json.dumps(config), encoding="utf-8")
        if len(argv) == 1:
            argv = [*argv, "--config", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err, err

    @pytest.mark.parametrize("mode", ["sweep", "highsnr"])
    def test_subcommand_mode_decides_what_config_needs(self, tmp_path, capsys, mode):
        # the file's mode would need a sweep or a delta; solve runs and needs neither
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"network": _NET, "mode": mode}), encoding="utf-8")
        assert main(["solve", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out == (Path(__file__).parent / "data" / "example1_solve.csv").read_text(), err

    def test_exit_1_negative_seed_flag(self, capsys):
        assert main(["solve", "--preset", "example1", "--seed", "-1"]) == 1
        assert "seed:" in capsys.readouterr().err

    def test_integral_floats_accepted_for_integer_keys(self):
        d = json.loads(json.dumps(EXAMPLE1_DICT))
        d["network"].update(L=1.0, N=3.0, M=1.0)
        d["sweep"] = {"from": 1.0, "to": 10.0, "points": 3.0}
        cfg = ExperimentConfig.from_dict(d)
        assert (cfg.network.L, cfg.network.nodes_per_layer, cfg.network.M) == (1, (3,), 1)
        assert cfg.sweep.points == 3


# the goldens of every preset and mode that succeeds: a preset's default
# mode is pinned by its CSV in results/, which scripts/run_all_presets.py
# writes, and every other mode by a file in tests/data
RESULTS = Path(__file__).resolve().parent.parent / "results"
GOLDEN = {p.stem: p for p in (Path(__file__).parent / "data").glob("*.csv")}
GOLDEN.update({f"{name}_{cfg.mode}": RESULTS / f"{name}.csv"
               for name, cfg in bundled_presets().items()})


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_csv(tmp_path, name):
    # the files pin the output bytes
    preset, mode = name.split("_")
    out = tmp_path / "out.csv"
    assert main([mode, "--preset", preset, "--output", str(out)]) == 0
    assert out.read_bytes() == GOLDEN[name].read_bytes()
