"""Config parsing, presets, CSV output, and CLI exit codes."""
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from anc_secrecy import ExperimentConfig, LayeredNetwork, bundled_presets
from anc_secrecy.cli import ConfigError, load_config, main, run


def _run_cli(args):
    return subprocess.run([sys.executable, "-m", "anc_secrecy", *args],
                          capture_output=True, text=True)


EXAMPLE1_DICT = {
    "network": {"L": 1, "N": 3, "h_s": 0.6, "h": [], "h_t": 0.3,
                "h_e": [0.2, 0.6, 0.4], "M": 1, "P_s": 5.0, "P": 5.0,
                "sigma2": 1.0},
    "mode": "subset",
    "seed": 0,
}


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(EXAMPLE1_DICT)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert cfg == again

    def test_round_trip_all_presets(self):
        for name, cfg in bundled_presets().items():
            assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg, name

    def test_round_trip_per_node_power(self):
        d = json.loads(json.dumps(EXAMPLE1_DICT))
        d["network"]["P"] = [[5.0, 1.25, 20.0]]
        cfg = ExperimentConfig.from_dict(d)
        assert cfg.network.P == ((5.0, 1.25, 20.0),)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_scalar_and_per_node_forms_are_one_network(self):
        scalar = LayeredNetwork(L=2, nodes_per_layer=(2, 3), h_s=0.6, h=(0.5,), h_t=0.4,
                                h_e=0.2, M=2, P_s=5.0, P=4.0, sigma2=1.0)
        per_node = replace(scalar, h_e=[0.2, 0.2, 0.2], P=[[4.0, 4.0], [4.0, 4.0, 4.0]])
        assert scalar == per_node and hash(scalar) == hash(per_node)
        assert scalar.h_e == (0.2, 0.2, 0.2) and scalar.P == ((4.0, 4.0), (4.0, 4.0, 4.0))
        cfg = ExperimentConfig(network=scalar, mode="solve")
        assert cfg.to_dict()["network"]["P"] == [[4.0, 4.0], [4.0, 4.0, 4.0]]
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

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
                                 sweep=type(cfg.sweep)("P_s", 1e4, 1e6, 5, "log"),
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
            network=net, mode="sweep", sweep=type(cfg.sweep)("P_s", 1e2, 1e6, 3, "log")))
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
        d = cfg.to_dict()
        d["network"]["P_s"] = 500.0  # layer-1 SNR 33.8 < 1/delta = 200
        d["mode"] = "highsnr"
        p = tmp_path / "weak.json"
        p.write_text(json.dumps(d), encoding="utf-8")
        r = _run_cli(["highsnr", "--config", str(p)])
        assert r.returncode == 3
        assert "layer 1" in r.stderr

    def test_requires_exactly_one_source(self):
        r = _run_cli(["solve"])
        assert r.returncode == 1
        r = _run_cli(["solve", "--preset", "example1", "--config", "x.json"])
        assert r.returncode == 1

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
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["solve", "--config", str(p)]) == 1
        assert f"{key}:" in capsys.readouterr().err

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


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.csv")))
def test_golden_csv(tmp_path, name):
    # every preset and mode that succeeds; the files pin the output bytes
    preset, mode = name.split("_")
    out = tmp_path / "out.csv"
    assert main([mode, "--preset", preset, "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
