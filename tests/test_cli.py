import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import slowgyro
from slowgyro.cli import main, normalize_config


def run(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def write_config(tmp_path, extra=None, name="config.json"):
    cfg = {
        "atom.preset": "rb87",
        "geometry.preset": "gupta",
        "fields.rabi_c_rad_s": 1e8,
        "fields.rabi_p0_rad_s": 1e8 * math.sqrt(1 / 3),
        "geometry.rotation_rate_rad_s": 7.29e-5,
    }
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"atom.msas_kg": 1.0}))
        code, _, err = run(["steady-state", "--config", str(path)], capsys)
        assert code == 1
        assert "atom.msas_kg" in err

    def test_validation_error_names_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"atom.mass_kg": -2.0}))
        code, _, err = run(["steady-state", "--config", str(path)], capsys)
        assert code == 1
        assert "atom.mass_kg" in err

    def test_cross_field_error_names_namespace(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"geometry.radius_m": 1e-3,
                                    "geometry.medium_length_m": 1.0}))
        code, _, err = run(["phase", "--config", str(path)], capsys)
        assert code == 1
        assert "geometry" in err

    def test_preset_expansion(self):
        config = normalize_config({"atom.preset": "na23"})
        assert config.atom.mass == pytest.approx(3.8176e-26)
        assert config.fields.lambda_p == pytest.approx(589.0e-9)
        assert "atom.mass_kg" in config.echo
        assert "atom.preset" not in config.echo

    def test_missing_file(self, capsys):
        code, _, err = run(["phase", "--config", "/nope/missing.json"], capsys)
        assert code == 1


class TestSteadyState:
    def test_residuals_small(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code, out, _ = run(["steady-state", "--config", path], capsys)
        assert code == 0
        env = json.loads(out)
        assert env["results"]["hermiticity_residual"]["value"] < 1e-10
        assert env["results"]["trace_residual"]["value"] < 1e-10
        assert env["results"]["generator_residual"]["value"] < 1e-10

    def test_probe_off_ground_state(self, tmp_path, capsys):
        path = write_config(tmp_path, {"fields.rabi_p0_rad_s": 0.0})
        code, out, _ = run(["steady-state", "--config", path], capsys)
        env = json.loads(out)
        assert env["results"]["rho_real"]["value"][0][0] == pytest.approx(1.0)

    def test_dark_state_population(self, tmp_path, capsys):
        path = write_config(tmp_path, {"atom.gamma13_per_s": 0.0,
                                       "fields.rabi_p0_rad_s": 1e6})
        code, out, _ = run(["steady-state", "--config", path], capsys)
        env = json.loads(out)
        assert abs(env["results"]["excited_population"]["value"]) < 1e-6

    def test_degenerate_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"atom.gamma1_per_s": 0.0,
                                       "atom.gamma3_per_s": 0.0,
                                       "atom.gamma13_per_s": 0.0,
                                       "fields.rabi_p0_rad_s": 0.0})
        code, _, err = run(["steady-state", "--config", path], capsys)
        assert code == 2
        assert "null space" in err


class TestPhase:
    def test_zero_rotation_zero_phases(self, tmp_path, capsys):
        path = write_config(tmp_path, {"geometry.rotation_rate_rad_s": 0.0})
        code, out, _ = run(["phase", "--config", path], capsys)
        env = json.loads(out)
        assert env["results"]["delta_phi_sig"]["value"] == 0.0
        assert env["results"]["light_part"]["value"] == 0.0
        assert env["results"]["matter_part"]["value"] == 0.0

    def test_thermal_preparation_gates_matter(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            {"preparation.kind": "thermal_ring",
                             "preparation.temperature_K": 1e-6})
        code, out, _ = run(["phase", "--config", path], capsys)
        env = json.loads(out)
        assert env["results"]["matter_part"]["value"] == 0.0
        assert env["results"]["delta_phi_sig"]["value"] != 0.0

    def test_vacuum_matches_bare_reference(self, tmp_path, capsys):
        path = write_config(tmp_path, {"geometry.atom_density_per_m3": 0.0,
                                       "atom.gamma13_per_s": 0.0})
        code, out, _ = run(["phase", "--config", path], capsys)
        env = json.loads(out)
        got = env["results"]["delta_phi_sig"]["value"]
        bare = env["results"]["bare_sagnac_phase"]["value"]
        assert got == pytest.approx(bare, rel=1e-9)

    def test_all_results_carry_units(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code, out, _ = run(["phase", "--config", path], capsys)
        env = json.loads(out)
        for name, entry in env["results"].items():
            assert "unit" in entry and entry["unit"], name

    def test_round_trip_reproduces_results_bit_identically(self, tmp_path, capsys):
        path = write_config(tmp_path)
        _, out1, _ = run(["phase", "--config", path], capsys)
        env1 = json.loads(out1)
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(env1["inputs"]))
        _, out2, _ = run(["phase", "--config", str(echo)], capsys)
        env2 = json.loads(out2)
        assert env1["results"] == env2["results"]

    def test_agrees_with_copropagating_propagate(self, capsys):
        _, out_phase, _ = run(["phase"], capsys)
        _, out_prop, _ = run(["propagate", "--direction", "1"], capsys)
        phase = json.loads(out_phase)["results"]
        prop = json.loads(out_prop)["results"]
        for name in phase:
            assert prop[name] == phase[name], name

    def test_profile_out_and_grid_override(self, tmp_path, capsys):
        path = write_config(tmp_path)
        profile = tmp_path / "profile.csv"
        code, out, _ = run(["propagate", "--config", path, "--grid", "96",
                            "--profile-out", str(profile)], capsys)
        assert code == 0
        with open(profile) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 96

    def test_zero_grid_override_rejected(self, capsys):
        code, _, err = run(["phase", "--grid", "0"], capsys)
        assert code == 1
        assert "grid.n_points" in err

    def test_csv_format_envelope(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code, out, _ = run(["phase", "--config", path, "--format", "csv"],
                           capsys)
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["name", "value", "unit"]
        names = [r[0] for r in rows[1:]]
        assert "delta_phi_sig" in names

    def test_output_keys_in_config(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        path = write_config(tmp_path, {"output.path": str(target),
                                       "output.format": "json"})
        code, out, _ = run(["phase", "--config", path], capsys)
        assert code == 0
        assert out == ""
        env = json.loads(target.read_text())
        assert "delta_phi_sig" in env["results"]

    def test_bad_output_format_in_config(self, tmp_path, capsys):
        path = write_config(tmp_path, {"output.format": "xml"})
        code, _, err = run(["phase", "--config", path], capsys)
        assert code == 1
        assert "output.format" in err

    def test_preset_values_labeled_in_assumptions(self, tmp_path, capsys):
        path = write_config(tmp_path)
        _, out, _ = run(["phase", "--config", path], capsys)
        env = json.loads(out)
        joined = "\n".join(env["assumptions"])
        assert "preset rb87" in joined
        assert "preset gupta" in joined
        # explicit values are not attributed to the preset
        assert "fields.rabi_c_rad_s" not in joined


class TestSnrSweep:
    def _sweep(self, tmp_path, capsys, extra=None, args=()):
        path = write_config(tmp_path, extra)
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(["snr-sweep", "--config", path, "--out",
                            str(out_path), *args], capsys)
        assert code == 0, err
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        return header, np.array([[float(v) for v in row] for row in data])

    def test_header_and_shape(self, tmp_path, capsys):
        header, data = self._sweep(tmp_path, capsys, args=("--steps", "50"))
        assert header == ["rabi_p0_rad_s", "s", "snr_total", "snr_matter",
                          "snr_light"]
        assert data.shape == (50, 5)

    def test_single_step(self, tmp_path, capsys):
        _, data = self._sweep(tmp_path, capsys, args=("--steps", "1"))
        assert data.shape == (1, 5)

    def test_matter_column_single_interior_maximum(self, tmp_path, capsys):
        _, data = self._sweep(tmp_path, capsys, args=("--steps", "120"))
        matter = data[:, 3]
        peak = int(np.argmax(matter))
        assert 0 < peak < len(matter) - 1
        assert np.all(np.diff(matter[:peak + 1]) > 0)
        assert np.all(np.diff(matter[peak:]) < 0)

    def test_light_column_monotone(self, tmp_path, capsys):
        _, data = self._sweep(tmp_path, capsys, args=("--steps", "120"))
        light = data[:, 4]
        assert np.all(np.diff(light) > 0)

    def test_vacuum_medium_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {"geometry.atom_density_per_m3": 0.0})
        code, _, err = run(["snr-sweep", "--config", path], capsys)
        assert code == 1


class TestValidityDomain:
    def test_partial_momentum_transfer_refused_by_both_commands(
            self, tmp_path, capsys):
        # k_c_parallel = 4e6 /m gives eta ~ 0.5, outside the saturating model
        path = write_config(tmp_path, {"fields.k_c_parallel_per_m": 4e6})
        for command in ("propagate", "phase"):
            code, out, err = run([command, "--config", path], capsys)
            assert code == 1, command
            assert out == ""
            assert "eta" in err


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(slowgyro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, slowgyro.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


class TestOptimize:
    def test_default_a_list(self, tmp_path, capsys):
        out_path = tmp_path / "opt.csv"
        code, _, _ = run(["optimize", "--out", str(out_path)], capsys)
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "s_opt", "xi_opt", "g_max", "f_estimate"]
        data = {float(r[0]): [float(v) for v in r[1:]] for r in rows[1:]}
        assert set(data) == {0.05, 0.5, 5.0, 50.0, 500.0, 5000.0}
        s_opt, xi_opt, _, _ = data[500.0]
        assert s_opt == pytest.approx(1 / 3, rel=0.01)
        assert xi_opt == pytest.approx(1000.0, rel=0.01)
        assert all(np.isfinite(data[0.05]))
        assert 7.1 <= data[5000.0][3] <= 7.3

    def test_custom_list(self, capsys):
        code, out, _ = run(["optimize", "--a-list", "2.5"], capsys)
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert len(rows) == 2

    def test_bad_list(self, capsys):
        code, _, err = run(["optimize", "--a-list", "-3"], capsys)
        assert code == 1


class TestOmegaMin:
    def test_gupta_case(self, capsys):
        code, out, _ = run(["omega-min", "--case", "gupta"], capsys)
        assert code == 0
        env = json.loads(out)
        om = env["results"]["omega_min"]["value"]
        assert om == pytest.approx(1.4e-9, rel=0.1)
        assert env["results"]["gupta_arnold_ratio"]["value"] == \
            pytest.approx(1024.0, rel=1e-12)
        assert env["assumptions"]

    def test_arnold_case(self, capsys):
        code, out, _ = run(["omega-min", "--case", "arnold"], capsys)
        env = json.loads(out)
        assert env["results"]["omega_min"]["value"] == \
            pytest.approx(1.4e-12, rel=0.1)

    def test_benchmark_comparisons_present(self, capsys):
        code, out, _ = run(["omega-min", "--case", "gupta"], capsys)
        env = json.loads(out)
        names = set(env["results"])
        assert "benchmark_optical_gyroscope_rad_s_sqrtHz" in names
        assert "ratio_to_matter_wave_gyroscope_rad_s_sqrtHz" in names

    def test_case_refuses_config(self, capsys):
        code, _, err = run(["omega-min", "--case", "gupta", "--config",
                            "/nonexistent/missing.json"], capsys)
        assert code == 1
        assert "--config" in err

    def test_case_refuses_grid(self, capsys):
        code, _, err = run(["omega-min", "--case", "gupta", "--grid", "10"],
                           capsys)
        assert code == 1
        assert "--grid" in err

    def test_config_mode(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code, out, _ = run(["omega-min", "--config", path], capsys)
        assert code == 0
        env = json.loads(out)
        assert env["results"]["omega_min"]["value"] > 0
        assert env["results"]["a"]["value"] > 0

    def test_runs_on_default_config(self, capsys):
        code, out, _ = run(["omega-min"], capsys)
        assert code == 0
        env = json.loads(out)
        assert env["results"]["omega_min"]["value"] > 0
