import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.constants import c
from scipy.integrate import quad

import slowgyro
from slowgyro import sensitivity
from slowgyro.cli import (ATOM_PRESETS, COMMANDS, FLAGS, GEOMETRY_PRESETS,
                          KEY_SPECS, build_parser, cmd_snr_sweep, main,
                          normalize_config, read_config)
from slowgyro.errors import ConfigError, LowCountWarning
from slowgyro.propagation import frozen_phases
from slowgyro.ringmodes import Preparation

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


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

    @pytest.mark.parametrize("extra,named", [
        ({"fields.delta2_rad_s": 1.7e308, "fields.delta3_rad_s": -1.7e308},
         "detunings"),
        ({"atom.gamma1_per_s": 1.7e308, "atom.gamma3_per_s": 1.7e308},
         "decay rates")], ids=["detunings", "rates"])
    def test_overflowing_generator_refused(self, tmp_path, capsys, extra,
                                           named):
        # each number is finite, M's diagonal is not: one line, no
        # RuntimeWarning, and no solve
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(extra))
        code, out, err = run(["steady-state", "--config", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"invalid parameter: {named} ")
        assert err.count("\n") == 1

    def test_ill_conditioned_exit_code(self, tmp_path, capsys):
        # rates ~1 /s against delta2 = 2e11 rad/s: the solve is Hermitian
        # only to ~1e-7, a numerical failure
        path = tmp_path / "ill.json"
        path.write_text(json.dumps({
            "atom.gamma1_per_s": 1, "atom.gamma3_per_s": 13,
            "atom.gamma13_per_s": 500, "fields.rabi_p0_rad_s": 15,
            "fields.rabi_c_rad_s": 0.0016, "fields.delta2_rad_s": 2e11,
            "fields.delta3_rad_s": 0.32}))
        code, out, err = run(["steady-state", "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert re.fullmatch(
            r"numerical failure: ill-conditioned steady-state solve: "
            r"generator residual \S+, hermiticity residual \S+, "
            r"trace residual \S+, smallest eigenvalue \S+\n", err)


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

    def test_large_rotational_phase_matches_quadrature(self, tmp_path,
                                                       capsys):
        # ~3e3 rad of phase on 255 cells: only the log-amplitude step
        # (kappa * h) bounds the kernel's accuracy, the phase step does not
        path = write_config(tmp_path, {"geometry.preset": "arnold",
                                       "geometry.rotation_rate_rad_s": 1.0})
        code, out, _ = run(["phase", "--config", path], capsys)
        assert code == 0
        config = normalize_config(read_config(path))
        medium, geo = config.medium(), config.geometry
        t2, kappa = medium.tan2_theta, medium.kappa
        s0 = (config.fields.rabi_p0 / config.fields.rabi_c) ** 2
        pref = config.fields.k_p * geo.rotation_rate * geo.radius / c
        vrec_c = medium.scales.v_rec / c

        def rate(x):
            s = s0 * math.exp(-2.0 * kappa * x)
            return pref * (1.0 + t2 / (1.0 + s) ** 2) \
                / (1.0 + vrec_c * t2 / (1.0 + s) ** 3)

        expected, _ = quad(rate, 0.0, geo.medium_length, epsabs=0.0,
                           epsrel=1e-13)
        got = json.loads(out)["results"]["phase_cw"]["value"]
        assert got == pytest.approx(expected, rel=1e-10)

    def test_agrees_with_copropagating_propagate(self, capsys):
        _, out_phase, _ = run(["phase"], capsys)
        _, out_prop, _ = run(["propagate", "--direction", "1"], capsys)
        phase = json.loads(out_phase)["results"]
        prop = json.loads(out_prop)["results"]
        for name in phase:
            assert prop[name] == phase[name], name

    def test_profile_out_and_grid_override(self, tmp_path, capsys):
        path = write_config(tmp_path, {"grid.n_points": 96})
        profile = tmp_path / "profile.csv"
        code, out, _ = run(["propagate", "--config", path,
                            "--profile-out", str(profile)], capsys)
        assert code == 0
        with open(profile) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 96

    def test_zero_grid_override_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {"grid.n_points": 0})
        code, _, err = run(["phase", "--config", path], capsys)
        assert code == 1
        assert err == ("config error: grid.n_points: must be an integer "
                       ">= 64 (got 0)\n")

    def test_csv_format_envelope(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code, out, _ = run(["phase", "--config", path, "--format", "csv"],
                           capsys)
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["name", "value", "unit"]
        names = [r[0] for r in rows[1:]]
        assert "delta_phi_sig" in names

    def test_output_keys_in_config(self, tmp_path, capsys):
        # where and how to write are the --out and --format flags, so a
        # shared config cannot send every command to one file
        for key, value in (("output.path", str(tmp_path / "result.json")),
                           ("output.format", "json")):
            path = write_config(tmp_path, {key: value})
            for command in sorted({label.split()[0] for label, spec
                                   in COMMANDS.items() if spec.keys}):
                code, out, err = run([command, "--config", path], capsys)
                assert (code, out) == (1, ""), command
                assert err == f"config error: {key}: unknown key\n"
        assert os.listdir(tmp_path) == ["config.json"]

    def test_bad_output_format_in_config(self, tmp_path, capsys):
        path = write_config(tmp_path, {"output.format": "xml"})
        code, _, err = run(["phase", "--config", path], capsys)
        assert code == 1
        assert err == "config error: output.format: unknown key\n"

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

    def test_direct_call_refuses_bounds_under_their_flag(self):
        # the runner holds the one check of the bounds, so a direct caller
        # gets the parser's words
        buf = io.StringIO()
        with pytest.raises(ConfigError) as err:
            cmd_snr_sweep(normalize_config({}), buf, s_min=5, s_max=1)
        assert err.value.key == "--s-max"
        assert str(err.value) == "--s-max: must be >= --s-min (got 1 < 5)"
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("bound", [("--s-min", "nan"), ("--s-max", "inf"),
                                       ("--s-min=-inf",), ("--s-max", "nan")])
    def test_non_finite_bounds_rejected(self, capsys, bound):
        code, out, err = run(["snr-sweep", *bound], capsys)
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_refused_sweep_keeps_existing_output(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        out_path.write_text("previous table\n")
        code, _, _ = run(["snr-sweep", "--s-min", "nan", "--out",
                          str(out_path)], capsys)
        assert code == 1
        assert out_path.read_text() == "previous table\n"

    def test_low_counts_reported_on_stderr(self, tmp_path, capsys):
        # a thin probe beam: n_D < 1 on the low-power rows
        path = write_config(tmp_path, {"geometry.cross_section_m2": 1e-19})
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(["snr-sweep", "--config", path, "--out",
                              str(out_path)], capsys)
        assert code == 0
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("warning: LowCountWarning: ")
        # the config sets the probe power, which the sweep scans instead
        assert lines[1] == ("note: set but not read by slowgyro snr-sweep, "
                            "so not echoed: fields.rabi_p0_rad_s")
        code, out, _ = run(["snr-sweep", "--config", path], capsys)
        assert out == out_path.read_text()

    def test_low_counts_listed_in_the_json_envelope(self, tmp_path, capsys):
        # the thin beam above: a JSON envelope lists what CSV prints
        path = write_config(tmp_path, {"geometry.cross_section_m2": 1e-19})
        code, out, err = run(["snr-sweep", "--config", path, "--format",
                              "json"], capsys)
        assert (code, err) == (0, "")
        env = json.loads(out)
        [warning] = env["warnings"]
        assert warning.startswith("LowCountWarning: ")
        assert env["assumptions"][-1] == (
            "set but not read by slowgyro snr-sweep, so not echoed: "
            "fields.rabi_p0_rad_s")

    def test_default_config_prints_no_warning(self, capsys):
        for command in (["snr-sweep"], ["optimize"]):
            code, out, err = run(command, capsys)
            assert code == 0
            assert out
            assert err == ""


def _random_config(draw):
    return {"atom.preset": draw(st.sampled_from(["rb87", "na23"])),
            "geometry.preset": draw(st.sampled_from(["gupta", "arnold"])),
            "atom.gamma13_per_s": 10 ** draw(st.floats(0.0, 3.0)),
            "geometry.atom_density_per_m3":
                10 ** draw(st.floats(19.0, 21.0)),
            "geometry.rotation_rate_rad_s":
                draw(st.sampled_from([7.29e-5, -1e-3, 2.0])),
            "detection.time_s": 10 ** draw(st.floats(-3.0, 1.0))}


class TestSweepAgreesWithOtherCommands:
    """The sweep's closed-form rows against the SNR formula and against
    the frozen-s signal phase, on random valid configs."""

    @staticmethod
    def _sweep(config, n_steps=25):
        buf = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowCountWarning)
            cmd_snr_sweep(config, buf, n_steps=n_steps)
        rows = list(csv.reader(buf.getvalue().splitlines()))
        return [[float(v) for v in row] for row in rows[1:]]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matter_column_is_sensitivity_snr(self, data):
        config = normalize_config(_random_config(data.draw))
        medium = config.medium()
        geo = config.geometry
        for _, s, _, snr_matter, _ in self._sweep(config):
            ref = sensitivity.snr(abs(geo.rotation_rate), geo.area,
                                  geo.cross_section, geo.atom_density,
                                  medium.scales.v_rec, config.detection_time,
                                  s, medium.xi, medium.loss_parameter,
                                  config.atom.mass)
            assert snr_matter == pytest.approx(ref, rel=1e-12, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rows_are_frozen_signal_phase(self, data):
        config = normalize_config(_random_config(data.draw))
        medium, geo = config.medium(), config.geometry
        for rabi_p0, s, total, matter, light in self._sweep(config):
            light_phase, matter_phase = frozen_phases(
                medium, config.preparation, s)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LowCountWarning)
                root = math.sqrt(sensitivity.detector_photons(
                    geo.cross_section, geo.atom_density, medium.scales.v_rec,
                    config.detection_time, medium.xi, s,
                    medium.loss_parameter))
            for got, phase in ((total, light_phase + matter_phase),
                               (matter, matter_phase),
                               (light, light_phase)):
                assert got == pytest.approx(abs(phase) * root, rel=1e-15,
                                            abs=0.0)

    def test_default_sweep_is_one_operating_point_per_row(self):
        # the phases and the detector count of each row see the row's s
        config = normalize_config({})
        medium, geo = config.medium(), config.geometry
        table = np.array(self._sweep(config, n_steps=200))
        s = table[:, 1]
        light, matter = frozen_phases(medium, config.preparation, s)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowCountWarning)
            root = np.sqrt(sensitivity.detector_photons(
                geo.cross_section, geo.atom_density, medium.scales.v_rec,
                config.detection_time, medium.xi, s, medium.loss_parameter))
        np.testing.assert_array_equal(
            table[:, 2:], np.column_stack((np.abs(light + matter) * root,
                                           np.abs(matter) * root,
                                           np.abs(light) * root)))


def _main(argv):
    """(exit code, stdout, stderr) of one in-process CLI run, for Hypothesis
    tests, which cannot share the function-scoped capsys between examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestCommandsAgree:
    """Cross-command properties on random configs: `phase` is the
    co-propagating beam of `propagate`, `omega-min --config` reports its
    own SNR at Omega_min, and every command refuses by the README's one
    table of refusals."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_phase_is_propagate_direction_one(self, tmp_path_factory, data):
        raw = _random_config(data.draw)
        raw["fields.rabi_p0_rad_s"] = data.draw(st.one_of(
            st.just(0.0), st.floats(1e5, 1e9)))
        path = tmp_path_factory.mktemp("agree") / "config.json"
        path.write_text(json.dumps(raw))
        code_phase, out_phase, err_phase = _main(["phase", "--config",
                                                  str(path)])
        code_prop, out_prop, err_prop = _main(["propagate", "--direction",
                                               "1", "--config", str(path)])
        assert code_phase == code_prop
        assert err_phase == err_prop
        if code_phase == 0:
            phase, prop = json.loads(out_phase), json.loads(out_prop)
            assert phase["warnings"] == prop["warnings"]
            for name, entry in phase["results"].items():
                assert prop["results"][name] == entry, name

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_omega_min_config_snr_is_one(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("snr") / "config.json"
        path.write_text(json.dumps(_random_config(data.draw)))
        code, out, err = _main(["omega-min", "--config", str(path)])
        assert code == 0, err
        results = json.loads(out)["results"]
        assert abs(results["snr_at_omega_min"]["value"] - 1.0) <= 1e-12
        assert results["delta_phi_noise"]["value"] == \
            1.0 / math.sqrt(results["n_D"]["value"])


    @settings(max_examples=30, deadline=None)
    @given(eta=st.sampled_from([1.0, 0.5]),
           kind=st.sampled_from([p.value for p in Preparation]),
           zero_dipole=st.booleans(), zero_density=st.booleans())
    def test_refusals_follow_the_readme_table(self, tmp_path_factory, eta,
                                              kind, zero_dipole,
                                              zero_density):
        k_p = 2.0 * math.pi / ATOM_PRESETS["rb87"]["fields.lambda_p_m"]
        raw = {"fields.k_c_parallel_per_m": (1.0 - eta) * k_p,
               "preparation.kind": kind, "grid.n_points": 64}
        if kind == "thermal_ring":
            raw["preparation.temperature_K"] = 1e-6
        if zero_dipole:
            raw["atom.dipole_p_Cm"] = 0.0
        if zero_density:
            raw["geometry.atom_density_per_m3"] = 0.0
        path = tmp_path_factory.mktemp("refusals") / "config.json"
        path.write_text(json.dumps(raw))
        gated = kind != "superfluid_ring"
        uncoupled = zero_dipole or zero_density
        refused = {"steady-state": False,
                   "propagate": eta != 1.0,
                   "phase": eta != 1.0,
                   "snr-sweep": eta != 1.0 or uncoupled,
                   "omega-min": eta != 1.0 or gated or uncoupled}
        extra = {"snr-sweep": ["--steps", "5"]}
        for command, refuse in refused.items():
            code, _, err = _main([command, "--config", str(path)]
                                 + extra.get(command, []))
            assert code == (1 if refuse else 0), (command, err)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def _either_sign(lo, hi):
    return st.builds(lambda sign, x: sign * x, st.sampled_from((1.0, -1.0)),
                     _log_uniform(lo, hi))


# each key left to its default or drawn over many decades beyond the presets
WIDE_CONFIGS = st.fixed_dictionaries({}, optional={
    "atom.preset": st.sampled_from(["rb87", "na23"]),
    "geometry.preset": st.sampled_from(["gupta", "arnold"]),
    "atom.gamma1_per_s": _log_uniform(1e-3, 1e9),
    "atom.gamma3_per_s": _log_uniform(1e-3, 1e9),
    "atom.gamma13_per_s": _log_uniform(1e-6, 1e10),
    "fields.rabi_p0_rad_s": _log_uniform(1e-3, 1e12),
    "fields.rabi_c_rad_s": _log_uniform(1e-3, 1e12),
    "fields.delta2_rad_s": _either_sign(1e-3, 1e12),
    "fields.delta3_rad_s": _either_sign(1e-3, 1e12),
    "geometry.radius_m": _log_uniform(1e-7, 1e3),
    "geometry.medium_length_m": _log_uniform(1e-6, 10.0),
    "geometry.cross_section_m2": _log_uniform(1e-14, 1e-2),
    "geometry.atom_density_per_m3": _log_uniform(1e5, 1e28),
    "geometry.rotation_rate_rad_s": _either_sign(1e-12, 1e4),
    "detection.time_s": _log_uniform(1e-9, 1e6),
})


def _numbers(value):
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


class TestWideConfigs:
    """Every config answers or is refused: on wide draws each command exits
    0, 1 or 2, an answer holds only finite numbers, and a steady state is a
    density matrix."""

    @settings(max_examples=120, deadline=None)
    @given(raw=WIDE_CONFIGS)
    # strong ground-coherence dephasing: rho11 = -8.5e-3, and an eigenvalue
    # -5.1e-5 on a positive diagonal, when rho13 alone was dephased
    @example(raw={"atom.gamma1_per_s": 0.354, "atom.gamma3_per_s": 27.2,
                  "atom.gamma13_per_s": 2.91e7,
                  "fields.rabi_p0_rad_s": 1.9e7,
                  "fields.rabi_c_rad_s": 2.25e7,
                  "fields.delta2_rad_s": -2.92e7,
                  "fields.delta3_rad_s": -3.42e9})
    @example(raw={"atom.gamma1_per_s": 1, "atom.gamma3_per_s": 1,
                  "atom.gamma13_per_s": 1e5, "fields.delta3_rad_s": 1e11})
    # squares that overflow: rabi_c^2 in the mixing angle, e^(2 Re y) in
    # the kernel
    @example(raw={"fields.rabi_c_rad_s": 1e155})
    @example(raw={"fields.rabi_p0_rad_s": 1e155})
    # (1+s)^3 overflows at s(0) = 1e224; F rho v_rec t overflows
    @example(raw={"fields.rabi_p0_rad_s": 1e120})
    @example(raw={"detection.time_s": 1e300})
    def test_answer_or_refusal(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("wide") / "config.json"
        path.write_text(json.dumps(raw))
        for command in (["steady-state"], ["propagate", "--direction", "1"],
                        ["propagate", "--direction", "-1"], ["phase"],
                        ["snr-sweep", "--format", "json"], ["omega-min"]):
            code, out, err = _main(command + ["--config", str(path)])
            assert code in (0, 1, 2), (command, err)
            assert "RuntimeWarning" not in out + err, command
            if code != 0:
                continue
            results = json.loads(out)["results"]
            for name, entry in results.items():
                assert all(map(math.isfinite, _numbers(entry["value"]))), \
                    (command, name)
            if command == ["steady-state"]:
                rho = (np.array(results["rho_real"]["value"])
                       + 1j * np.array(results["rho_imag"]["value"]))
                assert np.linalg.eigvalsh(rho)[0] >= -1e-10


UNREAD = [
    (["omega-min", "--a", "5", "--species", "na23", "--area", "disk"],
     "--species"),
    (["omega-min", "--a", "5"], "--a"),
    (["omega-min", "--area", "disk"], "--area"),
    (["omega-min", "--time", "100"], "--time"),
    (["omega-min", "--grid", "100000"], "--grid"),
    (["steady-state", "--grid", "100000"], "--grid"),
    (["snr-sweep", "--grid", "64"], "--grid"),
    (["phase", "--grid", "64"], "--grid"),
]


@pytest.mark.parametrize("argv,flag", UNREAD,
                         ids=[" ".join(argv) for argv, _ in UNREAD])
def test_unread_flag_refused(capsys, argv, flag):
    # each flag is one the command does not take; --grid no command takes,
    # since grid.n_points is a config key
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"config error: {flag}: ")


USAGE_ERRORS = [
    (["phase", "--bogus"], "--bogus"),
    (["phase", "--grid", "abc"], "--grid"),
    (["phase", "--grid"], "--grid"),
    (["propagate", "--direction", "2"], "--direction"),
    (["optimize", "--grid", "5"], "--grid"),
    (["steady-state", "--grid", "5"], "--grid"),
    (["snr-sweep", "--steps", "x"], "--steps"),
    (["optimize", "--a-list", "1,x"], "--a-list"),
    # flags are matched whole: each is a prefix of a flag the command takes
    (["optimize", "--a", "5"], "--a"),
    (["phase", "--prof", "p.csv"], "--prof"),
    (["omega-min", "--cas", "gupta"], "--cas"),
    (["omega-min", "--case", "nowhere"], "--case"),
    (["phase", "stray"], "stray"),
    (["bogus"], "command"),
    ([], "the following arguments are required"),
    # out-of-range values, refused at their flag
    (["snr-sweep", "--steps", "0"], "--steps"),
    (["snr-sweep", "--s-min", "-1"], "--s-min"),
    (["snr-sweep", "--s-max", "0"], "--s-max"),
    (["snr-sweep", "--s-min", "5", "--s-max", "1"], "--s-max"),
    (["snr-sweep", "--s-min", "500"], "--s-max"),  # above the default s_max
    (["snr-sweep", "--s-max", "1e300"], "--s-max"),  # (1+s)^3 overflows
    (["omega-min", "--case", "gupta", "--time", "0"], "--time"),
    (["omega-min", "--case", "gupta", "--a", "-1"], "--a"),
]


@pytest.mark.parametrize("argv,flag", USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
def test_usage_error_exits_one(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"config error: {flag}: ")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == []


NON_FINITE = [
    (["phase"], '{"geometry.rotation_rate_rad_s": NaN}',
     "geometry.rotation_rate_rad_s"),
    (["omega-min"], '{"detection.time_s": 1e400}', "detection.time_s"),
    (["steady-state"], '{"fields.delta2_rad_s": Infinity}',
     "fields.delta2_rad_s"),
    (["snr-sweep"], '{"fields.k_c_parallel_per_m": -Infinity}',
     "fields.k_c_parallel_per_m"),
    (["omega-min", "--case", "gupta", "--time", "inf"], None, "--time"),
    (["omega-min", "--case", "gupta", "--a", "nan"], None, "--a"),
    (["snr-sweep", "--s-max", "1e400"], None, "--s-max"),
    (["optimize", "--a-list", "5,inf"], None, "--a-list"),
]


@pytest.mark.parametrize("argv,text,key", NON_FINITE,
                         ids=[key for *_, key in NON_FINITE])
def test_non_finite_number_refused_naming_it(tmp_path, capsys, argv, text,
                                             key):
    if text is not None:
        path = tmp_path / "config.json"
        path.write_text(text)
        argv = [*argv, "--config", str(path)]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"config error: {key}: must be a finite number")


def test_overflowing_grid_refused(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"grid.n_points": 1e400}')
    code, _, err = run(["phase", "--config", str(path)], capsys)
    assert code == 1
    assert err.startswith("config error: grid.n_points: ")


# finite inputs whose derived numbers leave the float range: each is
# refused with exit 1 and one line naming its inputs, and no RuntimeWarning
FLOAT_RANGE = [
    (["phase"], {"fields.rabi_c_rad_s": 1e155},
     "config error: fields.*: Rabi frequencies must have a finite square"),
    (["propagate"], {"fields.rabi_p0_rad_s": 1e155},
     "config error: fields.*: Rabi frequencies must have a finite square"),
    (["omega-min"], {"fields.rabi_c_rad_s": 1e-160},
     "invalid parameter: tan^2(theta) = g2rho / rabi_c^2 overflows"),
    (["phase"], {"fields.rabi_p0_rad_s": 1e120},
     "invalid parameter: input saturation s(0)"),
    (["omega-min"], {"detection.time_s": 1e300},
     "invalid parameter: the atom flux F*rho*v_rec*t overflows"),
    (["omega-min"], {"geometry.atom_density_per_m3": 1e-300,
                     "geometry.cross_section_m2": 1e-30},
     "invalid parameter: the atom flux F*rho*v_rec*t overflows or "
     "underflows to 0"),
    (["snr-sweep"], {"detection.time_s": 1e300},
     "invalid parameter: the detector count"),
    (["omega-min", "--case", "gupta", "--time", "1e300"], None,
     "invalid parameter: the atom flux F*rho*v_rec*t overflows"),
]


@pytest.mark.parametrize("argv,raw,text", FLOAT_RANGE,
                         ids=[" ".join(argv) + f" {raw}"
                              for argv, raw, _ in FLOAT_RANGE])
def test_float_range_input_refused(tmp_path, capsys, argv, raw, text):
    if raw is not None:
        argv = [*argv, "--config", write_config(tmp_path, raw)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(text)
    assert err.count("\n") == 1


@pytest.mark.parametrize("existed", [False, True])
@pytest.mark.parametrize("bad", ["--out", "--profile-out"])
def test_unwritable_path_leaves_every_file_as_it_was(tmp_path, capsys, bad,
                                                     existed):
    paths = {"--out": tmp_path / "x.json", "--profile-out": tmp_path / "p.csv"}
    paths[bad] = tmp_path / "missing" / paths[bad].name
    (good,) = (p for flag, p in paths.items() if flag != bad)
    if existed:
        good.write_text("previous\n")
    code, out, err = run(["phase", *(token for flag, p in paths.items()
                                     for token in (flag, str(p)))], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"config error: {bad}: cannot write {paths[bad]}: ")
    assert os.listdir(tmp_path) == (["x.json" if bad == "--profile-out"
                                     else "p.csv"] if existed else [])
    if existed:
        assert good.read_text() == "previous\n"


@pytest.mark.parametrize("where", ["--out", "--profile-out"])
def test_unwritable_output_path_is_one_line(tmp_path, capsys, where):
    target = str(tmp_path / "missing" / "result.txt")
    code, out, err = run(["phase", where, target], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"config error: {where}: cannot write {target}: ")
    assert err.count("\n") == 1


def test_format_flag_is_json_or_csv(capsys):
    # checked at the flag by every command; a table writes either format
    for label in COMMANDS:
        argv = label.split() + (["gupta"] if "--case" in label else [])
        code, out, err = run([*argv, "--format", "xml"], capsys)
        assert (code, out) == (1, ""), label
        assert err.startswith("config error: --format: invalid choice: "
                              "'xml'")
        assert err.count("\n") == 1
    code, out, _ = run(["snr-sweep", "--steps", "3", "--format", "json"],
                       capsys)
    assert code == 0
    assert len(json.loads(out)["results"]["snr_total"]["value"]) == 3
    code, out, _ = run(["snr-sweep", "--steps", "3", "--format", "csv"],
                       capsys)
    assert code == 0
    assert out.count("\n") == 4


TABLE_RUNS = [["snr-sweep", "--steps", "7"], ["optimize", "--a-list", "0.5,50"]]


@pytest.mark.parametrize("argv", TABLE_RUNS, ids=lambda argv: argv[0])
def test_table_json_columns_are_the_csv_cells(capsys, argv):
    code, default, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert run([*argv, "--format", "csv"], capsys) == (0, default, "")
    code, out, _ = run([*argv, "--format", "json"], capsys)
    env = json.loads(out)
    header, *rows = csv.reader(io.StringIO(default))
    assert env["columns"] == header
    for j, name in enumerate(header):
        assert [float(row[j]) for row in rows] == \
            env["results"][name]["value"], name


def test_unread_key_named_and_not_echoed(tmp_path, capsys):
    path = write_config(tmp_path, {"grid.n_points": 100000})
    code, out, _ = run(["omega-min", "--config", path], capsys)
    assert code == 0
    env = json.loads(out)
    assert set(env["inputs"]) == COMMANDS["omega-min"].keys
    assert env["assumptions"][-1] == (
        "set but not read by slowgyro omega-min, so not echoed: "
        "fields.rabi_p0_rad_s, geometry.rotation_rate_rad_s, grid.n_points")


def test_sweep_names_unread_keys_on_stderr(tmp_path, capsys):
    # CSV output has nowhere to list a note, so it goes to stderr
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"fields.rabi_p0_rad_s": 5e7,
                                "grid.n_points": 128}))
    for argv in (["snr-sweep"], ["omega-min", "--format", "csv"]):
        code, out, err = run(argv + ["--config", str(path)], capsys)
        assert code == 0
        assert err == (f"note: set but not read by slowgyro {argv[0]}, so "
                       "not echoed: fields.rabi_p0_rad_s, grid.n_points\n")
        assert (0, out, "") == run(argv, capsys)


def _provenance(assumptions):
    """{key: line} for the assumption lines of the form `<keys>: <source>`."""
    named = {}
    for line in assumptions:
        head, sep, _ = line.partition(": ")
        keys = head.split(", ")
        if sep and set(keys) <= set(KEY_SPECS):
            for key in keys:
                assert key not in named, f"{key} named twice"
                named[key] = line
    return named


@pytest.mark.parametrize("argv", [["steady-state"],
                                  ["propagate", "--direction", "-1"],
                                  ["phase"], ["omega-min"]],
                         ids=" ".join)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_provenance_names_exactly_the_filled_keys_read(tmp_path_factory,
                                                        argv, data):
    """A key is attributed to a preset, the gamma13 default or the full
    ring exactly when the command reads it and the config left it unset."""
    raw = {key: value for key, value in _random_config(data.draw).items()
           if data.draw(st.booleans(), label=f"keep {key}")}
    path = tmp_path_factory.mktemp("provenance") / "config.json"
    path.write_text(json.dumps(raw))
    code, out, _ = _main([*argv, "--config", str(path)])
    assume(code == 0)  # a refused config writes no envelope
    env = json.loads(out)
    filled = (set(ATOM_PRESETS[raw.get("atom.preset", "rb87")])
              | set(GEOMETRY_PRESETS[raw.get("geometry.preset", "gupta")])
              | {"atom.gamma13_per_s", "geometry.medium_length_m"}) - set(raw)
    named = _provenance(env["assumptions"])
    assert set(named) <= set(env["inputs"])
    assert set(named) == filled & set(env["inputs"])


ROUND_TRIP_CONFIGS = {
    "default": {},
    "detuned": {"fields.delta2_rad_s": 1e6},
    "thermal": {"preparation.kind": "thermal_ring",
                "preparation.temperature_K": 1e-6},
    "na23-arnold": {"atom.preset": "na23", "geometry.preset": "arnold"},
}
ENVELOPE_RUNS = [["steady-state"], ["propagate", "--direction", "1"],
                 ["propagate", "--direction", "-1"], ["phase"],
                 ["omega-min"]]
# the runner keyword of each flag; the runner does not take the consumed ones
FLAG_OF = {spec.get("dest", flag.replace("-", "_")): flag
           for flag, spec in FLAGS.items()}
CONSUMED_FLAGS = {"config", "format", "out", "profile-out"}


def _flag_text(value):
    return ",".join(map(repr, value)) if isinstance(value, list) \
        else repr(value)


@pytest.mark.parametrize("argv,name", [
    (argv, name) for argv in ENVELOPE_RUNS for name in ROUND_TRIP_CONFIGS
    # omega-min refuses a thermal ring
    if (argv[0], name) != ("omega-min", "thermal")]
    + [(TABLE_RUNS[0], name) for name in ROUND_TRIP_CONFIGS]
    + [(TABLE_RUNS[1], "default")])
def test_echo_round_trip(tmp_path, capsys, argv, name):
    """inputs echo the config keys read and the runner's flags, defaults
    included: the keys re-run from a file, the flags from the argv."""
    spec = COMMANDS[argv[0]]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(ROUND_TRIP_CONFIGS[name]))
    config = ["--config", str(path)] if spec.keys else []
    code, out, err = run([*argv, "--format", "json", *config], capsys)
    assert code == 0, err
    first = json.loads(out)
    keys = {k: v for k, v in first["inputs"].items() if k in KEY_SPECS}
    flags = {k: v for k, v in first["inputs"].items() if k not in KEY_SPECS}
    assert set(keys) == spec.keys
    assert {FLAG_OF[k] for k in flags} == set(spec.flags) - CONSUMED_FLAGS
    path.write_text(json.dumps(keys))
    code, out, _ = run([argv[0], "--format", "json", *config, *(
        token for k, v in flags.items()
        for token in (f"--{FLAG_OF[k]}", _flag_text(v)))], capsys)
    again = json.loads(out)
    assert code == 0
    assert again["inputs"] == first["inputs"]
    assert again["results"] == first["results"]


@pytest.mark.parametrize("args", [
    ["--case", "gupta"], ["--case", "gupta", "--time", "3"],
    ["--case", "arnold", "--species", "rb87", "--a", "500", "--area",
     "disk"]])
def test_case_echo_round_trip(capsys, args):
    _, out, _ = run(["omega-min", *args], capsys)
    first = json.loads(out)
    assert set(first["inputs"]) == {"case", "species", "a", "time", "area"}
    argv = ["omega-min"] + [token for flag, value in first["inputs"].items()
                            for token in (f"--{flag}", str(value))]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert json.loads(out)["results"] == first["results"]


# a valid value for each config key that some command does not read
UNREAD_VALUES = {
    "atom.mass_kg": st.floats(1e-26, 1e-24),
    "atom.dipole_p_Cm": st.floats(0.0, 1e-28),
    "atom.gamma3_per_s": st.floats(0.0, 1e8),
    "fields.rabi_p0_rad_s": st.floats(0.0, 1e9),
    "fields.k_c_parallel_per_m": st.floats(-1e7, 1e7),
    "geometry.medium_length_m": st.floats(1e-4, 9e-3),  # <= 2 pi R
    "geometry.cross_section_m2": st.floats(1e-8, 1e-4),
    "geometry.atom_density_per_m3": st.floats(0.0, 1e21),
    "geometry.rotation_rate_rad_s": st.floats(-10.0, 10.0),
    "preparation.kind": st.sampled_from([p.value for p in Preparation]),
    "preparation.temperature_K": st.floats(1e-9, 1e-3),
    "grid.n_points": st.integers(64, 512),
    "detection.time_s": st.floats(1e-3, 10.0),
}
NOT_MODEL_KEYS = {"atom.preset", "geometry.preset"}
READ_SET_RUNS = [["steady-state"], ["propagate", "--direction", "-1"],
                 ["phase"], ["snr-sweep", "--steps", "5"], ["omega-min"]]


@pytest.mark.parametrize("argv", READ_SET_RUNS, ids=lambda argv: argv[0])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_key_outside_read_set_changes_nothing(tmp_path_factory, argv, data):
    """COMMANDS against the code: a key the table says a command does not
    read leaves its exit code, stdout and stderr byte-identical."""
    unread = set(KEY_SPECS) - NOT_MODEL_KEYS - COMMANDS[argv[0]].keys
    assert unread <= set(UNREAD_VALUES)
    key = data.draw(st.sampled_from(sorted(unread)))
    # a temperature lets preparation.kind take thermal_ring
    base = {**_random_config(data.draw), "preparation.temperature_K": 1e-6}
    runs = []
    for _ in range(2):
        value = data.draw(UNREAD_VALUES[key])
        path = tmp_path_factory.mktemp("unread") / "config.json"
        path.write_text(json.dumps({**base, key: value}))
        runs.append(_main([*argv, "--config", str(path)]))
    assert runs[0] == runs[1]


def _readme_section(title):
    with open(README) as fh:
        text = fh.read()
    return text[text.index(title):]


def test_readme_command_block_lists_the_parser_flags():
    section = _readme_section("## Command line")
    start = section.index("```\n") + len("```\n")
    named = {}
    for line in section[start:section.index("```", start)].splitlines():
        named.setdefault(line.split()[1], set()).update(
            re.findall(r"--[a-z][a-z-]*", line.split("#")[0]))
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    registered = {
        command: {flag for action in parser._actions
                  for flag in action.option_strings} - {"-h", "--help"}
        for command, parser in subparsers.choices.items()}
    assert named == registered


def test_readme_unread_key_table_matches_commands():
    section = _readme_section("| command | does not read |")
    rows = section[:section.index("\n\n")].splitlines()[2:]
    model = {k for k in set(KEY_SPECS) - NOT_MODEL_KEYS
             if k.split(".")[0] in ("atom", "fields", "geometry",
                                    "preparation")}
    for row in rows:
        commands, keys = (re.findall(r"`([^`]+)`", cell)
                          for cell in row.split("|")[1:3])
        listed = {k for pattern in keys for k in model
                  if k == pattern or (pattern.endswith(".*")
                                      and k.startswith(pattern[:-1]))}
        for command in commands:
            assert listed == model - COMMANDS[command].keys, command


class TestValidityDomain:
    def test_partial_momentum_transfer_refused_by_both_commands(
            self, tmp_path, capsys):
        # k_c_parallel = 4e6 /m gives eta ~ 0.5, outside the saturating model
        path = write_config(tmp_path, {"fields.k_c_parallel_per_m": 4e6})
        for command in ("propagate", "phase", "snr-sweep", "omega-min"):
            code, out, err = run([command, "--config", path], capsys)
            assert code == 1, command
            assert out == ""
            assert "eta" in err

    @pytest.mark.parametrize("command", ["snr-sweep", "omega-min"])
    @pytest.mark.parametrize("key", ["geometry.atom_density_per_m3",
                                     "atom.dipole_p_Cm"])
    def test_uncoupled_medium_refused_naming_the_zero_key(
            self, tmp_path, capsys, command, key):
        # either zero makes g2rho = 0: no coupling, so no signal to sense
        path = write_config(tmp_path, {key: 0.0})
        code, out, err = run([command, "--config", path], capsys)
        assert code == 1
        assert out == ""
        assert err == (f"config error: {key}: the probe does not couple to "
                       "the medium (g2rho = 0), so there is no signal to "
                       "sense\n")

    @pytest.mark.parametrize("prep", [
        {"preparation.kind": "thermal_ring", "preparation.temperature_K": 1e-6},
        {"preparation.kind": "longitudinal_trap"}])
    def test_gated_preparation_refused_by_omega_min_only(
            self, tmp_path, capsys, prep):
        # the matter-wave Omega_min has no matter term to stand on; the
        # phase commands answer with the matter term gated to zero
        path = write_config(tmp_path, prep)
        code, out, err = run(["omega-min", "--config", path], capsys)
        assert code == 1
        assert out == ""
        assert prep["preparation.kind"] in err
        code, out, _ = run(["phase", "--config", path], capsys)
        assert code == 0
        env = json.loads(out)
        assert env["results"]["matter_part"]["value"] == 0.0
        assert (f"preparation {prep['preparation.kind']}: matter term gated "
                "to zero") in env["assumptions"]
        code, out, _ = run(["snr-sweep", "--config", path, "--steps", "5"],
                           capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        assert all(float(row["snr_matter"]) == 0.0 for row in rows)


def _loaded_modules(statement):
    """Sorted modules a fresh interpreter holds after `statement`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(slowgyro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(proc.stdout)


def test_cli_import_leaves_scipy_unloaded():
    loaded = _loaded_modules("import slowgyro.cli")
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    # only steady-state needs the Bloch solver; it imports it on use
    assert "slowgyro.bloch" not in loaded


def test_propagation_import_loads_no_command_layer():
    loaded = _loaded_modules("import slowgyro.propagation")
    assert "slowgyro.sensitivity" not in loaded
    assert "slowgyro.cli" not in loaded
    assert "slowgyro.bloch" not in loaded


def test_ringmodes_import_leaves_numpy_unloaded():
    assert "numpy" not in _loaded_modules("import slowgyro.ringmodes")


def test_every_exported_name_exists():
    for info in pkgutil.iter_modules(slowgyro.__path__):
        module = importlib.import_module(f"slowgyro.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert missing == [], info.name


class TestModelDomainWarnings:
    """Configs outside the line-center EIT model the phase rates assume are
    answered with a warning naming the condition; steady-state, which
    models detuning exactly, stays silent."""

    def test_detuned_phase_warns(self, tmp_path, capsys):
        path = write_config(tmp_path, {"fields.delta2_rad_s": 1e6})
        code, out, err = run(["phase", "--config", path], capsys)
        assert (code, err) == (0, "")
        env = json.loads(out)
        [warning] = env["warnings"]
        assert warning.startswith("EITConditionWarning: ")
        # CSV rows have nowhere to list it: the same rows, and it on stderr
        code, out, err = run(["phase", "--config", path, "--format", "csv"],
                             capsys)
        assert (code, err) == (0, f"warning: {warning}\n")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "value", "unit"]
        assert {name: (json.loads(value), unit) for name, value, unit
                in rows[1:]} == {name: (entry["value"], entry["unit"])
                                 for name, entry in env["results"].items()}

    def test_weak_control_warns(self, tmp_path, capsys):
        path = write_config(tmp_path, {"fields.rabi_c_rad_s": 1e6,
                                       "fields.rabi_p0_rad_s": 5e5,
                                       "geometry.atom_density_per_m3": 1e15})
        code, out, _ = run(["omega-min", "--config", path], capsys)
        assert code == 0
        warned = json.loads(out)["warnings"]
        assert any("rabi_c^2 >> gamma13*gamma1" in w for w in warned)

    def test_dense_sweep_names_xi_below_one(self, tmp_path, capsys):
        # xi ~ 0.61: the rows are the same, stderr names the condition
        path = write_config(tmp_path, {"geometry.atom_density_per_m3": 1e24})
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(["snr-sweep", "--config", path, "--steps", "7",
                            "--out", str(out_path)], capsys)
        assert code == 0
        assert "xi < 1" in err
        direct = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cmd_snr_sweep(normalize_config(read_config(path)), direct,
                          n_steps=7)
        assert out_path.read_text() == direct.getvalue()

    def test_failed_command_still_names_its_warnings(self, tmp_path, capsys):
        # xi ~ 0.61: phase warns, then the kernel cannot resolve the loss
        path = write_config(tmp_path, {"geometry.atom_density_per_m3": 1e24})
        code, out, err = run(["phase", "--config", path], capsys)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert lines[0].startswith("warning: UserWarning: ")
        assert "xi < 1" in lines[0]
        assert lines[-1].startswith("numerical failure: ")

    def test_default_config_is_silent(self, capsys):
        for command in ("phase", "propagate", "omega-min"):
            code, out, _ = run([command], capsys)
            assert code == 0
            assert json.loads(out)["warnings"] == [], command

    def test_detuned_steady_state_is_silent(self, tmp_path, capsys):
        path = write_config(tmp_path, {"fields.delta2_rad_s": 1e6})
        code, out, _ = run(["steady-state", "--config", path], capsys)
        assert code == 0
        assert json.loads(out)["warnings"] == []


def test_readme_python_snippet_runs(capsys):
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = text[text.index("## Python API"):]
    start = section.index("```python\n") + len("```python\n")
    snippet = section[start:section.index("```", start)]
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 3


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

    def test_failed_row_writes_no_partial_table(self, capsys):
        # a = 1e-10 puts s_opt outside the trusted box after a good row
        code, out, err = run(["optimize", "--a-list", "5,1e-10"], capsys)
        assert code == 2
        assert out == ""


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
        assert env["results"]["snr_at_omega_min"]["value"] == \
            pytest.approx(1.0, abs=1e-12)

    def test_runs_on_default_config(self, capsys):
        code, out, _ = run(["omega-min"], capsys)
        assert code == 0
        env = json.loads(out)
        assert env["results"]["omega_min"]["value"] > 0
