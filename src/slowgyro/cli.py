"""Command-line surface: config parsing, dispatch and machine-readable output.

COMMANDS is the one description of the subcommands: the config keys each
reads, its flags and its runner.  The parser, the echo of an envelope and
the refusals all come from it.

Configuration is a flat JSON object with namespaced keys carrying units in
their names (atom.mass_kg, fields.lambda_p_m, geometry.radius_m, ...).
Unknown keys and non-finite numbers are rejected.  Results are emitted as
JSON envelopes (every number tagged with its unit, inputs echoed,
assumptions and warnings listed) or as CSV, a table's rows or name/value/
unit rows, with a header row, dot decimals and newline terminated rows.

Exit status: 0 success, 1 validation or usage error (`config error: <key
or flag>: ...`, an unknown or malformed flag included), 2 numerical failure.
"""

import argparse
import csv
import functools
import inspect
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import (BoundaryHitError, ConfigError,
                     DegenerateSteadyStateError, IntegrationError,
                     ParameterError)
from .params import (REFERENCE_WAVELENGTHS, RING_PRESETS, SPECIES_PRESETS,
                     AtomSpecies, ProbeControlFields, RingGeometry)
from .propagation import (MAX_SATURATION, PropagationGrid, RingMedium,
                          bare_sagnac_phase, check_validity, frozen_phases,
                          propagate_allorder, signal_phase)
from .ringmodes import MediumPreparation, Preparation, matter_term_gate
from .sensitivity import (case_study, detector_photons, optimize_snr,
                          sensitivity_budget)

ATOM_PRESETS = {
    name: {"atom.mass_kg": species.mass,
           "atom.dipole_p_Cm": species.dipole_p,
           "atom.gamma1_per_s": species.gamma1,
           "atom.gamma3_per_s": species.gamma3,
           "fields.lambda_p_m": REFERENCE_WAVELENGTHS[name]}
    for name, species in SPECIES_PRESETS.items()}
GEOMETRY_PRESETS = {
    name: {"geometry.radius_m": ring.radius,
           "geometry.cross_section_m2": ring.cross_section,
           "geometry.atom_density_per_m3": ring.atom_density}
    for name, ring in RING_PRESETS.items()}

NOT_FINITE = "must be a finite number (got {!r})"
_POSITIVE = ("must be a positive number", lambda v: v > 0)
_NONNEG = ("must be >= 0", lambda v: v >= 0)
_GRID = ("must be an integer >= 64", lambda v: v >= 64)

# key -> (python type, (message, predicate) or None, default or None, the
# field it sets in the AtomSpecies, ProbeControlFields or RingGeometry its
# namespace builds, or None); every float must be finite.  Presets fill the
# keys without a default.
KEY_SPECS = {
    "atom.preset": (str, None, "rb87", None),
    "atom.mass_kg": (float, _POSITIVE, None, "mass"),
    "atom.dipole_p_Cm": (float, _NONNEG, None, "dipole_p"),
    "atom.gamma1_per_s": (float, _NONNEG, None, "gamma1"),
    "atom.gamma3_per_s": (float, _NONNEG, None, "gamma3"),
    "atom.gamma13_per_s": (float, _NONNEG, 1.0e3, "gamma13"),
    "fields.lambda_p_m": (float, _POSITIVE, None, "lambda_p"),
    "fields.rabi_p0_rad_s": (float, _NONNEG, 1.0e8 * math.sqrt(1.0 / 3.0),
                             "rabi_p0"),
    "fields.rabi_c_rad_s": (float, _POSITIVE, 1.0e8, "rabi_c"),
    "fields.k_c_parallel_per_m": (float, None, 0.0, "k_c_parallel"),
    "fields.delta2_rad_s": (float, None, 0.0, "delta2"),
    "fields.delta3_rad_s": (float, None, 0.0, "delta3"),
    "geometry.preset": (str, None, "gupta", None),
    "geometry.radius_m": (float, _POSITIVE, None, "radius"),
    "geometry.medium_length_m": (float, _POSITIVE, None, "medium_length"),
    "geometry.cross_section_m2": (float, _POSITIVE, None, "cross_section"),
    "geometry.atom_density_per_m3": (float, _NONNEG, None, "atom_density"),
    "geometry.rotation_rate_rad_s": (float, None, 7.29e-5, "rotation_rate"),
    "preparation.kind": (str, None, "superfluid_ring", None),
    "preparation.temperature_K": (float, _NONNEG, 0.0, None),
    "grid.n_points": (int, _GRID, 256, None),
    "detection.time_s": (float, _POSITIVE, 1.0, None),
}
DEFAULTS = {key: spec[2] for key, spec in KEY_SPECS.items()
            if spec[2] is not None}


@dataclass
class RunConfig:
    atom: AtomSpecies
    fields: ProbeControlFields
    geometry: RingGeometry
    preparation: MediumPreparation
    grid_points: int
    detection_time: float
    echo: dict = field(default_factory=dict)
    # key -> where its value came from, for each key the config left unset
    # that a preset, the gamma13 default or the full ring filled
    sources: dict = field(default_factory=dict)

    def medium(self) -> RingMedium:
        """The config's ring medium.  Whether the model answers for it is
        decided by propagation.check_validity, which every propagation and
        sensitivity command passes through once."""
        return RingMedium(self.atom, self.fields, self.geometry)

    def grid(self) -> PropagationGrid:
        return PropagationGrid.uniform(self.geometry.medium_length,
                                       self.grid_points)


def _checked(typ, check, value):
    """value cast to typ, finite if a float, and passing check, a (message,
    predicate) pair or None.  Raises argparse.ArgumentTypeError saying what
    is wrong: the parser reports it under the flag, normalize_config under
    the key."""
    error = argparse.ArgumentTypeError
    try:
        cast = typ(value)
    except (TypeError, ValueError, OverflowError):
        raise error(f"cannot interpret {value!r} as {typ.__name__}") from None
    if typ is float and not math.isfinite(cast):
        raise error(NOT_FINITE.format(cast))
    if typ is int and isinstance(value, float) and value != cast:
        raise error(f"expected an integer, got {value!r}")
    if check is not None and not check[1](cast):
        raise error(f"{check[0]} (got {cast!r})")
    return cast


def _expand(work: dict, key: str, presets: dict, what: str, note: str,
            sources: dict):
    """Fill the keys of the preset named at `key` that the config leaves
    unset, and record their source."""
    name = str(work.pop(key)).lower()
    if name not in presets:
        raise ConfigError(key, f"unknown {what} preset {name!r}; "
                          f"known: {sorted(presets)}")
    source = f"preset {name} ({note})"
    for k, value in presets[name].items():
        if k not in work:
            work[k] = value
            sources[k] = source


def _build(namespace: str, cls, **kwargs):
    """cls(**kwargs), its ParameterError reported under `namespace`."""
    try:
        return cls(**kwargs)
    except ParameterError as err:
        raise ConfigError(namespace, str(err)) from None


def normalize_config(raw: dict) -> RunConfig:
    """Validate a flat config dict, fill defaults, expand presets, and build
    the physics objects.  Raises ConfigError with the offending key path."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    for key in raw:
        if key not in KEY_SPECS:
            raise ConfigError(key, "unknown key")

    work = dict(DEFAULTS)
    work.update(raw)
    sources = {}

    _expand(work, "atom.preset", ATOM_PRESETS, "species",
            "standard alkali D2-line data, equal decay branches", sources)
    if "atom.gamma13_per_s" not in raw:
        sources["atom.gamma13_per_s"] = ("default 1 kHz (typical "
                                         "ground-coherence dephasing of "
                                         "cold gases)")
    _expand(work, "geometry.preset", GEOMETRY_PRESETS, "geometry",
            "circular BEC waveguide figures", sources)
    if "geometry.medium_length_m" not in work:
        work["geometry.medium_length_m"] = \
            2.0 * math.pi * work["geometry.radius_m"]
        sources["geometry.medium_length_m"] = "full ring, L_M = 2*pi*R"

    values = {}
    for key, value in work.items():
        typ, check, _, _ = KEY_SPECS[key]
        try:
            values[key] = _checked(typ, check, value)
        except argparse.ArgumentTypeError as err:
            raise ConfigError(key, str(err)) from None

    kind_name = values.get("preparation.kind", "superfluid_ring")
    try:
        kind = Preparation(kind_name)
    except ValueError:
        raise ConfigError("preparation.kind",
                          f"unknown preparation {kind_name!r}; known: "
                          f"{[p.value for p in Preparation]}") from None

    built = {
        namespace: _build(f"{namespace}.*", cls, **{
            name: values[key] for key, (_, _, _, name) in KEY_SPECS.items()
            if name and key.startswith(f"{namespace}.")})
        for namespace, cls in (("atom", AtomSpecies),
                               ("fields", ProbeControlFields),
                               ("geometry", RingGeometry))}
    preparation = _build("preparation.temperature_K", MediumPreparation,
                         kind=kind,
                         temperature=values["preparation.temperature_K"])

    return RunConfig(**built, preparation=preparation,
                     grid_points=values["grid.n_points"],
                     detection_time=values["detection.time_s"],
                     echo={k: values[k] for k in sorted(values)},
                     sources=sources)


def read_config(path: str | None) -> dict:
    """The raw config object in a JSON file; {} without one."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError("<config>",
                          f"cannot read {path}: {err.strerror}") from None
    except json.JSONDecodeError as err:
        raise ConfigError("<config>", f"invalid JSON: {err}") from None
    return raw


def _write_rows(out, header: list, rows):
    """CSV table on the text stream `out`: header, rows, newline ends."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


@dataclass
class ResultEnvelope:
    """Machine-readable result: inputs echo, unit-tagged numbers,
    assumptions and captured warnings."""

    command: str
    inputs: dict
    results: dict
    assumptions: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    version: str = __version__
    # the results that form a table, in column order; None: not a table
    columns: list | None = None

    def add(self, name: str, value, unit: str):
        self.results[name] = {"value": value, "unit": unit}

    def write(self, out, fmt: str = "json"):
        """As JSON, or as CSV: a table's rows, else name/value/unit rows."""
        if fmt == "csv" and self.columns:
            _write_rows(out, self.columns, ([repr(v) for v in row] for row in
                        zip(*(self.results[c]["value"] for c in self.columns))))
        elif fmt == "csv":
            _write_rows(out, ["name", "value", "unit"], (
                [name, json.dumps(entry["value"]), entry["unit"]]
                for name, entry in sorted(self.results.items())))
        else:
            body = {k: v for k, v in vars(self).items() if v is not None}
            out.write(json.dumps(body, indent=2, sort_keys=True))
            out.write("\n")


def cmd_steady_state(config: RunConfig, env: ResultEnvelope):
    """Steady state of the driven Lambda system, normalized to unit trace.
    It models the detunings exactly, so it raises none of the EIT-model
    warnings of propagation.check_validity."""
    from .bloch import build_generator, steady_state

    gen = build_generator(config.atom, config.fields.rabi_p0,
                          config.fields.rabi_c, config.fields.delta2,
                          config.fields.delta3,
                          config.geometry.rotation_rate,
                          config.geometry.radius, config.fields.k_p)
    rho = steady_state(gen, n=1.0)
    env.add("rho_real", [[float(v.real) for v in row] for row in rho.rho],
            "dimensionless (trace normalized to 1)")
    env.add("rho_imag", [[float(v.imag) for v in row] for row in rho.rho],
            "dimensionless")
    env.add("hermiticity_residual", rho.hermiticity_residual, "dimensionless")
    env.add("trace_residual", rho.trace_residual, "dimensionless")
    env.add("generator_residual", rho.generator_residual, "dimensionless")
    env.add("excited_population", float(rho.rho[1, 1].real), "dimensionless")
    env.assumptions.append("density matrix normalized to unit trace")


def _add_phase(env: ResultEnvelope, config: RunConfig, result, profile_out):
    env.add("delta_phi_sig", result.delta_phi_sig, "rad")
    env.add("phase_cw", result.phase_cw, "rad")
    env.add("phase_ccw", result.phase_ccw, "rad")
    env.add("light_part", result.light_part, "rad (per beam)")
    env.add("matter_part", result.matter_part, "rad (per beam)")
    env.add("amplitude_ratio", result.amplitude_ratio, "dimensionless")
    env.add("bare_sagnac_phase", bare_sagnac_phase(
        config.geometry.rotation_rate, config.geometry.radius,
        config.geometry.medium_length, config.fields.lambda_p), "rad")
    env.assumptions.append(
        "light_part/matter_part split one beam's phase; delta_phi_sig is "
        "the counter-propagating differential")
    env.assumptions.append(
        f"preparation {config.preparation.kind.value}: matter term "
        f"{'kept' if result.diagnostics['gate'] else 'gated to zero'}")
    if profile_out is not None:
        # columns from the beam's log-amplitude: |rabi_p| = rabi_p0 e^Re,
        # phase = Im, s = s0 e^(2 Re); xi is the medium's
        log_amp = result.log_amplitude
        table = np.column_stack((
            config.grid().x, config.fields.rabi_p0 * np.exp(log_amp.real),
            log_amp.imag,
            config.fields.saturation0 * np.exp(2.0 * log_amp.real),
            np.full(log_amp.size, config.medium().xi)))
        _write_rows(profile_out, ["x_m", "abs_rabi_p_rad_s", "phase_rad",
                                  "saturation", "xi"],
                    ([repr(v) for v in row] for row in table.tolist()))


def cmd_phase(config: RunConfig, env: ResultEnvelope, profile_out=None):
    """Differential Sagnac signal phase with its light/matter split: the
    co-propagating beam of cmd_propagate."""
    result = signal_phase(config.medium(), config.preparation, config.grid())
    _add_phase(env, config, result, profile_out)


def cmd_propagate(config: RunConfig, env: ResultEnvelope, direction: int = 1,
                  profile_out=None):
    """All-order propagation of one beam; optional per-x profile CSV."""
    result = propagate_allorder(config.medium(), config.preparation,
                                config.grid(), direction=direction)
    _add_phase(env, config, result, profile_out)
    env.add("direction", direction, "sign (+1 co-rotating)")
    env.add("richardson_phase", result.diagnostics.get("richardson_phase", 0.0),
            "rad")


def _dressed_medium(config: RunConfig) -> RingMedium:
    """The config's medium, refused when the probe does not couple to it:
    the SNR of snr-sweep and omega-min needs g2rho > 0."""
    medium = config.medium()
    inputs = {"atom.dipole_p_Cm": config.atom.dipole_p,
              "geometry.atom_density_per_m3": config.geometry.atom_density}
    if medium.scales.g2rho == 0.0:  # a zero input, or their product underflows
        zero = [key for key, value in inputs.items() if value == 0.0] or inputs
        raise ConfigError(", ".join(zero), "the probe does not couple to the "
                          "medium (g2rho = 0), so there is no signal to sense")
    return medium


def snr_table(config: RunConfig, env: ResultEnvelope, s_min: float = 1e-3,
              s_max: float = 1e2, n_steps: int = 200):
    """SNR versus input probe Rabi frequency, the table (rabi_p0, s,
    snr_total, snr_matter, snr_light).  Each row holds the saturation frozen
    at its input value (frozen_phases), so the table is one closed-form
    pass.  Bounds are refused under the flag that sets them."""
    for flag, bound in (("--s-min", s_min), ("--s-max", s_max)):
        if not 0 < bound <= MAX_SATURATION:
            raise ConfigError(flag, f"must be a positive number <= "
                              f"{MAX_SATURATION:g} (got {bound!r})")
    if s_max < s_min:
        raise ConfigError("--s-max", f"must be >= --s-min "
                          f"(got {s_max!r} < {s_min!r})")
    if n_steps < 1:
        raise ConfigError("--steps", f"must be an integer >= 1 "
                          f"(got {n_steps!r})")
    medium = _dressed_medium(config)
    geometry = config.geometry
    xi = medium.xi
    s_values = np.geomspace(s_min, s_max, n_steps)
    rabi_p0 = np.sqrt(s_values) * config.fields.rabi_c
    # phases with s frozen at each row's input saturation
    light, matter = frozen_phases(medium, config.preparation, s_values)
    root = np.sqrt(detector_photons(geometry.cross_section,
                                    geometry.atom_density, medium.scales.v_rec,
                                    config.detection_time, xi, s_values,
                                    medium.loss_parameter))
    env.columns = ["rabi_p0_rad_s", "s", "snr_total", "snr_matter",
                   "snr_light"]
    for name, column in zip(env.columns, (
            rabi_p0, s_values, np.abs(light + matter) * root,
            np.abs(matter) * root, np.abs(light) * root)):
        env.add(name, column.tolist(),
                "rad/s" if name == "rabi_p0_rad_s" else "dimensionless")
    gate = "kept" if matter_term_gate(config.preparation) else "gated to zero"
    env.assumptions.append(f"s frozen at each row's input; matter term {gate}")


def cmd_snr_sweep(config: RunConfig, out, s_min: float = 1e-3,
                  s_max: float = 1e2, n_steps: int = 200):
    """The snr_table as CSV on the text stream out, once it is complete."""
    env = ResultEnvelope("snr-sweep", {}, {})
    snr_table(config, env, s_min, s_max, n_steps)
    env.write(out, "csv")


def cmd_optimize(env: ResultEnvelope,
                 a_list=(0.05, 0.5, 5.0, 50.0, 500.0, 5000.0)):
    """Optimum operating point for each loss parameter, the table columns
    (a, s_opt, xi_opt, g_max, f_estimate)."""
    opts = [optimize_snr(float(a)) for a in a_list]
    env.columns = ["a", "s_opt", "xi_opt", "g_max", "f_estimate"]
    for name in env.columns:
        env.add(name, [getattr(o, name) for o in opts], "dimensionless")


STATE_OF_THE_ART = {
    "optical_gyroscope_rad_s_sqrtHz": 2e-10,
    "matter_wave_gyroscope_rad_s_sqrtHz": 6e-10,
}


def _add_budget(env: ResultEnvelope, report):
    """The sensitivity_budget both forms of omega-min report."""
    env.add("omega_min", report.omega_min, "rad/s/sqrt(Hz)")
    env.add("s_opt", report.opt.s_opt, "dimensionless")
    env.add("xi_opt", report.opt.xi_opt, "dimensionless")
    env.add("g_max", report.opt.g_max, "dimensionless")
    env.add("f", report.opt.f_estimate, "dimensionless")
    env.add("n_D", report.n_d, "quanta")
    env.add("delta_phi_noise", report.delta_phi_noise, "rad")
    env.add("snr_at_omega_min", report.snr, "dimensionless")
    env.assumptions.extend(report.assumptions)
    for name, value in STATE_OF_THE_ART.items():
        env.add(f"benchmark_{name}", value, "rad/s/sqrt(Hz)")
        env.add(f"ratio_to_{name}", report.omega_min / value, "dimensionless")


def cmd_omega_min(config: RunConfig, env: ResultEnvelope):
    """Minimum detectable rotation rate of the config's ring: the
    sensitivity_budget at the optimum operating point for its loss
    parameter a."""
    medium = _dressed_medium(config)
    check_validity(medium, config.preparation, "sensitivity")
    env.add("a", medium.loss_parameter, "dimensionless")
    _add_budget(env, sensitivity_budget(
        config.geometry, medium.scales.v_rec, config.detection_time,
        medium.loss_parameter, config.atom.mass))


def cmd_omega_min_case(env: ResultEnvelope, case: str, species: str = "na23",
                       a: float = 2.9, time: float = 1.0, area: str = "ring"):
    """Minimum detectable rotation rate of one case-study ring
    (sensitivity.case_study), with the other ring's for comparison."""
    other = "arnold" if case == "gupta" else "gupta"
    reports = {ring: case_study(ring, species=species, a=a, t=time,
                                area_convention=area)
               for ring in (case, other)}
    env.add(f"omega_min_{other}", reports[other].omega_min, "rad/s/sqrt(Hz)")
    env.add("gupta_arnold_ratio",
            reports["gupta"].omega_min / reports["arnold"].omega_min,
            "dimensionless (area scaling (96/3)^2 = 1024)")
    _add_budget(env, reports[case])


# flag types, checked like config keys
_positive_float = functools.partial(_checked, float, _POSITIVE)
_count = functools.partial(_checked, int, ("must be an integer >= 1",
                                           lambda v: v >= 1))


def _a_list(text: str) -> list:
    values = [_positive_float(tok) for tok in text.replace(",", " ").split()]
    if not values:
        raise argparse.ArgumentTypeError("need positive loss parameters")
    return values


# every flag and its argparse arguments.  A runner takes the flags given
# as keywords, except config, format and out, which _run consumes; for
# profile-out it gets a buffer that _run writes to the path.
FLAGS = {
    "config": {"help": "JSON config file (flat namespaced keys)"},
    "format": {"choices": ("json", "csv")},
    "out": {"help": "output path (default: stdout)"},
    "direction": {"type": int, "choices": (1, -1)},
    "profile-out": {"help": "write per-x profile CSV here"},
    "steps": {"type": _count, "dest": "n_steps"},
    "s-min": {"type": _positive_float},
    "s-max": {"type": _positive_float},
    "a-list": {"type": _a_list},
    "case": {"choices": sorted(RING_PRESETS)},
    "species": {"choices": sorted(SPECIES_PRESETS)},
    "a": {"type": _positive_float},
    "time": {"type": _positive_float},
    "area": {"choices": ("ring", "disk")},
}


class Command(NamedTuple):
    # run([config,] env, **flags) fills the ResultEnvelope _run builds
    run: Callable
    keys: frozenset   # config keys read; empty: the command takes no config
    flags: tuple      # the FLAGS it takes
    help: str


# keys a config command consumes without echoing them: the presets expand
# into echoed keys
_CONSUMED = frozenset({"atom.preset", "geometry.preset"})
_MODEL = frozenset(KEY_SPECS) - _CONSUMED
# what RingMedium and check_validity read.  preparation.temperature_K
# changes no number, but a thermal_ring is refused without it, so an echo
# without it would not re-run.
_MEDIUM = _MODEL - {"atom.gamma3_per_s", "fields.rabi_p0_rad_s",
                    "geometry.rotation_rate_rad_s", "grid.n_points",
                    "detection.time_s"}
_PHASE = _MODEL - {"atom.gamma3_per_s", "detection.time_s"}

COMMANDS = {
    "steady-state": Command(cmd_steady_state, frozenset({
        "atom.gamma1_per_s", "atom.gamma3_per_s", "atom.gamma13_per_s",
        "fields.lambda_p_m", "fields.rabi_p0_rad_s", "fields.rabi_c_rad_s",
        "fields.delta2_rad_s", "fields.delta3_rad_s", "geometry.radius_m",
        "geometry.rotation_rate_rad_s"}), ("config", "format", "out"),
        "Lambda-system steady state"),
    "propagate": Command(cmd_propagate, _PHASE, (
        "config", "format", "out", "direction", "profile-out"),
        "all-order beam propagation"),
    "phase": Command(cmd_phase, _PHASE, (
        "config", "format", "out", "profile-out"),
        "differential Sagnac phase"),
    "snr-sweep": Command(snr_table, _MEDIUM | {
        "geometry.rotation_rate_rad_s", "detection.time_s"}, (
        "config", "format", "out", "steps", "s-min", "s-max"),
        "SNR vs probe power (table)"),
    "optimize": Command(cmd_optimize, frozenset(), ("a-list", "format", "out"),
                        "optimum (s, xi) vs loss parameter (table)"),
    "omega-min": Command(cmd_omega_min, _MEDIUM | {"detection.time_s"},
                         ("config", "format", "out"),
                         "minimum detectable rotation rate"),
    "omega-min --case": Command(
        cmd_omega_min_case, frozenset(),
        ("case", "species", "a", "time", "area", "format", "out"), ""),
}


# the flags each subcommand registers: those of all its COMMANDS entries
SUBCOMMANDS = {}
for _label, _spec in COMMANDS.items():
    SUBCOMMANDS.setdefault(_label.split()[0], {}).update(
        dict.fromkeys(_spec.flags))


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 as `config error: --flag: ...` like every other
    refused input, not 2, which means numerical failure here."""

    def error(self, message):
        name, _, detail = message.partition(": ")
        raise ConfigError(name.removeprefix("argument "), detail)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slowgyro", allow_abbrev=False,
                     description="Slow-light ring gyroscope simulator")
    parser.add_argument("--version", action="version",
                        version=f"slowgyro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, flags in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=COMMANDS[command].help,
                           allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def _parse(argv) -> tuple:
    """(COMMANDS label, the flags given by dest).  Refuses a flag the
    label does not take, whether the parser knows it or not."""
    args, extras = build_parser().parse_known_args(argv)
    given = vars(args)
    command = given.pop("command")
    label = f"{command} --case" if "case" in given else command
    refused = [token.split("=", 1)[0] for token in extras]
    refused += [f"--{flag}" for flag in SUBCOMMANDS[command]
                if FLAGS[flag].get("dest", flag.replace("-", "_")) in given
                and flag not in COMMANDS[label].flags]
    if refused:
        raise ConfigError(refused[0],
                          f"slowgyro {label} does not read {refused[0]}")
    return label, given


def _write_files(files: list):
    """Write each (flag, path, buffer), or none: every path is opened for
    appending first, and a file that this created is removed again when a
    later path cannot be opened."""
    created = []
    for flag, path, _ in files:
        new = not os.path.exists(path)
        try:
            open(path, "a").close()
        except OSError as err:
            for done in created:
                os.remove(done)
            raise ConfigError(flag, f"cannot write {path}: "
                              f"{err.strerror}") from None
        if new:
            created.append(path)
    for _, path, buffer in files:
        with open(path, "w", newline="") as out:
            out.write(buffer.getvalue())


def _run(argv) -> int:
    """Run one command.  The runner fills the envelope; this adds inputs,
    provenance, notes and warnings, and writes every output on success."""
    label, given = _parse(argv)
    spec = COMMANDS[label]
    path, fmt = given.pop("out", None), given.pop("format", None)
    env = ResultEnvelope(label.split()[0], {}, {})
    args, unread, provenance = (), [], []
    if spec.keys:
        raw = read_config(given.pop("config", None))
        config = normalize_config(raw)
        args = (config,)
        unread = sorted(set(raw) - spec.keys - _CONSUMED)
        env.inputs = {k: config.echo[k] for k in sorted(spec.keys)}
        by_source = {}  # one provenance line per source of the keys read
        for k in sorted(spec.keys & config.sources.keys()):
            by_source.setdefault(config.sources[k], []).append(k)
        provenance = [f"{', '.join(keys)}: {source}"
                      for source, keys in by_source.items()]
    # the flags it runs with, defaults included; a profile path is no input
    bound = inspect.signature(spec.run).bind_partial(**given)
    bound.apply_defaults()
    bound.arguments.pop("profile_out", None)
    env.inputs.update(bound.arguments)
    text, files = io.StringIO(), []
    if path is not None and path != "-":
        files.append(("--out", path, text))
    if "profile_out" in given:
        provenance.append(f"profile written to {given['profile_out']}")
        files.append(("--profile-out", given["profile_out"], io.StringIO()))
        given["profile_out"] = files[-1][2]

    to_stderr = True  # a failed command reports its warnings on stderr
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        try:
            spec.run(*args, env, **given)
            # CSV, a table's default, has nowhere to list warnings and notes
            fmt = fmt or ("csv" if env.columns else "json")
            to_stderr = fmt == "csv"
        finally:
            env.warnings = [f"{w.category.__name__}: {w.message}"
                            for w in records]
            if to_stderr:
                for line in env.warnings:
                    print(f"warning: {line}", file=sys.stderr)

    notes = [f"set but not read by slowgyro {label}, so not echoed: "
             f"{', '.join(unread)}"] if unread else []
    if to_stderr:
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
    env.assumptions += provenance + notes
    env.write(text, fmt)
    _write_files(files)
    if path is None or path == "-":
        sys.stdout.write(text.getvalue())
    return 0


def main(argv=None) -> int:
    try:
        return _run(argv)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except ParameterError as err:
        print(f"invalid parameter: {err}", file=sys.stderr)
        return 1
    except (IntegrationError, DegenerateSteadyStateError, BoundaryHitError,
            np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
