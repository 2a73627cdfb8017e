"""Command-line surface: config parsing, dispatch and machine-readable output.

Subcommands
    steady-state   solve the driven Lambda system and print the density matrix
    propagate      integrate one beam around the ring, emit a per-x profile
    phase          differential Sagnac phase with light/matter split
    snr-sweep      SNR versus input probe power (CSV)
    optimize       optimum (s, xi) versus loss parameter a (CSV)
    omega-min      minimum detectable rotation rate, from a config or a
                   built-in case study

Configuration is a flat JSON object with namespaced keys carrying units in
their names (atom.mass_kg, fields.lambda_p_m, geometry.radius_m, ...).
Unknown keys are rejected.  Results are emitted as JSON envelopes (every
number tagged with its unit, inputs echoed, assumptions and warnings
listed) or as CSV tables with a header row, dot decimals and newline
terminated rows.

Exit status: 0 success, 1 validation error, 2 numerical failure.
"""

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bloch import build_generator, steady_state
from .errors import (BoundaryHitError, ConfigError,
                     DegenerateSteadyStateError, IntegrationError,
                     LowCountWarning, ParameterError)
from .params import (SPECIES_PRESETS, REFERENCE_WAVELENGTHS, AtomSpecies,
                     ProbeControlFields, RingGeometry)
from .propagation import (PropagationGrid, RingMedium, bare_sagnac_phase,
                          propagate_allorder, signal_phase, write_profile_csv)
from .ringmodes import MediumPreparation, Preparation
from .sensitivity import (CASE_CROSS_SECTION, CASE_DENSITY, CASE_PRESETS,
                          case_study, detector_photons, loss_parameter,
                          omega_min, optimize_snr)

DEFAULT_A_LIST = (0.05, 0.5, 5.0, 50.0, 500.0, 5000.0)

GEOMETRY_PRESETS = {
    name: {"geometry.radius_m": preset["radius"],
           "geometry.cross_section_m2": CASE_CROSS_SECTION,
           "geometry.atom_density_per_m3": CASE_DENSITY}
    for name, preset in CASE_PRESETS.items()}

_POSITIVE = ("must be a positive number", lambda v: v > 0)
_NONNEG = ("must be >= 0", lambda v: v >= 0)
_ANY = ("must be a number", lambda v: True)

# key -> (python type, (message, predicate))
KEY_SPECS = {
    "atom.preset": (str, None),
    "atom.mass_kg": (float, _POSITIVE),
    "atom.dipole_p_Cm": (float, _NONNEG),
    "atom.gamma1_per_s": (float, _NONNEG),
    "atom.gamma3_per_s": (float, _NONNEG),
    "atom.gamma13_per_s": (float, _NONNEG),
    "fields.lambda_p_m": (float, _POSITIVE),
    "fields.rabi_p0_rad_s": (float, _NONNEG),
    "fields.rabi_c_rad_s": (float, _POSITIVE),
    "fields.k_c_parallel_per_m": (float, _ANY),
    "fields.delta2_rad_s": (float, _ANY),
    "fields.delta3_rad_s": (float, _ANY),
    "geometry.preset": (str, None),
    "geometry.radius_m": (float, _POSITIVE),
    "geometry.medium_length_m": (float, _POSITIVE),
    "geometry.cross_section_m2": (float, _POSITIVE),
    "geometry.atom_density_per_m3": (float, _NONNEG),
    "geometry.rotation_rate_rad_s": (float, _ANY),
    "preparation.kind": (str, None),
    "preparation.temperature_K": (float, _NONNEG),
    "grid.n_points": (int, ("must be an integer >= 64", lambda v: v >= 64)),
    "detection.time_s": (float, _POSITIVE),
    "output.path": (str, None),
    "output.format": (str, None),
}

DEFAULTS = {
    "atom.preset": "rb87",
    "atom.gamma13_per_s": 1.0e3,
    "fields.rabi_p0_rad_s": 1.0e8 * math.sqrt(1.0 / 3.0),
    "fields.rabi_c_rad_s": 1.0e8,
    "fields.k_c_parallel_per_m": 0.0,
    "fields.delta2_rad_s": 0.0,
    "fields.delta3_rad_s": 0.0,
    "geometry.preset": "gupta",
    "geometry.rotation_rate_rad_s": 7.29e-5,
    "preparation.kind": "superfluid_ring",
    "preparation.temperature_K": 0.0,
    "grid.n_points": 256,
    "detection.time_s": 1.0,
}


@dataclass
class RunConfig:
    atom: AtomSpecies
    fields: ProbeControlFields
    geometry: RingGeometry
    preparation: MediumPreparation
    grid_points: int
    detection_time: float
    echo: dict = field(default_factory=dict)
    output_path: str | None = None
    output_format: str | None = None
    provenance: list = field(default_factory=list)

    def medium(self) -> RingMedium:
        return RingMedium(self.atom, self.fields, self.geometry)

    def grid(self) -> PropagationGrid:
        return PropagationGrid.uniform(self.geometry.medium_length,
                                       self.grid_points)


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
    provenance = []

    preset_name = str(work.pop("atom.preset", "rb87")).lower()
    if preset_name not in SPECIES_PRESETS:
        raise ConfigError("atom.preset",
                          f"unknown species preset {preset_name!r}; "
                          f"known: {sorted(SPECIES_PRESETS)}")
    species = SPECIES_PRESETS[preset_name]
    species_defaults = {
        "atom.mass_kg": species.mass,
        "atom.dipole_p_Cm": species.dipole_p,
        "atom.gamma1_per_s": species.gamma1,
        "atom.gamma3_per_s": species.gamma3,
        "fields.lambda_p_m": REFERENCE_WAVELENGTHS[preset_name],
    }
    filled = [k for k in species_defaults if k not in work]
    for key in filled:
        work[key] = species_defaults[key]
    if filled:
        provenance.append(
            f"{', '.join(sorted(filled))}: preset {preset_name} "
            "(standard alkali D2-line data, equal decay branches)")
    if "atom.gamma13_per_s" not in raw:
        provenance.append(
            "atom.gamma13_per_s: default 1 kHz (typical ground-coherence "
            "dephasing of cold gases)")

    geom_preset = str(work.pop("geometry.preset", "gupta")).lower()
    if geom_preset not in GEOMETRY_PRESETS:
        raise ConfigError("geometry.preset",
                          f"unknown geometry preset {geom_preset!r}; "
                          f"known: {sorted(GEOMETRY_PRESETS)}")
    geom_filled = [k for k in GEOMETRY_PRESETS[geom_preset] if k not in work]
    for key in geom_filled:
        work[key] = GEOMETRY_PRESETS[geom_preset][key]
    if geom_filled:
        provenance.append(
            f"{', '.join(sorted(geom_filled))}: preset {geom_preset} "
            "(circular BEC waveguide figures)")
    if "geometry.medium_length_m" not in work:
        work["geometry.medium_length_m"] = \
            2.0 * math.pi * work["geometry.radius_m"]
        provenance.append(
            "geometry.medium_length_m: full ring, L_M = 2*pi*R")

    values = {}
    for key, value in work.items():
        typ, check = KEY_SPECS[key]
        try:
            cast = typ(value)
        except (TypeError, ValueError):
            raise ConfigError(key, f"cannot interpret {value!r} as {typ.__name__}") from None
        if typ is int and isinstance(value, float) and value != cast:
            raise ConfigError(key, f"expected an integer, got {value!r}")
        if check is not None and not check[1](cast):
            raise ConfigError(key, f"{check[0]} (got {cast!r})")
        values[key] = cast

    kind_name = values.get("preparation.kind", "superfluid_ring")
    try:
        kind = Preparation(kind_name)
    except ValueError:
        raise ConfigError("preparation.kind",
                          f"unknown preparation {kind_name!r}; known: "
                          f"{[p.value for p in Preparation]}") from None

    try:
        atom = AtomSpecies(mass=values["atom.mass_kg"],
                           dipole_p=values["atom.dipole_p_Cm"],
                           gamma1=values["atom.gamma1_per_s"],
                           gamma3=values["atom.gamma3_per_s"],
                           gamma13=values["atom.gamma13_per_s"],
                           name=preset_name)
    except ParameterError as err:
        raise ConfigError("atom.*", str(err)) from None
    try:
        fields_obj = ProbeControlFields(
            lambda_p=values["fields.lambda_p_m"],
            rabi_p0=values["fields.rabi_p0_rad_s"],
            rabi_c=values["fields.rabi_c_rad_s"],
            k_c_parallel=values["fields.k_c_parallel_per_m"],
            delta2=values["fields.delta2_rad_s"],
            delta3=values["fields.delta3_rad_s"])
    except ParameterError as err:
        raise ConfigError("fields.*", str(err)) from None
    try:
        geometry = RingGeometry(
            radius=values["geometry.radius_m"],
            medium_length=values["geometry.medium_length_m"],
            cross_section=values["geometry.cross_section_m2"],
            atom_density=values["geometry.atom_density_per_m3"],
            rotation_rate=values["geometry.rotation_rate_rad_s"])
    except ParameterError as err:
        raise ConfigError("geometry.*", str(err)) from None
    try:
        preparation = MediumPreparation(
            kind=kind, temperature=values["preparation.temperature_K"])
    except ParameterError as err:
        raise ConfigError("preparation.temperature_K", str(err)) from None

    out_format = values.get("output.format")
    if out_format is not None and out_format not in ("json", "csv"):
        raise ConfigError("output.format",
                          f"must be 'json' or 'csv', got {out_format!r}")
    echo = {k: values[k] for k in sorted(values)
            if k not in ("output.path", "output.format")}
    return RunConfig(atom=atom, fields=fields_obj, geometry=geometry,
                     preparation=preparation,
                     grid_points=values["grid.n_points"],
                     detection_time=values["detection.time_s"],
                     echo=echo,
                     output_path=values.get("output.path"),
                     output_format=out_format,
                     provenance=provenance)


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError("<config>", f"file not found: {path}") from None
        except json.JSONDecodeError as err:
            raise ConfigError("<config>", f"invalid JSON: {err}") from None
    if overrides:
        raw.update(overrides)
    return normalize_config(raw)


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

    def add(self, name: str, value, unit: str):
        self.results[name] = {"value": value, "unit": unit}

    def to_dict(self) -> dict:
        return {"command": self.command, "inputs": self.inputs,
                "results": self.results, "assumptions": self.assumptions,
                "warnings": self.warnings, "version": self.version}

    def write(self, out, fmt: str = "json"):
        if fmt == "json":
            out.write(json.dumps(self.to_dict(), indent=2, sort_keys=True))
            out.write("\n")
        elif fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["name", "value", "unit"])
            for name in sorted(self.results):
                entry = self.results[name]
                writer.writerow([name, json.dumps(entry["value"]),
                                 entry["unit"]])
        else:
            raise ConfigError("output.format", f"unknown format {fmt!r}")


def cmd_steady_state(config: RunConfig) -> ResultEnvelope:
    """Steady state of the driven Lambda system, normalized to unit trace."""
    env = ResultEnvelope("steady-state", config.echo, {})
    scales = config.medium().scales
    gen = build_generator(config.atom, config.fields.rabi_p0,
                          config.fields.rabi_c, config.fields.delta2,
                          config.fields.delta3,
                          config.geometry.rotation_rate,
                          config.geometry.radius, config.fields.k_p,
                          scales.v_rec)
    rho = steady_state(gen, n=1.0)
    vec = rho.rho.reshape(9)
    residual = float(np.linalg.norm(gen.m @ vec)
                     / max(np.linalg.norm(gen.m) * np.linalg.norm(vec), 1e-300))
    env.add("rho_real", [[float(v.real) for v in row] for row in rho.rho],
            "dimensionless (trace normalized to 1)")
    env.add("rho_imag", [[float(v.imag) for v in row] for row in rho.rho],
            "dimensionless")
    env.add("hermiticity_residual",
            float(np.abs(rho.rho - rho.rho.conj().T).max()), "dimensionless")
    env.add("trace_residual", float(abs(rho.rho.trace() - 1.0)), "dimensionless")
    env.add("generator_residual", residual, "dimensionless")
    env.add("excited_population", float(rho.rho[1, 1].real), "dimensionless")
    env.assumptions.append("density matrix normalized to unit trace")
    env.assumptions.extend(config.provenance)
    return env


def _phase_envelope(command: str, config: RunConfig,
                    result) -> ResultEnvelope:
    env = ResultEnvelope(command, config.echo, {})
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
        f"{'kept' if config.preparation.kind is Preparation.SUPERFLUID_RING else 'gated to zero'}")
    env.assumptions.extend(config.provenance)
    return env


def cmd_phase(config: RunConfig, profile_out: str | None = None) -> ResultEnvelope:
    """Differential Sagnac signal phase with its light/matter split."""
    result = signal_phase(config.medium(), config.preparation, config.grid())
    env = _phase_envelope("phase", config, result)
    if profile_out:
        write_profile_csv(result, profile_out, config.fields.rabi_p0)
        env.assumptions.append(f"profile written to {profile_out}")
    return env


def cmd_propagate(config: RunConfig, direction: int = 1,
                  profile_out: str | None = None) -> ResultEnvelope:
    """All-order propagation of one beam; optional per-x profile CSV."""
    result = propagate_allorder(config.medium(), config.preparation,
                                config.grid(), direction=direction)
    env = _phase_envelope("propagate", config, result)
    env.add("direction", direction, "sign (+1 co-rotating)")
    env.add("richardson_phase", result.diagnostics.get("richardson_phase", 0.0),
            "rad")
    if profile_out:
        write_profile_csv(result, profile_out, config.fields.rabi_p0)
        env.assumptions.append(f"profile written to {profile_out}")
    return env


def cmd_snr_sweep(config: RunConfig, out, s_min: float = 1e-3,
                  s_max: float = 1e2, n_steps: int = 200):
    """SNR versus input probe Rabi frequency, CSV columns
    (rabi_p0, s, snr_total, snr_matter, snr_light)."""
    if s_min <= 0 or s_max <= 0 or s_max < s_min:
        raise ConfigError("sweep", "need 0 < s_min <= s_max")
    if n_steps < 1:
        raise ConfigError("sweep", "n_steps must be >= 1")
    medium = config.medium()
    grid = config.grid()
    geometry = config.geometry
    a = medium.loss_parameter
    xi = medium.xi
    if not np.isfinite(xi):
        raise ConfigError("geometry.atom_density_per_m3",
                          "snr-sweep needs a dressed medium (nonzero density)")
    t = config.detection_time
    if n_steps == 1:
        s_values = np.array([s_min])
    else:
        s_values = np.geomspace(s_min, s_max, n_steps)

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["rabi_p0_rad_s", "s", "snr_total", "snr_matter",
                     "snr_light"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowCountWarning)
        for s in s_values:
            rabi_p0 = math.sqrt(s) * config.fields.rabi_c
            res = signal_phase(medium, config.preparation, grid,
                               rabi_p0=rabi_p0, frozen_s=True)
            n_d = detector_photons(geometry.cross_section,
                                   geometry.atom_density,
                                   medium.scales.v_rec, t, xi, float(s), a)
            root = math.sqrt(n_d)
            writer.writerow([repr(float(rabi_p0)), repr(float(s)),
                             repr(abs(res.light_part + res.matter_part) * root),
                             repr(abs(res.matter_part) * root),
                             repr(abs(res.light_part) * root)])


def cmd_optimize(a_list, out):
    """Optimum operating point for each loss parameter, CSV columns
    (a, s_opt, xi_opt, g_max, f_estimate)."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["a", "s_opt", "xi_opt", "g_max", "f_estimate"])
    for a in a_list:
        opt = optimize_snr(float(a))
        writer.writerow([repr(float(a)), repr(opt.s_opt), repr(opt.xi_opt),
                         repr(opt.g_max), repr(opt.f_estimate)])


STATE_OF_THE_ART = {
    "optical_gyroscope_rad_s_sqrtHz": 2e-10,
    "matter_wave_gyroscope_rad_s_sqrtHz": 6e-10,
}


def cmd_omega_min(config: RunConfig | None = None, case: str | None = None,
                  species: str = "na23", a_value: float = 2.9,
                  t: float = 1.0, area_convention: str = "ring") -> ResultEnvelope:
    """Minimum detectable rotation rate from a config or a case study."""
    if case is not None:
        report = case_study(case, species=species, a=a_value, t=t,
                            area_convention=area_convention)
        env = ResultEnvelope("omega-min", {"case": case, "species": species,
                                           "a": a_value, "t_s": t,
                                           "area_convention": area_convention},
                             {})
        env.add("omega_min", report.omega_min, "rad/s/sqrt(Hz)")
        env.add("s_opt", report.s_opt, "dimensionless")
        env.add("xi_opt", report.xi_opt, "dimensionless")
        env.add("g_max", report.g_max, "dimensionless")
        env.add("f", report.f, "dimensionless")
        env.add("n_D", report.n_d, "quanta")
        env.add("delta_phi_noise", report.delta_phi_noise, "rad")
        env.add("snr_at_omega_min", report.snr, "dimensionless")
        env.assumptions.extend(report.assumptions)
        other = "arnold" if case.lower() == "gupta" else "gupta"
        other_report = case_study(other, species=species, a=a_value, t=t,
                                  area_convention=area_convention)
        env.add(f"omega_min_{other}", other_report.omega_min, "rad/s/sqrt(Hz)")
        env.add("gupta_arnold_ratio",
                (report.omega_min / other_report.omega_min
                 if case.lower() == "gupta"
                 else other_report.omega_min / report.omega_min),
                "dimensionless (area scaling (96/3)^2 = 1024)")
    else:
        if config is None:
            raise ConfigError("<args>", "omega-min needs --config or --case")
        medium = config.medium()
        geometry = config.geometry
        v_rec = medium.scales.v_rec
        a_cfg = loss_parameter(config.atom.gamma13, geometry.medium_length,
                               v_rec)
        om = omega_min(geometry.area, geometry.cross_section,
                       geometry.atom_density, v_rec, config.detection_time,
                       a_cfg, config.atom.mass)
        opt = optimize_snr(a_cfg)
        env = ResultEnvelope("omega-min", config.echo, {})
        env.add("omega_min", om, "rad/s/sqrt(Hz)")
        env.add("a", a_cfg, "dimensionless")
        env.add("s_opt", opt.s_opt, "dimensionless")
        env.add("xi_opt", opt.xi_opt, "dimensionless")
        env.add("g_max", opt.g_max, "dimensionless")
        env.add("f", opt.f_estimate, "dimensionless")
        env.assumptions.append(
            f"area convention A = R*L_M = {geometry.area:.6g} m^2")
        env.assumptions.append("exact optimizer prefactor (SNR at omega_min is 1)")
        env.assumptions.extend(config.provenance)
    for name, value in STATE_OF_THE_ART.items():
        env.add(f"benchmark_{name}", value, "rad/s/sqrt(Hz)")
        env.add(f"ratio_to_{name}",
                env.results["omega_min"]["value"] / value, "dimensionless")
    return env


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _parse_a_list(text: str):
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError("--a-list", f"cannot parse {text!r}") from None
    if not values or any(v <= 0 for v in values):
        raise ConfigError("--a-list", "need positive loss parameters")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowgyro",
        description="Slow-light ring gyroscope simulator")
    parser.add_argument("--version", action="version",
                        version=f"slowgyro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        p.add_argument("--config", default=None,
                       help="JSON config file (flat namespaced keys)")
        p.add_argument("--out", default=None,
                       help="output path (default: config output.path, else stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--grid", type=int, default=None,
                       help="override grid.n_points")

    p = sub.add_parser("steady-state", help="Lambda-system steady state")
    common(p)

    p = sub.add_parser("propagate", help="all-order beam propagation")
    common(p)
    p.add_argument("--direction", type=int, choices=(1, -1), default=1)
    p.add_argument("--profile-out", default=None,
                   help="write per-x profile CSV here")

    p = sub.add_parser("phase", help="differential Sagnac phase")
    common(p)
    p.add_argument("--profile-out", default=None)

    p = sub.add_parser("snr-sweep", help="SNR vs probe power (CSV)")
    common(p)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--s-min", type=float, default=1e-3)
    p.add_argument("--s-max", type=float, default=1e2)

    p = sub.add_parser("optimize", help="optimum (s, xi) vs loss parameter (CSV)")
    p.add_argument("--a-list", default=",".join(str(v) for v in DEFAULT_A_LIST))
    p.add_argument("--out", default=None)

    p = sub.add_parser("omega-min", help="minimum detectable rotation rate")
    common(p)
    p.add_argument("--case", choices=sorted(CASE_PRESETS), default=None)
    p.add_argument("--species", choices=sorted(SPECIES_PRESETS),
                   default="na23")
    p.add_argument("--a", type=float, default=2.9, dest="a_value")
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--area", choices=("ring", "disk"), default="ring")
    return parser


def _run(args) -> int:
    captured = []
    config = None
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")

        if args.command == "optimize":
            out, close = _open_out(args.out)
            try:
                cmd_optimize(_parse_a_list(args.a_list), out)
            finally:
                if close:
                    out.close()
            return 0

        overrides = {}
        if args.grid is not None:
            overrides["grid.n_points"] = args.grid

        if args.command == "omega-min" and args.case is not None:
            if args.config is not None or args.grid is not None:
                raise ConfigError("--case", "a case study takes no --config "
                                  "or --grid")
            env = cmd_omega_min(case=args.case, species=args.species,
                                a_value=args.a_value, t=args.time,
                                area_convention=args.area)
        else:
            config = load_config(args.config, overrides)
            if args.command == "steady-state":
                env = cmd_steady_state(config)
            elif args.command == "propagate":
                env = cmd_propagate(config, direction=args.direction,
                                    profile_out=args.profile_out)
            elif args.command == "phase":
                env = cmd_phase(config, profile_out=args.profile_out)
            elif args.command == "snr-sweep":
                out, close = _open_out(args.out or config.output_path)
                try:
                    cmd_snr_sweep(config, out, s_min=args.s_min,
                                  s_max=args.s_max, n_steps=args.steps)
                finally:
                    if close:
                        out.close()
                return 0
            elif args.command == "omega-min":
                env = cmd_omega_min(config=config)
            else:  # pragma: no cover
                raise ConfigError("<args>", f"unknown command {args.command}")
        captured = [f"{w.category.__name__}: {w.message}" for w in records]

    env.warnings.extend(captured)
    out_path = args.out or (config.output_path if config else None)
    fmt = args.format or (config.output_format if config else None) or "json"
    out, close = _open_out(out_path)
    try:
        env.write(out, fmt)
    finally:
        if close:
            out.close()
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
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
