"""The two workloads: seeded inputs, one operation, and its correctness
check; and the cold CLI commands the traced runs time one by one.

Input i of a workload is drawn from its own generator seeded with
(seed, i), so inputs never repeat inside a run and a run of any length
sees the same prefix for the same seed.  Each check computes its reference
without the code path it checks, and runs outside the timed region.

Why these two: `ring-scan` is nearly all all-order propagation kernel,
with no import and no optimiser; `design-sweep` uses propagation only on
the frozen-s path, carries the SNR optimiser and the CLI's config and
output code, and is the only workload with the Bloch solve.  A change that
speeds one propagation path and slows the other shows on one of them.

Import, the bulk of a cold CLI command, is in every run's setup_s, and the
traced runs time every CLI subcommand in a fresh process (cli_variants).
A workload of cold CLI processes was tried and dropped: one-second
operations gave too few samples per run to be steady on a shared host.
"""

import csv
import io
import json
import math
import os
import random
import subprocess
import sys

import numpy as np

C = 299792458.0             # m/s, exact
HBAR = 1.054571817e-34      # J s, exact since the 2019 SI

PHASE_KEYS = {"delta_phi_sig", "phase_cw", "phase_ccw", "light_part",
              "matter_part", "amplitude_ratio", "bare_sagnac_phase"}
ENVELOPE_KEYS = {
    "steady-state": {"rho_real", "rho_imag", "hermiticity_residual",
                     "trace_residual", "generator_residual",
                     "excited_population"},
    "propagate": PHASE_KEYS | {"direction", "richardson_phase"},
    "phase": PHASE_KEYS,
    "omega-min": {"omega_min", "s_opt", "xi_opt", "g_max", "f"},
}
SWEEP_HEADER = ["rabi_p0_rad_s", "s", "snr_total", "snr_matter", "snr_light"]
SWEEP_STEPS = 200           # the CLI's default snr-sweep length
OPTIMIZE_ROWS = 7           # header + the CLI's six default loss parameters


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def _rng(seed, i):
    return random.Random(f"{seed}:{i}")


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _close(value, ref, rtol, what):
    if not abs(value - ref) <= rtol * abs(ref):
        raise CheckFailed(f"{what}: {value!r} vs reference {ref!r} "
                          f"(rtol {rtol:g})")


def _phase_rates(s, medium, rotation_rate):
    """Per-beam light and matter phase rates (rad/m) at saturation s, full
    momentum transfer, superfluid ring (matter term kept)."""
    t2 = medium.tan2_theta
    pref = medium.fields.k_p * rotation_rate * medium.geometry.radius / C
    denom = 1.0 + t2 * medium.scales.v_rec / C / (1.0 + s) ** 3
    return pref / denom, pref * t2 / (1.0 + s) ** 2 / denom


_GL = [np.polynomial.legendre.leggauss(n) for n in (20, 40)]


def _adaptive_quad(f, lo, hi, rtol=1e-14, depth=0):
    """Adaptive Gauss-Legendre: 20 against 40 nodes, bisect until they
    agree."""
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    coarse, fine = (half * float(np.dot(w, f(half * x + mid))) for x, w in _GL)
    if abs(fine - coarse) <= rtol * abs(fine) or depth >= 30:
        return fine
    return (_adaptive_quad(f, lo, mid, rtol, depth + 1)
            + _adaptive_quad(f, mid, hi, rtol, depth + 1))


# --------------------------------------------------------------- ring-scan

class RingScan:
    """One RingMedium plus one all-order propagation per operation."""

    name = "ring-scan"
    GRIDS = (256, 1024, 4096)
    KINDS = ("cw", "ccw", "signal")
    RTOL = 1e-9

    def __init__(self, seed, workdir):
        from slowgyro import propagation, ringmodes
        self.seed = seed
        self.propagation = propagation
        self.prep = ringmodes.MediumPreparation(
            ringmodes.Preparation.SUPERFLUID_RING)

    def input(self, i):
        # grid and kind rotate in a fixed order so every run, whatever its
        # seed, carries the same mix of sizes; the physics is drawn
        rng = _rng(self.seed, i)
        a = _log_uniform(rng, 0.1, 1e3)
        return {"a": a, "xi": a * _log_uniform(rng, 0.5, 20.0),
                "s0": _log_uniform(rng, 1e-3, 10.0),
                "rotation_rate": _log_uniform(rng, 1e-5, 1e-2),
                "n_points": self.GRIDS[i % 3],
                "kind": self.KINDS[(i // 3) % 3]}

    def op(self, inp, tracer=None):
        prop = self.propagation
        medium = prop.RingMedium.from_dimensionless(
            inp["a"], inp["xi"], inp["s0"],
            rotation_rate=inp["rotation_rate"])
        grid = prop.PropagationGrid.uniform(medium.geometry.medium_length,
                                            inp["n_points"])
        if inp["kind"] == "signal":
            res = prop.signal_phase(medium, self.prep, grid)
        else:
            res = prop.propagate_allorder(
                medium, self.prep, grid,
                direction=1 if inp["kind"] == "cw" else -1)
        return medium, (res.phase_cw, res.phase_ccw, res.amplitude_ratio,
                        res.light_part + res.matter_part, res.delta_phi_sig)

    def check(self, inp, out):
        medium, (phase_cw, phase_ccw, amp, beam, delta) = out
        omega = medium.geometry.rotation_rate
        length = medium.geometry.medium_length
        kappa = medium.atom.gamma13 * medium.tan2_theta / C
        s0 = medium.fields.saturation0

        def rate(x):
            light, matter = _phase_rates(s0 * np.exp(-2.0 * kappa * x),
                                         medium, omega)
            return light + matter

        ref = _adaptive_quad(rate, 0.0, length)
        sign = -1.0 if inp["kind"] == "ccw" else 1.0
        _close(beam, sign * ref, self.RTOL, "light + matter phase")
        _close(phase_cw, ref, self.RTOL, "phase_cw")
        _close(phase_ccw, -phase_cw, 1e-12, "phase_ccw against -phase_cw")
        _close(delta, phase_cw - phase_ccw, 1e-12, "delta_phi_sig")
        _close(amp, math.exp(-kappa * length), self.RTOL, "amplitude ratio")


# ------------------------------------------------------------ design-sweep

class DesignSweep:
    """Design study of one config: sweep, optimiser, Omega_min, EIT line
    and the result envelope in both formats."""

    name = "design-sweep"
    EIT_DETUNINGS = np.linspace(-3.0, 3.0, 11)   # in units of rabi_c
    A_CHECK_MIN = 50.0   # the (1/3, 2a) optimum is asymptotic in a

    def __init__(self, seed, workdir):
        from slowgyro import bloch, cli, propagation, sensitivity
        self.seed = seed
        self.bloch, self.cli = bloch, cli
        self.propagation, self.sensitivity = propagation, sensitivity

    def input(self, i):
        # species, ring and grid rotate through their eight combinations
        # so every run, whatever its seed, carries the same mix; the
        # physics is drawn
        rng = _rng(self.seed, i)
        s0 = _log_uniform(rng, 1e-2, 10.0)
        return {"atom.preset": ("rb87", "na23")[i // 2 % 2],
                "geometry.preset": ("gupta", "arnold")[i // 4 % 2],
                "grid.n_points": (256, 1024)[i % 2],
                "atom.gamma13_per_s": _log_uniform(rng, 1.0, 1e3),
                "geometry.atom_density_per_m3": _log_uniform(rng, 1e19, 1e21),
                "fields.rabi_p0_rad_s": 1.0e8 * math.sqrt(s0)}

    def op(self, raw, tracer=None):
        cli, sens, bloch = self.cli, self.sensitivity, self.bloch
        config = cli.normalize_config(raw)
        medium = self.propagation.RingMedium(config.atom, config.fields,
                                             config.geometry)
        sweep = io.StringIO()
        cli.cmd_snr_sweep(config, sweep, n_steps=SWEEP_STEPS)
        a = medium.loss_parameter
        opt = sens.optimize_snr(a)
        geo, v_rec = config.geometry, medium.scales.v_rec
        om = sens.omega_min(geo.area, geo.cross_section, geo.atom_density,
                            v_rec, config.detection_time, a, config.atom.mass)
        fields = config.fields
        line = []
        for detuning in self.EIT_DETUNINGS * fields.rabi_c:
            gen = bloch.build_generator(config.atom, fields.rabi_p0,
                                        fields.rabi_c, fields.delta2,
                                        float(detuning), geo.rotation_rate,
                                        geo.radius, fields.k_p, v_rec)
            line.append((gen, bloch.steady_state(gen, n=1.0)))
        env = cli.ResultEnvelope("design-sweep", config.echo, {})
        env.add("a", a, "dimensionless")
        env.add("s_opt", opt.s_opt, "dimensionless")
        env.add("xi_opt", opt.xi_opt, "dimensionless")
        env.add("g_max", opt.g_max, "dimensionless")
        env.add("omega_min", om, "rad/s/sqrt(Hz)")
        env.add("eit_absorption", [float(rho.rho[1, 0].imag)
                                   for _, rho in line], "dimensionless")
        texts = {}
        for fmt in ("json", "csv"):
            buf = io.StringIO()
            env.write(buf, fmt)
            texts[fmt] = buf.getvalue()
        return config, medium, sweep.getvalue(), opt, om, line, env, texts

    def check(self, raw, out):
        config, medium, sweep, opt, om, line, env, texts = out
        geo = config.geometry
        a, xi, v_rec = medium.loss_parameter, medium.xi, medium.scales.v_rec
        flux = geo.cross_section * geo.atom_density * v_rec \
            * config.detection_time

        rows = list(csv.reader(io.StringIO(sweep)))
        if rows[0] != SWEEP_HEADER or len(rows) != SWEEP_STEPS + 1:
            raise CheckFailed(f"sweep: header {rows[0]}, {len(rows)} rows")
        table = np.array(rows[1:], dtype=float)
        s = table[:, 1]
        light, matter = _phase_rates(s, medium, geo.rotation_rate)
        root = np.sqrt(flux * xi * s * math.exp(-2.0 * a / xi))
        length = geo.medium_length
        for col, ref in ((2, (light + matter) * length * root),
                         (3, matter * length * root),
                         (4, light * length * root)):
            err = np.max(np.abs(table[:, col] - ref) / np.abs(ref))
            if not err <= 1e-9:
                raise CheckFailed(f"sweep column {SWEEP_HEADER[col]}: "
                                  f"relative error {err:.3g}")

        if a >= self.A_CHECK_MIN:
            _close(opt.s_opt, 1.0 / 3.0, 0.02, f"s_opt at a = {a:.4g}")
            _close(opt.xi_opt, 2.0 * a, 0.02, f"xi_opt at a = {a:.4g}")
        g = (math.sqrt(opt.xi_opt * opt.s_opt) * (1.0 + opt.s_opt)
             * math.exp(-a / opt.xi_opt)
             / (opt.xi_opt * (1.0 + opt.s_opt) ** 3 + 1.0))
        snr = om * geo.area * config.atom.mass / HBAR * math.sqrt(flux) * g
        _close(snr, 1.0, 1e-9, "SNR at omega_min")

        for gen, rho in line:
            vec = rho.rho.reshape(9)
            residual = np.linalg.norm(gen.m @ vec) / (
                np.linalg.norm(gen.m) * np.linalg.norm(vec))
            if not residual <= 1e-9:
                raise CheckFailed(f"EIT steady state residual {residual:.3g}")
            _close(rho.rho.trace().real, 1.0, 1e-12, "EIT trace")

        parsed = json.loads(texts["json"])
        if set(parsed["results"]) != set(env.results):
            raise CheckFailed("json envelope results keys differ")
        rows = list(csv.reader(io.StringIO(texts["csv"])))
        if rows[0] != ["name", "value", "unit"] \
                or len(rows) != len(env.results) + 1:
            raise CheckFailed(f"csv envelope: {len(rows)} rows")


# ---------------------------------------------------- cold CLI commands

def child_env(root):
    """Environment of a program child: the checkout's src first on the path,
    and the thread pins the parent already carries."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, root, stdout_path):
    """Run one child to completion and return its exit code.  Output goes
    to files so no pipe can fill up."""
    with open(stdout_path, "wb") as out, \
            open(stdout_path + ".err", "wb") as err:
        return subprocess.run(argv, stdout=out, stderr=err, cwd=root,
                              env=child_env(root)).returncode


def cli_variants(cfg, fmt, case, species, workdir):
    """Every subcommand variant as (name, argv after the program, the file
    holding its output, kind of output)."""
    out = os.path.join(workdir, "out.txt")
    profile = os.path.join(workdir, "profile.csv")
    sweep = os.path.join(workdir, "sweep.csv")
    opt = os.path.join(workdir, "opt.csv")
    conf = ["--config", cfg] if cfg else []
    envelope = conf + ["--format", fmt, "--out", out]
    return (
        ("steady-state", ["steady-state"] + envelope, out, "steady-state"),
        ("propagate-cw", ["propagate", "--direction", "1"] + envelope, out,
         "propagate"),
        ("propagate-ccw", ["propagate", "--direction", "-1"] + envelope, out,
         "propagate"),
        ("phase", ["phase"] + envelope, out, "phase"),
        ("phase-profile", ["phase", "--profile-out", profile] + envelope,
         profile, "profile"),
        ("snr-sweep", ["snr-sweep", "--out", sweep] + conf, sweep, "sweep"),
        ("optimize", ["optimize", "--out", opt], opt, "optimize"),
        ("omega-min-config", ["omega-min"] + envelope, out, "omega-min"),
        ("omega-min-case", ["omega-min", "--case", case, "--species",
                            species, "--format", fmt, "--out", out], out,
         "omega-min"),
    )


CLI_VARIANTS = tuple(v[0] for v in cli_variants("c", "json", "gupta", "na23",
                                                 ""))


def check_cli_output(kind, path, fmt, n_points):
    with open(path, newline="") as fh:
        text = fh.read()
    if kind in ENVELOPE_KEYS:
        if fmt == "json":
            names = set(json.loads(text)["results"])
        else:
            rows = list(csv.reader(io.StringIO(text)))
            if rows[0] != ["name", "value", "unit"]:
                raise CheckFailed(f"{kind}: csv header {rows[0]}")
            names = {row[0] for row in rows[1:]}
        missing = ENVELOPE_KEYS[kind] - names
        if missing:
            raise CheckFailed(f"{kind}: missing results {sorted(missing)}")
        return
    rows = list(csv.reader(io.StringIO(text)))
    expected = {"profile": n_points + 1, "sweep": SWEEP_STEPS + 1,
                "optimize": OPTIMIZE_ROWS}[kind]
    if len(rows) != expected:
        raise CheckFailed(f"{kind}: {len(rows)} rows, expected {expected}")
    if kind == "sweep" and rows[0] != SWEEP_HEADER:
        raise CheckFailed(f"sweep header {rows[0]}")


WORKLOADS = {w.name: w for w in (RingScan, DesignSweep)}


def make(name, seed, workdir):
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
