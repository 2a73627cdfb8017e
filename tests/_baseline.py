"""The CLI behaviour baseline: a fixed set of invocations and their stored
outputs, and the comparison test_baseline.py applies to a re-run.

Each invocation runs in-process through `slowgyro.cli.main` in a scratch
directory; the directory's path is replaced by $TMP in everything stored.
`tests/baseline/<name>.json` holds its argv, config, exit code, stdout,
stderr and profile CSV (null without --profile-out).  Regenerate only when
a change to the CLI's output is intended:

    PYTHONPATH=src python tests/_baseline.py
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import sys
import tempfile

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "baseline")
RTOL = 1e-12
# results changed on purpose since the baseline was generated, each with
# the check that replaces equality with the stored value.  The stored
# hermiticity_residual was measured after steady_state made rho Hermitian,
# so it read 0.0 by construction; it is now the solve's roundoff before.
CHANGED = {"hermiticity_residual": lambda value: 0.0 <= value <= 1e-10}

CONFIGS = {
    "default": None,
    "na23-arnold": {"atom.preset": "na23", "geometry.preset": "arnold"},
    "thermal": {"preparation.kind": "thermal_ring",
                "preparation.temperature_K": 1e-6},
    "zero-probe": {"fields.rabi_p0_rad_s": 0.0},
    "dense": {"geometry.atom_density_per_m3": 1e24},
    "narrow": {"geometry.cross_section_m2": 1e-22},
}
COARSE = {"grid.n_points": 64}
# command -> (the keys it adds to each config, its argv)
PER_CONFIG = {
    "steady-state": ({}, ["steady-state"]),
    "propagate": (COARSE, ["propagate", "--profile-out", "{profile}"]),
    "propagate-ccw": (COARSE, ["propagate", "--direction", "-1",
                               "--profile-out", "{profile}"]),
    "phase": (COARSE, ["phase"]),
    "snr-sweep": ({}, ["snr-sweep", "--steps", "20"]),
    "omega-min": ({}, ["omega-min"]),
}
EXTRA = {
    "default--phase-profile-256": (None, ["phase", "--profile-out",
                                          "{profile}"]),
    "default--snr-sweep-200": (None, ["snr-sweep"]),
    "default--snr-sweep-json": (None, ["snr-sweep", "--steps", "20",
                                       "--format", "json"]),
    "default--phase-csv": (COARSE, ["phase", "--format", "csv"]),
    "default--steady-state-csv": (None, ["steady-state", "--format", "csv"]),
    "case-gupta": (None, ["omega-min", "--case", "gupta"]),
    "case-gupta-disk": (None, ["omega-min", "--case", "gupta", "--area",
                               "disk"]),
    "case-arnold": (None, ["omega-min", "--case", "arnold"]),
    "case-arnold-disk": (None, ["omega-min", "--case", "arnold", "--area",
                                "disk"]),
    "optimize": (None, ["optimize"]),
    "optimize-a-list": (None, ["optimize", "--a-list", "0.1,1,10"]),
    "optimize-json": (None, ["optimize", "--format", "json"]),
}
CASES = {f"{config}--{command}": ({**(CONFIGS[config] or {}), **keys} or None,
                                  argv)
         for config in CONFIGS for command, (keys, argv) in PER_CONFIG.items()}
CASES.update(EXTRA)


def run_case(config, argv):
    """{argv, config, exit, stdout, stderr, profile} of one in-process run,
    its scratch directory written as $TMP."""
    from slowgyro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        profile = os.path.join(tmp, "profile.csv")
        args = [a.replace("{profile}", profile) for a in argv]
        if config is not None:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            args += ["--config", path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        text = None
        if os.path.exists(profile):
            with open(profile, newline="") as fh:
                text = fh.read()
        return {"argv": argv, "config": config, "exit": code,
                "stdout": out.getvalue().replace(tmp, "$TMP"),
                "stderr": err.getvalue().replace(tmp, "$TMP"),
                "profile": text}


# a number as the CLI prints it; the text around the numbers is compared
# exactly
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _close(got, want):
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return got == want or abs(got - want) <= RTOL * max(abs(got), abs(want))


def same_text(got, want) -> bool:
    """got equals want, numbers within RTOL relative."""
    if NUMBER.split(got) != NUMBER.split(want):
        return False
    pairs = zip(NUMBER.findall(got), NUMBER.findall(want))
    return all(_close(float(g), float(w)) for g, w in pairs)


def _diff_json(got, want, where):
    """Where got and want differ: keys and strings exactly, numbers within
    RTOL, a warning's category exactly and its message by same_text."""
    name = where.removeprefix(".results.").removesuffix(".value")
    if name in CHANGED and isinstance(got, float):
        return [] if CHANGED[name](got) else [f"{where}: {got!r}"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in sorted(want)
                for d in _diff_json(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _diff_json(g, w, f"{where}[{i}]")]
    if isinstance(want, str):
        if where.startswith(".warnings["):
            category, _, message = want.partition(": ")
            ok = (got.partition(": ")[0] == category
                  and same_text(got.partition(": ")[2], message))
        else:
            ok = got == want
        return [] if ok else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, bool) or want is None:
        return [] if got is want else [f"{where}: {got!r} != {want!r}"]
    ok = isinstance(got, (int, float)) and not isinstance(got, bool) \
        and _close(float(got), float(want))
    return [] if ok else [f"{where}: {got!r} != {want!r}"]


def _diff_csv(got, want, what, envelope):
    """Row by row: the header and an envelope's name and unit columns
    exactly, every other cell by same_text."""
    rows_got = list(csv.reader(io.StringIO(got)))
    rows_want = list(csv.reader(io.StringIO(want)))
    if len(rows_got) != len(rows_want) or rows_got[:1] != rows_want[:1]:
        return [f"{what}: {len(rows_got)} rows headed {rows_got[:1]}, "
                f"expected {len(rows_want)} headed {rows_want[:1]}"]
    diffs = []
    for i, (g, w) in enumerate(zip(rows_got[1:], rows_want[1:]), 1):
        exact = (0, 2) if envelope else ()
        if envelope and w[0] in CHANGED:
            ok = (g[::2] == w[::2]) and CHANGED[w[0]](float(g[1]))
        else:
            ok = len(g) == len(w) and all(
                gc == wc if j in exact else same_text(gc, wc)
                for j, (gc, wc) in enumerate(zip(g, w)))
        if not ok:
            diffs.append(f"{what} row {i}: {g} != {w}")
    return diffs


def diff_outputs(got, want):
    """Every way the run `got` departs from the stored `want`."""
    diffs = []
    if got["exit"] != want["exit"]:
        diffs.append(f"exit {got['exit']} != {want['exit']}")
    if want["stdout"].startswith("{"):
        try:
            parsed = json.loads(got["stdout"])
        except ValueError:
            return diffs + [f"stdout is not JSON: {got['stdout'][:80]!r}"]
        diffs += _diff_json(parsed, json.loads(want["stdout"]), "")
    else:
        diffs += _diff_csv(got["stdout"], want["stdout"], "stdout",
                           want["stdout"].startswith("name,value,unit"))
    lines_got = got["stderr"].splitlines()
    lines_want = want["stderr"].splitlines()
    if len(lines_got) != len(lines_want) or not all(
            same_text(g, w) for g, w in zip(lines_got, lines_want)):
        diffs.append(f"stderr {got['stderr']!r} != {want['stderr']!r}")
    if (got["profile"] is None) != (want["profile"] is None):
        diffs.append(f"profile written: {got['profile'] is not None}")
    elif want["profile"] is not None:
        diffs += _diff_csv(got["profile"], want["profile"], "profile", False)
    return diffs


def generate():
    os.makedirs(BASELINE, exist_ok=True)
    for name in os.listdir(BASELINE):
        os.remove(os.path.join(BASELINE, name))
    for name, (config, argv) in CASES.items():
        with open(os.path.join(BASELINE, f"{name}.json"), "w") as fh:
            json.dump(run_case(config, argv), fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(generate())
