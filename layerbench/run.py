#!/usr/bin/env python3
"""Layer-by-layer benchmark of slowgyro.

Run from the root of a checkout:

    python3 layerbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each exists): ring-scan and
design-sweep.  Load comes from one closed-loop client in this process, in
one thread: the next operation starts when the previous one has returned
and been checked.  Nothing queues, so no wait time is reported.

--trace 0 reports the end-to-end metrics: ops_per_s (operations completed
per second of operation time), op_p50_s, op_tail_s (the highest percentile
with at least 10 samples beyond it; its percentile is printed beside it),
setup_s (median over fresh probe processes, started at intervals through
the run, of the time from process start to the first timed operation:
import, inputs and one warm-up operation) and peak_rss_mb.  failed_ratio
is printed with them; the result line carries it as `failed` / `attempted`.

The four times are host-speed corrected.  On a shared host the same
operation runs up to twice as slow from one second to the next and from one
minute to the next, whatever the program does.  So before every operation
the benchmark times a fixed reference kernel of its own, which does not
touch the program, and scales each operation's wall time by REF_NOMINAL_S
over the median reference time around it: the times are seconds on a host
that runs the reference kernel in REF_NOMINAL_S.  Process start-up does not
follow that kernel (in some runs where the kernel ran a third faster,
start-up ran slower), so setup_s is scaled the same way by a reference
process of its own kind: a fresh interpreter that imports numpy and part
of the standard library, timed just before and just after each probe
(SETUP_REF_NOMINAL_S).  The uncorrected wall-clock figures and the
reference times are printed beside them and kept in the record.

--trace 1 runs the operations of the first half of the time untraced, then
the same operations again with spans around the calls into slowgyro's
public functions, and reports per-layer metrics: calls, failed, self time
per call and share of operation time per span; import cost per module from
`python -X importtime`; the cold wall time of every CLI subcommand
variant; and trace.overhead_s, the traced pass's time minus the untraced
pass's.

BLAS/OpenMP threads are pinned to 1 here and in every child.  The last line
of standard output is the JSON result; the full record (environment,
metrics, failures, spans) goes to layerbench/out/.
"""

import os

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:         # before numpy loads; children inherit it
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 7
IMPORT_PROBES = 3
CLI_PROBES = 3
TAIL_BEYOND = 10
# the reference kernel's time on a quiet core of a 2-vCPU Xeon (Python
# 3.11, numpy 2.4), which fixes the scale of the corrected times
REF_NOMINAL_S = 0.004
# set-up's reference: a fresh interpreter importing numpy and some of the
# standard library, none of the program; 0.15 s on the same quiet host
SETUP_REF = ("-c", "import numpy, json, csv, decimal, email.parser")
SETUP_REF_NOMINAL_S = 0.15
IMPORT_MODULES = ("slowgyro.cli", "slowgyro", "slowgyro.propagation",
                  "slowgyro.bloch", "slowgyro.params", "scipy.constants",
                  "scipy.integrate", "numpy")

# Which end-to-end metric each group of layer metrics should move, and
# which it should leave alone.
EXPECTED_EFFECTS = {
    "import.*.cum_s": {
        "moves": ["setup_s on every workload",
                  "cold CLI commands (cli.*.wall_p50_s)"],
        "holds": ["ring-scan ops_per_s", "design-sweep ops_per_s"]},
    "cli.*.wall_p50_s": {
        "moves": ["cold CLI commands (target 0.3 s per command)"],
        "holds": []},
    "propagation.propagate_allorder.*, propagation.signal_phase.allorder.*": {
        "moves": ["ring-scan ops_per_s", "ring-scan op_tail_s"],
        "holds": ["design-sweep",
                  "cold CLI commands (by less than 1%)"]},
    "propagation.signal_phase.frozen.*, cli.cmd_snr_sweep.*, "
    "sensitivity.optimize_snr.*, sensitivity.omega_min.*": {
        "moves": ["design-sweep ops_per_s"],
        "holds": ["ring-scan"]},
    "cli.ResultEnvelope.write.*, cli.normalize_config.*": {
        "moves": ["cold CLI commands", "design-sweep ops_per_s (regression "
                  "watch: output diagnostics add work here)"],
        "holds": ["ring-scan"]},
    "propagation.RingMedium.*": {
        "moves": ["ring-scan ops_per_s", "design-sweep ops_per_s "
                  "(params, polariton and ringmodes cost lands here)"],
        "holds": []},
    "bloch.*": {
        "moves": [],
        "holds": ["every workload: no planned change, the control"]},
}


_REF_X = np.linspace(0.0, 1.0, 2048)


def reference_kernel():
    """Fixed work of the kinds slowgyro does, a pure-Python float loop and
    small numpy array operations, independent of the program.  Its wall
    time tracks the speed the host gives this process."""
    acc = 0.0
    for k in range(1, 8000):
        acc += (k * 0.5) ** 0.5 / k
    x = _REF_X
    for _ in range(100):
        x = np.sort(np.sin(x) + 0.5 * x)
    return acc + float(x[0])


def reference_time():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class Run:
    """Outcome of one pass over the operations: for every completed one
    its wall time and the reference time taken just before it."""

    def __init__(self):
        self.attempted = 0
        self.latencies = []
        self.refs = []
        self.failures = []
        self.busy_s = 0.0

    def corrected(self):
        """Host-speed-corrected latencies (see the module docstring).  The
        host's speed during operation i is the median of the two reference
        times before it and the two after it (refs i + 1 and i + 2 precede
        the next operations)."""
        return [lat * REF_NOMINAL_S
                / statistics.median(self.refs[max(0, i - 1):i + 3])
                for i, lat in enumerate(self.latencies)]


def measure(workload, seconds=None, n_ops=None, tracer=None, between=None):
    """Closed loop over operations 0, 1, ... until `seconds` of operation
    time or `n_ops` operations.  Only the operation itself is timed; inputs
    are drawn and outputs checked outside the timed region, and
    `between(run)`, if given, is called before each operation, untimed."""
    run = Run()
    i = 0
    while run.busy_s < seconds if n_ops is None else i < n_ops:
        if between is not None:
            between(run)
        inp = workload.input(i)
        ref = reference_time()
        start = time.perf_counter()
        try:
            if tracer is None:
                out = workload.op(inp)
            else:
                with tracer.operation(i):
                    out = workload.op(inp, tracer)
        except Exception as err:  # a failed operation is a result
            run.busy_s += time.perf_counter() - start
            run.failures.append(f"op {i}: {type(err).__name__}: {err}")
        else:
            elapsed = time.perf_counter() - start
            run.busy_s += elapsed
            try:
                workload.check(inp, out)
            except Exception as err:
                run.failures.append(f"op {i} check: {type(err).__name__}: "
                                    f"{err}")
            else:
                run.latencies.append(elapsed)
                run.refs.append(ref)
        run.attempted += 1
        i += 1
    return run


def tail(latencies):
    """(value, percentile, samples beyond) of the highest percentile with
    at least TAIL_BEYOND samples beyond it; the maximum when there are too
    few samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def child_time(argv):
    start = time.perf_counter()
    subprocess.run(argv, check=True, cwd=os.getcwd())
    return time.perf_counter() - start


def setup_time(name, seed, workdir):
    """(corrected, wall, reference) time of one set-up probe; the reference
    is the mean of SETUP_REF's times just before and just after it."""
    before = child_time([sys.executable, *SETUP_REF])
    probe = os.path.join(HERE, "probe.py")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, probe, name, str(seed), workdir],
                            stdout=subprocess.PIPE, cwd=os.getcwd(),
                            env=workloads.child_env(os.getcwd()))
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    ref = (before + child_time([sys.executable, *SETUP_REF])) / 2
    return elapsed * SETUP_REF_NOMINAL_S / ref, elapsed, ref


def import_times():
    """Median cumulative import time per module over fresh interpreters;
    a module the program no longer imports reads 0."""
    samples = {mod: [] for mod in IMPORT_MODULES}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import slowgyro.cli"],
            capture_output=True, text=True, check=True, cwd=os.getcwd(),
            env=workloads.child_env(os.getcwd()))
        cum = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 \
                    and fields[1].strip().isdigit():
                cum[fields[2].strip()] = int(fields[1]) / 1e6
        for mod in IMPORT_MODULES:
            samples[mod].append(cum.get(mod, 0.0))
    return {mod: statistics.median(v) for mod, v in samples.items()}


def cli_walls(workdir, run):
    """Median cold wall time of every CLI variant on the default config."""
    walls = {}
    stdout = os.path.join(workdir, "probe-stdout.txt")
    for name, argv, path, kind in workloads.cli_variants(
            None, "json", "gupta", "na23", workdir):
        samples = []
        for _ in range(CLI_PROBES):
            start = time.perf_counter()
            code = workloads.run_child(
                [sys.executable, "-m", "slowgyro.cli"] + argv, os.getcwd(),
                stdout)
            samples.append(time.perf_counter() - start)
            run.attempted += 1
            try:
                if code != 0:
                    raise RuntimeError(f"exit {code}")
                workloads.check_cli_output(kind, path, "json", 256)
            except Exception as err:
                run.failures.append(f"cli probe {name}: {err}")
        walls[name] = statistics.median(samples)
    return walls


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree (git
    would otherwise answer for an enclosing repository)."""
    if not os.path.exists(os.path.join(os.getcwd(), ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=os.getcwd())
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed):
    from slowgyro import propagation
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            **versions, "git_commit": git_commit(), "seed": seed,
            "slowgyro.propagation.BACKEND":
                getattr(propagation, "BACKEND", "absent"),
            "threads_pinned": {var: os.environ[var] for var in PINNED},
            "load": "one closed-loop client, one process, one thread",
            "wait_time": "not reported: one thread and no queue, so no "
                         "operation waits"}


def end_to_end(name, run, setup):
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    corrected = run.corrected()
    value, pct, beyond = tail(corrected)
    metrics = {
        "ops_per_s": (len(corrected) / sum(corrected), "1/s"),
        "op_p50_s": (statistics.median(corrected), "s"),
        "op_tail_s": (value, "s"),
        "setup_s": (statistics.median(p[0] for p in setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    wall = {
        "ops_per_s": len(run.latencies) / run.busy_s,
        "op_p50_s": statistics.median(run.latencies),
        "op_tail_s": tail(run.latencies)[0],
        "setup_s": statistics.median(p[1] for p in setup),
        "setup_ref_p50_s": statistics.median(p[2] for p in setup),
        "ref_p50_s": statistics.median(run.refs),
    }
    extra = {"op_tail_percentile": pct, "op_tail_samples_beyond": beyond,
             "ops_completed": len(run.latencies),
             "failed_ratio": len(run.failures) / run.attempted,
             "ref_nominal_s": REF_NOMINAL_S, "wall": wall,
             "setup_ref_nominal_s": SETUP_REF_NOMINAL_S,
             "setup_samples": [dict(zip(("corrected_s", "wall_s", "ref_s"),
                                        p)) for p in setup],
             "latencies_s": run.latencies, "refs_s": run.refs}
    print(f"{name}: " + " | ".join(f"{k} {v:.6g} {u}"
                                   for k, (v, u) in metrics.items()))
    print(f"{name}: wall clock, uncorrected: " + " | ".join(
        f"{k} {v:.6g}" for k, v in wall.items())
        + f" (reference nominal {REF_NOMINAL_S:g} s, set-up reference "
          f"nominal {SETUP_REF_NOMINAL_S:g} s)")
    print(f"{name}: op_tail_s is p{pct:.2f} of {len(run.latencies)} "
          f"operations ({beyond} beyond); failed_ratio "
          f"{extra['failed_ratio']:.6g} ({len(run.failures)} of "
          f"{run.attempted}); setup_s median of {len(setup)} probes")
    return metrics, extra


def per_layer(name, untraced, traced, tracer, workdir, run):
    op_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == "op")
    summary = spans.summarize(tracer.spans, op_s)
    metrics = {}
    for mod, value in import_times().items():
        metrics[f"import.{mod}.cum_s"] = (value, "s")
    for variant, value in cli_walls(workdir, run).items():
        metrics[f"cli.{variant}.wall_p50_s"] = (value, "s")
    for span, agg in summary.items():
        metrics[f"{span}.calls"] = (agg["calls"], "count")
        metrics[f"{span}.failed"] = (agg["failed"], "count")
        metrics[f"{span}.self_s"] = (agg["self_s"], "s")
        metrics[f"{span}.share"] = (agg["share"], "fraction")
    write = summary["cli.ResultEnvelope.write"]
    metrics["cli.ResultEnvelope.write.bytes"] = (
        write["work"] / write["calls"] if write["calls"] else 0.0, "bytes")
    prop = summary["propagation.propagate_allorder"]
    metrics["propagation.propagate_allorder.points_per_s"] = (
        prop["work"] / prop["wall_s"] if prop["wall_s"] else 0.0, "1/s")
    metrics["trace.overhead_s"] = (traced.busy_s - untraced.busy_s, "s")
    print(f"{name}: traced {len(tracer.spans)} spans over "
          f"{traced.attempted} operations; trace.overhead_s "
          f"{traced.busy_s - untraced.busy_s:.6g} s")
    for span, agg in summary.items():
        if agg["calls"]:
            print(f"  {span}: calls {agg['calls']} failed {agg['failed']} "
                  f"self_s {agg['self_s']:.6g} s share {agg['share']:.4f}")
    for group, effect in EXPECTED_EFFECTS.items():
        print(f"  expect {group}: moves {effect['moves']}; "
              f"holds {effect['holds']}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "slowgyro", "cli.py")):
        print("layerbench: no slowgyro sources under ./src; run from the "
              "root of a slowgyro checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    name = args.workload
    outdir = os.path.join(HERE, "out")
    workdir = os.path.join(outdir, f"work-{name}")
    os.makedirs(workdir, exist_ok=True)

    workload = workloads.make(name, args.seed, workdir)
    workload.op(workload.input(-1))                     # warm-up

    tracer = None
    if args.trace:
        untraced = measure(workload, seconds=args.seconds / 2)
        tracer = spans.Tracer()
        undo = spans.instrument(tracer)
        try:
            traced = measure(workload, n_ops=untraced.attempted,
                             tracer=tracer)
        finally:
            spans.restore(undo)
        run = Run()
        run.attempted = untraced.attempted + traced.attempted
        run.failures = untraced.failures + traced.failures
        metrics = per_layer(name, untraced, traced, tracer, workdir, run)
        extra = {"ops_untraced": untraced.attempted,
                 "busy_untraced_s": untraced.busy_s,
                 "busy_traced_s": traced.busy_s}
    else:
        # the set-up probes are spread over the run: the host's speed
        # changes in episodes of about ten seconds, which a burst of
        # probes would see only one of
        setup = []

        def probe(run):
            if len(setup) < SETUP_PROBES and \
                    run.busy_s >= len(setup) * args.seconds / SETUP_PROBES:
                setup.append(setup_time(name, args.seed, workdir))

        run = measure(workload, seconds=args.seconds, between=probe)
        while len(setup) < SETUP_PROBES:    # a run of only a few operations
            probe(run)
        metrics, extra = end_to_end(name, run, setup)

    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"{name}: {env['wait_time']}")
    for failure in run.failures[:10]:
        print(f"FAILED {failure}")
    record = {"workload": name, "trace": args.trace, "environment": env,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "extra": extra, "failures": run.failures,
              "expected_effects": EXPECTED_EFFECTS,
              "span_fields": ["name", "start_s", "end_s", "parent", "op",
                              "failed", "work"],
              "spans": tracer.spans if tracer else []}
    path = os.path.join(outdir, f"{name}-seed{args.seed}-trace{args.trace}"
                                ".json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(f"record: {os.path.relpath(path, root)}")
    print(json.dumps({"correct": not run.failures,
                      "attempted": run.attempted,
                      "failed": len(run.failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
