"""In-memory span recorder and the wrappers that put spans around calls
into slowgyro's public functions.

A span is [name, start, end, parent, op, failed, work]: perf_counter
seconds, the index of the enclosing span (None at the
top), the benchmark operation it belongs to, whether the call raised, and
a work count (grid points for propagation, bytes for envelope writes).
The program itself is not modified: `instrument` swaps module attributes
for wrappers and `restore` puts the originals back.
"""

import functools
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name); signal_phase gets its name per call
FUNCTIONS = (
    ("slowgyro.cli", "normalize_config", "cli.normalize_config"),
    ("slowgyro.cli", "cmd_snr_sweep", "cli.cmd_snr_sweep"),
    ("slowgyro.propagation", "propagate_allorder",
     "propagation.propagate_allorder"),
    ("slowgyro.propagation", "signal_phase", None),
    ("slowgyro.sensitivity", "optimize_snr", "sensitivity.optimize_snr"),
    ("slowgyro.sensitivity", "omega_min", "sensitivity.omega_min"),
    ("slowgyro.bloch", "build_generator", "bloch.build_generator"),
    ("slowgyro.bloch", "steady_state", "bloch.steady_state"),
)
# (module, class, method, span name)
METHODS = (
    ("slowgyro.cli", "ResultEnvelope", "write", "cli.ResultEnvelope.write"),
    ("slowgyro.propagation", "RingMedium", "__init__",
     "propagation.RingMedium"),
)
SPAN_NAMES = tuple(sorted(
    [name for _, _, name in FUNCTIONS if name]
    + ["propagation.signal_phase.allorder", "propagation.signal_phase.frozen"]
    + [name for *_, name in METHODS]))


class Tracer:
    """Spans of one run, kept in memory until the run writes them out."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op,
                           False, 0])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span, failed=False):
        span[2] = time.perf_counter()
        span[5] = failed
        self._stack.pop()

    @contextmanager
    def operation(self, op_id):
        """Root span of one benchmark operation."""
        self.op = op_id
        span = self.begin("op")
        try:
            yield span
        except BaseException:
            self.end(span, failed=True)
            raise
        self.end(span)


def _span_call(tracer, name, fn, args, kwargs, work=0):
    span = tracer.begin(name)
    span[6] = work
    try:
        result = fn(*args, **kwargs)
    except BaseException:
        tracer.end(span, failed=True)
        raise
    tracer.end(span)
    return result


def _signal_phase_name(args, kwargs):
    frozen = kwargs.get("frozen_s", args[4] if len(args) > 4 else False)
    rabi_p0 = kwargs.get("rabi_p0", args[3] if len(args) > 3 else None)
    if rabi_p0 is None:
        rabi_p0 = args[0].fields.rabi_p0
    kind = "frozen" if frozen or rabi_p0 == 0.0 else "allorder"
    return f"propagation.signal_phase.{kind}"


def _grid_points(args, kwargs):
    grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
    return getattr(grid, "n_points", 0)


class _CountingWriter:
    def __init__(self, out, span):
        self._out = out
        self._span = span

    def write(self, text):
        self._span[6] += len(text.encode())
        return self._out.write(text)


def _wrap_function(tracer, name, fn):
    if name is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _span_call(tracer, _signal_phase_name(args, kwargs), fn,
                              args, kwargs)
    elif name == "propagation.propagate_allorder":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _span_call(tracer, name, fn, args, kwargs,
                              work=_grid_points(args, kwargs))
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _span_call(tracer, name, fn, args, kwargs)
    return wrapper


def _wrap_method(tracer, name, fn):
    if name == "cli.ResultEnvelope.write":
        @functools.wraps(fn)
        def wrapper(self, out, *args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(self, _CountingWriter(out, span), *args, **kwargs)
            except BaseException:
                tracer.end(span, failed=True)
                raise
            tracer.end(span)
            return result
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _span_call(tracer, name, fn, args, kwargs)
    return wrapper


def instrument(tracer):
    """Wrap every traced function in every loaded slowgyro module that binds
    it (callers often import by name).  Targets missing from the program are
    skipped: their spans then report zero calls.  Returns the undo list for
    `restore`."""
    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "slowgyro"
                                     or n.startswith("slowgyro."))]
    for mod_name, attr, name in FUNCTIONS:
        original = getattr(sys.modules.get(mod_name), attr, None)
        if original is None:
            continue
        wrapper = _wrap_function(tracer, name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)
    for mod_name, cls_name, method, name in METHODS:
        cls = getattr(sys.modules.get(mod_name), cls_name, None)
        original = vars(cls).get(method) if cls is not None else None
        if original is None:
            continue
        undo.append((cls, method, original))
        setattr(cls, method, _wrap_method(tracer, name, original))
    return undo


def restore(undo):
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def summarize(spans, total_s):
    """Per span name: calls, failed, mean self time per call, share of
    `total_s` spent in the span's own code, and summed work counts.

    Self time is the span's duration minus the time its direct children
    cover; children never overlap because everything runs in one thread."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child_s[parent] += end - start
    out = {name: {"calls": 0, "failed": 0, "self_s": 0.0, "work": 0,
                  "wall_s": 0.0} for name in SPAN_NAMES}
    for i, (name, start, end, _, _, failed, work) in enumerate(spans):
        if name not in out:
            continue
        agg = out[name]
        agg["calls"] += 1
        agg["failed"] += int(failed)
        agg["self_s"] += end - start - child_s[i]
        agg["wall_s"] += end - start
        agg["work"] += work
    for agg in out.values():
        agg["share"] = agg["self_s"] / total_s if total_s > 0 else 0.0
        agg["self_s"] = agg["self_s"] / agg["calls"] if agg["calls"] else 0.0
    return out
