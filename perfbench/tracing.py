"""Per-layer spans around tubalkit's public functions, hooked from outside.

Each hook replaces one module attribute: the name under which a caller looks
the function up at call time (altmin calls `ls_solve_y` through its own
module, the median wrappers through `tls`).  Nothing under src/ changes.
Spans are kept in memory and written out as JSON lines when the run ends.
"""

import functools
import inspect
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# (span name, module the caller looks the function up in, attribute)
HOOKS = (
    ("altmin.tubal_alt_min", "altmin", "tubal_alt_min"),
    ("harness.run_algorithm", "harness", "run_algorithm"),
    ("tnn_admm.admm_complete", "harness", "admm_complete"),
    ("tnn_admm.svt", "tnn_admm", "svt"),
    ("tnn_admm.tnn", "tnn_admm", "tnn"),
    ("tls.ls_solve_y", "altmin", "ls_solve_y"),
    ("tls.ls_solve_y", "tls", "ls_solve_y"),
    ("tls.ls_solve_x", "altmin", "ls_solve_x"),
    ("tls.ls_solve_x", "tls", "ls_solve_x"),
    ("tls.median_ls", "altmin", "median_ls"),
    ("tls.median_ls_x", "altmin", "median_ls_x"),
    ("altmin.qr_tensor", "altmin", "qr_tensor"),
    ("altmin.smooth_qr", "altmin", "smooth_qr"),
    ("altmin.initialize", "altmin", "initialize"),
    ("tsvd.top_r_eigenslices", "altmin", "top_r_eigenslices"),
    ("algebra.tprod", "altmin", "tprod"),
    ("algebra.spectral_norm", "altmin", "spectral_norm"),
    ("algebra.spectral_norm", "tnn_admm", "spectral_norm"),
    ("algebra.coherence", "altmin", "coherence"),
    ("sampling.split", "altmin", "split"),
    ("sampling.split", "tls", "split"),
    ("sampling.project", "altmin", "project"),
    ("sampling.project", "tls", "project"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in HOOKS))
# Solver entry points: their self time is the part of a solve no inner layer
# accounts for, which trace.coverage leaves out.
ENTRY_SPANS = ("altmin.tubal_alt_min", "harness.run_algorithm")

# Per-layer metric name -> unit.  Self seconds per span stay in the span file
# and the printed table: a layer a workload never reaches would report a time
# of exactly 0 on every run.
PER_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in SPAN_NAMES},
    **{f"{name}.share": "frac" for name in SPAN_NAMES},
    "tls.share": "frac",
    "tls.obs_per_unknown": "ratio",
    "tnn_admm.svt_tnn.share": "frac",
    "tnn_admm.iterations": "count",
    "tnn_admm.kept_frac": "frac",
    "altmin.iterations": "count",
    "altmin.smooth_qr.qr_per_call": "count",
    "solver.iter_s": "s",
    "trace.coverage": "frac",
    "trace.overhead_frac": "frac",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    solve: int
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


def _obs_per_unknown(slice_axes, factor_arg):
    # Observed entries per lateral slice of the system being solved, over the
    # r*k unknowns each slice's least-squares problem has.
    def probe(span, args, result, tracer):
        factor = args[factor_arg]
        per_slice = args["omega"].mask.sum(axis=slice_axes).mean()
        span.attrs["obs_per_unknown"] = float(per_slice) / (factor.shape[1] * factor.shape[2])

    return probe


def _iterations(span, args, result, tracer):
    span.attrs["iterations"] = len(result.rse)


def _admm_report(span, args, result, tracer):
    span.attrs["iterations"] = len(result.rse)
    span.attrs["_report"] = result  # dropped once the enclosing λ pick returns


def _kept(span, args, result, tracer):
    runs = [s for s in tracer.children(span) if s.name == "tnn_admm.admm_complete"]
    span.attrs["lambda_runs"] = len(runs)
    span.attrs["kept"] = sum(s.attrs.get("_report") is result for s in runs)
    for s in runs:
        s.attrs.pop("_report", None)


PROBES = {
    "tls.ls_solve_y": _obs_per_unknown((0, 2), "x"),
    "tls.ls_solve_x": _obs_per_unknown((1, 2), "y"),
    "altmin.tubal_alt_min": _iterations,
    "tnn_admm.admm_complete": _admm_report,
    "harness.run_algorithm": _kept,
}


class Tracer:
    """Installs the hooks around one solve at a time and keeps the spans."""

    def __init__(self, package, hooks=HOOKS):
        self.package = package
        self.hooks = hooks
        self.spans = []
        self.warnings = []
        self._stack = []
        self._saved = []
        self._solve = None

    @contextmanager
    def solve(self, solve_id):
        """Root span of one solve, with the hooks installed only inside it."""
        self._solve = solve_id
        self.install()
        span = self._open("solve")
        try:
            yield span
        finally:
            self._close(span)
            self.restore()
            self._solve = None

    def install(self):
        for name, module_name, attr in self.hooks:
            module = getattr(self.package, module_name, None)
            original = getattr(module, attr, None)
            if original is None:
                message = f"hook {module_name}.{attr} ({name}) not found; it records no calls"
                if message not in self.warnings:
                    self.warnings.append(message)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def children(self, span):
        return [s for s in self.spans if s.parent == span.id]

    def _open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._solve, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if probe:
                try:
                    probe(span, signature.bind(*args, **kwargs).arguments, result, self)
                except (TypeError, KeyError, AttributeError, IndexError) as exc:
                    message = f"probe for {name} failed: {exc!r}"
                    if message not in self.warnings:
                        self.warnings.append(message)
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                record = {"id": s.id, "name": s.name, "parent": s.parent, "solve": s.solve,
                          "start": s.start, "end": s.end}
                record.update((k, v) for k, v in s.attrs.items() if not k.startswith("_"))
                fh.write(json.dumps(record) + "\n")


def self_seconds(spans):
    """Total self time and call count per span name, over all solves."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds
    totals = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        totals[s.name] += s.seconds - covered[s.id]
        calls[s.name] += 1
    return totals, calls


def layer_metrics(spans, untraced_s, traced_s):
    """Per-layer metrics, per solve or as shares of traced solve time."""
    solves = [s for s in spans if s.name == "solve"]
    n = len(solves)
    solve_total = sum(s.seconds for s in solves)
    self_s, calls = self_seconds(spans)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.share"] = self_s[name] / solve_total

    def by_name(name):
        return [s for s in spans if s.name == name]

    out["tls.share"] = sum(v for k, v in self_s.items() if k.startswith("tls.")) / solve_total
    obs = [s.attrs["obs_per_unknown"] for s in spans if "obs_per_unknown" in s.attrs]
    out["tls.obs_per_unknown"] = statistics.fmean(obs) if obs else 0.0
    out["tnn_admm.svt_tnn.share"] = (self_s["tnn_admm.svt"] + self_s["tnn_admm.tnn"]) / solve_total

    admm = by_name("tnn_admm.admm_complete")
    admm_iters = sum(s.attrs.get("iterations", 0) for s in admm)
    out["tnn_admm.iterations"] = admm_iters / n
    picks = [s for s in by_name("harness.run_algorithm") if "lambda_runs" in s.attrs]
    runs = sum(s.attrs["lambda_runs"] for s in picks)
    out["tnn_admm.kept_frac"] = sum(s.attrs["kept"] for s in picks) / runs if runs else 0.0

    alt = by_name("altmin.tubal_alt_min")
    alt_iters = sum(s.attrs.get("iterations", 0) for s in alt)
    out["altmin.iterations"] = alt_iters / n
    smooth = {s.id for s in by_name("altmin.smooth_qr")}
    qr_in_smooth = sum(1 for s in by_name("altmin.qr_tensor") if s.parent in smooth)
    out["altmin.smooth_qr.qr_per_call"] = qr_in_smooth / len(smooth) if smooth else 0.0

    # Seconds per iteration of whichever solver loop the workload runs.
    solver_s = sum(s.seconds for s in alt + admm)
    iters = alt_iters + admm_iters
    out["solver.iter_s"] = solver_s / iters if iters else 0.0

    unattributed = self_s["solve"] + sum(self_s[name] for name in ENTRY_SPANS)
    out["trace.coverage"] = 1.0 - unattributed / solve_total
    out["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    return out


def span_table(spans):
    """Per span name: calls and self seconds per solve (printed, not gated)."""
    n = sum(1 for s in spans if s.name == "solve")
    self_s, calls = self_seconds(spans)
    return {name: {"calls": calls[name] / n, "self_s": self_s[name] / n} for name in SPAN_NAMES}
