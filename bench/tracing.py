"""Spans, profile counts and the per-layer metrics of the traced run.

Spans are recorded by the benchmark around its own calls into each layer
(the layers are the ``rigidview`` modules); nothing inside the library is
instrumented.  Everything stays in memory until the run writes it out.
"""

from __future__ import annotations

import os
import pstats
import time


def _span_name(fn, tag=""):
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    return f"{name}.{tag}" if tag else name


class Tracer:
    """Callable with the signature of :func:`workloads.direct` that records
    one span per call: name, start, end (seconds since the tracer was made),
    the phase (``setup``, ``request`` or ``probe``), the request index, and
    the exception type when the call raised."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.phase = "setup"
        self.request = None

    def __call__(self, fn, *args, tag=""):
        error = None
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            self.record(_span_name(fn, tag), start, time.perf_counter(), error)

    def record(self, name, start, end, error=None):
        span = {"name": name, "phase": self.phase, "request": self.request,
                "start": start - self.origin, "end": end - self.origin}
        if error:
            span["error"] = error
        self.spans.append(span)

    def durations(self, name, phase=None):
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (phase is None or s["phase"] == phase)]


def profile_table(profile):
    """Call counts and self/cumulative seconds of every ``rigidview``
    function, keyed ``layer.function``, plus the stdlib ``fractions`` self
    time and the profile's total time."""
    stats = pstats.Stats(profile).stats
    table, fractions_self = {}, 0.0
    for (filename, _line, func), (_cc, calls, self_s, cum_s, _callers) in stats.items():
        parent, module = os.path.split(filename)
        if os.path.basename(parent) == "rigidview" and module.endswith(".py"):
            key = f"{module[:-3]}.{func}"
            row = table.setdefault(key, {"calls": 0, "self_s": 0.0, "cum_s": 0.0})
            row["calls"] += calls
            row["self_s"] += self_s
            row["cum_s"] += cum_s
        elif module == "fractions.py":
            fractions_self += self_s
    total = sum(row[2] for row in stats.values())
    return table, fractions_self, total


def _mean(values, scale):
    return scale * sum(values) / len(values) if values else 0.0


# Per-layer time metrics read from spans: metric -> (span name, phase,
# statistic, scale).  "call" is the mean over calls, "request" the total
# per traced request.  A workload that never makes the call reports 0.
SPAN_METRICS = {
    "linalg.det6_exact_us": ("linalg.det.exact6", "probe", "call", 1e6),
    "linalg.rank6_exact_us": ("linalg.rank.exact6", "probe", "call", 1e6),
    "linalg.minors5_exact_us": ("linalg.signed_maximal_minors.exact5", "probe", "call", 1e6),
    "linalg.rank6_float_us": ("linalg.rank.float6", "probe", "call", 1e6),
    "cameras.membership_ms": ("cameras.multiview_membership", "probe", "request", 1e3),
    "triangulation.triangulate_ms": ("triangulation.triangulate", "probe", "request", 1e3),
    "constraints.octic_full_ms.n2": ("constraints.evaluate.octic_full.n2", "probe", "call", 1e3),
    "constraints.octic_full_ms.n3": ("constraints.evaluate.octic_full.n3", "probe", "call", 1e3),
    "constraints.octic_full_ms.n4": ("constraints.evaluate.octic_full.n4", "probe", "call", 1e3),
    "constraints.small_family_ms": ("constraints.evaluate.small_family", "probe", "call", 1e3),
    "constraints.equations_ms": ("constraints.rigid_pair_by_equations", "request", "call", 1e3),
    "constraints.oracle_ms": ("constraints.rigid_pair_oracle", "request", "call", 1e3),
    "polyspace.octics_symbolic_s": ("polyspace.all_octics_symbolic", "request", "call", 1.0),
    "polyspace.component_s": ("polyspace.ideal_component_basis", "request", "call", 1.0),
    "polyspace.modp_rank_s.octics": ("polyspace.span_dimension.octics", "request", "call", 1.0),
    "polyspace.modp_rank_s.component": ("polyspace.span_dimension.component", "request", "call", 1.0),
    "polyspace.modp_rank_s.union": ("polyspace.span_dimension.union", "request", "call", 1.0),
    "harness.refine_ms": ("harness.refine_rigid_pair", "probe", "call", 1e3),
}

# Per-request call counts read from the profile: metric -> "layer.function".
PROFILE_COUNTS = {
    "linalg.det_calls": "linalg.det",
    "linalg.rank_calls": "linalg.rank",
    "linalg.nullspace_calls": "linalg.nullspace",
    "cameras.membership_calls": "cameras.multiview_membership",
    "triangulation.wedge5_calls": "triangulation.wedge5",
    "constraints.tensor_value_calls": "constraints.value",
}

# Per-request counts the requests report themselves.
OUTCOME_COUNTS = ("polyspace.octic_terms", "harness.refine_iterations")


def layer_metrics(tracer, requests, counts, table, fractions_self, profile_total,
                  untraced_s, traced_s, profiled_s):
    """Every per-layer metric of one traced run, as ``{name: value}``."""
    out = {}
    for metric, (name, phase, stat, scale) in SPAN_METRICS.items():
        values = tracer.durations(name, phase)
        out[metric] = (_mean(values, scale) if stat == "call"
                       else scale * sum(values) / requests)
    for metric, key in PROFILE_COUNTS.items():
        out[metric] = table.get(key, {"calls": 0})["calls"] / requests
    evaluate_s = sum(s["end"] - s["start"] for s in tracer.spans
                     if s["name"].startswith("constraints.evaluate.octic_full."))
    out["constraints.octic_values_per_s"] = (counts.get("constraints.octic_values", 0)
                                             / evaluate_s if evaluate_s else 0.0)
    out["fractions.self_share"] = fractions_self / profile_total if profile_total else 0.0
    for key in OUTCOME_COUNTS:
        out[key] = counts.get(key, 0) / requests
    sampled = sum(s["end"] - s["start"] for s in tracer.spans
                  if s["phase"] == "setup" and s["name"].startswith("harness."))
    out["harness.sample_ms"] = 1e3 * sampled / requests
    out["trace.overhead_share"] = traced_s / untraced_s
    out["trace.profile_overhead_share"] = profiled_s / untraced_s
    return out


PER_LAYER_UNITS = {
    **{m: {1e6: "us", 1e3: "ms", 1.0: "s"}[scale]
       for m, (_name, _phase, _stat, scale) in SPAN_METRICS.items()},
    **{m: "calls/req" for m in PROFILE_COUNTS},
    "constraints.octic_values_per_s": "1/s",
    "fractions.self_share": "ratio",
    "polyspace.octic_terms": "count",
    "harness.refine_iterations": "iters/req",
    "harness.sample_ms": "ms",
    "trace.overhead_share": "ratio",
    "trace.profile_overhead_share": "ratio",
}
