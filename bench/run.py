"""Seeded benchmark of rigidview: two closed-loop workloads, one client.

Run from the repository root:

    python3 bench/run.py --workload exact-pairs --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1    # every workload, one process each

A workload run generates all its inputs from ``--seed`` first (the set-up,
repeated three times and reported as the median), then sends one request at
a time for ``--seconds`` seconds, cycling through the generated pool, and
checks every output against the truth known from construction.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
a fixed list of requests three times (untraced, with spans, under cProfile),
whatever ``--seconds`` says, and reports the per-layer metrics instead.

Set-up time, latency and throughput are reported at a reference speed
(``setup_s`` and the ``*_ref`` metrics; see :class:`Speedometer`), because
the wall-clock speed of a shared machine drifts too much between runs to
bound a regression; the wall-clock figures are printed and recorded next
to them.

The last line of standard output is one JSON object with the keys
``correct`` (every request passed every check), ``attempted``, ``failed``
(requests with at least one failed check) and ``metrics``; the full record
(failures by kind, verdict digest, environment, latencies and, when traced,
every span) is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import cProfile
import collections
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("exact-pairs", "span-126-9")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
SAMPLE_EVERY_S = 0.1
SPEED_WINDOW_S = 0.25
# The *_ref metrics are reported at the speed where calibration_loop()
# takes this long: a round figure near its median on the 2-vCPU 2.0 GHz
# Xeon VM (Python 3.11) the baseline was measured on.
CALIBRATION_REF_S = 0.0004


def limit_threads():
    """Cap the BLAS/OpenMP thread pools at the CPUs this process may use;
    must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc):
    import numpy

    package = os.path.join(SRC, "rigidview")
    lines = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"commit": commit(), "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "src_lines": lines,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def quantile(values, q):
    """Inclusive quantile, interpolating between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def summarize(outcomes):
    """Failure accounting and the verdict digest of a list of outcomes."""
    kinds, examples = collections.Counter(), {}
    for out in outcomes:
        for kind, message in out.failures:
            kinds[kind] += 1
            examples.setdefault(kind, message)
    verdicts = json.dumps([out.verdicts for out in outcomes], separators=(",", ":"))
    return {"attempted": len(outcomes),
            "failed": sum(1 for out in outcomes if out.failures),
            "failures_by_kind": dict(sorted(kinds.items())),
            "failure_examples": dict(sorted(examples.items())),
            "verdict_digest": hashlib.sha256(verdicts.encode()).hexdigest(),
            "digest_requests": len(outcomes)}


CALIBRATION_TERMS = [(k * 2654435761) % 10**12 + 1 for k in range(31)]


def calibration_loop():
    """Seconds taken by a fixed mix of the interpreter work the workloads
    do (dict updates with int keys, Fraction arithmetic on 40-bit terms):
    a sample of the machine's current speed for that work."""
    t = time.perf_counter()
    table = {}
    for k in range(1000):
        key = k & 1023
        table[key] = table.get(key, 0) + k * k
    acc = Fraction(1)
    for k in range(1, len(CALIBRATION_TERMS)):
        acc = acc * Fraction(CALIBRATION_TERMS[k], CALIBRATION_TERMS[k - 1]) + Fraction(k, 3)
        acc = Fraction(acc.numerator % 10**30 + 1, acc.denominator % 10**30 + 1)
    return time.perf_counter() - t


class Speedometer:
    """Samples the interpreter's speed on entry and then every
    SAMPLE_EVERY_S seconds, while a timed run imports, sets up and loops.

    On a shared machine that speed drifts by tens of percent over seconds,
    which is more than a regression bound can absorb.  The samples are taken
    from a SIGALRM handler, so they also fall inside long requests; the
    handler runs in this thread between bytecodes and starts no thread.
    """

    def __init__(self):
        self.times, self.durations = [], []

    def _sample(self, _signum, _frame):
        self.times.append(time.perf_counter())
        self.durations.append(calibration_loop())

    def __enter__(self):
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def own_time(self, start, end):
        """Seconds the handler spent inside [start, end]."""
        lo, hi = bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end)
        return sum(self.durations[lo:hi])

    def ref_factor(self, start, end):
        """CALIBRATION_REF_S over the mean sample taken within SPEED_WINDOW_S
        of [start, end]."""
        lo = bisect.bisect_left(self.times, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + SPEED_WINDOW_S)
        window = self.durations[lo:hi] or self.durations
        return CALIBRATION_REF_S * len(window) / sum(window)


def closed_loop(wl, pool, seconds):
    """One client: the next request starts when the previous one returns.

    The inputs are moved out of the collector's reach and the garbage of
    each request is collected before the next one starts, so that every
    request begins from the same collector state.  Returns the request
    windows, the outcomes and the elapsed time.
    """
    windows, outcomes = [], []
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    while not windows or time.perf_counter() - start < seconds:
        case = pool[len(windows) % len(pool)]
        gc.collect()
        t = time.perf_counter()
        outcomes.append(wl.request(case))
        windows.append((t, time.perf_counter()))
    return windows, outcomes, time.perf_counter() - start


def run_timed(wl, seed, seconds, speed, import_window):
    """The end-to-end metrics: set-up (import, then input generation and
    warm-up SETUP_REPEATS times, median), then the closed loop.  Times are
    net of the speedometer's own samples and reported at the reference
    speed; the wall-clock figures go into the record."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        pool = [wl.make(seed, i) for i in range(wl.pool_size)]
        wl.warm(pool)
        setups.append((t, time.perf_counter()))
    windows, outcomes, elapsed = closed_loop(wl, pool, seconds)

    def net(window):
        return window[1] - window[0] - speed.own_time(*window)

    setup_s = net(import_window) + statistics.median(net(w) for w in setups)
    setup_ref_s = setup_s * speed.ref_factor(import_window[0], setups[-1][1])
    latencies = [net(w) for w in windows]
    scaled = [x * speed.ref_factor(*w) for x, w in zip(latencies, windows)]
    first_pass = summarize(outcomes[:len(pool)])
    record = summarize(outcomes)
    record.update(verdict_digest=first_pass["verdict_digest"],
                  digest_requests=first_pass["digest_requests"])
    metrics = {
        "throughput_ref_per_s": (len(scaled) / sum(scaled), "1/s"),
        "latency_p50_ref_ms": (1e3 * statistics.median(scaled), "ms"),
        "latency_p90_ref_ms": (1e3 * quantile(scaled, 0.9), "ms"),
        "setup_s": (setup_ref_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    p90 = quantile(latencies, 0.9)
    record.update(
        wall_clock={"throughput_per_s": {"value": len(latencies) / elapsed, "unit": "1/s"},
                    "latency_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
                    "latency_p90_ms": {"value": 1e3 * p90, "unit": "ms"},
                    "setup_s": {"value": setup_s, "unit": "s"}},
        failed_share=record["failed"] / record["attempted"],
        elapsed_s=elapsed, pool_size=len(pool), pool_passes=len(latencies) / len(pool),
        import_s=net(import_window), setup_repeats_s=[net(w) for w in setups],
        latency_samples=len(latencies),
        samples_beyond_p90=sum(1 for x in latencies if x > p90),
        latencies_ms=[1e3 * x for x in latencies],
        calibrations_ms=[1e3 * x for x in speed.durations])
    return metrics, record


def run_traced(wl, seed):
    from tracing import PER_LAYER_UNITS, Tracer, layer_metrics, profile_table

    tracer = Tracer()
    cases = []
    for i in range(wl.trace_size):
        tracer.request = i
        cases.append(wl.make(seed, i, tracer))
    wl.warm(cases)
    gc.collect()
    gc.freeze()

    # Each request runs untraced and then traced, so that a drift in the
    # machine's speed weighs on both sides of the overhead ratio alike.
    outcomes, counts, untraced_s, traced_s = [], collections.Counter(), 0.0, 0.0
    for i, case in enumerate(cases):
        gc.collect()
        t = time.perf_counter()
        wl.request(case)
        untraced_s += time.perf_counter() - t
        tracer.request = i
        tracer.phase = "request"
        gc.collect()
        start = time.perf_counter()
        out = wl.request(case, tracer)
        end = time.perf_counter()
        tracer.record("request", start, end)
        traced_s += end - start
        outcomes.append(out)
        counts.update(out.counts)
        tracer.phase = "probe"
        wl.probe(case, tracer, counts)

    profile, profiled_s = cProfile.Profile(), 0.0
    for case in cases:
        gc.collect()
        t = time.perf_counter()
        profile.enable()
        wl.request(case)
        profile.disable()
        profiled_s += time.perf_counter() - t
    table, fractions_self, profile_total = profile_table(profile)

    values = layer_metrics(tracer, len(cases), counts, table, fractions_self,
                           profile_total, untraced_s, traced_s, profiled_s)
    metrics = {name: (value, PER_LAYER_UNITS[name]) for name, value in values.items()}
    record = summarize(outcomes)
    record.update(untraced_s=untraced_s, traced_s=traced_s, profiled_s=profiled_s,
                  profile_calls=dict(sorted(table.items())), spans=tracer.spans)
    return metrics, record


def run_one(args, nproc):
    if not os.path.isfile(os.path.join(SRC, "rigidview", "__init__.py")):
        print(f"bench: no rigidview package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.trace:
        import workloads

        wl = workloads.WORKLOADS[args.workload]
        metrics, record = run_traced(wl, args.seed)
    else:
        with Speedometer() as speed:
            t = time.perf_counter()
            import workloads

            wl = workloads.WORKLOADS[args.workload]
            metrics, record = run_timed(wl, args.seed, args.seconds, speed,
                                        (t, time.perf_counter()))
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(nproc),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **record}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{wl.name} seed={args.seed} trace={args.trace} "
          f"attempted={record['attempted']} failed={record['failed']}")
    for kind, count in record["failures_by_kind"].items():
        print(f"  failure {kind}: {count}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for name, m in record.get("wall_clock", {}).items():
        print(f"  {name + ' (wall clock)':34s} {m['value']:14.6g} {m['unit']}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


def run_all(args):
    """Every workload in a fresh process of its own, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    nproc = limit_threads()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
