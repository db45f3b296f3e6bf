"""Benchmark of the fullshift library: one seeded workload per call.

    python3 bench/run.py --workload construct --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each workload is a closed loop with one client in one process: the next
instance starts when the previous one has returned.  Set-up imports the
library and generates the seeded instance pool; the import is timed
IMPORT_REPS times and generation SETUP_REPS times, and the sum of their
medians is reported.  The timed loop then runs whole
passes over the pool until --seconds have elapsed and at least MIN_PASSES
passes ran, so every run of a seed times the same instances.  Each
instance's time is scaled to a reference CPU speed (see REFERENCE_S), and
its latency is its median over the passes, which drops the cold first
pass and the odd disturbed one.  Every
output is checked after its timer stops.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced pass.  See bench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("construct", "search", "invariants", "cli")
MIN_PASSES = 3
MIN_POOL = 100
IMPORT_REPS = 5
SETUP_REPS = 3
SHOWN_FAILURES = 5

# On a shared machine the speed of a core drifts, by up to 2x over a few
# seconds on a 2-vCPU VM, as other tenants come and go.  Each instance is
# therefore bracketed by a fixed reference computation, and its time is
# scaled by REFERENCE_S / (mean of the two reference times): the time it
# would have taken at the reference speed.  A slower library still shows,
# since the reference does not run library code.
REFERENCE_S = 0.6e-3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def reference():
    """Fixed pure-Python work (tuples, a dict, a sort), about REFERENCE_S."""
    table = {}
    for i in range(1500):
        key = (i, i >> 1, i & 7)
        table[key] = key[::-1]
    return min(sorted(table.items())[:50])


def time_reference():
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def at_reference_speed(seconds, ref_before, ref_after):
    """A time taken between two reference timings, scaled to REFERENCE_S."""
    return seconds * REFERENCE_S / ((ref_before + ref_after) / 2)


def percentile(sorted_values, q):
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(sorted_values, q):
    """How many samples lie strictly above the q-th percentile."""
    cut = percentile(sorted_values, q)
    return sum(1 for v in sorted_values if v > cut)


def fail_ratio(attempted, failed):
    return failed / attempted if attempted else 0.0


class Outcome:
    """Latencies and failures of a timed loop, per pool instance."""

    def __init__(self):
        self.times: dict[int, list[float]] = {}
        self.strata: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, index, stratum, seconds, problems):
        """seconds: the instance's time at the reference speed."""
        self.times.setdefault(index, []).append(seconds)
        self.strata[index] = stratum
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < SHOWN_FAILURES:
                self.messages.append(f"{stratum}: {'; '.join(problems)}")

    def latencies(self):
        """Each instance's median time over the passes."""
        return {i: statistics.median(ts) for i, ts in self.times.items()}

    def ops_per_s(self):
        lat = self.latencies()
        return len(lat) / sum(lat.values())

    def mean_pass_s(self):
        return sum(sum(ts) / len(ts) for ts in self.times.values())


def run_instance(inst, index, outcome, digest=None, tracer=None, ref_before=None):
    """Time one instance between two reference timings, then check its
    output outside the timer.  Returns the reference time taken after it."""
    if ref_before is None:
        ref_before = time_reference()
    problems, text = None, ""
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        output = inst.run()
    except Exception as exc:  # a raising instance is a failed instance
        problems = [f"{type(exc).__name__}: {exc}"]
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    ref_after = time_reference()
    if problems is None:
        try:
            problems, text = inst.verify(output)
        except Exception as exc:  # so is one whose output cannot be checked
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    outcome.record(index, inst.stratum, at_reference_speed(elapsed, ref_before, ref_after),
                   problems)
    if digest is not None:
        digest.update(f"{inst.stratum}\n{text}".encode())
    return ref_after


def timed_passes(pool, seconds, digest, tracer=None, passes=None):
    """Whole passes over the pool until the time has elapsed and at least
    MIN_PASSES passes ran, or exactly `passes` passes.  The output digest
    covers the first pass only."""
    outcome, done, t0, ref = Outcome(), 0, time.perf_counter(), None
    while True:
        for i, inst in enumerate(pool):
            if tracer is not None:
                tracer.instance = done * len(pool) + i
            ref = run_instance(inst, i, outcome, digest if done == 0 else None, tracer, ref)
        done += 1
        if passes is not None:
            if done >= passes:
                break
        elif time.perf_counter() - t0 >= seconds and done >= MIN_PASSES:
            break
    return outcome, done


# Run in a fresh interpreter to time one more import of the library.
IMPORT_PROBE = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import run
print(run.time_import()[1])
"""


def time_import():
    """Import the workload module, and with it the library; returns the
    module and the seconds taken at the reference speed."""
    ref_before = time_reference()
    t0 = time.perf_counter()
    module = importlib.import_module("workloads")
    elapsed = time.perf_counter() - t0
    return module, at_reference_speed(elapsed, ref_before, time_reference())


def import_seconds(first):
    """The median of the first import's time and IMPORT_REPS - 1 more, each
    in a fresh interpreter."""
    code = IMPORT_PROBE.format(bench=str(BENCH_DIR), src=str(SRC))
    times = [first]
    for _ in range(IMPORT_REPS - 1):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"import probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def setup(workloads, name, seed, workdir):
    """Generate the pool; returns it, its input digest and the seconds taken.
    Like a timed instance, the generation of each instance is timed between
    two reference timings and scaled to the reference speed.  There is no
    separate warm-up: the first timed pass fills the library's caches, and
    each instance is reported at its median pass."""
    instances = workloads.iter_pool(name, seed, tempfile.mkdtemp(dir=workdir))
    pool, seconds, ref_before = [], 0.0, time_reference()
    while True:
        t0 = time.perf_counter()
        inst = next(instances, None)
        elapsed = time.perf_counter() - t0
        ref_after = time_reference()
        seconds += at_reference_speed(elapsed, ref_before, ref_after)
        ref_before = ref_after
        if inst is None:
            break
        pool.append(inst)
    digest = hashlib.sha256()
    for inst in pool:
        digest.update(f"{inst.stratum}\n{inst.inputs}".encode())
    return pool, digest.hexdigest(), seconds


def run_workload(name, seed, seconds, trace):
    if not (SRC / "fullshift" / "__init__.py").is_file():
        print(f"error: no fullshift package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    workloads, first_import_s = time_import()
    import_s = import_seconds(first_import_s)
    workdir = ROOT / ".bench_tmp"
    workdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workdir, prefix=f"{name}-"))
    try:
        generation_s, digests, pool = [], set(), None
        for _ in range(SETUP_REPS):
            pool = None  # only one pool is alive at a time, for peak_rss_mb
            gc.collect()
            pool, instance_digest, gen_s = setup(workloads, name, seed, workdir)
            generation_s.append(gen_s)
            digests.add(instance_digest)
        setup_s = import_s + statistics.median(generation_s)
        if len(pool) < MIN_POOL:
            raise SystemExit(f"pool of {len(pool)} instances; the p90 needs {MIN_POOL}")
        gc.collect()
        if trace:
            result = traced_run(name, seed, seconds, pool)
        else:
            result = timed_summary(seconds, pool, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["instance_digest"] = instance_digest
    if len(digests) != 1:
        result["correct"] = False
        result["messages"].append("set-up repetitions generated different instances")
    emit(name, seed, result, trace)
    return 0


def timed_summary(seconds, pool, setup_s):
    digest = hashlib.sha256()
    outcome, passes = timed_passes(pool, seconds, digest)
    lat = sorted(outcome.latencies().values())
    metrics = {
        "ops_per_s": outcome.ops_per_s(),
        "latency_p50_ms": percentile(lat, 0.5) * 1e3,
        "latency_p90_ms": percentile(lat, 0.9) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "metrics": metrics,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "correct": outcome.failed == 0,
        "messages": outcome.messages,
        "pool": len(pool),
        "passes": passes,
        "samples": len(lat),
        "beyond_p90": beyond(lat, 0.9),
        "output_digest": digest.hexdigest(),
    }


def free_pair_share(outcome):
    """The share of the loop time spent in free-pair instances (2.4/...);
    0 outside construct."""
    lat = outcome.latencies()
    free_pair = sum(v for i, v in lat.items() if outcome.strata[i].startswith("2.4/"))
    return free_pair / sum(lat.values())


def traced_run(name, seed, seconds, pool):
    """Untraced passes for half the time, then one traced pass; the
    per-layer metrics are totals over that pass."""
    import spans as tracing  # noqa: E402  (bench/spans.py, found via sys.path)

    plain, passes = timed_passes(pool, seconds / 2, hashlib.sha256())
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        digest = hashlib.sha256()
        traced, _ = timed_passes(pool, 0, digest, tracer=tracer, passes=1)
    finally:
        tracer.uninstall()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-seed{seed}")
    metrics = layer_metrics(tracer)
    metrics["constructions.free_pair.time_share"] = free_pair_share(plain)
    metrics["bench.trace.ops_ratio"] = plain.mean_pass_s() / traced.mean_pass_s()
    failed = plain.failed + traced.failed
    return {
        "metrics": metrics,
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "correct": failed == 0,
        "messages": plain.messages + traced.messages,
        "pool": len(pool),
        "passes": passes + 1,
        "spans": tracer.span_count(),
        "output_digest": digest.hexdigest(),
    }


def layer_metrics(tracer):
    totals = tracer.totals()
    c = tracer.counters

    def calls(label):
        return totals.get(label, (0, 0.0, 0.0))[0]

    def self_s(label):
        return totals.get(label, (0, 0.0, 0.0))[1]

    def total_s(label):
        return totals.get(label, (0, 0.0, 0.0))[2]

    m = {}
    for label in ("sft.canonicalize_clopen", "tables.compose", "tables.order", "tables.reduce",
                  "tables.validate_table", "tables.image_clopen", "invariants.smith_normal_form",
                  "invariants.pointed_iso_decide", "invariants.gamma_equivalent", "cli.run"):
        m[f"{label}.calls"] = calls(label)
        m[f"{label}.self_s"] = self_s(label)
    for label in ("sft.paths", "tables.refine_to", "tables.inverse", "tables.support_and_fixed",
                  "constructions.build", "constructions.check", "invariants.orbit",
                  "cli.parse", "cli.format"):
        m[f"{label}.self_s"] = self_s(label)
    for key in ("sft.canonicalize_clopen.words_in", "sft.extensions.words", "sft.words.calls",
                "sft.words.self_s", "sft.EPPoint.make.calls", "tables.compose.entries_out",
                "tables.order.capped", "tables.refine_to.entries_out",
                "tables.validate_table.entries_in", "invariants.pointed_iso_decide.undecided",
                "constructions.search.tables_visited"):
        m[key] = c.get(key, 0)
    visited = c.get("constructions.search.tables_visited", 0)
    predicate = total_s("constructions.search.visit")
    m["constructions.search.enum_self_s"] = self_s("constructions.search")
    m["constructions.search.predicate_s"] = predicate
    m["constructions.search.hit_ratio"] = (
        c.get("constructions.search.hits", 0) / visited if visited else 0.0
    )
    search = total_s("constructions.search")
    m["constructions.search.predicate_share"] = predicate / search if search else 0.0
    orbit, snf = total_s("invariants.orbit"), total_s("invariants.smith_normal_form")
    m["invariants.orbit.time_share"] = orbit / (orbit + snf) if orbit + snf else 0.0
    run = total_s("cli.run")
    m["cli.parse.time_share"] = self_s("cli.parse") / run if run else 0.0
    return m


def emit(name, seed, result, trace):
    metrics = result["metrics"]
    print(f"workload {name}  seed {seed}  pool {result['pool']} instances  "
          f"passes {result['passes']}  instances timed {result['attempted']}")
    if not trace:
        print(f"  samples {result['samples']} (median pass of each instance), "
              f"{result['beyond_p90']} beyond latency_p90_ms")
    for key, value in metrics.items():
        print(f"  {key:42s} {value:14.6g} {unit_of(key)}")
    print(f"  {'fail_ratio':42s} {fail_ratio(result['attempted'], result['failed']):14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']})")
    if trace:
        print(f"  spans recorded: {result['spans']}")
    print(f"  instance_digest {result['instance_digest']}")
    print(f"  output_digest   {result['output_digest']}")
    for message in result["messages"]:
        print(f"  FAILED {message}")
    doc = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(doc))


def unit_of(key):
    if key in END_TO_END_UNITS:
        return END_TO_END_UNITS[key]
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def run_all(seed, seconds, trace):
    """Each workload in its own process, so peak RSS is per workload."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    if code == 0:
        print(json.dumps(results))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description="fullshift benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
