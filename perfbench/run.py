"""Repository benchmark: replay a fully dynamic stream through ABACUS or
PARABACUS and report end-to-end (``--trace 0``) or per-layer (``--trace 1``)
metrics.

    python3 perfbench/run.py --workload abacus_dense --seed 0 --seconds 12 --trace 0

Run from the repository root. The workloads, metrics and units are the ones
``BENCHMARK.json`` declares; ``perfbench/README.md`` explains them. A run

1. sets up three times (graph, stream, DuckDB ground truth and, for
   PARABACUS, a ``local[p]`` Spark session with warm-up) and reports the
   median set-up time; the last set-up is kept;
2. runs the correctness probes, which also warm the code up;
3. replays the whole stream through a fresh estimator, pass after pass,
   for ``--seconds`` (closed loop, one caller, no arrival waits), and
   reports medians over the passes;
4. with ``--trace 1``, repeats the passes with every layer wrapped (see
   ``tracing.py``) and reports per-layer counts and self times instead.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when a
check failed. A record of the run goes to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_COVERAGE = 0.85  # share of a traced pass its layer spans must account for;
# the rest is the benchmark's own loop (a clock read costs ~0.1 us)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="ABACUS/PARABACUS stream benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare_environment() -> None:
    """Make ``repro`` importable here and in Spark's Python workers.

    ``repro`` is not installed, so ``src`` goes on ``PYTHONPATH`` before the
    JVM (and through it every worker) starts. Scratch files stay in the
    checkout.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'repro'} not found; run from a full checkout")
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(scratch)
    os.environ["SPARK_LOCAL_DIRS"] = str(scratch)
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# provenance and process measurements
# ---------------------------------------------------------------------------
def git_sha() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "unavailable"


def reset_peak_rss() -> None:
    """Restart the kernel's RSS high-water mark, so set-up does not set it.

    Set-up's garbage is collected and the freed heap handed back first:
    otherwise how much of it stays resident, which varies from run to run,
    would decide the peak.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: nothing to hand back
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass  # the peak then covers set-up too


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail_percentile(n: int) -> float:
    """Highest of p99/p95/p90/p50 with at least ten samples beyond it."""
    for q in (99.0, 95.0, 90.0):
        if n * (1 - q / 100) >= 10:
            return q
    return 50.0


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------
@dataclass
class Timed:
    """What is kept of one pass."""

    wall_s: float
    estimate: float
    p50_us: float
    tail_us: float


class Run:
    """One workload at one seed: set-up, probes, passes, metrics."""

    def __init__(self, args, wl):
        self.args, self.wl = args, wl
        self.w = wl.WORKLOADS[args.workload]
        self.p = os.cpu_count() or 1
        self.spark = None
        self.last = None  # the last pass's estimator
        self.checks = []  # probes, each one operation: (name, ok, detail)
        self.pass_checks = []  # verdicts on the passes, reported only
        self.pass_attempts = 0
        self.failed_passes = 0

    # -- 1. set-up ---------------------------------------------------------
    def set_up(self):
        """Set up SETUP_REPEATS times; keep the last, return every timing."""
        wl, w = self.wl, self.w
        records = []
        for _ in range(SETUP_REPEATS):
            if self.spark is not None:
                self.spark.stop()
            self.inputs = self.batches = None
            gc.collect()
            t0 = time.perf_counter()
            self.inputs = wl.make_inputs(w, self.args.seed)
            record = dict(self.inputs.times)
            if w.algo == "parabacus":
                self.batches = wl.batched(self.inputs.stream, w.batch)
                t1 = time.perf_counter()
                self.spark = wl.start_spark(self.p, os.environ["TMPDIR"])
                record["spark.empty_job_ms"] = wl.warm_spark(self.spark, self.inputs.stream, self.p)
                record["setup.spark_s"] = time.perf_counter() - t1
            record["setup_s"] = time.perf_counter() - t0
            records.append(record)
        self.stream = self.inputs.stream
        return records

    # -- 2. probes -----------------------------------------------------------
    def probe(self, name, fn, *args):
        """Run one probe; an exception is a failed check, not a crash."""
        try:
            out = fn(*args)
        except Exception:
            traceback.print_exc()
            self.checks.append((name, False, "raised"))
            return None
        return out

    def run_probes(self):
        """Exact-mode and Theorem-5 probes; returns the pass reference.

        Every timed pass must reproduce the reference estimate: ABACUS over
        the whole stream where that is cheap (Theorem 5), else the first
        pass (same seed, same estimate).
        """
        wl, w, seed = self.wl, self.w, self.args.seed
        args = (w, self.stream, seed, self.spark, self.p)
        self.checks.extend(self.probe("exact", wl.exact_probe, *args) or [])
        if w.algo == "abacus":
            wl.abacus_pass(self.stream[: w.k], w.k, seed)  # warm-up: fill a sample
            return None, "determinism"
        if w.theorem5_prefix:
            out = self.probe("theorem5.prefix", wl.theorem5_probe, *args)
            if out:
                self.checks.append(out)
            return None, "determinism"
        ref = self.probe("theorem5.full",
                         lambda: wl.Abacus(w.k, seed=seed).process_stream(self.stream))
        return ref, "theorem5.full"

    # -- 3. passes -----------------------------------------------------------
    def one_pass(self, instrument=None):
        wl, w = self.wl, self.w
        if w.algo == "abacus":
            return wl.abacus_pass(self.stream, w.k, self.args.seed, instrument)
        return wl.parabacus_pass(self.batches, w.k, self.args.seed, self.spark,
                                 self.p, instrument)

    def timed_passes(self, instrument=None, after_pass=None):
        """Whole-stream passes until ``--seconds`` have gone (at least one).

        Only each pass's figures are kept, plus the last estimator in
        ``self.last``: keeping more would make peak RSS grow with the number
        of passes, that is with speed.
        """
        done = []
        q = tail_percentile(len(self.stream))
        deadline = time.perf_counter() + self.args.seconds
        while True:
            self.last = None
            gc.collect()
            self.pass_attempts += 1
            try:
                ps = self.one_pass(instrument)
            except Exception:
                traceback.print_exc()
                self.failed_passes += 1
                break
            p50, tail = np.percentile(ps.latency_us, [50, q])
            done.append(Timed(ps.wall_s, ps.estimator.estimate, float(p50), float(tail)))
            if after_pass is not None:
                after_pass(ps)
            self.last = ps.estimator
            del ps
            if time.perf_counter() >= deadline:
                break
        return done

    def check_passes(self, name, passes, reference):
        """Each pass whose estimate differs from the reference failed."""
        if not passes:
            return
        if reference is None:
            reference = passes[0].estimate
        bad = sum(not self.wl.same_estimate(t.estimate, reference) for t in passes)
        self.failed_passes += bad
        self.pass_checks.append((name, bad == 0,
                                 f"{len(passes) - bad}/{len(passes)} passes equal {reference!r}"))

    def counts(self):
        """(attempted, failed): every pass and every probe is one operation."""
        attempted = self.pass_attempts + len(self.checks)
        failed = self.failed_passes + sum(not ok for _, ok, _ in self.checks)
        return attempted, failed


def end_to_end_metrics(run, passes, setups, peak):
    n = len(run.stream)
    truth = run.inputs.truth
    estimate = passes[0].estimate if passes else 0.0
    median = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    return {
        "edges_per_s": median([n / t.wall_s for t in passes]),
        "update_p50_us": median([t.p50_us for t in passes]),
        "update_p99_us": median([t.tail_us for t in passes]),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": peak,
        "rel_error": abs(truth - estimate) / truth,
    }


def per_layer_metrics(run, tracing, reference, untraced_eps, setups):
    """Per-layer metrics from passes with every layer wrapped.

    Times are the median over traced passes and counts come from the last
    one (they repeat exactly); both are per pass. Shares are of the traced
    pass's wall time. The last pass's spans are saved.
    """
    from pyspark.serializers import pickle_protocol
    from repro.core.parabacus import group_bounds

    tracer = tracing.Tracer()
    n, w = len(run.stream), run.w
    times = []

    def after_pass(ps):
        sm = tracer.summary()
        t = lambda name: sm["total_ns"][tracing.ID[name]] / 1e9  # noqa: E731
        s = lambda name: sm["self_ns"][tracing.ID[name]] / 1e9  # noqa: E731
        times.append({
            "abacus.self_s": s("abacus.process"),
            "counting.self_s": s("counting"),
            "probability.self_s": s("probability"),
            "rp.self_s": s("rp.insert") + s("rp.delete"),
            "parabacus.rp_pass_s": t("parabacus.process_batch") - t("executor.run"),
            "spark.run_s": t("executor.run"),
            "spark.broadcast_s": t("spark.broadcast"),
            "trace.wall_s": ps.wall_s,
            "trace.coverage": float(sm["self_ns"].sum()) / 1e9 / ps.wall_s,
        })

    with tracing.patched(tracer.shared_patches()):
        passes = run.timed_passes(tracer.instrument, after_pass)
    run.check_passes("trace.unchanged", passes, reference)
    if not passes:
        return {}
    out = {key: statistics.median(t[key] for t in times) for key in times[0]}
    run.checks.append(("trace.coverage", out["trace.coverage"] >= MIN_COVERAGE,
                       f"layer self times cover {out['trace.coverage']:.3f} of the "
                       f"traced pass (at least {MIN_COVERAGE})"))
    wall = out["trace.wall_s"]
    out["counting.share"] = out["counting.self_s"] / wall
    out["rp.share"] = out["rp.self_s"] / wall
    out["spark.run_share"] = out["spark.run_s"] / wall
    out["trace.overhead"] = untraced_eps / (n / wall)

    sm = tracer.summary()
    c = lambda key, name: int(sm[key][tracing.ID[name]])  # noqa: E731
    est = run.last
    calls, inserts = c("calls", "counting"), c("calls", "rp.insert")
    out.update({
        "counting.calls": calls,
        "counting.comparisons": c("b", "counting"),
        "counting.butterflies": c("a", "counting"),
        "counting.hit_ratio": c("a_pos", "counting") / max(1, calls),
        "probability.calls": c("calls", "probability"),
        "rp.inserts": inserts,
        "rp.deletes": c("calls", "rp.delete"),
        "rp.sample_ops": c("a", "rp.insert") + c("a", "rp.delete"),
        "rp.admit_ratio": c("a_pos", "rp.insert") / max(1, inserts),
        "rp.compensations": c("b_pos", "rp.insert"),
        "sample.edges": len(est.rp.sample),
        "sample.vertices": len(est.rp.sample.adj),
        "sample.bytes": len(pickle.dumps(est.rp.sample.adj, pickle_protocol)),
        "spark.jobs": c("calls", "executor.run"),
        "parabacus.batches": c("calls", "parabacus.process_batch"),
        "parabacus.delta_ops": 0,
        "parabacus.payload_bytes": 0,
        "parabacus.replay_ops": 0,
        "parabacus.group_skew": 0.0,
    })
    if w.algo == "parabacus":
        # Counting runs inside Spark tasks, out of the driver's reach: only
        # the comparisons the tasks return are known (one call per element).
        out["counting.calls"] = n
        out["counting.comparisons"] = est.comparisons
        payload, replay, deltas = [], 0, 0
        for s0, batch, delta, triplets, k in tracer.job_args:
            payload.append(len(pickle.dumps(
                (list(s0), list(batch), list(delta), list(triplets), k), pickle_protocol)))
            deltas += sum(map(len, delta))
            bounds = group_bounds(len(batch), est.executor.n_groups)
            replay += sum(len(s0) + sum(map(len, delta[:start])) for start in bounds[:-1])
        out["parabacus.delta_ops"] = deltas
        out["parabacus.payload_bytes"] = statistics.mean(payload)
        out["parabacus.replay_ops"] = replay
        groups = list(est.group_comparisons.values())
        out["parabacus.group_skew"] = max(groups) / (sum(groups) / len(groups))
    for key in ("setup.graph_s", "setup.stream_s", "setup.truth_s", "setup.spark_s",
                "spark.empty_job_ms"):
        out[key] = statistics.median(s.get(key, 0.0) for s in setups)
    tracer.save(OUT / f"spans-{w.name}-seed{run.args.seed}.npz")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    import tracing
    import workloads as wl

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(wl.WORKLOADS)}")
    run = Run(args, wl)
    try:
        setups = run.set_up()
        reference, ref_name = run.run_probes()
        reset_peak_rss()
        passes = run.timed_passes()
        peak = peak_rss_mb()
        run.check_passes(ref_name, passes, reference)
        end_to_end = end_to_end_metrics(run, passes, setups, peak)
        per_layer = {}
        if args.trace and passes:
            ref = reference if reference is not None else passes[0].estimate
            per_layer = per_layer_metrics(run, tracing, ref, end_to_end["edges_per_s"],
                                          setups)
            per_layer["estimate.rel_error"] = end_to_end["rel_error"]
    finally:
        if run.spark is not None:
            run.spark.stop()
            wl.stop_jvm()

    attempted, failed = run.counts()
    end_to_end["failed_frac"] = failed / attempted
    meta = {
        "workload": run.w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": run.w.params(run.p), "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "spark_master": f"local[{run.p}]" if run.w.algo == "parabacus" else None,
        "pythonpath": os.environ["PYTHONPATH"], "python": platform.python_version(),
        "pyspark": version("pyspark"), "duckdb": version("duckdb"),
        "stream_elements": len(run.stream), "truth": run.inputs.truth,
        "estimate": passes[0].estimate if passes else None,
        "passes": len(passes), "pass_wall_s": [round(t.wall_s, 4) for t in passes],
        "latency_samples_per_pass": len(run.stream),
        "update_p99_us_percentile": tail_percentile(len(run.stream)),
        "setup_s_each": [round(s["setup_s"], 4) for s in setups],
        "checks": [{"name": c, "ok": ok, "detail": d}
                   for c, ok, d in run.checks + run.pass_checks],
    }
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    units.update(rel_error="ratio", failed_frac="ratio")
    for name, value in end_to_end.items():
        print(f"{name:>14} = {value:.6g} {units[name]}")
    print(json.dumps({"meta": meta}))

    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    values = per_layer if args.trace else end_to_end
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    record = {"meta": meta, "end_to_end": end_to_end, "per_layer": per_layer, "result": result}
    (OUT / f"{run.w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
