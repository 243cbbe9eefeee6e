#!/usr/bin/env python3
"""QDT benchmark: builds the runner from source, runs one workload, and
prints its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The runner (perfbench/src) is built with
CMake into .bench_build/perfbench on first use. With --trace 0 the workload
runs in three fresh processes, one after another, each timing a cold pass
(its set-up) and then warm passes for a third of --seconds; the end-to-end
metrics pool their warm passes. With --trace 1 one process alternates
traced and untraced warm passes and the per-layer metrics come from the
traced ones. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. perfbench/README.md
describes the workloads and every metric.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sim-dense", "sim-dd", "compile-verify", "sim-wide"]
PROCESSES = 3  # fresh processes per untraced run; setup_s is their median
CHILD_TIMEOUT_S = 150
# A run must end within 180 s. A process is not started when one more
# process as slow as the slowest so far would pass this mark.
RUN_BUDGET_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds the runner once per checkout; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no QDT sources next to perfbench/ (src/CMakeLists.txt)")
        sys.exit(2)
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    exe = os.path.join(build_dir, "qdt_perfbench")
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target",
                      "qdt_perfbench", "-j", "3"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                log(done.stdout[-4000:])
                log("perfbench: build failed:", " ".join(cmd))
                sys.exit(2)
    return exe


def run_child(exe, args, seconds, trace):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        log(done.stderr)
        log("perfbench: runner exited with", done.returncode)
        sys.exit(2)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quantile(values, q):
    """Linear interpolation between closest ranks (the 'inclusive' rule)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# Columns of a runner sample: job index, CPU ms, ok, undecided, wall ms.
CPU_MS, WALL_MS = 1, 4
# Gated timings are CPU times scaled to a host on which the reference
# (reference_ms() in src/runner.cpp) takes this long: about its best on the
# 4-vCPU container the benchmark was defined on.
REF_NOMINAL_MS = 0.70


def pass_scaled(p):
    """Sample -> its CPU ms scaled by its pass's fastest reference."""
    scale = REF_NOMINAL_MS / p["ref_ms"]
    return lambda sample: sample[CPU_MS] * scale


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Correctness: output checks and the deterministic work counts
# ---------------------------------------------------------------------------

def check_runs(children, problems):
    """Every job outcome passed its check, and the per-pass work counts are
    identical across passes of one kind and across processes."""
    attempted = failed = verifications = undecided = 0
    reference = {}
    for child in children:
        jobs = child["jobs"]
        for msg in child["failures"]:
            problems.append("check failed: " + msg)
        for p in child["passes"]:
            kind = "cold" if p["cold"] else "warm"
            if kind not in reference:
                reference[kind] = p["counts"]
            elif p["counts"] != reference[kind]:
                problems.append("work counts differ between %s passes: %s vs %s"
                                % (kind, reference[kind], p["counts"]))
            for job, _ms, ok, und, *_rest in p["samples"]:
                attempted += 1
                failed += 0 if ok else 1
                if jobs[job]["verifies"]:
                    verifications += 1
                    undecided += und
    return attempted, failed, verifications, undecided, reference


def failing_jobs(problems):
    """Names of the jobs whose output check failed or that threw."""
    prefix = "check failed: "
    return {p[len(prefix):].split(": ")[0] for p in problems
            if p.startswith(prefix)}


def print_counts(reference):
    for kind in ("cold", "warm"):
        if kind in reference:
            print("work counts per %s pass: %s" % (kind, json.dumps(
                reference[kind], sort_keys=True)))


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def best_pass(passes, names, value=pass_scaled):
    """The last pass's jobs, each at its best (minimum) latency over `passes`.

    Contention from other tenants of a shared host only ever adds time and
    comes in bursts, so the minimum over a job's repeats is the stable
    estimate of what the program itself costs (min-of-k). `value(pass)`
    maps a sample of that pass to its latency in ms. Returns the pass's job
    latencies, sorted, and the samples by job.
    """
    per_job = {}
    for p in passes:
        latency = value(p)
        for sample in p["samples"]:
            per_job.setdefault(names[sample[0]], []).append(latency(sample))
    jobs = [names[s[0]] for s in passes[-1]["samples"]]
    return sorted(min(per_job[name]) for name in jobs), per_job


def reference_line(passes):
    """The fastest reference of each pass, for the report."""
    return "%s (nominal %.2f)" % (
        " ".join("%.3f" % p["ref_ms"] for p in passes), REF_NOMINAL_MS)


def rank(sorted_values, q):
    """Nearest-rank percentile: the smallest value with at least a share q
    of the values at or below it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(children, problems):
    attempted, failed, verifications, undecided, counts = check_runs(
        children, problems)
    names = [j["name"] for j in children[0]["jobs"]]
    warm = [p for c in children for p in c["passes"] if not p["cold"]]
    # Cold samples belong to set-up; a warm job's best comes from warm
    # passes, where every job runs after the same predecessor.
    best, per_job = best_pass(warm, names)
    cpu_best, cpu_per_job = best_pass(warm, names,
                                      lambda _p: lambda x: x[CPU_MS])
    _, wall_per_job = best_pass(warm, names, lambda _p: lambda x: x[WALL_MS])
    latencies = [ms for xs in per_job.values() for ms in xs]
    n = len(latencies)
    # Highest percentile that still has >= 10 samples beyond it.
    tail_q = max(0.0, (n - 10) / n)
    failed_frac = failed / attempted
    undecided_frac = undecided / verifications if verifications else 0.0

    print("workload %s, seed %d: %d processes, %d warm passes, %d job samples"
          % (children[0]["workload"], children[0]["seed"], len(children),
             len(warm), n))
    print("per-job latency (ms), not gated:    scaled median  scaled min"
          "     CPU min  wall median")
    for name in names:
        xs = per_job.get(name, [])
        if xs:
            print("  %-28s %12.3f  %10.3f  %10.3f  %11.3f  (n=%d)" % (
                name, statistics.median(xs), min(xs), min(cpu_per_job[name]),
                statistics.median(wall_per_job[name]), len(xs)))
    print("scaled samples: p50 %.3f ms, p90 %.3f ms; p%.1f = %.3f ms "
          "is the highest percentile with >= 10 of %d samples beyond it"
          % (quantile(latencies, 0.5), quantile(latencies, 0.9),
             100 * tail_q, quantile(latencies, tail_q), n))
    print("fastest reference per warm pass (ms): " +
          reference_line(warm))
    print("failed_frac = %.6f (%d of %d jobs)" % (failed_frac, failed,
                                                   attempted))
    print("undecided_frac = %.6f (%d of %d verifications)"
          % (undecided_frac, undecided, verifications))
    print_counts(counts)
    # Set-up is the cold pass's jobs, scaled like every other timing; the
    # pass's output checks and reference loops are the benchmark's own.
    cold = [p for c in children for p in c["passes"] if p["cold"]]
    setup = [sum(map(pass_scaled(p), p["samples"])) / 1e3 for p in cold]
    print("cold pass per process (s): jobs scaled %s; whole pass CPU %s, "
          "wall %s; fastest reference (ms): %s" % (
              " ".join("%.3f" % t for t in setup),
              " ".join("%.3f" % p["seconds"] for p in cold),
              " ".join("%.3f" % p["wall_seconds"] for p in cold),
              reference_line(cold)))

    print("unscaled CPU time, not gated: jobs_per_s %.4f, job_p50_ms %.3f, "
          "job_p90_ms %.3f, setup_s %.4f" % (
              len(cpu_best) / (sum(cpu_best) / 1e3), rank(cpu_best, 0.5),
              rank(cpu_best, 0.9), statistics.median(
                  sum(x[CPU_MS] for x in p["samples"]) / 1e3 for p in cold)))

    w = counts["warm"]
    metrics = {
        "jobs_per_s": metric(len(best) / (sum(best) / 1e3), "1/s"),
        "job_p50_ms": metric(rank(best, 0.5), "ms"),
        "job_p90_ms": metric(rank(best, 0.9), "ms"),
        "ok_frac": metric(1.0 - failed_frac, "ratio"),
        "decided_frac": metric(1.0 - undecided_frac, "ratio"),
        "out_gates": metric(w["out_gates"], "count"),
        "out_2q_gates": metric(w["out_2q_gates"], "count"),
        "peak_rss_mb": metric(statistics.median(
            c["peak_rss_mb"] for c in children), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    return attempted, failed, metrics


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

# Counter slots in the runner's per-layer "counts" (perfbench/src/bench.hpp).
ARRAYS_GATES, CT_HIT, CT_MISS, UT_HIT, UT_MISS, NODE_ALLOCS, GC_RUNS, \
    FLOW_REMOVED, SWAPS, PH_CANCEL, PH_MERGE, PH_DROP, STAB_GATES, TN_FLOPS, \
    ZX_REWRITES = range(15)
LAYERS = ["ir", "lint", "flow", "transpile", "arrays", "dd", "zx", "stab",
          "tn"]


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(child, problems):
    attempted, failed, _v, _u, counts = check_runs([child], problems)
    traced = [p for p in child["passes"] if p["traced"]]
    plain = [p for p in child["passes"] if not p["traced"] and not p["cold"]]
    k = len(traced)
    trace = child["trace"]
    if trace["dropped"] or trace["unclosed"]:
        problems.append("span recorder dropped %d and left %d spans open"
                        % (trace["dropped"], trace["unclosed"]))
    self_s = {name: t / k for name, t in trace["self_s"].items()}

    def layer(name):
        agg = {"calls": 0, "errors": 0, "work": 0.0,
               "counts": [0] * 15}
        for p in traced:
            s = p["layers"][name]
            agg["calls"] += s["calls"]
            agg["errors"] += s["errors"]
            agg["work"] += s["work"]
            for i in range(15):
                agg["counts"][i] += s["counts"][str(i)]
        per_pass = {key: (v / k if key != "counts" else [c / k for c in v])
                    for key, v in agg.items()}
        per_pass["self_s"] = sum(t for n, t in self_s.items()
                                 if n.split(".")[0] == name)
        return per_pass

    L = {name: layer(name) for name in LAYERS}
    g = child["gauges"]
    dd_ops = sum(L["dd"]["counts"][i] for i in (CT_HIT, CT_MISS, UT_HIT,
                                                  UT_MISS))
    zx_calls = L["zx"]["calls"]
    zx_undecided = sum(s[3] for p in traced for s in p["samples"]
                       if child["jobs"][s[0]]["name"].endswith("/verify-zx")) / k
    names = [j["name"] for j in child["jobs"]]
    traced_best, traced_jobs = best_pass(traced, names)
    plain_best, plain_jobs = best_pass(plain, names)
    traced_s, plain_s = sum(traced_best) / 1e3, sum(plain_best) / 1e3
    # Per job, best traced over best untraced latency; the median over jobs
    # keeps one noisy long job from setting the figure.
    overhead = statistics.median(
        min(traced_jobs[name]) / min(plain_jobs[name]) for name in traced_jobs)
    m = {}
    for name in LAYERS:
        m[name + ".calls"] = metric(L[name]["calls"], "count")
        m[name + ".errors"] = metric(L[name]["errors"], "count")
    m.update({
        "ir.parse_s": metric(self_s.get("ir.parse", 0.0), "s"),
        "ir.parse_mb_per_s": metric(ratio(L["ir"]["work"] / 1e6,
                                          L["ir"]["self_s"]), "MB/s"),
        "lint.run_s": metric(self_s.get("lint.run", 0.0), "s"),
        "flow.optimize_s": metric(self_s.get("flow.optimize", 0.0), "s"),
        "flow.removed_gates": metric(L["flow"]["counts"][FLOW_REMOVED],
                                     "count"),
        "transpile.s": metric(L["transpile"]["self_s"], "s"),
        "transpile.swaps": metric(L["transpile"]["counts"][SWAPS], "count"),
        "transpile.peephole_rewrites": metric(
            sum(L["transpile"]["counts"][i] for i in (PH_CANCEL, PH_MERGE,
                                                      PH_DROP)), "count"),
        "arrays.simulate_s": metric(self_s.get("arrays.simulate", 0.0), "s"),
        "arrays.gates_applied": metric(L["arrays"]["counts"][ARRAYS_GATES],
                                       "count"),
        "arrays.ns_per_amp_gate": metric(ratio(
            L["arrays"]["self_s"] * 1e9, L["arrays"]["work"]), "ns"),
        "arrays.bytes_peak": metric(g["arrays.bytes_peak"], "B"),
        "dd.simulate_s": metric(self_s.get("dd.simulate", 0.0), "s"),
        "dd.verify_s": metric(self_s.get("dd.verify", 0.0), "s"),
        "dd.table_ops": metric(dd_ops, "count"),
        "dd.ns_per_table_op": metric(ratio(L["dd"]["self_s"] * 1e9, dd_ops),
                                     "ns"),
        "dd.compute_hit_ratio": metric(ratio(
            L["dd"]["counts"][CT_HIT],
            L["dd"]["counts"][CT_HIT] + L["dd"]["counts"][CT_MISS]), "ratio"),
        "dd.unique_hit_ratio": metric(ratio(
            L["dd"]["counts"][UT_HIT],
            L["dd"]["counts"][UT_HIT] + L["dd"]["counts"][UT_MISS]), "ratio"),
        "dd.node_allocs": metric(L["dd"]["counts"][NODE_ALLOCS], "count"),
        "dd.gc_runs": metric(L["dd"]["counts"][GC_RUNS], "count"),
        "dd.bytes_peak": metric(g["dd.bytes_peak"], "B"),
        "zx.verify_s": metric(self_s.get("zx.verify", 0.0), "s"),
        "zx.rewrites": metric(L["zx"]["counts"][ZX_REWRITES], "count"),
        "zx.decided_ratio": metric(ratio(zx_calls - zx_undecided, zx_calls),
                                   "ratio"),
        "stab.simulate_s": metric(self_s.get("stab.simulate", 0.0), "s"),
        "stab.gates_applied": metric(L["stab"]["counts"][STAB_GATES], "count"),
        "stab.ns_per_row_gate": metric(ratio(
            L["stab"]["self_s"] * 1e9, L["stab"]["work"]), "ns"),
        "tn.amplitude_s": metric(self_s.get("tn.amplitude", 0.0), "s"),
        "tn.mps_simulate_s": metric(self_s.get("tn.mps_simulate", 0.0), "s"),
        "tn.flops": metric(L["tn"]["counts"][TN_FLOPS], "count"),
        "tn.gflops_per_s": metric(ratio(L["tn"]["counts"][TN_FLOPS] / 1e9,
                                        self_s.get("tn.amplitude", 0.0)),
                                  "GFLOP/s"),
        "tn.peak_size": metric(g["tn.peak_size"], "count"),
        "tn.mps_bytes_peak": metric(g["tn.mps_bytes_peak"], "B"),
        "trace.overhead_frac": metric(overhead - 1.0, "ratio"),
        "trace.spans": metric(trace["spans"] / k, "count"),
        "trace.spans_dropped": metric(trace["dropped"], "count"),
        "bench.job_self_s": metric(trace["job_self_s"] / k, "s"),
    })
    print("workload %s, seed %d: %d traced and %d untraced warm passes"
          % (child["workload"], child["seed"], k, len(plain)))
    print("per-layer self time per traced pass (s):")
    for name in LAYERS:
        print("  %-10s %.6f  (%d calls, %d errors)" % (
            name, L[name]["self_s"], L[name]["calls"], L[name]["errors"]))
    print("  %-10s %.6f  (job spans' own time: the benchmark's overhead)"
          % ("bench", trace["job_self_s"] / k))
    print("trace.overhead_frac = %.4f: median over jobs of best traced / "
          "best untraced latency - 1 (pass totals: traced %.4f s, untraced "
          "%.4f s)" % (overhead - 1.0, traced_s, plain_s))
    print_counts(counts)
    return attempted, failed, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    exe = build()
    problems = []
    if args.trace:
        child = run_child(exe, args, args.seconds, True)
        attempted, failed, metrics = per_layer(child, problems)
    else:
        start = time.monotonic()
        children, slowest = [], 0.0
        while len(children) < PROCESSES:
            elapsed = time.monotonic() - start
            if children and elapsed + slowest > RUN_BUDGET_S:
                print("ran %d of %d processes within the %d s run budget"
                      % (len(children), PROCESSES, RUN_BUDGET_S))
                break
            children.append(run_child(exe, args, args.seconds / PROCESSES,
                                      False))
            slowest = max(slowest, time.monotonic() - start - elapsed)
        attempted, failed, metrics = end_to_end(children, problems)
    for p in sorted(set(problems)):
        print("FAILED (x%d): %s" % (problems.count(p), p))
    print("failing jobs: %s" % json.dumps(sorted(failing_jobs(problems))))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
