#!/usr/bin/env python3
"""Benchmark of the ABACUS / PARABACUS butterfly counters.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Builds the program together with the benchmark (sbt, offline) on first use,
runs the workload in one JVM and prints every metric by name with its unit.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones of BENCHMARK.json.
Build output, run logs and raw results go to .bench_build/ in the root.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from benchlib import stats  # noqa: E402
from summarise import format_table  # noqa: E402

WORKLOADS = ["abacus-dense-sample", "abacus-sparse-churn",
             "parabacus-spark", "streaming-open-loop"]
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
JVM_TIMEOUT_S = 170  # per workload
HEAP = "2g"
# Opens Spark needs on Java 17 (the list spark-submit passes).
ADD_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent",
    "java.util.concurrent.atomic", "jdk.internal.ref", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Digest of everything the build compiles."""
    h = hashlib.sha256()
    roots = [PROGRAM_SOURCES, os.path.join(HERE, "e2e"), os.path.join(HERE, "trace")]
    files = [os.path.join(HERE, "build.sbt"),
             os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names) if n.endswith((".scala", ".java"))]
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    sha = r.stdout.strip() if r.returncode == 0 else "none"
    dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return sha + ("-dirty" if dirty else "")


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("cannot find a Spark distribution (set SPARK_HOME)")
    return home


def build(digest):
    """Compile with sbt unless the stamp matches; returns the classpaths of
    the end-to-end and the trace project (None when trace did not build)."""
    stamp = os.path.join(BUILD, "build.json")
    if os.path.exists(stamp):
        with open(stamp) as fh:
            s = json.load(fh)
        if s.get("digest") == digest:
            return s["e2e"], s.get("trace")
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, SPARK_HOME=spark_home())
    env.setdefault("COURSIER_MODE", "offline")
    # sbt's scratch files (server socket, native libraries) go to the build
    # directory rather than the system temp directory.
    sbt_tmp = os.path.join(BUILD, "sbt-tmp")
    os.makedirs(sbt_tmp, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           f"-Djava.io.tmpdir={sbt_tmp}", f"-Djna.tmpdir={sbt_tmp}", "-J-XX:-UsePerfData",
           "e2e/compile", "export e2e/Runtime/fullClasspath",
           "trace/compile", "export trace/Runtime/fullClasspath"]
    log = os.path.join(BUILD, "build.log")
    t0 = time.time()
    with open(log, "w") as fh:
        r = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=800)
        fh.write(r.stdout)
    cps = {}
    for line in r.stdout.splitlines():
        for proj in ("e2e", "trace"):
            marker = os.path.join(HERE, proj, "target")
            if line.startswith(marker) and ":" in line:
                cps[proj] = line.strip()
    if "e2e" not in cps:
        fail(f"build failed, see {log}")
    print(f"# built in {time.time() - t0:.0f} s" +
          ("" if "trace" in cps else " (trace project failed to build)"), file=sys.stderr)
    with open(stamp, "w") as fh:
        json.dump({"digest": digest, "e2e": cps["e2e"], "trace": cps.get("trace")}, fh)
    return cps["e2e"], cps.get("trace")


def run_jvm(main, classpath, args, digest, tag, timeout_s):
    run_dir = os.path.join(BUILD, "runs", tag)
    tmp = os.path.join(run_dir, "tmp")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(tmp)
    out = os.path.join(run_dir, "result.json")
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:-UsePerfData",
           "-XX:+UseTransparentHugePages", "-XX:+AlwaysPreTouch",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           f"-Dperfbench.git={git_sha()}", f"-Dperfbench.source={digest[:16]}",
           *ADD_OPENS, "-cp", classpath, main,
           *args, "--out", out, "--work-dir", run_dir]
    log = os.path.join(run_dir, "jvm.log")
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"JVM did not finish within {timeout_s} s, see {log}")
    if code != 0 or not os.path.exists(out):
        with open(log) as fh:
            sys.stderr.write(fh.read()[-4000:])
        fail(f"JVM exited with {code}, see {log}")
    with open(out) as fh:
        return json.load(fh), run_dir


def rate_of(closed_passes, open_passes):
    """Elements per second: of a closed loop from per-batch medians, of an
    open loop as achieved (median over passes)."""
    if open_passes:
        return statistics.median(stats.open_loop_rate(p) for p in open_passes)
    return stats.closed_loop_rate(closed_passes)


def end_to_end(rep):
    """End-to-end metrics of one workload report."""
    if rep["open_passes"] or rep["closed_latency_ns"]:
        # Elements timed one by one: percentiles per pass, median over passes.
        summary = stats.median_over_passes(
            [stats.open_loop_latencies(p["t0_ns"], p["rate"], p["batches"], p["settle_rows"])
             for p in rep["open_passes"]] +
            [[tuple(b) for b in h] for h in rep["closed_latency_ns"]])
    else:
        summary = stats.latency_summary(stats.closed_loop_batch_latencies(rep["closed_passes"]))
    rate = rate_of(rep["closed_passes"], rep["open_passes"])
    setup = sum(rep["setup_once_s"].values()) + statistics.median(rep["setup_reps_s"])
    attempted, failed = rep["attempted"], rep["failed"]
    return {
        "setup_s": (setup, "s"),
        "edges_per_s": (rate, "1/s"),
        "event_latency_p50_ms": (summary["p50"] / 1e6, "ms"),
        "event_latency_p99_ms": (summary["tail"] / 1e6, "ms"),
        "live_heap_mb": (rep["info"]["live_heap_bytes"] / 1e6, "MB"),
        "ops_ok_frac": (1.0 - failed / attempted if attempted else 0.0, "ratio"),
    }, summary


def per_layer(rep):
    """Per-layer metrics: the traced layers plus the JVM counters of the
    untraced half of the run."""
    info = rep["info"]
    elements = max(1, info["window_elements"])
    passes = max(1, len(rep["closed_passes"]) + len(rep["open_passes"]))
    out = {name: (value, unit) for name, (value, unit) in rep["layers"].items()}
    out["jvm.gc_ms"] = (info["window_gc_ms"] / passes, "ms")
    out["jvm.alloc_bytes_per_edge"] = (info["window_alloc_bytes"] / elements, "B")
    untraced, traced = rate_of(rep["closed_passes"], rep["open_passes"]), rate_of(
        info.get("traced_closed_passes", []), info.get("traced_open_passes", []))
    out["trace.edges_per_s"] = (traced, "1/s")
    out["trace.overhead_pct"] = (100.0 * (untraced - traced) / untraced, "%")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if not os.path.isdir(os.path.join(PROGRAM_SOURCES, "repro", "core")):
        fail(f"program sources not found under {os.path.relpath(PROGRAM_SOURCES, ROOT)}")
    digest = source_digest()
    e2e_cp, trace_cp = build(digest)
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    tag = f"{a.workload}-s{a.seed}-t{a.trace}"
    timeout = JVM_TIMEOUT_S * (len(WORKLOADS) if a.workload == "all" else 1)
    if a.trace:
        if not trace_cp:
            fail("the trace project did not build; see .bench_build/build.log")
        result, run_dir = run_jvm("repro.perfbench.trace.TraceMain", trace_cp, args, digest,
                                  tag, timeout)
    else:
        result, run_dir = run_jvm("repro.perfbench.Main", e2e_cp, args, digest, tag, timeout)

    env = result["env"]
    print("# env " + " ".join(f"{k}={env[k]}" for k in
                              ("nproc", "xmx", "jvm", "scala", "spark", "git_sha", "source_digest")))
    attempted = failed = 0
    ledger = []
    metrics = {}
    for rep in result["reports"]:
        attempted += rep["attempted"]
        failed += rep["failed"]
        for f in rep["failures"]:
            print(f"# FAILED {rep['workload']}: {f}")
        if "live_heap_bytes" not in rep["info"]:
            continue  # aborted before its timed loop ended
        if a.trace:
            m = per_layer(rep)
            spans_file = os.path.join(run_dir, f"spans-{rep['workload']}.json")
            if os.path.exists(spans_file):
                with open(spans_file) as fh:
                    print(format_table(rep["workload"], json.load(fh)))
        else:
            m, lat = end_to_end(rep)
            over = f" (median over {lat['passes']} passes)" if "passes" in lat else ""
            print(f"# {rep['workload']}: latency tail is p{lat['tail_q']:g} of {lat['count']} "
                  f"elements{over}; {rep['failed']} of {rep['attempted']} checked operations failed")
        shown = dict(m)
        if not a.trace:
            shown["ops_failed_frac"] = (1.0 - m["ops_ok_frac"][0], "ratio")
        for name, (value, unit) in shown.items():
            print(f"{rep['workload']:22s} {name:28s} {value:16.6g} {unit}")
        ledger.append({"workload": rep["workload"], "seed": a.seed, "trace": a.trace,
                       "env": env, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()}})
        metrics = m
    with open(os.path.join(BUILD, "ledger.jsonl"), "a") as fh:
        for row in ledger:
            fh.write(json.dumps(row) + "\n")
    if a.workload == "all":
        metrics = {f"{row['workload']}/{k}": (v["value"], v["unit"])
                   for row in ledger for k, v in row["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
