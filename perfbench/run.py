#!/usr/bin/env python3
"""Benchmark entry point: builds the program and the benchmark from source
with sbt, then runs one workload in a pinned JVM.

Run from the root of a checkout:

    python3 perfbench/run.py --workload med-plan --seed 61 --seconds 40 --trace 0

Build output, reference caches and Spark scratch space go to
.bench_build/ in the checkout. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; its
metric names and units are checked against BENCHMARK.json before it is
printed. Options before --workload pin the JVM heap (--heap), collector
(--gc) and its thread count (--gc-threads), the Spark master's thread
count (--threads) and Spark's shuffle partitions (--shuffle-partitions);
--self-test checks the benchmark's own checks at tiny n and exits.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path("perfbench")
BUILD = Path(".bench_build")
CLASSPATH = BUILD / "classpath.txt"
STAMP = BUILD / "classpath.stamp"
SOURCES = [Path("src/main/scala"), BENCH / "src", BENCH / "build.sbt", BENCH / "project/build.properties"]
BUILD_TIMEOUT = 700
RUN_TIMEOUT = 170  # seconds for all JVMs of one run, after the build

# Spark on JDK 17 needs these opens, as in the root build.
JVM_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
              "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
              "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    """Runs cmd in its own process group; on timeout kills the group and waits."""
    timeout = max(timeout, 1)
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {timeout:.0f} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def source_digest():
    h = hashlib.sha256()
    for root in SOURCES:
        files = sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else [root]
        for f in files:
            h.update(str(f).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """Compiles with sbt unless the classpath was built from these sources."""
    for src in SOURCES:
        if not src.exists():
            fail(f"{src} is missing; run from the root of a checkout")
    digest = source_digest()
    if CLASSPATH.exists() and STAMP.exists() and STAMP.read_text() == digest:
        return CLASSPATH.read_text().strip()
    BUILD.mkdir(exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = Path.home() / ".sbt" / "repositories"
        if repos.exists():
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    # -XX:-UsePerfData: no JVM statistics files outside the checkout.
    code, out = run(["sbt", "--batch", "-Dsbt.log.noformat=true", "-J-XX:-UsePerfData",
                     "writeClasspath"], BUILD_TIMEOUT, cwd=BENCH, env=env,
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if code != 0 or not CLASSPATH.exists():
        sys.stderr.write(out[-4000:])
        fail(f"build failed (sbt exit {code})")
    STAMP.write_text(digest)
    return CLASSPATH.read_text().strip()


def check_metrics(result, trace):
    """The result must list exactly the metrics BENCHMARK.json declares, with their units."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {n: v["unit"] for n, v in result["metrics"].items()}
    if got != declared:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(declared) - set(got))}, "
             f"extra {sorted(set(got) - set(declared))}, "
             f"units {sorted(n for n in declared if n in got and got[n] != declared[n])}")
    if {"correct", "attempted", "failed", "metrics"} != set(result):
        fail(f"result keys {sorted(result)}")


def main():
    # Terminating this script stops the JVM too: SystemExit reaches run()'s cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=61)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heap", default="4g")
    ap.add_argument("--gc", default="ParallelGC")
    ap.add_argument("--gc-threads", type=int, default=2)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--shuffle-partitions", type=int, default=16)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.workload and not args.self_test:
        ap.error("--workload is required")
    if not Path("BENCHMARK.json").is_file():
        fail("BENCHMARK.json is missing; run from the root of a checkout")

    classpath = build()
    deadline = time.monotonic() + RUN_TIMEOUT
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", f"-Xms{args.heap}", f"-Xmx{args.heap}", f"-XX:+Use{args.gc}",
           f"-XX:ParallelGCThreads={args.gc_threads}", "-XX:-UsePerfData", *JVM_OPENS,
           f"-Djava.io.tmpdir={tmp.resolve()}",
           f"-Dlog4j2.configurationFile={(BENCH / 'log4j2.properties').resolve()}",
           "-cp", classpath, "perfbench.Main",
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads), "--shuffle-partitions", str(args.shuffle_partitions)]
    # Spark's scratch space is set inside the checkout; an inherited
    # SPARK_LOCAL_DIRS would override it.
    env = {k: v for k, v in os.environ.items() if k != "SPARK_LOCAL_DIRS"}
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload]
        # The reference is loaded, or computed and cached, by a JVM of its own.
        code, _ = run(cmd + ["--reference"], deadline - time.monotonic(), env=env)
        if code != 0:
            fail(f"reference computation exited with {code}")
    code, out = run(cmd, deadline - time.monotonic(), stdout=subprocess.PIPE, text=True, env=env)
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if code != 0:
        fail(f"benchmark exited with {code}")
    if args.self_test:
        print(lines[-1])
        return
    result = json.loads(lines[-1])
    check_metrics(result, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
