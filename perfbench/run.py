#!/usr/bin/env python3
"""Run one PCR benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the benchmark (the
program's sources under src/main plus perfbench/src) with sbt into
.bench_build/; later runs reuse that build while no source changed. Each run
starts one JVM with a local Spark session, works in a fresh directory under
.bench_build/runs/ and deletes it on exit. Stdout ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. Spans of traced runs are
kept in .bench_build/traces/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(BUILD, "perfbench-target", "scala-2.13", "classes")
STAMP = os.path.join(BUILD, "perfbench.stamp")
PROGRAM_SRC = os.path.join(ROOT, "src", "main")
# A first run (build + run) must end within 900 s, later runs within 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

# JDK 17 module opens that Spark's own launcher adds.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    """Hash of every file the build reads, so an edit triggers a rebuild."""
    h = hashlib.sha256()
    inputs = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (PROGRAM_SRC, os.path.join(HERE, "src")):
        for d, _, files in sorted(os.walk(top)):
            inputs += [os.path.join(d, f) for f in sorted(files)]
    for path in inputs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


_children = []


def _stop_children(signum, _frame):
    for proc in _children:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    sys.exit(128 + signum)


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group on timeout or when
    this script is interrupted or terminated."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    _children.append(proc)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        return None, None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        _children.remove(proc)


def build():
    stamp = source_stamp()
    if os.path.isdir(CLASSES) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read() == stamp:
                return
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    t0 = time.time()
    code, _ = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "copyResources"], BUILD_TIMEOUT_S,
                        cwd=HERE, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if code != 0:
        fail(f"build failed (exit {code})", 3)
    with open(STAMP, "w") as f:
        f.write(stamp)
    print(f"perfbench: built in {time.time() - t0:.1f} s", file=sys.stderr)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("cannot find Spark: set SPARK_HOME")
    return os.path.join(home, "jars", "*")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()
    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, _stop_children)

    if not os.path.isdir(PROGRAM_SRC):
        fail(f"program sources not found at {os.path.relpath(PROGRAM_SRC)}: run from a full checkout")
    build()

    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    work = os.path.join(BUILD, "runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    cmd = [java, *(f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS),
           # The serial collector leaves all cores to the four Spark workers
           # and the JIT. A fixed, pre-touched heap on transparent huge pages
           # makes memory layout (and so speed) differ less between runs.
           "-Xms2g", "-Xmx2g", "-XX:+UseSerialGC", "-XX:+UseTransparentHugePages",
           "-XX:+AlwaysPreTouch", f"-Djava.io.tmpdir={os.path.join(work, 'tmp')}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.driver.bindAddress=127.0.0.1",
           "-cp", os.pathsep.join([CLASSES, spark_jars()]), "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work", work, "--trace-dir", os.path.join(BUILD, "traces")]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed", 4)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        printed = set(result["metrics"])
    except (ValueError, KeyError, TypeError):
        sys.stdout.write(out)
        fail(f"run exited {code} without a result line", code or 5)
    mismatch = expected_metrics(args.trace == "1") ^ printed
    if mismatch:
        print("\n".join(lines[:-1]))
        fail(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}", 5)
    print("\n".join(lines))
    sys.exit(code)


if __name__ == "__main__":
    main()
