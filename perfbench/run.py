#!/usr/bin/env python3
"""Run one benchmark workload.

    python3 perfbench/run.py --workload walk-1pct --seed 1 --seconds 10 --trace 0

Builds the program and the benchmark from source if needed (build.py), then
runs one JVM with Spark local[min(nproc, 4)]. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1. Full records and span files go to .bench_build/perfbench/out.
The exit code is not 0 when any answer was wrong or the run failed.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

WORKLOADS = ["walk-1pct", "deep-ood", "seismic-5pct-spill"]
RUN_TIMEOUT_S = 170
HEAP = "-Xmx3g"
# Spark on JDK 17 needs these opens (same list as build.sbt).
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
         "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
         "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]


def git_sha() -> str:
    if not (build.ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", str(build.ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def class_data_archive(source_sha: str) -> str:
    """JVM flag for a class-data archive of this build: the first run writes
    it when it exits, later runs map it, which halves JVM and Spark start-up.
    """
    jsa = build.OUT / f"classes-{source_sha[:16]}.jsa"
    for old in build.OUT.glob("classes-*.jsa"):
        if old != jsa:
            old.unlink()
    if jsa.exists():
        return f"-XX:SharedArchiveFile={jsa}"
    return f"-XX:ArchiveClassesAtExit={jsa}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    classpath, source_sha = build.build()
    tmp = build.OUT / "tmp" / f"run-{os.getpid()}"
    out = build.OUT / "out"
    tmp.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    log4j = build.ROOT / "perfbench" / "log4j2.properties"
    # -XX:-UsePerfData: no perf-data file under the system temp directory.
    cmd = [build.java(), HEAP, "-Xss8m", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={log4j}",
           # JVM log lines go to standard error, never after the result line.
           "-Xlog:disable", "-Xlog:all=warning:stderr", class_data_archive(source_sha)] + \
        [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS] + \
        ["-cp", classpath, "repro.perfbench.Main",
         "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
         "--trace", a.trace, "--out", str(out), "--tmp", str(tmp),
         "--git-sha", git_sha(), "--source-sha", source_sha]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(tmp / "spark"))
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, start_new_session=True)
    # The JVM runs in its own process group; stop it when this script is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
