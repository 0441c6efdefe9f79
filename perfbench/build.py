#!/usr/bin/env python3
"""Build file of the benchmark: compiles the program's sources
(src/main/scala) together with the benchmark's own (perfbench/src) into
.bench_build/perfbench/perfbench.jar, with the Scala compiler that ships in
the Spark distribution's jars (the same jars build.sbt compiles against).

A stamp holds a digest of every source and jar name; the build is skipped
when it matches. Run directly (`python3 perfbench/build.py`) or through
run.py, which calls `build()` first.
"""
import hashlib
import os
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
CLASSES = OUT / "classes"
JAR = OUT / "perfbench.jar"
STAMP = OUT / "perfbench.stamp"


def spark_jars() -> Path:
    return Path(os.environ.get("SPARK_HOME", "/opt/spark")) / "jars"


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def sources() -> list:
    main = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    own = sorted((ROOT / "perfbench" / "src").rglob("*.scala"))
    if not main:
        raise SystemExit("perfbench: no program sources under src/main/scala")
    if not own:
        raise SystemExit("perfbench: no benchmark sources under perfbench/src")
    return main + own


def digest(srcs: list, jars: Path) -> str:
    h = hashlib.sha256()
    for p in srcs:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    for j in sorted(jars.glob("*.jar")):
        h.update(j.name.encode())
    return h.hexdigest()


def build() -> tuple:
    """Compile if the sources changed; returns (classpath, source digest)."""
    jars = spark_jars()
    if not list(jars.glob("scala-compiler-*.jar")):
        raise SystemExit(f"perfbench: no scala-compiler jar in {jars}")
    srcs = sources()
    sha = digest(srcs, jars)
    classpath = f"{JAR}{os.pathsep}{jars}{os.sep}*"
    if STAMP.exists() and STAMP.read_text() == sha and JAR.is_file():
        return classpath, sha
    shutil.rmtree(CLASSES, ignore_errors=True)
    CLASSES.mkdir(parents=True)
    cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", f"{jars}{os.sep}*", "scala.tools.nsc.Main",
           "-nowarn", "-d", str(CLASSES), "-classpath", f"{jars}{os.sep}*"] + [str(p) for p in srcs]
    print(f"# perfbench: compiling {len(srcs)} sources", file=sys.stderr, flush=True)
    if subprocess.run(cmd, timeout=800).returncode != 0:
        raise SystemExit("perfbench: compilation failed")
    # A jar, not a directory, so that run.py can use a class-data archive.
    with zipfile.ZipFile(JAR, "w") as z:
        for f in sorted(CLASSES.rglob("*")):
            if f.is_file():
                z.write(f, f.relative_to(CLASSES).as_posix())
    shutil.rmtree(CLASSES)
    STAMP.write_text(sha)
    return classpath, sha


if __name__ == "__main__":
    print(build()[0])
