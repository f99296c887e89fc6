#!/usr/bin/env python3
"""Layered query benchmark for MPDS / NDS / ExactMPDS.

Run from the repository root:

    python3 perfbench/run.py --workload nds-friendster-edge --seed 0 --seconds 10 --trace 0

Builds the benchmark package (perfbench/build.sbt, which compiles against
the root project) with sbt when its sources changed, then runs one workload
in a fresh JVM. Human-readable lines come first; the last line of standard
output is the JSON result. The JVM's log goes to perfbench/out/.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
STAMP = HERE / "target" / "perfbench-classpath.txt"
REFERENCE = HERE / "reference-answers.tsv"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
# -XX:-UsePerfData keeps the JVM from writing a perf-data file to the system
# temp directory. The parallel collector runs no GC threads beside the Spark
# task threads, and gave steadier runs than G1 on the same seeds.
JVM_OPTS = [
    "-Xmx3g",
    "-XX:-UsePerfData",
    "-XX:+UseParallelGC",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file whose change requires a rebuild."""
    files = [ROOT / "build.sbt", HERE / "build.sbt"]
    files += sorted((ROOT / "project").glob("*.sbt")) + sorted((ROOT / "project").glob("*.properties"))
    files += [HERE / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", HERE / "src" / "main"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def classpath(digest):
    """The run classpath, rebuilding with sbt when the sources changed."""
    if STAMP.exists():
        cached_digest, cp = STAMP.read_text().splitlines()[:2]
        if cached_digest == digest:
            return cp
    print(f"perfbench: building (source digest {digest})", file=sys.stderr)
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-error",
         "compile", "export Runtime/fullClasspath"],
        cwd=HERE, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        timeout=BUILD_TIMEOUT_S)
    lines = [l.strip() for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"sbt build failed with code {proc.returncode}")
    cp = lines[-1]
    if not all(Path(p).exists() for p in cp.split(os.pathsep)):
        fail(f"sbt printed no usable classpath: {cp[:200]}")
    STAMP.parent.mkdir(parents=True, exist_ok=True)
    STAMP.write_text(f"{digest}\n{cp}\n")
    return cp


def commit_id():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "not-a-git-checkout"


def check_names(result, trace):
    """The result's metrics must be exactly BENCHMARK.json's, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this seed's answers as the reference answers")
    args = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources under {ROOT}; run from the repository root")

    digest = source_digest()
    cp = classpath(digest)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = ["java", *JVM_OPTS, f"-Djava.io.tmpdir={OUT / 'tmp'}", "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(OUT), "--reference", str(REFERENCE),
           "--commit", commit_id(), "--source-digest", digest]
    if args.write_reference:
        cmd.append("--write-reference")
    # Spark reads SPARK_LOCAL_DIRS (and others) from the environment over its
    # configuration; the benchmark sets its own and keeps Spark on loopback.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPARK_")}
    env.update(SPARK_LOCAL_IP="127.0.0.1", SPARK_LOCAL_HOSTNAME="localhost")
    log = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.log"
    with open(log, "w") as err:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
                                  stdin=subprocess.DEVNULL, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"run exceeded {RUN_TIMEOUT_S} s; log in {log}")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("".join(open(log).readlines()[-40:]))
        fail(f"benchmark JVM exited with code {proc.returncode}; log in {log}")
    print("\n".join(lines[:-1]))
    if args.write_reference:
        print(lines[-1])
        return
    result = json.loads(lines[-1])
    check_names(result, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
