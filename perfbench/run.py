#!/usr/bin/env python3
"""Builds and runs the Steno end-to-end benchmark.

    python3 perfbench/run.py --workload scan|compile|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
Steno libraries, the steno_serve worker and the steno_perfbench binary under
.bench_build/perfbench (Release). Each run gets its own directory under
.bench_build/runs: it is the TMPDIR of every process the run starts (so
the JIT's generated sources and shared objects land there) and holds the
workers' sockets; it is removed when the run ends. Traced runs keep their
spans in .bench_build/traces.

stdout: a fingerprint line, the benchmark's notes and metric table, and as
the last line one JSON object with correct, attempted, failed and metrics.
Build output and worker logs go to stderr. Exit status 0 on success, 1 on
a failed or mismatched operation, 2 on a refused configuration or usage
error, 3 when there are no sources to build.
"""

import argparse
import ctypes
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
RUN_TIMEOUT_S = 160

# Settings that change what the default configuration compiles or runs.
# Every number this benchmark reports is a claim about the defaults.
REFUSED_ENV = [
    "STENO_VECTORIZE", "STENO_REWRITE", "STENO_ADAPT", "STENO_ANALYZE",
    "STENO_PROFILE", "STENO_BATCH_SIZE", "STENO_CXX", "STENO_JIT_LINT",
    "STENO_BENCH_SCALE", "STENO_TRACE",
]

PR_SET_CHILD_SUBREAPER = 36


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["scan", "compile", "serve"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()
    if a.seconds <= 0 or a.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")
    return a


def build():
    """Configures and builds once per checkout; later runs are no-ops."""
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # the compiler's scratch files
    with open(os.path.join(WORK, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, env=env, check=True)
        jobs = str(len(os.sched_getaffinity(0)))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr, env=env, check=True)


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def fingerprint(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cxx = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "cxx": cxx,
        "cxx_version": version,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "revision": source_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
    }


def reap_all(pgid, deadline_s=10.0):
    """Kills what is left of the run's process group and waits for every
    child, including workers reparented here after steno_perfbench exited."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.05)


def valid_result(line):
    try:
        obj = json.loads(line)
    except ValueError:
        return False
    return (isinstance(obj, dict)
            and set(obj) == {"correct", "attempted", "failed", "metrics"})


def stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the reaping below


def main():
    signal.signal(signal.SIGTERM, stop)
    args = parse_args()
    refused = [v for v in REFUSED_ENV if v in os.environ]
    if refused:
        log("refusing to run: %s set; the benchmark measures the default "
            "configuration only" % ", ".join(refused))
        return 2
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no Steno sources at %s/src; nothing to build" % ROOT)
        return 3
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 3

    # Orphaned workers reparent to this process, so it can reap them.
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    run_dir = os.path.join(WORK, "runs", "%s-seed%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(run_dir)
    traces = os.path.join(WORK, "traces")
    os.makedirs(traces, exist_ok=True)
    env = dict(os.environ, TMPDIR=run_dir)
    cmd = [os.path.join(BUILD, "steno_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--serve-bin", os.path.join(BUILD, "steno_serve"),
           "--trace-out", os.path.join(
               traces, "%s-seed%d.json" % (args.workload, args.seed))]

    print("# fingerprint " + json.dumps(fingerprint(args)), flush=True)
    proc = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s; killed" % RUN_TIMEOUT_S)
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        rc = None
    finally:
        reap_all(proc.pid)
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n") if out else []
    if rc is None or not lines or not valid_result(lines[-1]):
        # No result to report: keep the log, drop the unfinished line.
        for line in lines:
            if not valid_result(line):
                print(line, file=sys.stderr)
        log("benchmark failed (exit %s) without a result" % rc)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
