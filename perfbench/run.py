#!/usr/bin/env python3
"""The repository benchmark: build from source, run one workload, report.

Run from the repository root:

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --all [--seed N] [--seconds S]
  python3 perfbench/run.py --self-test

One invocation configures and builds perfbench/ (the dlm library, the
dl_shard tool and the dlbench program) into $CARGO_TARGET_DIR or
.bench_build, runs the workload for --seconds, checks its outputs and
prints a readable summary followed by one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics.  The full record (every metric's median,
quartiles and sample count, every output check, the hardware fingerprint,
the git commit or source digest, the command and the seed) is written to
.bench_results/.  --all runs every workload untraced, then traced.
--self-test builds and runs the benchmark's own tests.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 20090601
RUN_TIMEOUT_S = 170
SOURCE_ENTRIES = ("CMakeLists.txt", "src", "tools/dl_shard.cpp")


class BenchError(Exception):
    """A failure that leaves no result to print."""


def repo_root():
    root = os.getcwd()
    for entry in SOURCE_ENTRIES:
        if not os.path.exists(os.path.join(root, entry)):
            raise BenchError(
                f"no {entry} in {root}: run from the repository root "
                "(the benchmark builds the program from its sources)")
    return root


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        raise BenchError("no BENCHMARK.json in the repository root")
    with open(path) as f:
        return json.load(f)


def build_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(root, target):
    """Configures (once) and builds `target`; returns the build directory."""
    out = build_dir(root)
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                raise BenchError(f"build failed: {' '.join(step)} (log: {log_path})")
    return out


def cmake_cache_value(out, key):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler(out):
    """(id, version) from CMake's compiler record."""
    files = os.path.join(out, "CMakeFiles")
    for name in sorted(os.listdir(files)) if os.path.isdir(files) else []:
        path = os.path.join(files, name, "CMakeCXXCompiler.cmake")
        if os.path.exists(path):
            with open(path) as f:
                text = f.read()
            cid = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
            ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
            return (cid.group(1) if cid else "unknown",
                    ver.group(1) if ver else "unknown")
    return ("unknown", "unknown")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest(root):
    """sha256 over the program and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    paths = []
    for entry in ("CMakeLists.txt", "src", "tools", "perfbench"):
        full = os.path.join(root, entry)
        if os.path.isfile(full):
            paths.append(entry)
        for base, dirs, files in os.walk(full):
            dirs.sort()
            for name in sorted(files):
                paths.append(os.path.relpath(os.path.join(base, name), root))
    for rel in sorted(paths):
        digest.update(rel.encode())
        with open(os.path.join(root, rel), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def fingerprint(out):
    cid, version = compiler(out)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": cid,
        "compiler_version": version,
        "build_type": cmake_cache_value(out, "CMAKE_BUILD_TYPE"),
    }


def run_dlbench(root, out, workload, seed, seconds, trace):
    """Runs dlbench in its own process group; returns its report."""
    # Relative to the root (dlbench's working directory): keeps the
    # service's AF_UNIX socket path short however deep the checkout is.
    workdir = os.path.join(".bench_run", f"{workload}-{seed}-{trace}-{os.getpid()}")
    results = os.path.join(root, ".bench_results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    trace_out = os.path.join(results, f"{workload}-seed{seed}-{stamp}.trace.json")
    cmd = [os.path.join(out, "dlbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir]
    if trace:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(os.path.join(root, workdir), ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"dlbench exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("dlbench printed no report")
    return json.loads(lines[-1]), stamp


def measure(root, spec, out, workload, seed, seconds, trace):
    """One run: report record written, summary printed, result returned."""
    report, stamp = run_dlbench(root, out, workload, seed, seconds, trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            raise BenchError(f"{workload} reported no metric {m['name']}")
        if got["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: unit {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "command": [sys.executable] + sys.argv,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "fingerprint": fingerprint(out),
        "report": report,
    }
    path = os.path.join(root, ".bench_results",
                        f"{workload}-seed{seed}-trace{trace}-{stamp}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    print(f"== {workload} seed={seed} seconds={seconds} trace={trace}"
          f" fail_frac={report['fail_frac']:.6g}"
          f" ({report['failed']} of {report['attempted']}) record={os.path.relpath(path, root)}")
    for name, m in sorted(report["metrics"].items()):
        print(f"  {name:28s} {m['median']:14.6g} {m['unit']:6s}"
              f" q1 {m['q1']:.6g} q3 {m['q3']:.6g} n {m['n']}")
    for check in report["checks"]:
        if not check["ok"]:
            print(f"  FAILED CHECK {check['name']}: {check.get('detail', '')}")
    return {"correct": bool(report["correct"]), "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def self_test(root):
    out = build(root, "dlbench_test")
    binary = os.path.join(out, "dlbench_test")
    if not os.path.exists(binary):
        raise BenchError("dlbench_test was not built (GTest not found)")
    return subprocess.run([binary]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    try:
        root = repo_root()
        spec = load_spec(root)
        if args.self_test:
            return self_test(root)
        names = [w["name"] for w in spec["workloads"]]
        if not args.all and args.workload not in names:
            parser.error(f"--workload must be one of {', '.join(names)}")
        seconds = args.seconds if args.seconds else spec["run_seconds"]
        out = build(root, "dlbench")
        if args.all:
            results = [measure(root, spec, out, w, args.seed, seconds, t)
                       for w in names for t in (0, 1)]
            summary = {"correct": all(r["correct"] for r in results),
                       "attempted": sum(r["attempted"] for r in results),
                       "failed": sum(r["failed"] for r in results)}
            print(json.dumps(summary))
            return 0
        result = measure(root, spec, out, args.workload, args.seed, seconds, args.trace)
        print(json.dumps(result))
        return 0
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
