#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see README.md).

    python3 perfbench/run.py --workload serve_miss --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. It builds this directory's CMake
project (the system's core library plus the drivers) into the build
directory named by $CARGO_TARGET_DIR (default .bench_build), writes the
workload's inputs for --seed with perf_gen in a separate process, runs
the workload's driver, writes a run record next to the result, and
prints the driver's result line as the last line of standard output.
The exit code is non-zero when the build fails, the system's sources
are missing, the result does not hold exactly the metrics BENCHMARK.json
lists for the mode (end-to-end untraced, per-layer traced) in their
units, or any op's output failed its check.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_miss", "routed_mixed", "sparsify_eval")
PROGRAMS = ["perf_gen"] + ["perf_" + w for w in WORKLOADS]
DRIVER_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def manifest_units(trace):
    """{name: unit} of the metrics BENCHMARK.json asks for in this mode:
    the end-to-end list untraced, the per-layer list traced."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run(cmd, out, timeout, stdout, stderr=None):
    """Runs `cmd` in its own process group, with temporary files kept in
    the build directory. On timeout the whole group is killed and reaped.
    Returns (exit code or None on timeout, captured stdout or None)."""
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env,
                            start_new_session=True)
    try:
        captured, _ = proc.communicate(timeout=timeout)
        return proc.returncode, captured
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def build(out):
    """Configures (once) and builds the drivers; exits on failure."""
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + PROGRAMS)
    for cmd in steps:
        with open(log_path, "ab") as log:
            code, _ = run(cmd, out, 850, log, subprocess.STDOUT)
        if code != 0:
            with open(log_path, errors="replace") as log:
                sys.stderr.write("".join(log.readlines()[-40:]))
            fail("build failed (log: %s)" % log_path)


def make_inputs(out, workload, seed):
    """Writes the workload's inputs for `seed` once; returns their dir."""
    inputs = os.path.join(out, "inputs", "%s-seed%d" % (workload, seed))
    if os.path.exists(os.path.join(inputs, "done")):
        return inputs
    partial = inputs + ".partial"
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    code, _ = run([os.path.join(out, "perf_gen"), "--workload=" + workload,
                   "--seed=%d" % seed, "--out=" + partial],
                  out, 120, subprocess.DEVNULL)
    if code != 0:
        fail("input generation failed")
    open(os.path.join(partial, "done"), "w").close()
    shutil.rmtree(inputs, ignore_errors=True)
    os.rename(partial, inputs)
    return inputs


def source_digest():
    """sha256 over the system's and the benchmark's code: CMakeLists.txt,
    src/ and perfbench/, without perfbench's documentation and baseline."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            rel = os.path.relpath(name, ROOT)
            if rel.startswith("perfbench/") and (
                    rel.endswith(".md") or rel.startswith("perfbench/baseline/")):
                continue
            digest.update(rel.encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def cmake_cache(out, key):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def first_line(cmd):
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10,
                              check=False, cwd=ROOT)
        lines = done.stdout.decode(errors="replace").splitlines()
        return lines[0].strip() if done.returncode == 0 and lines else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_record(out, args, driver_lines):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache(out, "CMAKE_CXX_COMPILER")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "kernel": platform.release(),
        "compiler": compiler,
        "compiler_version": first_line([compiler, "--version"]),
        "build_type": cmake_cache(out, "CMAKE_BUILD_TYPE"),
        "commit": first_line(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "threads": [l for l in driver_lines if l.startswith("threads ")],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no system sources (CMakeLists.txt, src/) next to perfbench/")
    expected = manifest_units(args.trace)

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    build(out)
    inputs = make_inputs(out, args.workload, args.seed)
    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                    args.trace))
    cmd = [os.path.join(out, "perf_" + args.workload), "--inputs=" + inputs,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--spans=" + stem + ".spans.jsonl"]
    code, output = run(cmd, out, DRIVER_TIMEOUT_S, subprocess.PIPE)
    if code is None:
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    lines = output.decode(errors="replace").splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS:
            raise ValueError(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write("\n".join(lines) + "\n")
        fail("driver exited %d without a result line" % code)
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if units != expected:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("result metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (
                 sorted(set(expected) - set(units)),
                 sorted(set(units) - set(expected)),
                 sorted(n for n in units if n in expected
                        and units[n] != expected[n])))

    record = run_record(out, args, lines)
    with open(stem + ".json", "w") as f:
        json.dump({"record": record, "result": result, "output": lines[:-1]},
                  f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("record " + stem + ".json")
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
