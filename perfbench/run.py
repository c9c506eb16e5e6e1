#!/usr/bin/env python3
"""Repository benchmark entry point (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the benchmark program from source into .bench_build/perfbench under the
checkout root (configure once, then an incremental build every run), runs
one workload in one process and passes its output through. The last line
of standard output is the program's JSON result. Build output goes to
standard error.

--selftest runs every workload at a tiny size and checks the benchmark
itself: zero failed ops, exact repeats of the device clock and counters
on the single-device workloads for one seed, a different op stream for a
different seed, and a planted wrong value being caught.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")
WORKLOADS = ["read_hot", "read_cold", "churn_small", "wire_mixed"]
DETERMINISTIC = ["read_cold", "churn_small"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; waits for it to end."""
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=timeout)
    except subprocess.CalledProcessError as e:
        fail("build step failed (%s): exit %d" % (" ".join(cmd), e.returncode))
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S)
    os.makedirs(TRACE_DIR, exist_ok=True)


def run_program(args):
    """Runs the program once; returns (exit code, stdout lines)."""
    cmd = [PROGRAM] + args + ["--out-dir", TRACE_DIR]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("benchmark program timed out after %d s" % RUN_TIMEOUT_S, 4)
    return proc.returncode, out.splitlines()


def tagged(lines, tag):
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return None


def selftest():
    problems = []

    def tiny(workload, seed, *extra):
        code, lines = run_program(["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", "0",
                             "--scale", "tiny"] + list(extra))
        if code != 0 or not lines:
            problems.append("%s seed %d %s: exit %d" % (workload, seed, extra, code))
            return None, None
        return json.loads(lines[-1]), tagged(lines, "detail")

    for w in WORKLOADS:
        res1, det1 = tiny(w, 1)
        res1b, det1b = tiny(w, 1)
        res2, det2 = tiny(w, 2)
        bad, _ = tiny(w, 1, "--plant-bad")
        if None in (res1, res1b, res2, bad):
            continue
        for name, res in (("seed 1", res1), ("seed 1 again", res1b), ("seed 2", res2)):
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s %s: %d failed ops" % (w, name, res["failed"]))
        if det1["stream_hash"] != det1b["stream_hash"]:
            problems.append("%s: op stream differs for one seed" % w)
        if det1["stream_hash"] == det2["stream_hash"]:
            problems.append("%s: seeds 1 and 2 gave the same op stream" % w)
        if w in DETERMINISTIC:
            for key in ("dev_clock_ns", "dev_get_p99_ns", "dev_put_p99_ns",
                        "space_amp", "write_amp", "counters"):
                if det1[key] != det1b[key]:
                    problems.append("%s: %s differs between two runs of seed 1" % (w, key))
            for key in ("dev_ops_per_s", "dev_get_p99_us", "dev_put_p99_us",
                        "write_amp", "space_amp"):
                if res1["metrics"][key] != res1b["metrics"][key]:
                    problems.append("%s: metric %s differs between two runs of seed 1" % (w, key))
        if bad["correct"] or bad["failed"] != 1:
            problems.append("%s: planted wrong value not caught exactly once (failed=%d)"
                            % (w, bad["failed"]))
        print("selftest %-12s %s" % (w, "ok" if not any(p.startswith(w) for p in problems)
                                     else "FAILED"))
    for p in problems:
        print("  " + p)
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    build()
    if a.selftest:
        return selftest()
    code, lines = run_program(["--workload", a.workload, "--seed", str(a.seed),
                         "--seconds", str(a.seconds), "--trace", a.trace])
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
