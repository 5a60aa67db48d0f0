#!/usr/bin/env python3
"""Builds tdbench, the tdsim benchmark program, from this checkout and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (and through it the tdsim library) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set; later calls only rebuild what changed.
Build output goes to a log file there and, on failure, to stderr. The
program's standard output is passed through: human-readable lines, then one
JSON line with the result. With --trace 1 the spans are also written as
Chrome trace-event JSON to <build dir>/traces/<workload>-seed<N>.json.

--self-test builds, then runs every workload at small size and checks that
every metric BENCHMARK.json names is emitted with its unit, that the same
seed reproduces the same deterministic digest, and that a deliberately
corrupted reference is reported as failed ops.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def fail(message, code=2):
    print(message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once and builds tdbench; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no tdsim sources (CMakeLists.txt, src/) next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", out, "--target", "tdbench",
                      "-j", jobs])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed: " + " ".join(step), 3)
    return os.path.join(out, "tdbench")


def run_tdbench(binary, args, capture=False):
    try:
        return subprocess.run([binary] + args, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("tdbench did not finish within %d s" % RUN_TIMEOUT_S, 4)


def result_of(completed):
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def digest_of(completed):
    for line in completed.stdout.splitlines():
        if line.startswith("deterministic digest:"):
            return line.split(":", 1)[1].strip()
    return None


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        base = ["--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--small"]
        runs = {}
        for trace in ("0", "1"):
            completed = run_tdbench(binary, base + ["--trace", trace], True)
            runs[trace] = completed
            result = result_of(completed)
            if completed.returncode != 0 or not result:
                problems.append("%s --trace %s: exit %d"
                                % (workload, trace, completed.returncode))
                continue
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append("%s: result keys %s" % (workload,
                                                        sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s --trace %s: %d of %d ops failed"
                                % (workload, trace, result["failed"],
                                   result["attempted"]))
            got = {name: m.get("unit")
                   for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in set(got) & set(expected[trace])
                               if got[n] != expected[trace][n])
                problems.append("%s --trace %s: missing %s, extra %s, "
                                "wrong unit %s"
                                % (workload, trace, missing, extra, wrong))
        again = run_tdbench(binary, base + ["--trace", "0"], True)
        if digest_of(again) is None or \
                digest_of(again) != digest_of(runs["0"]):
            problems.append("%s: deterministic digest differs between two "
                            "runs of seed 3" % workload)
        corrupted = run_tdbench(binary, base + ["--trace", "0",
                                                "--corrupt-reference"], True)
        result = result_of(corrupted)
        if not result or result["correct"] or result["failed"] == 0 \
                or corrupted.returncode == 0:
            problems.append("%s: a corrupted reference was not reported as "
                            "failed ops" % workload)
        else:
            print("%s: ok (corrupted reference: error_rate %.3g)"
                  % (workload, result["failed"] / result["attempted"]))
    for problem in problems:
        print("SELF-TEST FAILED: " + problem)
    print("self-test: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    stray = sorted(k for k in os.environ if k.startswith("TDSIM_"))
    if stray:
        fail("refusing to run with %s set: it would change the workload"
             % ", ".join(stray))
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)

    tdbench_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        tdbench_args += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return run_tdbench(binary, tdbench_args).returncode


if __name__ == "__main__":
    sys.exit(main())
