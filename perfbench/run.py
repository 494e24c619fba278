#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload cold_batch|serve \
        [--seed N] [--seconds S] [--trace 0|1]

The seed defaults to 1, the run length to 20 seconds, tracing to off.

Run from the repository root. The first run configures and builds an
optimised copy of the library, the CLI and the benchmark driver under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. The driver runs in a fresh directory under .bench_work, which is
removed afterwards, as is the private plan-cache directory the serve
workload keeps on /dev/shm. The driver's result line is checked against
BENCHMARK.json (every declared metric printed once with its declared unit,
attempted and failed counts present) and printed as the last line of
standard output.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns the build directory or None."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"perfbench: {needed} is missing from {ROOT}; "
                "the benchmark builds the program from source")
            return None
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return build_dir


def unique_keys(pairs):
    """A JSON object hook that refuses a key printed twice."""
    keys = [key for key, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"a key is printed twice in {keys}")
    return dict(pairs)


def schema_errors(result, trace):
    """Differences between the result line and BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys are {sorted(result)}")
        return errors
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("nothing was attempted")
    metrics = result["metrics"]
    for metric in declared:
        printed = metrics.get(metric["name"])
        if printed is None:
            errors.append(f"metric {metric['name']} was not printed")
        elif printed.get("unit") != metric["unit"]:
            errors.append(f"metric {metric['name']} printed in "
                          f"{printed.get('unit')}, declared {metric['unit']}")
        elif not isinstance(printed.get("value"), (int, float)):
            errors.append(f"metric {metric['name']} has no numeric value")
    extra = set(metrics) - {metric["name"] for metric in declared}
    if extra:
        errors.append(f"undeclared metrics printed: {sorted(extra)}")
    return errors


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("cold_batch", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = build()
    if build_dir is None:
        log("perfbench: build failed")
        return 1

    work_dir = os.path.join(ROOT, ".bench_work", f"{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cli", os.path.join(build_dir, "ompdart", "ompdart_cli")]
    started = time.monotonic()
    driver = subprocess.Popen(command, cwd=work_dir, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = driver.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        driver.kill()
        driver.communicate()
        log(f"perfbench: no result within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        # The driver's private plan-cache directory (see src/serve.cpp).
        shutil.rmtree(f"/dev/shm/perfbench-{driver.pid}", ignore_errors=True)
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    sys.stderr.write(stderr)
    lines = stdout.rstrip("\n").split("\n")
    if driver.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        log(f"perfbench: driver exited with {driver.returncode}")
        return 1
    try:
        result = json.loads(lines[-1], object_pairs_hook=unique_keys)
    except ValueError:
        sys.stdout.write(stdout)
        log("perfbench: the last line is not a JSON result with unique keys")
        return 1
    errors = schema_errors(result, args.trace == 1)
    if errors:
        print("\n".join(lines[:-1]))
        for error in errors:
            log(f"perfbench: schema check: {error}")
        return 1
    print("\n".join(lines[:-1]))
    log(f"perfbench: {args.workload} ran in "
        f"{time.monotonic() - started:.1f} s")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
