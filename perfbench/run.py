#!/usr/bin/env python3
"""Build and run the doxlab benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s>
                             --trace <0|1> [--smoke]

Run from the root of a source checkout. The first call builds
perfbench/CMakeLists.txt (the library sources under src/ plus the benchmark in
perfbench/src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed. Each workload
runs in its own process, so no heap or allocator state carries over from
another workload. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A failed build or a failed
correctness check exits non-zero without printing that line.

Every run appends one line to .bench_build/perfbench-out/runs.jsonl with the
host's nproc, /proc/loadavg and /proc/stat steal ticks before and after it,
so a noisy run can be spotted later. Traced runs write their spans to
.bench_build/perfbench-out/trace_<workload>_seed<n>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("engine_hot", "engine_longtail", "paper_campaign")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A workload run exits within this many seconds or is stopped and failed.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def host_sample():
    sample = {"nproc": os.cpu_count() or 1}
    try:
        with open("/proc/loadavg") as f:
            sample["loadavg"] = f.read().strip()
        with open("/proc/stat") as f:
            fields = f.readline().split()
        sample["steal_ticks"] = int(fields[8]) if len(fields) > 8 else 0
    except OSError:
        pass
    return sample


def target_dir(*parts):
    """A path under the build root: $CARGO_TARGET_DIR, else .bench_build."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build", *parts)


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no library sources under {ROOT}/src; run from "
                           "the root of a full source checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    build_dir = target_dir("perfbench")
    configure = [cmake, "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if os.path.isdir(build_dir):
            shutil.rmtree(build_dir)
        os.makedirs(tmp)
        subprocess.run(configure, stdout=sys.stderr, env=env, check=True)
    os.makedirs(tmp, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run([cmake, "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        raise RuntimeError(f"build produced no {binary}")
    return binary


def run_workload(binary, workload, args, out_dir):
    """Runs one workload in its own process; returns its result object."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    before = host_sample()
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
        lines = lines[:-1]
    for line in lines:
        print(line)
    entry = {"workload": workload, "seed": args.seed, "trace": args.trace,
             "smoke": args.smoke, "exit": proc.returncode,
             "elapsed_s": round(time.monotonic() - started, 3),
             "host_before": before, "host_after": host_sample(),
             "result": result}
    with open(os.path.join(out_dir, "runs.jsonl"), "a") as f:
        f.write(json.dumps(entry) + "\n")
    if result is None:
        raise RuntimeError(f"{workload} failed (exit {proc.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            result["correct"] is not True:
        raise RuntimeError(f"{workload} returned a malformed result")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every workload and the "
                             "correctness gate in a few seconds")
    args = parser.parse_args()

    try:
        binary = build()
        out_dir = target_dir("perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        if args.workload != "all":
            result = run_workload(binary, args.workload, args, out_dir)
        else:
            # Rotate the order with the seed, so no workload always runs
            # first (on a cold host) or last (after the others).
            shift = args.seed % len(WORKLOADS)
            order = WORKLOADS[shift:] + WORKLOADS[:shift]
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            for workload in order:
                one = run_workload(binary, workload, args, out_dir)
                print(f"{workload}: " + json.dumps(one))
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for name, metric in one["metrics"].items():
                    result["metrics"][f"{workload}.{name}"] = metric
    except (RuntimeError, OSError, ValueError,
            subprocess.CalledProcessError) as error:
        log(f"error: {error}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
