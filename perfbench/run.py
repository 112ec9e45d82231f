#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the minicc compiler.

Run from the root of the repository:

    python3 perfbench/run.py --workload compile_fuzz --seed 1 --seconds 10 --trace 0

builds the product and the harness from source (Release, into
$CARGO_TARGET_DIR or .bench_build), runs one workload for the given number
of seconds on inputs made from the seed, checks every result against an
independent reference, and prints a stamp line and then, as the last line
of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see BENCHMARK.json). Reports for people (per-kernel rows,
mismatches with their seeds, tail attribution) go to standard error.

Other modes:

    python3 perfbench/run.py --steady 10 [--workload W] [--seconds S] [--trace 0|1]
        runs each workload (or W) once per seed 1..10 and prints, per
        metric, the median, the quartiles and the spread (q3 - q1) / median
        next to the bound in BENCHMARK.json.
    python3 perfbench/run.py --self-test
        builds and runs the benchmark's own tests.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["compile_fuzz", "run_kernels", "daemon_mix"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(targets):
    """Configures (once) and builds the harness; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("product sources (src/CMakeLists.txt) not found next to perfbench/")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def source_id():
    """git sha when the tree is a git checkout, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, sid):
    """Runs the harness once; returns (exit code, stdout text)."""
    exe = os.path.join(build_dir(), "perfbench")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(build_dir(), "run"), "--source-id", sid]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s")
        return 124, ""
    return proc.returncode, out


def steady(args, sid):
    """Runs every workload on seeds 1..N and prints each metric's spread."""
    bounds = {}
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            for m in json.load(f).get("end_to_end", []):
                bounds[m["name"]] = m["bound"]
    except (OSError, ValueError, KeyError):
        pass
    summary = {}
    ok = True
    for workload in ([args.workload] if args.workload else WORKLOADS):
        values = {}
        for seed in range(args.seed, args.seed + args.steady):
            code, out = run_once(workload, seed, args.seconds, args.trace, sid)
            if code != 0 or not out.strip():
                log(f"{workload} seed {seed} failed (exit {code})")
                ok = False
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        print(f"== {workload}: {args.steady} runs, seeds {args.seed}.."
              f"{args.seed + args.steady - 1}, {args.seconds} s each")
        print(f"   {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], vals[0], vals[0]))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print(f"   {name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {'' if bound is None else bound:>6}{flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": vals}
        summary[workload] = rows
    print(json.dumps({"steady": summary}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, metavar="RUNS",
                   help="run each workload on RUNS seeds and report spreads")
    p.add_argument("--self-test", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()

    if args.self_test:
        if not build(["perfbench_test"]):
            return 3
        return subprocess.run([os.path.join(build_dir(), "perfbench_test")],
                              cwd=ROOT).returncode
    if not args.steady and not args.workload:
        p.error("--workload is required")
    if not build(["perfbench"]):
        log("build failed")
        return 3
    sid = source_id()
    if args.steady:
        return steady(args, sid)
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace, sid)
    if code != 0:
        return code
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
