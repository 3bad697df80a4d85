#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

One run (one workload in its own process; the last stdout line is the JSON
result, the exit code is non-zero on any failed output check):

    python3 perfbench/run.py --workload smoothing --seed 7 --seconds 25 --trace 0

Repeat mode (steadiness evidence): run each workload several times and
print, per metric, the median, the quartiles and IQR / median. With
``--trace 1 --same-seed`` every run uses one seed and the exact counts the
binary prints must repeat; any drift is reported as nondeterminism. With
``--workload`` only that workload is repeated.

    python3 perfbench/run.py --repeat 10 --seconds 25
    python3 perfbench/run.py --repeat 3 --trace 1 --same-seed --workload smoothing

Run from the repository root. The build goes to ``$CARGO_TARGET_DIR``
(default ``.bench_build``).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORKLOADS = ["smoothing", "trace-replay", "serve", "experiments"]
# A run must finish well inside the 180 s a single run may take.
RUN_TIMEOUT_S = 170


def build():
    """Build the release binary; return its path, or None on failure."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "cadapt-perfbench")


def run_once(binary, workload, seed, seconds, trace, capture):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} timed out", file=sys.stderr)
        return None


def describe_host():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    return f"nproc {os.cpu_count()}, {cpu}, kernel {platform.release()}, {rustc}"


def repeat(binary, args):
    workloads = [args.workload] if args.workload else WORKLOADS
    print(f"# host: {describe_host()}")
    print(f"# {args.repeat} runs per workload, --seconds {args.seconds}, --trace {args.trace}")
    ok = True
    for workload in workloads:
        results = []
        exact = []
        for i in range(args.repeat):
            seed = args.seed if args.same_seed else args.seed + i
            done = run_once(binary, workload, seed, args.seconds, args.trace, capture=True)
            if done is None or done.returncode != 0:
                print(f"{workload} seed {seed}: FAILED", flush=True)
                ok = False
                continue
            lines = done.stdout.strip().splitlines()
            results.append(json.loads(lines[-1]))
            exact += [json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("exact_counts ")]
        if not results:
            continue
        names = list(results[0]["metrics"])
        print(f"\n## {workload} ({len(results)} runs)")
        print(f"{'metric':<30} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}")
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{name:<30} {unit:<6} {med:>14.10g} {q1:>14.10g} {q3:>14.10g} {spread:>8.3f}")
        if args.same_seed and any(counts != exact[0] for counts in exact):
            print(f"NONDETERMINISM: exact counts differ across runs of seed {args.seed}:")
            for counts in exact:
                print(f"  {counts}")
            ok = False
        sys.stdout.flush()
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--same-seed", action="store_true")
    args = p.parse_args()
    if not args.repeat and not args.workload:
        p.error("--workload or --repeat is required")
    binary = build()
    if binary is None:
        return 3
    if args.repeat:
        return repeat(binary, args)
    done = run_once(binary, args.workload, args.seed, args.seconds, args.trace, capture=False)
    return 4 if done is None else done.returncode


if __name__ == "__main__":
    sys.exit(main())
