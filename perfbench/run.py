#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sparse-sleep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first form builds `perfbench` (a Cargo package of its own that uses the
repository's crates by path) into $CARGO_TARGET_DIR (default `.bench_build`
at the repository root), runs one workload in a process of its own, stamps
the host, and prints:

  * `metric <name> <value> <unit> <better>` lines, one per metric;
  * a `host {...}` line: nproc, CPU model, `rustc -V`, the git commit (or a
    hash of the sources when the tree is not a git checkout), load average
    and steal time around the run, other runnable tasks before it, the
    child's CPU time over wall time, and `suspect: true` when the host
    looked starved;
  * last, the result line {"correct", "attempted", "failed", "metrics"}.

It exits 0 only if every output of the run was correct. `--smoke` runs every
workload on tiny inputs, with tracing off and on, and checks that each
prints every metric `BENCHMARK.json` names, with its unit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ["sparse-sleep", "dense-awake", "serve-mixed"]
SIM_WORKLOADS = {"sparse-sleep", "dense-awake"}
RUN_TIMEOUT_S = 170


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Builds the benchmark binary; returns its path or exits non-zero."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        sys.exit(1)
    if code != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        sys.exit(1)
    return os.path.join(target_dir(), "release", "perfbench")


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def cpu_model():
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def steal_and_total():
    """Steal and total jiffies over all CPUs, from /proc/stat."""
    for line in read("/proc/stat").splitlines():
        if line.startswith("cpu "):
            fields = [int(x) for x in line.split()[1:]]
            return (fields[7] if len(fields) > 7 else 0), sum(fields)
    return 0, 0


def others_running():
    """Runnable tasks besides this one (median of a few /proc/stat reads)."""
    counts = []
    for _ in range(5):
        for line in read("/proc/stat").splitlines():
            if line.startswith("procs_running"):
                counts.append(int(line.split()[1]) - 1)
        time.sleep(0.01)
    return sorted(counts)[len(counts) // 2] if counts else 0


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def source_id():
    """The git commit, or a hash of the source files outside git."""
    commit = command_output(["git", "rev-parse", "HEAD"])
    if commit:
        return "git:" + commit
    digest = hashlib.sha256()
    skip = {".git", ".bench_build", "target", "out", "__pycache__"}
    for base, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if d not in skip)
        for name in sorted(files):
            if name.endswith((".rs", ".toml", ".py", ".json", ".lock")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                digest.update(read(path).encode())
    return "sha256:" + digest.hexdigest()[:16]


def run_child(argv):
    """Runs the binary; returns (stdout lines, exit code, cpu seconds, wall seconds)."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer_out = []

    def watchdog():
        timer_out.append(True)
        proc.kill()

    timer = threading.Timer(RUN_TIMEOUT_S, watchdog)
    timer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - start
    if timer_out:
        print(f"run.py: the run took longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
        return [], 1, 0.0, wall
    return stdout.splitlines(), proc.returncode, usage.ru_utime + usage.ru_stime, wall


def measure(args):
    binary = build()
    os.makedirs(OUT, exist_ok=True)
    nproc = os.cpu_count() or 1
    load_before = os.getloadavg()
    busy_before = others_running()
    steal0, total0 = steal_and_total()
    lines, code, cpu_s, wall_s = run_child([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", os.path.relpath(OUT, ROOT),
    ])
    steal1, total1 = steal_and_total()
    load_after = os.getloadavg()
    if not lines:
        print("run.py: the benchmark printed nothing", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        print("run.py: the benchmark's last line is not a result", file=sys.stderr)
        return 1
    steal_frac = (steal1 - steal0) / max(1, total1 - total0)
    cpu_frac = cpu_s / max(wall_s, 1e-9)
    reasons = []
    if busy_before >= nproc:
        reasons.append("other runnable tasks filled every CPU before the run")
    if steal_frac > 0.05:
        reasons.append("more than 5% steal time")
    if args.workload in SIM_WORKLOADS and cpu_frac < 0.9:
        reasons.append("single-threaded run got less than 90% of a CPU")
    host = {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "source": source_id(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "others_running_before": busy_before,
        "steal_frac": round(steal_frac, 4),
        "child_cpu_per_wall": round(cpu_frac, 4),
        "suspect": bool(reasons),
        "suspect_reasons": reasons,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    stamp = os.path.join(OUT, f"host-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(stamp, "w") as f:
        json.dump(host, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("host " + json.dumps(host, sort_keys=True))
    print(lines[-1])
    return 0 if code == 0 and result["correct"] else 1


def smoke():
    """Every workload, tiny inputs, tracing off and on: every named metric
    must be printed with its unit."""
    binary = build()
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, code, _, _ = run_child([
                binary, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--smoke", "--out-dir", os.path.relpath(OUT, ROOT),
            ])
            listed = [l.split() for l in lines if l.startswith("metric ")]
            for line in listed:
                print(f"{workload:13} trace={trace} {' '.join(line[1:])}")
            got = [(m[1], m[3]) for m in listed]
            want = [(m["name"], m["unit"]) for m in wanted[trace]]
            result = json.loads(lines[-1]) if lines else {}
            if code != 0 or got != want or not result.get("correct"):
                failures += 1
                print(f"FAIL {workload} trace={trace}: exit {code}, metrics {got}",
                      file=sys.stderr)
    print("smoke: " + ("ok" if failures == 0 else f"{failures} failures"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
