#!/usr/bin/env python3
"""Build and run the served-loop benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest [--seed <n>]

Run from the repository root. Builds `perfbench/` (a Cargo package of its
own) in release mode, runs one workload in a fresh process under a
wall-clock limit, echoes its report, prints the host facts, and ends with
one JSON line: `correct`, `attempted`, `failed`, `metrics`. A run that
hangs or crashes is reported as failed (`correct: false`) and exits 1.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

WORKLOADS = ["udf-loop", "feedback-steady", "predict-heavy", "fleet-churn"]
# The whole command must finish within 180 s once built.
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 850.0


def fail(reason):
    print(f"perfbench: {reason}", file=sys.stderr)
    sys.exit(2)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, check=False)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def filesystem_type(path):
    """Type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts(args, work_dir):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "kernel": platform.release(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "journal_fs": filesystem_type(work_dir),
    }


def build(root, target_dir):
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_LIMIT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "perfbench", "Cargo.toml")):
        fail("run from the repository root")
    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, "perfbench", "target")
    )
    binary = build(root, target_dir)
    started = time.monotonic()

    work_dir = os.path.join(target_dir, "perfbench-work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--seed", str(args.seed), "--work-dir", work_dir]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
    facts = None if args.selftest else host_facts(args, work_dir)
    limit = RUN_LIMIT_S - (time.monotonic() - started)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=limit, check=False)
        lines, code = done.stdout.splitlines(), done.returncode
    except subprocess.TimeoutExpired as hung:
        out = hung.stdout or ""
        lines = (out.decode() if isinstance(out, bytes) else out).splitlines()
        lines.append(f"perfbench: no result within {limit:.0f} s; the run was killed")
        code = None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.selftest:
        print("\n".join(lines))
        sys.exit(0 if code == 0 else 1)

    result = None
    if code == 0 and lines:
        try:
            json.loads(lines[-1])
            result = lines.pop()
        except json.JSONDecodeError:
            result = None
    for line in lines:
        print(line)
    print("host " + json.dumps(facts))
    if result is None:
        if code is not None:
            print(f"perfbench: the run failed (exit {code})")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        sys.exit(1)
    print(result)


if __name__ == "__main__":
    main()
