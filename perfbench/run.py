#!/usr/bin/env python3
"""Builds the service-path benchmark from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Prints a stamp line, every metric as
`name value unit`, and as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Exits nonzero, without the
JSON line, when the build fails or any output check fails.

The binary builds into $CARGO_TARGET_DIR (default `perfbench/target`); the
traced run writes its spans next to it, as `spans-<workload>.tsv`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bulk_tls", "small_chatter", "http_reorder"]
# Seeds 1-20 tuned the benchmark and proved it steady. A claimed gain
# must also hold on this seed, which none of that work used.
HELD_OUT_SEED = 1009
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "crates"), HERE]
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith((".rs", ".toml", ".lock")))
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def stamp():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"# stamp commit={commit} source={source_digest()} nproc={len(os.sched_getaffinity(0))} "
            f"cpu=\"{cpu}\" features=none profile=release")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True,
                        help=f"workload seed; 'held-out' means {HELD_OUT_SEED}")
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    seed = HELD_OUT_SEED if args.seed == "held-out" else int(args.seed)

    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(build, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run cargo: {e}")
    if built.returncode != 0:
        sys.exit(f"perfbench: build failed ({built.returncode})")

    binary = os.path.join(target, "release", "perfbench")
    spans = os.path.join(target, f"spans-{args.workload}.tsv")
    command = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--spans", spans]
    ran = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = ran.stdout.splitlines()
    if ran.returncode != 0 or not lines:
        sys.stderr.write(ran.stdout)
        sys.exit(f"perfbench: benchmark failed ({ran.returncode})")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        sys.exit(f"perfbench: malformed result: {lines[-1]}")
    print(stamp())
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
