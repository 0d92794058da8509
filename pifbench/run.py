#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload and one seed.

    python3 pifbench/run.py --workload fig10-paper --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The script builds the `pifbench` package
with cargo's plain release profile (into $CARGO_TARGET_DIR, default
`.bench_build`), runs the workload in a fresh process, and passes its
output through. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it
records the host and build the result came from. See pifbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Extra compiler flags from the caller's shell would change the build that
# is measured. (The variables the program reads are pinned by pifbench.)
UNSET = ["RUSTFLAGS", "CARGO_ENCODED_RUSTFLAGS", "CARGO_BUILD_RUSTFLAGS"]


def fail(msg, code):
    print(f"pifbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_sha256():
    """Digest of the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, d) for d in ("crates", "vendor", "pifbench")]
    files = [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for r in roots:
        for dirpath, dirnames, filenames in os.walk(r):
            dirnames[:] = sorted(d for d in dirnames if d != "target" and not d.startswith("."))
            files += [os.path.join(dirpath, f) for f in filenames]
    for f in sorted(files):
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def git_sha():
    """HEAD of the checkout, or None when ROOT is not itself a git work tree."""
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return None
    return command_output(["git", "rev-parse", "HEAD"])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail(f"{ROOT} holds no repository sources to build", 2)

    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("build failed", 2)

    meta = {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]),
        "profile": "release",
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
    }
    print(json.dumps({"meta": meta}), flush=True)

    binary = os.path.join(target, "release", "pifbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(ROOT, ".bench_work")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
