#!/usr/bin/env python3
"""Build and run the layer-split benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <mesh_traffic|storage_contended|fault_matrix> \
        --seed <n> --seconds <n> --trace <0|1> [--quick]

The script builds the `perfbench` package (a workspace of its own that
depends on the repository's crates by path) in release mode, then runs it
with the same arguments. Cargo's output goes to standard error; the
benchmark's report goes to standard output, and its last line is the JSON
result. Host provenance (rustc version, git revision when the tree is a git
checkout, a digest of the sources) is passed to the binary in the
environment. Fingerprints of earlier runs, used to check that outputs repeat
exactly for the same seed, live in the build directory.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
# What the benchmark's build reads: the repository's crates, the vendored
# shims, and the benchmark itself.
SOURCE_DIRS = ("crates", "compat", "perfbench")
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def source_digest():
    """SHA-256 over every source file the build reads, in a fixed order."""
    h = hashlib.sha256()
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def git_revision():
    # Only ask git inside a checkout of its own: an exported tree must not
    # report the revision of some enclosing repository.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    return command_output(["git", "rev-parse", "HEAD"])


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target")))
    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: build timed out", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: cannot run cargo: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return 2

    env.update(
        PERFBENCH_RUSTC=command_output(["rustc", "--version"]),
        PERFBENCH_GIT_REV=git_revision(),
        PERFBENCH_SOURCE_DIGEST=source_digest(),
    )
    binary = os.path.join(target, "release", "perfbench")
    state = os.path.join(target, "perfbench-fingerprints")
    cmd = [binary, *sys.argv[1:], "--state-dir", state]
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the benchmark ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
