#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 20 --trace 0

The script builds the Go harness in this directory against the checkout's
sources (cached under .bench_build/, keyed by a digest of every Go source
and module file), runs it for one workload, and passes its output
through: the last line of standard output is the JSON result. Every file
it writes stays under .bench_build/ in the checkout. See README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("explore", "dashboard", "fleet", "noise-train")
RUN_TIMEOUT_S = 170


def source_digest():
    """Digest of every file that can change the harness binary."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(".") and d != "testdata")
        for name in sorted(filenames):
            if (name.endswith(".go") and not name.endswith("_test.go")) or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
                h.update(b"\0")
    return h.hexdigest()[:16]


def go_env():
    """Environment that keeps the Go toolchain's caches inside the checkout."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD_DIR, "gocache"),
        GOPATH=os.path.join(BUILD_DIR, "gopath"),
        GOMODCACHE=os.path.join(BUILD_DIR, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD_DIR, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOFLAGS="",
        GOENV="off",
    )
    return env


def build():
    """Return the harness binary for the current sources, building it if needed."""
    binary = os.path.join(BUILD_DIR, "perfbench-" + source_digest())
    if os.path.isfile(binary):
        return binary
    os.makedirs(BUILD_DIR, exist_ok=True)
    for name in os.listdir(BUILD_DIR):
        if name.startswith("perfbench-"):
            os.remove(os.path.join(BUILD_DIR, name))
    tmp = binary + ".tmp"
    proc = subprocess.run(["go", "build", "-trimpath", "-o", tmp, "."], cwd=HERE, env=go_env(),
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise RuntimeError("building the benchmark failed")
    os.replace(tmp, binary)
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "go.mod")) and os.path.isdir(os.path.join(ROOT, "internal", "serve"))):
        print("perfbench: %s is not a checkout of the repository (no go.mod or internal/serve)" % ROOT,
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, RuntimeError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    workdir = os.path.join(BUILD_DIR, "run-%d" % os.getpid())
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed), "-seconds", repr(args.seconds),
           "-trace", str(args.trace), "-workdir", workdir]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
