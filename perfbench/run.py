#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 10 --trace 0

Arguments are passed to the perfbench program unchanged (see README.md in
this directory). The Go build cache, the binary and every scratch file live
under .bench_build/ in the checkout. The first run of a build also computes
the simulator's deterministic accuracy reference (about 15 s) and caches it
next to the binary, keyed by the hashes of the binary and the pinned digests.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 800
REFERENCE_TIMEOUT_S = 300
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        # Keeps the go command's user-level config and telemetry files
        # inside the checkout.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
    )
    return env


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: %s has no go.mod; the simulator sources are missing" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    env = go_env()
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    pins = os.path.join(HERE, "digests.json")
    key = hashlib.sha256((sha256_file(BINARY) + sha256_file(pins)).encode()).hexdigest()
    reference = os.path.join(BUILD, "reference-%s.json" % key[:16])
    if not os.path.isfile(reference):
        tmp = reference + ".tmp"
        ref = subprocess.run([BINARY, "-mode", "reference", "-pins", pins, "-out", tmp],
                             cwd=ROOT, env=env, timeout=REFERENCE_TIMEOUT_S)
        if ref.returncode != 0:
            print("perfbench: computing the accuracy reference failed", file=sys.stderr)
            return ref.returncode or 1
        os.replace(tmp, reference)

    cmd = [
        BINARY,
        "-reference", reference,
        "-pins", pins,
        "-tmp", os.path.join(BUILD, "tmp"),
    ] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
