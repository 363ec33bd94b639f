#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload point|analytic|ingest \
        --seed N --seconds S --trace 0|1

The Go build cache, the binary, the engine's WAL and spill files and the
traced runs' CPU profiles all live under the build directory
($CARGO_TARGET_DIR if set, else .bench_build), inside the checkout. The
script exits with the benchmark's exit code; a failed build exits
non-zero without printing a result.
"""
import os
import shutil
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    work = os.path.join(build, "work")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        # The go command keeps telemetry counters in the user config
        # directory; point it inside the build directory too.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workdir", work,
           "--profiledir", os.path.join(build, "profiles")] + sys.argv[1:]
    try:
        return subprocess.run(cmd, env=env).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
