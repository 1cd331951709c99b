#!/usr/bin/env python3
"""Build the maxwarp benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload social_bfs --seed 42 --seconds 10 --trace 0

The first call configures and builds perfbench/ (and the library sources
it compiles) in Release mode under $CARGO_TARGET_DIR, or .bench_build when
that is unset; later calls only re-check the build. The program's output
is passed through unchanged: its last stdout line is the JSON result.
A traced run (--trace 1) also writes its spans to
<build dir>/perfbench-traces/<workload>-seed<seed>.json.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path.

    Exits with status 1, printing the build log to stderr, on failure.
    """
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "maxwarp_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                sys.exit(1)
    return os.path.join(out, "maxwarp_perfbench")


def trace_path(argv):
    """Where a traced run's spans go, named after its workload and seed."""
    def value(flag, default):
        return argv[argv.index(flag) + 1] if flag in argv[:-1] else default
    return os.path.join(os.path.dirname(build_dir()), "perfbench-traces",
                        "%s-seed%s.json" % (value("--workload", "none"),
                                            value("--seed", "42")))


def main():
    argv = sys.argv[1:]
    binary = build()
    if "--trace-out" not in argv:
        argv += ["--trace-out", trace_path(argv)]
    sys.stdout.flush()
    sys.exit(subprocess.call([binary] + argv))


if __name__ == "__main__":
    main()
