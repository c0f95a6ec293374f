#!/usr/bin/env python3
"""Build the GVEX benchmark from this checkout's sources, then run it.

    python3 perfbench/run.py --workload explain_enz|serve_read|serve_ingest \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root; sockets, the ingest journal and trace files go to
the run/ directory beside it. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. See perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, target):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", target]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    selftest = sys.argv[1:] == ["--selftest"]
    target = "perfbench_selftest" if selftest else "gvex_perfbench"
    if not build(build_dir, target):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(build_dir, target)
    if not os.path.exists(binary):
        print("perfbench: %s was not built" % target, file=sys.stderr)
        return 3
    sys.stdout.flush()
    work_dir = os.path.join(out_root, "run")
    if selftest:
        os.makedirs(work_dir, exist_ok=True)
        os.chdir(work_dir)
        os.execv(binary, [binary])
    os.chdir(ROOT)
    # A relative work dir keeps Unix socket paths short.
    args = sys.argv[1:] + ["--work-dir", os.path.relpath(work_dir, ROOT)]
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    sys.exit(main())
