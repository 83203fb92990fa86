#!/usr/bin/env python3
"""Build and run the layered host-time benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload steady_window --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --selftest

Configures perfbench/CMakeLists.txt (the engine's src/ tree plus the
benchmark program) into $CARGO_TARGET_DIR, default .bench_build, builds it
incrementally, then runs the program from the repository root.  Build
output goes to stderr; the program's last stdout line is the JSON result.
Every path it reads or writes is inside the repository checkout.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def source_id():
    """Commit (when the checkout is a git repository) and a digest of src/."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    sha = "none"
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            sha = result.stdout.strip()
    return "git:%s,src-sha256:%s" % (sha, digest.hexdigest()[:16])


def build(target):
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", target])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return out / target


def main(argv):
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        sys.exit("perfbench: no engine sources under " + str(ROOT / "src"))
    if argv == ["--selftest"]:
        return subprocess.run([str(build("perfbench_selftest"))],
                              cwd=ROOT).returncode
    binary = build("perfbench")
    command = [str(binary)] + argv + ["--out-dir", str(ROOT / ".bench_out"),
                                      "--source-id", source_id()]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
