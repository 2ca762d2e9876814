#!/usr/bin/env python3
"""Build `aa-solve` and `aa-perfbench` from source, then run the benchmark.

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload scale-price --seed 4294967299 --seconds 10 --trace 1
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout of the repository. Build output goes
to $CARGO_TARGET_DIR (default `.bench_build` at the repository root);
traced runs write their Chrome trace to `<target>/perfbench/`. Every
argument is passed on to `aa-perfbench` (see perfbench/README.md). The last
line of standard output is the result line; build logs go to standard
error. Exit codes: 0 all checks passed, 1 a check failed, 2 no result.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def commit():
    # Only trust git when the repository root itself is the work tree; a
    # checkout exported without history reports "unknown".
    top = capture(["git", "rev-parse", "--show-toplevel"])
    if top and pathlib.Path(top).resolve() == ROOT:
        return capture(["git", "rev-parse", "HEAD"]) or "unknown"
    return "unknown"


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli" / "Cargo.toml").is_file():
        fail(f"{ROOT} holds no aa workspace to build; run from a full checkout")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    manifest = str(HERE / "Cargo.toml")

    if sys.argv[1:] == ["--self-test"]:
        test = ["cargo", "test", "--release", "--offline", "--manifest-path", manifest]
        sys.exit(subprocess.run(test, cwd=ROOT, env=env, stdout=sys.stderr).returncode)

    for build in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "aa-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
    ):
        if subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(build)}")

    release = target / "release"
    args = [
        "--server-bin", str(release / "aa-solve"),
        "--out-dir", str(target / "perfbench"),
        "--commit", commit(),
        "--rustc", capture(["rustc", "--version"]) or "unknown",
        *sys.argv[1:],
    ]
    sys.exit(subprocess.run([str(release / "aa-perfbench"), *args], cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
