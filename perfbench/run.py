#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <mine|bulk_score|serve> --seed <n> \
        --seconds <s> --trace <0|1> [--smoke]

The benchmark is a cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default .bench_build); cargo's output goes to
stderr, so the last line of stdout is the benchmark's result object.
Scratch files go under .perfbench_work/ and are removed by each run.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"

# Files whose content identifies the code under test.
SOURCE_GLOBS = ["Cargo.toml", "Cargo.lock", "crates/**/*.rs", "crates/**/Cargo.toml",
                "vendor/**/*.rs", "vendor/**/Cargo.toml", "perfbench/src/*.rs",
                "perfbench/Cargo.toml"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for pattern in SOURCE_GLOBS:
        for path in sorted(ROOT.glob(pattern)):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    if not (ROOT / "crates").is_dir() or not (ROOT / "Cargo.toml").is_file():
        fail(f"{ROOT} holds no NeuroRule workspace (crates/ and Cargo.toml are missing)")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")
    binary = target / "release" / "nr-perfbench"
    run = subprocess.run([str(binary), *sys.argv[1:], "--commit", revision()], cwd=ROOT)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
