#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 10 --trace 0

The Go program in this directory is built into $CARGO_TARGET_DIR
(default .bench_build), with the Go build cache, module cache, config
and temporary files kept there as well, so a run reads and writes only
inside the checkout. The program's output and exit code pass through;
a failed build exits 1 without printing a result.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def revision(root):
    """The git commit of root, or a digest of its Go sources when root
    is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    root = os.getcwd()
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    dirs = {name: os.path.join(build, name)
            for name in ("gocache", "gopath", "tmp", "config", "perfbench")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=dirs["gocache"],
               GOPATH=dirs["gopath"],
               GOMODCACHE=os.path.join(dirs["gopath"], "pkg", "mod"),
               GOTMPDIR=dirs["tmp"],
               TMPDIR=dirs["tmp"],
               XDG_CONFIG_HOME=dirs["config"],
               GOTOOLCHAIN="local",
               GOPROXY="off",
               GOWORK="off",
               GOFLAGS="")
    # Local telemetry may start a detached go process that outlives the
    # run; switch it off (the setting lives in the config dir above).
    subprocess.run(["go", "telemetry", "off"], cwd=HERE, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    exe = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [exe] + sys.argv[1:] + ["--out", dirs["perfbench"], "--commit", revision(root)]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
