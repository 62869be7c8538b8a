#!/usr/bin/env python3
"""Build and run the decomposition benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark program lives in
perfbench/_src (its own dune project). It is built against the
checkout's lib/ in .bench_build/ws, a private dune workspace holding
copies of lib/ and perfbench/_src, so the repository's
own build never sees it. The last line of standard output is the JSON
result; see perfbench/README.md for the metrics.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WS = os.path.join(BUILD, "ws")
SRC = os.path.join(ROOT, "perfbench", "_src")
EXE = os.path.join(WS, "_build", "default", "bench", "main.exe")
SELFTEST = os.path.join(WS, "_build", "default", "bench", "selftest.exe")
# A run ends well inside 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sync_tree(src, dst, skip=()):
    """Mirror src into dst, rewriting only files whose bytes changed so
    dune sees unchanged sources as unchanged."""
    os.makedirs(dst, exist_ok=True)
    want = set()
    for name in os.listdir(src):
        if name.startswith((".", "_build")) or name in skip:
            continue
        want.add(name)
        s, d = os.path.join(src, name), os.path.join(dst, name)
        if os.path.isdir(s):
            sync_tree(s, d)
            continue
        with open(s, "rb") as f:
            data = f.read()
        try:
            with open(d, "rb") as f:
                same = f.read() == data
        except OSError:
            same = False
        if not same:
            with open(d, "wb") as f:
                f.write(data)
    for name in os.listdir(dst):
        if name not in want:
            p = os.path.join(dst, name)
            shutil.rmtree(p) if os.path.isdir(p) else os.remove(p)


def build():
    if not (os.path.isdir(os.path.join(ROOT, "lib")) and os.path.isdir(SRC)):
        fail("run from the root of a repository checkout (lib/ and "
             "perfbench/_src are needed to build the benchmark)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    os.makedirs(WS, exist_ok=True)
    sync_tree(os.path.join(ROOT, "lib"), os.path.join(WS, "lib"))
    # One project: the benchmark uses the library's private modules.
    sync_tree(SRC, os.path.join(WS, "bench"), skip=("dune-project",))
    shutil.copyfile(os.path.join(SRC, "dune-project"),
                    os.path.join(WS, "dune-project"))
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            [dune, "build", "--root", WS, "./bench/main.exe",
             "./bench/selftest.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")


def run(cmd):
    """Run the benchmark program in a process group of its own (it forks
    its measured run), and take the whole group down on a timeout or
    when this script is stopped."""
    run_dir = os.path.join(BUILD, "run")
    os.makedirs(run_dir, exist_ok=True)
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                            start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def on_signal(signum, _frame):
        stop()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    text = out.decode()
    sys.stdout.write(text)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("benchmark program exited with code %d" % proc.returncode)


def main():
    argv = sys.argv[1:]
    build()
    if argv == ["--selftest"]:
        run([SELFTEST])
    else:
        run([EXE] + argv)


if __name__ == "__main__":
    main()
