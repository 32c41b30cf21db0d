#!/usr/bin/env python3
"""The serving benchmark's entry point.

    python3 perfbench/run.py --workload explore|durable|routed --seed N \\
        --seconds S --trace 0|1

Run from the root of a jim checkout.  Builds the `jim` binary and the
benchmark (perfbench/perfbench.exe) from source with dune, then runs one
benchmark: the last line of standard output is the JSON result
({"correct", "attempted", "failed", "metrics"}); the line before it
carries the host fingerprint, sample counts and any errors.  Exits
non-zero, without a result, if the checkout cannot be built or the run
fails.  See perfbench/WORKLOADS.md for what each workload measures.
"""

import argparse
import glob
import json
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
JIM = os.path.join("_build", "default", "bin", "jim_cli.exe")


def find_dune():
    for d in os.environ.get("PATH", "").split(os.pathsep):
        p = os.path.join(d, "dune")
        if os.access(p, os.X_OK):
            return p
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    found = ([os.path.join(prefix, "bin", "dune")] if prefix else []) + sorted(
        glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for p in found:
        if os.access(p, os.X_OK):
            return p
    return None


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["explore", "durable", "routed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(need):
            return fail("run from the root of a jim checkout (no %s here)" % need)
    dune = find_dune()
    if dune is None:
        return fail("dune not found")
    # The shared dune cache lives outside the checkout; keep the build in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "./bin/jim_cli.exe",
             "./perfbench/perfbench.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if build.returncode != 0:
        return fail("build failed")

    cmd = [EXE, "drive", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           str(args.trace), "--jim", JIM]
    # Its own process group, so every process the run starts can be
    # stopped together if it overruns.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return fail("run timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        return fail("run failed (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        return fail("run printed no result")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
