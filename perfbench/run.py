#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--query-seed M]
      one run of one workload; the last line of standard output is the
      result object.

  python3 perfbench/run.py steady [--runs 10] [--seed-base 1] [--workloads a,b]
      the steadiness check: runs each workload --runs times with seeds
      seed-base, seed-base+1, ..., then prints each end-to-end metric's
      median and quartiles, and the spread (q3 - q1) / median set against
      the metric's bound in BENCHMARK.json.

The benchmark is an OCaml executable built with dune into the build
directory named by PERFBENCH_BUILD_DIR, else CARGO_TARGET_DIR, else
.bench_build; traces go to .perfbench/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.environ.get("PERFBENCH_BUILD_DIR") or os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from a full checkout of the repository" % need)
    # dune from PATH, else through opam's environment
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    # build output goes to stderr, so the result stays the last stdout line
    try:
        r = subprocess.run(
            dune + ["build", "--root", ROOT, "--build-dir", BUILD_DIR, "--profile", "release",
                    "./perfbench/main.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def source_rev():
    """The git revision when there is one, plus a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "%s+src:%s" % (rev or "none", h.hexdigest()[:12])


def run_once(workload, seed, seconds, trace, query_seed=None, echo=True):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--nproc", str(nproc), "--git-rev", source_rev(),
           "--out-dir", os.path.join(ROOT, ".perfbench")]
    if query_seed is not None:
        cmd += ["--query-seed", str(query_seed)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(r.stdout)
        sys.stderr.write(r.stderr)
        sys.stdout.flush()
    if r.returncode != 0:
        if not echo:
            sys.stderr.write(r.stdout + r.stderr)
        fail("%s seed %d exited with %d" % (workload, seed, r.returncode))
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    probe = [w for l in lines if "record:" in l for w in l.split() if w.startswith("host_probe_ms=")]
    result["host_probe"] = probe[0] if probe else ""
    return result


def steady(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worst = 0.0
    for w in workloads:
        runs = []
        for i in range(args.runs):
            res = run_once(w, args.seed_base + i, seconds, 0, echo=False)
            runs.append(res)
            print("  %s seed %d: attempted=%d failed=%d %s %s" % (
                w, args.seed_base + i, res["attempted"], res["failed"], res["host_probe"],
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())), flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("%s: %d runs, failed share %s, correct=%s" % (
            w, len(runs), shares, all(r["correct"] for r in runs)))
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / m["bound"])
            print("  %-18s median %12.4f %-4s q1 %12.4f q3 %12.4f spread %6.3f bound %.3f %s" % (
                name, med, m["unit"], q1, q3, spread, m["bound"],
                "ok" if spread <= m["bound"] / 3 else ("WIDE" if spread <= m["bound"] else "OVER")))
    print("largest spread / bound (setup_s aside): %.3f" % worst)


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["steady"]:
        p = argparse.ArgumentParser(prog="run.py steady")
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seed-base", type=int, default=1)
        p.add_argument("--workloads", default="")
        p.add_argument("--seconds", type=int, default=0)
        args = p.parse_args(argv[1:])
        build()
        steady(args)
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--query-seed", type=int, default=None)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    build()
    run_once(args.workload, args.seed, args.seconds, args.trace, args.query_seed)


if __name__ == "__main__":
    main()
