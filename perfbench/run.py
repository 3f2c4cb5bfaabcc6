#!/usr/bin/env python3
"""FLoS service benchmark: build, run one workload, sweep seeds, compare.

Run one workload (builds perfbench/ into .bench_build/perfbench first; the
last line of stdout is the result JSON):

    python3 perfbench/run.py --workload uniform_proof --seed 1 --seconds 10 --trace 0

Every run also appends a full record (provenance, workload definition, all
metrics, sample counts) to --record, by default
.bench_build/perfbench/runs.jsonl.

Run a set of seeds on every workload into one record file:

    python3 perfbench/run.py sweep --seeds 1-10 --record a.jsonl

Summarise one set (median, quartiles, spread against each bound), or
compare two sets workload by workload:

    python3 perfbench/run.py compare a.jsonl [b.jsonl]
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run must finish within 180 s; leave room to report.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "flos_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(bdir):
    build_type = None
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "argv": sys.argv,
        "build_type": build_type,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_once(bdir, workload, seed, seconds, trace, record_path):
    """Runs the binary once. Returns (stdout lines, result dict), or exits
    non-zero without a result when the run fails."""
    binary = os.path.join(bdir, "flos_perfbench")
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    if trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace-out=" +
                   os.path.join(traces, f"{workload}-seed{seed}.jsonl"))
    prov = provenance(bdir)
    # Transparent huge pages for the heap. The graph is read at random over
    # hundreds of MiB; on 4 KiB pages nearly every access misses the TLB,
    # and the run's speed then swings with how the host backs its memory.
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = ":".join(
        t for t in (env.get("GLIBC_TUNABLES"), "glibc.malloc.hugetlb=1") if t)
    prov["glibc_tunables"] = env["GLIBC_TUNABLES"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    record = None
    for line in lines:
        if line.startswith("# record "):
            record = json.loads(line[len("# record "):])
    if record is None:
        fail("the run printed no record")
    record["provenance"] = prov
    os.makedirs(os.path.dirname(os.path.abspath(record_path)), exist_ok=True)
    with open(record_path, "a") as f:
        f.write(json.dumps(record) + "\n")
    return lines, result


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(paths):
    """Prints one row per workload x end-to-end metric (choosing-metrics
    rules: medians, quartiles, pair wins, verdict against the bound)."""
    spec = benchmark_spec()
    sets = []
    for path in paths:
        by_workload = {}
        for rec in load_records(path):
            if rec["trace"] == 0:
                by_workload.setdefault(rec["workload"]["name"], {})[rec["seed"]] = rec
        sets.append(by_workload)
    base = sets[0]
    for workload in base:
        a_runs = base[workload]
        b_runs = sets[1].get(workload, {}) if len(sets) > 1 else None
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "higher" else -1
            a = [r["end_to_end"][name]["value"] for _, r in sorted(a_runs.items())]
            a1, am, a3 = quartiles(a)
            spread = (a3 - a1) / abs(am) if am else 0.0
            row = (f"{workload:14} {name:20} A {am:12.6g} [{a1:.6g}, {a3:.6g}]"
                   f" n={len(a)}")
            if b_runs is None:
                state = ("steady" if spread <= bound / 3 else
                         "within bound" if spread <= bound else "noisy")
                print(f"{row}  spread {spread:.4f} bound {bound}  {state}")
                continue
            b = [r["end_to_end"][name]["value"] for _, r in sorted(b_runs.items())]
            if not b:
                print(f"{row}  B has no runs")
                continue
            b1, bm, b3 = quartiles(b)
            seeds = sorted(set(a_runs) & set(b_runs))
            wins = sum(1 for s in seeds
                       if sign * (b_runs[s]["end_to_end"][name]["value"] -
                                  a_runs[s]["end_to_end"][name]["value"]) > 0)
            gain = sign * (bm - am)
            all_better = (min(sign * v for v in b) > max(sign * v for v in a))
            if seeds and wins >= 0.9 * len(seeds) and gain > (a3 - a1):
                verdict = "improved"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif am and -gain / abs(am) > bound:
                verdict = "worse"
            else:
                verdict = "within bound"
            print(f"{row}  B {bm:12.6g} [{b1:.6g}, {b3:.6g}] n={len(b)}"
                  f"  wins {wins}/{len(seeds)}  {verdict}")


def main(argv):
    if argv and argv[0] == "compare":
        if not 2 <= len(argv) <= 3:
            fail("usage: run.py compare A.jsonl [B.jsonl]")
        compare(argv[1:])
        return
    sweep = bool(argv) and argv[0] == "sweep"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    if sweep:
        argv = argv[1:]
        parser.add_argument("--seeds", default="1-10")
        parser.add_argument(
            "--workloads",
            default=",".join(w["name"] for w in benchmark_spec()["workloads"]))
    else:
        parser.add_argument("--workload", required=True,
                            help="uniform_proof | zipf_paged | filtered_mix | zipf_open")
        parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", default=None)
    args = parser.parse_args(argv)
    bdir = build_dir()
    record = args.record or os.path.join(bdir, "runs.jsonl")
    build(bdir)
    seconds = args.seconds or benchmark_spec()["run_seconds"]
    if not sweep:
        lines, _ = run_once(bdir, args.workload, args.seed, seconds,
                            args.trace, record)
        print("\n".join(lines), flush=True)
        return
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            _, result = run_once(bdir, workload, seed, seconds, args.trace,
                                 record)
            summary = ", ".join(f"{k} {v['value']:.6g}"
                                for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}: {summary}",
                  flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
