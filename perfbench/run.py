#!/usr/bin/env python3
"""The repository benchmark.

Run one workload (builds the benchmark from source first):

    python3 perfbench/run.py --workload reprofile --seed 1 --seconds 10 --trace 0

--trace 0 measures with REAPER_OBS=off and prints every end-to-end
metric of BENCHMARK.json; --trace 1 runs with REAPER_OBS=counters plus
the benchmark's span ledger and prints every per-layer metric (a layer
the workload never reaches reads 0). The last line of stdout is the
result JSON; the lines before it name every metric with its unit and
sample count. Each result is also appended, with the host fingerprint,
to <build>/results.jsonl.

Other modes:

    python3 perfbench/run.py --self-test          # unit tests of the benchmark code
    python3 perfbench/run.py --summary A.jsonl [B.jsonl]

--summary prints, per workload and end-to-end metric, the median and the
quartile spread as a share of the median against the metric's bound;
with two files it compares their medians, and refuses when the host
fingerprints (nproc, SIMD level, build type, REAPER_OBS mode) differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build(target):
    """Configure and build `target`; build output goes to stderr."""
    out = build_dir() / "perfbench"
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", str(out), "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out / target


def declared():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_workload(args):
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit("perfbench: unknown workload %r (have %s)" % (args.workload, names))
    binary = build("perfbench")
    bdir = build_dir()
    work = bdir / "work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    spans = bdir / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    span_file = spans / ("%s-seed%d.jsonl" % (args.workload, args.seed))
    env = dict(os.environ)
    env["REAPER_OBS"] = "counters" if args.trace else "off"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--span-file", str(span_file)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: %s exited with %d" % (args.workload, proc.returncode))
    raw = json.loads(lines[-1])
    fingerprint = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                sys.exit("perfbench: %s did not measure %s" % (args.workload, m["name"]))
            got = {"value": 0, "unit": m["unit"]}
            print("metric %s = 0 %s [not on the %s path]" % (m["name"], m["unit"], args.workload))
        if got["unit"] != m["unit"]:
            sys.exit("perfbench: %s reports %s in %s, declared %s"
                     % (args.workload, m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    with open(bdir / "results.jsonl", "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "fingerprint": fingerprint, "result": result}) + "\n")
    print(json.dumps(result))


def self_test():
    binary = build("perfbench_tests")
    code = subprocess.run([str(binary)]).returncode
    # The spread the acceptance check uses: quartile distance over the
    # median, statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
    assert abs(spread(list(range(10, 0, -1))) - 5.5 / 5.5) < 1e-12
    assert spread([3.0]) == 0.0
    a = {"fingerprint": {"nproc": 4, "simd": "vector"}}
    b = {"fingerprint": {"nproc": 1, "simd": "vector"}}
    assert host_mismatch([[a], [a]]) is None
    assert host_mismatch([[a, b]]) is not None
    assert host_mismatch([[a], [b]]) is not None
    print("run.py self-test: all checks passed")
    sys.exit(code)


def load(path):
    rows = [json.loads(line) for line in open(path) if line.strip()]
    return [r for r in rows if r["trace"] == 0]


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def host_mismatch(sets):
    """Why result sets may not be compared (None when they may): every
    result must carry the same host fingerprint."""
    prints = [{json.dumps(r["fingerprint"], sort_keys=True) for r in s} for s in sets]
    if any(len(fp) > 1 for fp in prints) or len(set(map(frozenset, prints))) > 1:
        return "results come from different hosts: %s" % [sorted(fp) for fp in prints]
    return None


def summary(paths):
    spec = declared()
    sets = [load(p) for p in paths]
    why = host_mismatch(sets)
    if why:
        sys.exit("perfbench: refusing to compare: " + why)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for w in [w["name"] for w in spec["workloads"]]:
        for name, m in bounds.items():
            cols = []
            for s in sets:
                vals = [r["result"]["metrics"][name]["value"] for r in s if r["workload"] == w]
                if not vals:
                    continue
                cols.append((statistics.median(vals), spread(vals), len(vals)))
            if not cols:
                continue
            line = "%-12s %-12s" % (w, name)
            for med, spr, n in cols:
                flag = "" if spr <= m["bound"] / 3 else " WIDE"
                line += "  median %-12.6g spread %.3f/%.3f n=%d%s" % (med, spr, m["bound"], n, flag)
            if len(cols) == 2:
                a, b = cols[0][0], cols[1][0]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                line += "  change %+.3f%s" % (-worse, " REGRESSION" if worse > m["bound"] else "")
            print(line)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--summary", nargs="+", metavar="RESULTS")
    args = p.parse_args()
    if args.self_test:
        self_test()
    elif args.summary:
        summary(args.summary)
    elif args.workload:
        run_workload(args)
    else:
        p.error("give --workload, --self-test or --summary")


if __name__ == "__main__":
    main()
