#!/usr/bin/env python3
"""dfamr benchmark: build the perfbench binary from source and run one workload.

    python3 perfbench/run.py --workload sphere_refine --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The binary is built (Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. --trace 0 prints
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics and
writes the benchmark's span file next to the build. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

The result line is checked against BENCHMARK.json before it is printed: the
metric names and units must be exactly those of the mode. A run whose outputs
fail a correctness check prints its result with "correct": false and exits 1.
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once and builds the perfbench target; returns the binary."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only the benchmark.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def registry(binary):
    lines = subprocess.run([binary, "--list"], check=True, capture_output=True,
                           text=True).stdout.splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def self_test(binary):
    """BENCHMARK.json and the binary's metric registry must agree exactly."""
    spec = load_spec()
    errors = []
    reg = registry(binary)
    for mode in ("end_to_end", "per_layer"):
        declared = {m["name"]: m for m in spec[mode]}
        built = {m["name"]: m for m in reg if m["mode"] == mode}
        if set(declared) != set(built):
            errors.append("%s: only in BENCHMARK.json %s, only in the binary %s" % (
                mode, sorted(set(declared) - set(built)), sorted(set(built) - set(declared))))
        for name in set(declared) & set(built):
            for key in ("unit", "better"):
                if declared[name][key] != built[name][key]:
                    errors.append("%s: %s is %r in BENCHMARK.json, %r in the binary" % (
                        name, key, declared[name][key], built[name][key]))
    names = [m["name"] for mode in ("end_to_end", "per_layer") for m in spec[mode]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        if not NAME_RE.match(name):
            errors.append("bad name %r" % name)
    if len(names) != len(set(names)):
        errors.append("duplicate names")
    for mode in ("end_to_end", "per_layer"):
        for m in spec[mode]:
            if not UNIT_RE.match(m["unit"]):
                errors.append("bad unit %r of %s" % (m["unit"], m["name"]))
    if "setup_s" not in {m["name"] for m in spec["end_to_end"]}:
        errors.append("setup_s missing")
    for e in errors:
        log("self-test: " + e)
    print("self-test: %s (%d registry entries)" % ("FAILED" if errors else "ok", len(reg)))
    return 0 if not errors else 1


def check_result(result, spec, trace):
    """Names, units and values of the result line against BENCHMARK.json."""
    mode = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[mode]}
    got = result.get("metrics", {})
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys %s" % sorted(result))
    if set(got) != set(want):
        errors.append("metric names differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        value = m.get("value")
        if m.get("unit") != want.get(name):
            errors.append("%s: unit %r, BENCHMARK.json says %r" % (name, m.get("unit"), want.get(name)))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: value %r is not a finite number" % (name, value))
        elif not trace and value <= 0:
            errors.append("%s: end-to-end value %r is not positive" % (name, value))
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append("attempted must be a whole number >= 1")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    binary = build()
    if args.self_test:
        return self_test(binary)

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("unknown workload %r" % args.workload)
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "spans", "%s-seed%d.jsonl" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return 4
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("benchmark exited with code %d" % proc.returncode)
        return proc.returncode or 4
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line is not a JSON result: %r" % lines[-1][:200])
        return 4
    errors = check_result(result, spec, args.trace)
    for e in errors:
        log("result check: " + e)
    if errors:
        return 3
    for line in lines[:-1]:
        print(line)
    print(lines[-1], flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
