#!/usr/bin/env python3
"""SC-DCNN benchmark: one command for every workload.

    python3 scbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the driver package
(scbench/CMakeLists.txt) into .bench_build/ and trains the LeNet5 weight
cache there, in a driver process of its own; later runs reuse both. The run prints the host fingerprint
and every metric by name with its unit, then, as its last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a run with the trace recorder armed. It exits
non-zero when an output check fails, and without a result line when
the driver cannot be built or run.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import bench

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "scbench")
DRIVER_TIMEOUT_S = 170
TRAIN_TIMEOUT_S = 600


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure (once) and build the driver; returns its path."""
    cmake_dir = os.path.join(WORK, "cmake")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(cmake_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", cmake_dir, "--target",
                    "scbench_driver", "-j", str(min(4, nproc()))],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(cmake_dir, "scbench_driver")


def cache_size(index):
    """(level, type, size) of one cache of CPU 0, from sysfs."""
    base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
    try:
        return tuple(open(base + f).read().strip()
                     for f in ("level", "type", "size"))
    except OSError:
        return None


def host_fingerprint(raw):
    cpu = platform.processor() or "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for i in range(8):
        c = cache_size(i)
        if c is None:
            break
        level, kind, size = c
        if (level, kind) in (("1", "Data"), ("2", "Unified")):
            caches["l1d" if level == "1" else "l2"] = size
    return {"cpu": cpu, "nproc": nproc(), "l1d": caches.get("l1d", "?"),
            "l2": caches.get("l2", "?"), "compiler": raw["compiler"],
            "build_type": "Release" if raw["assertions"] == "off"
            else "assertions-on", "simd": raw["simd"],
            "pool_threads": int(raw["threads"])}


def train(driver):
    """Train the LeNet5 weight cache once, outside any measured process
    (training counts toward no metric)."""
    if not os.path.exists(os.path.join(WORK, "cache", "lenet5_max.weights")):
        subprocess.run([driver, "--train", WORK], check=True,
                       stdout=sys.stderr, timeout=TRAIN_TIMEOUT_S)


def run_driver(driver, plan, seconds, trace, tag):
    plan_path = os.path.join(WORK, f"plan-{tag}.txt")
    out_path = os.path.join(WORK, f"raw-{tag}.json")
    with open(plan_path, "w") as f:
        f.write(bench.plan_text(plan))
    if os.path.exists(out_path):
        os.remove(out_path)
    subprocess.run([driver, "--plan", plan_path, "--work", WORK,
                    "--seconds", str(seconds), "--trace", str(trace),
                    "--out", out_path],
                   check=True, stdout=sys.stderr,
                   timeout=DRIVER_TIMEOUT_S)
    with open(out_path) as f:
        return json.load(f)


def fmt(v):
    return f"{v:.6g}"


def report(title, metrics, table, notes=None):
    print(f"[{title}]")
    for name, value in metrics.items():
        unit = table[name][0]
        extra = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"  {name} = {fmt(value)} {unit}{extra}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        driver = build()
        train(driver)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"scbench: cannot build the driver or train the model: {e}")
        return 3
    plan = bench.make_plan(args.workload, args.seed, args.seconds)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    try:
        raw = run_driver(driver, plan, args.seconds, args.trace, tag)
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"scbench: driver failed: {e}")
        return 4

    passes = raw["passes"]
    checked = sum(int(p["checked"]) for p in passes)
    mismatches = sum(int(p["mismatches"]) for p in passes)
    unexpected = sum(int(p["unexpected"]) for p in passes)
    attempted = sum(len(p["rows"]) for p in passes)
    if plan["config"]["mode"] == "offline":
        attempted = sum(int(r[1]) for p in passes for r in p["rows"])
    correct = checked > 0 and mismatches == 0

    print(f"scbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host_fingerprint(raw)))
    print(f"output checks: {checked} checked, {mismatches} mismatched "
          "(bit-exact predictWith at the same seed)")
    e2e, how = bench.end_to_end(plan, raw, passes[0])
    notes = {"latency_p50_ms": how["latency"],
             "latency_tail_ms": how["tail"] + ", " + how["latency"]}
    table = dict(bench.END_TO_END, **bench.END_TO_END_EXTRA)
    report("end-to-end" + (" (disarmed pass)" if args.trace else ""),
           e2e, table, notes)
    if args.trace:
        layers = bench.per_layer(plan, raw, passes[-1], passes[0], nproc())
        report("per-layer (armed pass)", layers, bench.PER_LAYER)
        print("absent on this workload: " +
              (", ".join(bench.absent(layers)) or "none"))
        metrics = layers
        table = bench.PER_LAYER
    else:
        metrics = {k: e2e[k] for k in bench.END_TO_END}
        table = bench.END_TO_END
    result = {"correct": correct, "attempted": attempted,
              "failed": unexpected,
              "metrics": {k: {"value": metrics[k], "unit": table[k][0]}
                          for k in table}}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
