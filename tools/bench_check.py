#!/usr/bin/env python3
"""Guard the benchmark trajectory.

Throughput: compare a freshly generated BENCH_throughput.json against
the committed one and fail on a single-image fused-latency regression
beyond the allowed ratio. The weight-stationary batch path carries an
absolute gate on top of the trend checks: the LeNet-5 micro-batch must
sustain at least --min-batch-ratio x (default 1.5x) the single-image
images/sec on one thread. The binary XNOR-popcount backend carries its
own absolute gate: it must sustain at least --min-binary-ratio x
(default 5x) the fused-SC single-image images/sec, with per-topology
binary/fused ratios trend-checked against committed history; the
SC-vs-BNN trained mini-LeNet accuracy delta is reported informationally.
Each batch-ratio verdict carries the batch call's median and IQR over
the bench's timed reps when the fresh JSON records them.

Serving: check BENCH_serving.json's gate block — the dynamic
micro-batching server must sustain strictly higher images/sec than the
per-request (batch=1) baseline at the same offered load — and compare
throughput/p99 against the committed record. The overload_gate block
carries absolute robustness gates: goodput at 2.5x offered capacity
must hold >= --min-goodput-ratio (default 0.8) of the 1.0x goodput,
the rejected/shed/expedited counters must be non-zero (admission
control, load shedding and deadline expediting all actually engaged),
queue depth must stay within the configured per-class cap, and p99
must stay within 3x the scenario deadline.

Fleet: the fleet_gate block (three registered models, one poisoned
mid-run) carries absolute gates too: the healthy models must hold
>= --min-fleet-goodput (default 0.8) of their solo goodput, the
poisoned model must be quarantined by its circuit breaker and recover
via half-open probes, and every bit-exactness sentinel must match the
reference engine (zero cross-model result corruption). --fleet makes
the block mandatory; without it, old JSONs skip with a note.

The committed JSONs are the perf record of the last merged PR; the
bench box carries roughly +/-10% run-to-run noise, so the default gate
only trips on a >25% slowdown. Machines differ — when the fresh run
comes from different hardware than the committed record (the JSON
carries compiler/SIMD/concurrency fields), the comparison is still a
smoke check: a kernel-level regression shows up on every host. Both
JSONs carry a "host" fingerprint (CPU model, nproc, L1d/L2 size, SIMD
dispatch, pool threads), printed above the verdicts.

Usage:
  tools/bench_check.py --fresh build/BENCH_throughput.json \
      [--committed BENCH_throughput.json] \
      [--serving-fresh build/BENCH_serving.json] \
      [--serving-committed BENCH_serving.json] [--max-regress 0.25]

At least one of --fresh / --serving-fresh is required.

Exit status: 0 when within bounds (or no committed baseline exists),
1 on regression, 2 on malformed input.
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def field(doc, path_keys, path):
    node = doc
    try:
        for key in path_keys:
            node = node[key]
        return float(node)
    except (KeyError, TypeError, ValueError):
        dotted = ".".join(path_keys)
        sys.stderr.write(f"bench_check: no {dotted} in {path}\n")
        sys.exit(2)


def check_topologies(fresh_doc, committed_doc, args):
    """Per-topology fused-latency trend: gate entries that have a
    committed history, tolerate (and announce) brand-new topologies so
    a PR can introduce a scenario network without a baseline."""
    fresh_topos = fresh_doc.get("topologies", {})
    committed_topos = committed_doc.get("topologies", {})
    if not isinstance(fresh_topos, dict):
        sys.stderr.write("bench_check: malformed topologies block\n")
        sys.exit(2)

    ok = True
    limit = 1.0 + args.max_regress
    for name in sorted(committed_topos):
        if name not in fresh_topos:
            print(f"bench_check: topology {name} has committed history "
                  "but is missing from the fresh run: REGRESSION")
            ok = False
    for name in sorted(fresh_topos):
        try:
            fresh_ms = float(fresh_topos[name]["fused_ms"])
        except (KeyError, TypeError, ValueError):
            sys.stderr.write(
                f"bench_check: topology {name} has no fused_ms\n")
            sys.exit(2)
        prev = committed_topos.get(name)
        if not isinstance(prev, dict) or "fused_ms" not in prev:
            print(f"bench_check: topology {name}: {fresh_ms:.1f} ms "
                  "(new entry, no committed history — skipping gate)")
            continue
        prev_ms = float(prev["fused_ms"])
        if prev_ms <= 0:
            continue
        ratio = fresh_ms / prev_ms
        entry_ok = ratio <= limit
        print(f"bench_check: topology {name}: {prev_ms:.1f} ms -> "
              f"{fresh_ms:.1f} ms ({ratio:.2f}x, limit {limit:.2f}x): "
              f"{'OK' if entry_ok else 'REGRESSION'}")
        ok = ok and entry_ok
    return ok


def spread_note(median, iqr):
    """' (batch median M ms, IQR Q ms)' when the run carries both,
    else '' (JSONs that predate the warmed-up timed reps)."""
    if median is None or iqr is None:
        return ""
    return f" (batch median {float(median):.1f} ms, IQR {float(iqr):.1f} ms)"


def check_batch(fresh_doc, committed_doc, args):
    """Weight-stationary batch-path gate. Absolute: the LeNet-5
    micro-batch must sustain at least --min-batch-ratio x the
    single-image ips on one thread (the kernel-level reuse win, not a
    thread-scaling artifact). Trend: per-topology batch ratios are
    compared against committed history when it exists; entries with no
    history yet (first run after the bench gained the metric) are
    announced and tolerated."""
    batch = fresh_doc.get("batch", {})
    ratio = batch.get("batch_ips_per_single_ips")
    if ratio is None:
        print("bench_check: fresh run carries no batch_ips_per_single_ips "
              "(bench predates the batch kernels); skipping batch gate")
        return True
    ratio = float(ratio)
    ok = ratio >= args.min_batch_ratio
    runs = batch.get("runs") or [{}]
    one_thread = runs[0] if isinstance(runs[0], dict) else {}
    note = spread_note(one_thread.get("ms_median"),
                       one_thread.get("ms_iqr"))
    print(f"bench_check: lenet5 batch path {ratio:.2f}x single-image "
          f"ips (floor {args.min_batch_ratio:.2f}x){note}: "
          f"{'OK' if ok else 'REGRESSION'}")

    fresh_topos = fresh_doc.get("topologies", {})
    committed_topos = committed_doc.get("topologies", {})
    if not isinstance(committed_topos, dict):
        committed_topos = {}
    floor = 1.0 / (1.0 + args.max_regress)
    for name in sorted(fresh_topos):
        entry = fresh_topos[name]
        fresh_r = (entry.get("batch_ips_per_single_ips")
                   if isinstance(entry, dict) else None)
        if fresh_r is None:
            continue
        fresh_r = float(fresh_r)
        note = spread_note(entry.get("batch_ms_median"),
                           entry.get("batch_ms_iqr"))
        prev = committed_topos.get(name)
        prev_r = (prev.get("batch_ips_per_single_ips")
                  if isinstance(prev, dict) else None)
        if prev_r is None:
            print(f"bench_check: topology {name} batch ratio "
                  f"{fresh_r:.2f}x{note} (no committed history — "
                  "skipping gate)")
            continue
        prev_r = float(prev_r)
        if prev_r <= 0:
            continue
        rel = fresh_r / prev_r
        entry_ok = rel >= floor
        print(f"bench_check: topology {name} batch ratio {prev_r:.2f}x "
              f"-> {fresh_r:.2f}x ({rel:.2f}x, floor {floor:.2f}x)"
              f"{note}: {'OK' if entry_ok else 'REGRESSION'}")
        ok = ok and entry_ok
    return ok


def check_binary(fresh_doc, committed_doc, args):
    """Binary-backend gate. Absolute: the XNOR-popcount backend must
    sustain at least --min-binary-ratio x (default 5x) the fused-SC
    single-image images/sec — the whole point of the L=1 sibling is a
    large constant-factor win, so a speedup that collapses toward 1x
    means the packed path quietly fell off a cliff. Trend:
    per-topology binary/fused ratios are compared against committed
    history when it exists; committed JSONs that predate the binary
    backend skip with a note, matching the batch-gate idiom."""
    block = fresh_doc.get("single_image", {}).get("binary")
    if not isinstance(block, dict):
        print("bench_check: fresh run carries no single_image.binary "
              "block (bench predates the binary backend); skipping "
              "binary gate")
        return True
    try:
        speedup = float(block["speedup_vs_fused"])
    except (KeyError, TypeError, ValueError):
        sys.stderr.write(
            "bench_check: no single_image.binary.speedup_vs_fused\n")
        sys.exit(2)
    ok = speedup >= args.min_binary_ratio
    print(f"bench_check: lenet5 binary backend {speedup:.1f}x fused-SC "
          f"ips (floor {args.min_binary_ratio:.2f}x): "
          f"{'OK' if ok else 'REGRESSION'}")

    acc = fresh_doc.get("single_image", {}).get("accuracy_trained")
    if isinstance(acc, dict):
        print(f"bench_check: trained mini-LeNet accuracy SC "
              f"{float(acc.get('sc', 0)):.3f} vs binary "
              f"{float(acc.get('binary', 0)):.3f} "
              f"(delta {float(acc.get('sc_minus_binary', 0)):+.3f}, "
              "informational)")

    fresh_topos = fresh_doc.get("topologies", {})
    committed_topos = committed_doc.get("topologies", {})
    if not isinstance(committed_topos, dict):
        committed_topos = {}
    floor = 1.0 / (1.0 + args.max_regress)
    for name in sorted(fresh_topos):
        entry = fresh_topos[name]
        fresh_r = (entry.get("binary_ips_per_fused_ips")
                   if isinstance(entry, dict) else None)
        if fresh_r is None:
            continue
        fresh_r = float(fresh_r)
        prev = committed_topos.get(name)
        prev_r = (prev.get("binary_ips_per_fused_ips")
                  if isinstance(prev, dict) else None)
        if prev_r is None:
            print(f"bench_check: topology {name} binary ratio "
                  f"{fresh_r:.1f}x (no committed history — skipping "
                  "gate)")
            continue
        prev_r = float(prev_r)
        if prev_r <= 0:
            continue
        rel = fresh_r / prev_r
        entry_ok = rel >= floor
        print(f"bench_check: topology {name} binary ratio {prev_r:.1f}x "
              f"-> {fresh_r:.1f}x ({rel:.2f}x, floor {floor:.2f}x): "
              f"{'OK' if entry_ok else 'REGRESSION'}")
        ok = ok and entry_ok
    return ok


def check_trace_overhead(doc, args):
    """Armed-tracing overhead gate, absolute (no committed history
    needed): the bench times disarmed and armed fused predicts in
    adjacent pairs of alternating order and reports the median (and
    IQR) of the per-pair armed/disarmed ratio; the median must stay
    within --max-trace-overhead (default 3%), so arming the tracer
    never quietly becomes a tax on the serving path."""
    block = doc.get("trace_overhead")
    if not isinstance(block, dict):
        print("bench_check: fresh run carries no trace_overhead block "
              "(bench predates the tracing subsystem); skipping")
        return True
    try:
        frac = float(block["overhead_frac"])
    except (KeyError, TypeError, ValueError):
        sys.stderr.write(
            "bench_check: no trace_overhead.overhead_frac\n")
        sys.exit(2)
    ok = frac <= args.max_trace_overhead
    iqr = block.get("overhead_iqr")
    spread = f", pair-ratio IQR {100.0 * float(iqr):.2f}%" if iqr else ""
    print(f"bench_check: armed-tracing overhead {100.0 * frac:+.2f}% "
          f"(median{spread}; "
          f"limit {100.0 * args.max_trace_overhead:.2f}%): "
          f"{'OK' if ok else 'REGRESSION'}")
    return ok


def print_host(label, doc):
    """Print the host fingerprint a bench JSON carries, so every
    verdict below it says which host produced the numbers."""
    host = doc.get("host")
    if not isinstance(host, dict):
        print(f"bench_check: {label}: no host fingerprint "
              "(bench predates it)")
        return
    print(f"bench_check: {label}: {host.get('cpu_model', '?')}, "
          f"nproc {host.get('nproc', '?')}, "
          f"L1d {host.get('l1d_kib', '?')} KiB, "
          f"L2 {host.get('l2_kib', '?')} KiB, "
          f"simd {host.get('simd', '?')}, "
          f"pool threads {host.get('pool_threads', '?')}")


def check_throughput(args):
    """Fused single-image latency vs the committed record."""
    if not os.path.exists(args.fresh):
        sys.stderr.write(f"bench_check: fresh JSON {args.fresh} missing\n")
        sys.exit(2)
    fresh_doc = load(args.fresh)
    print_host("fresh host", fresh_doc)
    if os.path.exists(args.committed):
        print_host("committed host", load(args.committed))
    if not os.path.exists(args.committed):
        print(f"bench_check: no committed baseline at {args.committed}; "
              "nothing to compare")
        # The batch/binary/tracing gates are absolute, so they hold
        # even with no history.
        ok = check_batch(fresh_doc, {}, args)
        ok = check_binary(fresh_doc, {}, args) and ok
        return check_trace_overhead(fresh_doc, args) and ok

    committed_doc = load(args.committed)
    fresh = field(fresh_doc, ("single_image", "fused_ms"), args.fresh)
    committed = field(committed_doc, ("single_image", "fused_ms"),
                      args.committed)
    if committed <= 0:
        sys.stderr.write("bench_check: committed fused_ms is not positive\n")
        sys.exit(2)

    ratio = fresh / committed
    limit = 1.0 + args.max_regress
    ok = ratio <= limit
    verdict = "OK" if ok else "REGRESSION"
    print(f"bench_check: fused single-image {committed:.1f} ms -> "
          f"{fresh:.1f} ms ({ratio:.2f}x, limit {limit:.2f}x): {verdict}")
    ok = check_topologies(fresh_doc, committed_doc, args) and ok
    ok = check_batch(fresh_doc, committed_doc, args) and ok
    ok = check_binary(fresh_doc, committed_doc, args) and ok
    return check_trace_overhead(fresh_doc, args) and ok


def check_overload(doc, args):
    """Overload-robustness gate, absolute (no committed history
    needed): at 2.5x offered capacity the hardened server must hold at
    least --min-goodput-ratio of its 1.0x goodput, the overload
    scenario must actually have exercised admission control
    (rejected > 0), load shedding (shed > 0) and deadline expediting
    (expedited > 0), the queue depth must stay bounded by the
    configured per-class cap, and completed-request p99 must stay
    within 3x the scenario deadline."""
    gate = doc.get("overload_gate")
    if not isinstance(gate, dict):
        print("bench_check: fresh run carries no overload_gate block "
              "(bench predates overload hardening); skipping")
        return True

    def g(key):
        try:
            return float(gate[key])
        except (KeyError, TypeError, ValueError):
            sys.stderr.write(f"bench_check: no overload_gate.{key}\n")
            sys.exit(2)

    ratio = g("goodput_ratio")
    ok = ratio >= args.min_goodput_ratio
    print(f"bench_check: overload goodput {g('goodput_1x_ips'):.1f} ips "
          f"@1.0x -> {g('goodput_2p5x_ips'):.1f} ips @2.5x "
          f"({ratio:.2f}x, floor {args.min_goodput_ratio:.2f}x): "
          f"{'OK' if ok else 'REGRESSION'}")

    for counter in ("rejected", "shed", "expedited"):
        n = g(counter)
        c_ok = n > 0
        print(f"bench_check: overload {counter} count {n:.0f} "
              f"(must be >0): {'OK' if c_ok else 'REGRESSION'}")
        ok = ok and c_ok

    cap = g("queue_cap_per_class")
    depth = g("max_queue_depth")
    # Three accuracy classes, each bounded by the per-class cap.
    depth_ok = depth <= 3 * cap
    print(f"bench_check: overload max queue depth {depth:.0f} "
          f"(bound {3 * cap:.0f}): {'OK' if depth_ok else 'REGRESSION'}")
    ok = ok and depth_ok

    deadline = g("deadline_ms")
    p99 = g("overload_p99_ms")
    p99_ok = p99 <= 3.0 * deadline
    print(f"bench_check: overload p99 {p99:.1f} ms (limit "
          f"{3.0 * deadline:.1f} ms = 3x deadline): "
          f"{'OK' if p99_ok else 'REGRESSION'}")
    return ok and p99_ok


def check_fleet(doc, args):
    """Model-fleet isolation gate, absolute (no committed history
    needed): with one of three registered models poisoned mid-run, the
    healthy models must hold at least --min-fleet-goodput of their solo
    goodput, the poisoned model must actually have been quarantined
    (breaker tripped) and must have recovered through half-open probes
    once the fault cleared, and every bit-exactness sentinel answered
    during the chaos must match the reference engine exactly (zero
    cross-model result corruption). Skipped with a note when the JSON
    predates the fleet scenario, unless --fleet demands it."""
    gate = doc.get("fleet_gate")
    if not isinstance(gate, dict):
        if args.fleet:
            print("bench_check: --fleet demanded but the fresh run "
                  "carries no fleet_gate block: REGRESSION")
            return False
        print("bench_check: fresh run carries no fleet_gate block "
              "(bench predates the model fleet); skipping")
        return True

    def g(key):
        try:
            return float(gate[key])
        except (KeyError, TypeError, ValueError):
            sys.stderr.write(f"bench_check: no fleet_gate.{key}\n")
            sys.exit(2)

    ratio = g("healthy_goodput_ratio")
    ok = ratio >= args.min_fleet_goodput
    print(f"bench_check: fleet healthy goodput ratio {ratio:.2f} "
          f"(floor {args.min_fleet_goodput:.2f}, poisoned model "
          f"{gate.get('poisoned_id', '?')}): "
          f"{'OK' if ok else 'REGRESSION'}")

    quarantined = g("poisoned_quarantined") > 0 and g("poisoned_trips") > 0
    print(f"bench_check: fleet poisoned model quarantined "
          f"(trips {g('poisoned_trips'):.0f}): "
          f"{'OK' if quarantined else 'REGRESSION'}")
    ok = ok and quarantined

    recovered = g("poisoned_recovered") > 0
    print(f"bench_check: fleet poisoned model recovered via half-open "
          f"probe (final state {gate.get('poisoned_final_state', '?')}): "
          f"{'OK' if recovered else 'REGRESSION'}")
    ok = ok and recovered

    checked = g("sentinel_checked")
    mismatches = g("sentinel_mismatches")
    exact = checked > 0 and mismatches == 0
    print(f"bench_check: fleet bit-exactness sentinels "
          f"{checked - mismatches:.0f}/{checked:.0f} exact "
          f"(must be all, >0): {'OK' if exact else 'REGRESSION'}")
    ok = ok and exact

    if "flight_dumps" in gate:
        dumps = g("flight_dumps")
        d_ok = dumps > 0
        print(f"bench_check: fleet flight-recorder dumps {dumps:.0f} "
              f"(must be >0 — a breaker trip must leave a postmortem): "
              f"{'OK' if d_ok else 'REGRESSION'}")
        ok = ok and d_ok
    else:
        print("bench_check: fleet_gate carries no flight_dumps count "
              "(bench predates the flight recorder); skipping")
    return ok


def check_serving(args):
    """Micro-batching must beat per-request serving at the same offered
    load, and must not regress against the committed record."""
    if not os.path.exists(args.serving_fresh):
        sys.stderr.write(
            f"bench_check: fresh JSON {args.serving_fresh} missing\n")
        sys.exit(2)
    doc = load(args.serving_fresh)
    print_host("fresh serving host", doc)
    if os.path.exists(args.serving_committed):
        print_host("committed serving host", load(args.serving_committed))
    per_request = field(doc, ("gate", "per_request_ips"),
                        args.serving_fresh)
    micro = field(doc, ("gate", "microbatch_ips"), args.serving_fresh)
    p99 = field(doc, ("gate", "microbatch_p99_ms"), args.serving_fresh)

    ok = micro > per_request
    verdict = "OK" if ok else "REGRESSION"
    print(f"bench_check: serving at same offered load: per-request "
          f"{per_request:.1f} ips vs micro-batching {micro:.1f} ips "
          f"({micro / per_request if per_request > 0 else 0:.2f}x, "
          f"must be >1): {verdict}")
    ok = check_overload(doc, args) and ok
    ok = check_fleet(doc, args) and ok

    if not os.path.exists(args.serving_committed):
        print(f"bench_check: no committed serving baseline at "
              f"{args.serving_committed}; skipping trend check")
        return ok

    prev = load(args.serving_committed)
    prev_micro = field(prev, ("gate", "microbatch_ips"),
                       args.serving_committed)
    prev_p99 = field(prev, ("gate", "microbatch_p99_ms"),
                     args.serving_committed)

    if prev_micro > 0:
        ratio = micro / prev_micro
        # Multiplicative floor: 1-max_regress would saturate at zero
        # for the generous cross-host bound (--max-regress 1.0) and
        # make the gate vacuous; 1/(1+max_regress) mirrors the latency
        # limit and stays meaningful (0.8x at 0.25, 0.5x at 1.0).
        floor = 1.0 / (1.0 + args.max_regress)
        tp_ok = ratio >= floor
        print(f"bench_check: serving throughput {prev_micro:.1f} -> "
              f"{micro:.1f} ips ({ratio:.2f}x, floor {floor:.2f}x): "
              f"{'OK' if tp_ok else 'REGRESSION'}")
        ok = ok and tp_ok
    if prev_p99 > 0:
        ratio = p99 / prev_p99
        limit = 1.0 + args.max_regress
        p99_ok = ratio <= limit
        print(f"bench_check: serving p99 {prev_p99:.1f} -> {p99:.1f} ms "
              f"({ratio:.2f}x, limit {limit:.2f}x): "
              f"{'OK' if p99_ok else 'REGRESSION'}")
        ok = ok and p99_ok
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh",
                    help="throughput JSON written by the bench run under "
                         "test")
    ap.add_argument("--committed", default="BENCH_throughput.json",
                    help="throughput baseline committed to the repository")
    ap.add_argument("--serving-fresh",
                    help="serving JSON written by bench_serving")
    ap.add_argument("--serving-committed", default="BENCH_serving.json",
                    help="serving baseline committed to the repository")
    ap.add_argument("--max-regress", type=float,
                    default=float(os.environ.get("SCDCNN_BENCH_CHECK_MAX",
                                                 "0.25")),
                    help="allowed fractional slowdown (default 0.25)")
    ap.add_argument("--min-batch-ratio", type=float,
                    default=float(os.environ.get(
                        "SCDCNN_BENCH_BATCH_MIN", "1.5")),
                    help="required lenet5 batch-vs-single ips ratio "
                         "(default 1.5)")
    ap.add_argument("--min-binary-ratio", type=float,
                    default=float(os.environ.get(
                        "SCDCNN_BENCH_BINARY_MIN", "5.0")),
                    help="required lenet5 binary-vs-fused ips ratio "
                         "(default 5.0)")
    ap.add_argument("--max-trace-overhead", type=float,
                    default=float(os.environ.get(
                        "SCDCNN_BENCH_TRACE_MAX", "0.03")),
                    help="allowed armed-vs-disarmed tracing overhead "
                         "fraction (default 0.03)")
    ap.add_argument("--min-goodput-ratio", type=float,
                    default=float(os.environ.get(
                        "SCDCNN_BENCH_GOODPUT_MIN", "0.8")),
                    help="required 2.5x-vs-1.0x overload goodput ratio "
                         "(default 0.8)")
    ap.add_argument("--fleet", action="store_true",
                    help="require the fleet_gate block to be present "
                         "(default: skip with a note when absent)")
    ap.add_argument("--min-fleet-goodput", type=float,
                    default=float(os.environ.get(
                        "SCDCNN_BENCH_FLEET_GOODPUT_MIN", "0.8")),
                    help="required healthy-model mixed-vs-solo goodput "
                         "ratio in the fleet scenario (default 0.8)")
    args = ap.parse_args()

    if args.fresh is None and args.serving_fresh is None:
        sys.stderr.write(
            "bench_check: need --fresh and/or --serving-fresh\n")
        sys.exit(2)

    ok = True
    if args.fresh is not None:
        ok = check_throughput(args) and ok
    if args.serving_fresh is not None:
        ok = check_serving(args) and ok
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
