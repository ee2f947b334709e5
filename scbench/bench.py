"""Workload plans and metric reduction for the SC-DCNN benchmark.

Pure functions only: run.py does the building, the process handling
and the printing. A plan is everything the driver needs to run one
workload (configuration plus every input), generated from the workload
seed. A raw record is what the driver measured (see driver.cc). The
metric tables below are the one place the metric names, units and
directions live; BENCHMARK.json must agree with them (test_bench.py
checks that).
"""

import math
import random
import statistics

TEST_IMAGES = 2000  # size of the nn::loadDigits test set the driver loads
TAIL_BEYOND = 10  # samples a tail percentile must leave above it

HIGH, BALANCED, FAST = 0, 1, 2  # serve::AccuracyClass values

# name -> (unit, better). End-to-end metrics come from runs with the
# recorder disarmed and are printed by every workload; BENCHMARK.json
# gives each a regression bound.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "service_ms": ("ms", "lower"),
    "images_per_s": ("1/s", "higher"),
    "goodput_ips": ("1/s", "higher"),
    "accuracy": ("frac", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# End-to-end metrics printed in the report but kept out of the result
# line. Serve latencies spread 10-40% from run to run on a 4-vCPU host,
# more than any allowed bound (see README.md); they are per-layer
# metrics instead. The failure shares are 0 on a healthy run.
END_TO_END_EXTRA = {
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "failed_frac": ("frac", "lower"),
    "deadline_miss_frac": ("frac", "lower"),
}

# Per-layer metrics, from the traced run. A metric of a layer the
# workload does not exercise reads 0 (listed as absent in the report).
PER_LAYER = {
    "serve.submit_us_p50": ("us", "lower"),
    "serve.submit_us_tail": ("us", "lower"),
    "serve.queue_ms_p50": ("ms", "lower"),
    "serve.queue_ms_tail": ("ms", "lower"),
    "serve.compute_ms_p50": ("ms", "lower"),
    "serve.compute_ms_tail": ("ms", "lower"),
    "serve.compute_ms_high": ("ms", "lower"),
    "serve.compute_ms_balanced": ("ms", "lower"),
    "serve.compute_ms_fast": ("ms", "lower"),
    "serve.accounted_frac": ("frac", "higher"),
    "serve.batch_size_mean": ("count", "higher"),
    "serve.close.full": ("frac", "higher"),
    "serve.close.timeout": ("frac", "lower"),
    "serve.close.expedited": ("frac", "lower"),
    "serve.close.drain": ("frac", "lower"),
    "serve.rejected": ("count", "lower"),
    "serve.shed": ("count", "lower"),
    "serve.cancelled": ("count", "lower"),
    "serve.degraded_frac": ("frac", "lower"),
    "core.ms_per_image": ("ms", "lower"),
    "core.cpu_util": ("frac", "higher"),
    "core.effective_bits_mean": ("count", "lower"),
    "core.early_exit_rate": ("frac", "higher"),
    "core.batches.fused": ("count", "lower"),
    "core.batches.progressive": ("count", "lower"),
    "core.batches.binary": ("count", "lower"),
    "core.batch_kernel_share": ("frac", "higher"),
    "engine.phase.encode_ms": ("ms", "lower"),
    "engine.phase.inner_product_ms": ("ms", "lower"),
    "engine.phase.pooling_ms": ("ms", "lower"),
    "engine.phase.activation_ms": ("ms", "lower"),
    "engine.phase.output_ms": ("ms", "lower"),
    "engine.batch_compute_ms": ("ms", "lower"),
    "setup.install_s": ("s", "lower"),
    "setup.engine_build_s": ("s", "lower"),
    "loadgen.late_ms_tail": ("ms", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
}

# Engine phase metric -> the obs::SpanName aggregate it reads.
PHASE_SPANS = {
    "engine.phase.encode_ms": "encode",
    "engine.phase.inner_product_ms": "inner_product",
    "engine.phase.pooling_ms": "pooling",
    "engine.phase.activation_ms": "activation",
    "engine.phase.output_ms": "output",
}

WORKLOADS = {
    # Closed loop, one caller, micro-batches of 16 through forwardBatch
    # at L=1024 (the paper's full-precision LeNet5) on a 4-thread pool.
    "offline_lenet5": {"mode": "offline", "len": 1024, "segment_words": 4,
                       "setup_repeats": 3, "batch": 16, "batches": 64},
    # Open loop into a ModelRegistry holding lenet5 at L=256, streamed
    # one 64-bit word per segment (progressive checkpoints every 64
    # cycles), Progressive floor at half the stream. Poisson arrivals at
    # a fixed 12 ips, QoS mix 20% High / 60% Balanced with a deadline /
    # 20% Fast: batches close with 1-2 images, so close delay, early exit
    # and the per-image path set latency. (At 25-40 ips one batch worker
    # queues enough on a 4-core host that the latency median spreads
    # 20-30% from run to run. With a floor of 64 about half of the
    # Balanced requests leave at 64 bits, which puts the latency median
    # on the edge between two modes.)
    "serve_steady": {"mode": "serve", "len": 256, "segment_words": 1,
                     "min_bits": 128, "setup_repeats": 5, "rate": 12.0,
                     "mix": (0.2, 0.6, 0.2), "deadline_ms": 100.0},
}


def make_plan(workload, seed, seconds):
    """The inputs of one run, as a dict; the same arguments always give
    the same plan."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    plan = {"workload": workload, "config": w, "seconds": float(seconds)}
    if w["mode"] == "offline":
        plan["batches"] = [
            (rng.getrandbits(48),
             [rng.randrange(TEST_IMAGES) for _ in range(w["batch"])])
            for _ in range(w["batches"])]
        return plan
    # A Poisson process conditioned on its count: exactly rate * seconds
    # arrivals at uniformly random times, with the QoS mix as an exact
    # composition in random order. The seed moves the times, the order
    # and the images, never the offered load.
    n = round(w["rate"] * seconds)
    n_high = round(n * w["mix"][HIGH])
    n_balanced = round(n * w["mix"][BALANCED])
    classes = [HIGH] * n_high + [BALANCED] * n_balanced + \
        [FAST] * (n - n_high - n_balanced)
    rng.shuffle(classes)
    times = sorted(rng.random() * seconds for _ in range(n))
    plan["requests"] = [
        (t, rng.randrange(TEST_IMAGES), cls,
         w["deadline_ms"] if cls == BALANCED else 0.0)
        for t, cls in zip(times, classes)]
    return plan


def plan_text(plan):
    """The plan in the driver's line format."""
    w = plan["config"]
    lines = [f"# {plan['workload']}", f"mode {w['mode']}",
             f"len {w['len']}", f"segment_words {w['segment_words']}",
             f"setup_repeats {w['setup_repeats']}"]
    if w["mode"] == "offline":
        lines += [f"batch {s} " + " ".join(map(str, idx))
                  for s, idx in plan["batches"]]
    else:
        lines.append(f"min_bits {w['min_bits']}")
        lines += [f"req {t * 1e6:.0f} {i} {c} {d * 1e3:.0f}"
                  for t, i, c, d in plan["requests"]]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------- statistics

def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples above
    it: (value, percentile, sample count). With too few samples for
    any such percentile it is the maximum, at percentile 100."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    s = sorted(values)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def p50(values):
    return statistics.median(values) if values else 0.0


# Helpers for an open-loop rate ladder (max_rate_ips): no workload runs
# one yet, because a ladder over this serving stack did not repeat
# within a regression bound (see README.md).

def backlog_growing(latencies_ms, limit_ms):
    """Whether a rung's backlog grew: the median latency of its second
    half of requests (in send order, failures as infinite) exceeds the
    first half's by more than a fifth of the latency limit."""
    if len(latencies_ms) < 2:
        return False
    half = len(latencies_ms) // 2
    first = statistics.median(latencies_ms[:half])
    second = statistics.median(latencies_ms[half:])
    if math.isinf(second):
        return not math.isinf(first)
    return second - first > 0.2 * limit_ms


def rung_passes(latencies_ms, limit_ms):
    """A rung meets the limit when its tail (failures as infinite) is
    within the limit and its backlog does not grow."""
    value, _, n = tail(latencies_ms)
    return n > 0 and value <= limit_ms and \
        not backlog_growing(latencies_ms, limit_ms)


def max_rate(rungs, limit_ms):
    """Highest ladder rate that passes, with every lower rung passing
    too; 0 when the lowest fails. @p rungs: [(rate, latencies_ms)] in
    ascending rate order."""
    best = 0.0
    for rate, lats in rungs:
        if not rung_passes(lats, limit_ms):
            break
        best = rate
    return best


# ------------------------------------------------------------ metrics

def _serve_rows(pass_):
    """The driver's per-request rows as dicts (see driver.cc)."""
    keys = ("sched_ms", "late_ms", "submit_us", "cls", "status", "correct",
            "queue_ms", "total_ms", "bits", "early_exit", "degraded",
            "deadline_met", "batch_size", "served", "had_deadline")
    return [dict(zip(keys, r)) for r in pass_["rows"]]


def _latency(row):
    """Latency from the scheduled send time; a failure never arrives."""
    if row["status"] != 0:
        return math.inf
    return row["late_ms"] + row["total_ms"]


CLASS_NAMES = {HIGH: "high", BALANCED: "balanced", FAST: "fast"}


def class_compute_ms(answered):
    """{requested QoS class: median server compute time (total - queue)
    of its answers}, for the classes with answers."""
    out = {}
    for cls in CLASS_NAMES:
        compute = [r["total_ms"] - r["queue_ms"] for r in answered
                   if r["cls"] == cls]
        if compute:
            out[cls] = p50(compute)
    return out


def service_ms(answered):
    """Server compute time of the answered requests, without queueing:
    the geometric mean of class_compute_ms. Each class's path (Fused
    per-image, Progressive, Binary) counts alike, however cheap it is."""
    medians = [max(v, 1e-6) for v in class_compute_ms(answered).values()]
    if not medians:
        return 0.0
    return math.exp(sum(math.log(v) for v in medians) / len(medians))


def end_to_end(plan, raw, pass_):
    """End-to-end metrics of one pass: {name: value}, plus a dict of
    notes (tail percentile and sample count) for the report."""
    w = plan["config"]
    m, notes = {}, {}
    if w["mode"] == "offline":
        ms = [r[0] for r in pass_["rows"]]
        images = sum(r[1] for r in pass_["rows"])
        m["setup_s"] = p50(raw["engine_build_s"])
        m["service_ms"] = p50(ms)
        m["images_per_s"] = images / pass_["wall_s"]
        m["latency_p50_ms"] = p50(ms)
        m["latency_tail_ms"], pct, n = tail(ms)
        notes["latency"] = f"per micro-batch of {w['batch']}"
        m["goodput_ips"] = m["images_per_s"]  # no deadlines offline
        m["accuracy"] = sum(r[2] for r in pass_["rows"]) / images
        m["failed_frac"] = 0.0
        m["deadline_miss_frac"] = 0.0
    else:
        rows = _serve_rows(pass_)
        answered = [r for r in rows if r["status"] == 0]
        lat = [_latency(r) for r in answered]
        attempted = len(rows)
        m["setup_s"] = p50(raw["install_s"])
        m["service_ms"] = service_ms(answered)
        m["images_per_s"] = len(answered) / pass_["wall_s"]
        m["latency_p50_ms"] = p50(lat)
        m["latency_tail_ms"], pct, n = tail(lat)
        notes["latency"] = "from scheduled send, answered requests"
        m["goodput_ips"] = sum(r["deadline_met"] for r in answered) / \
            pass_["wall_s"]
        m["accuracy"] = (sum(r["correct"] for r in answered) /
                         len(answered)) if answered else 0.0
        failed = attempted - len(answered)
        m["failed_frac"] = failed / attempted
        m["deadline_miss_frac"] = (failed + sum(
            1 for r in answered if not r["deadline_met"])) / attempted
    notes["tail"] = f"p{pct:.4g} of {n}"
    m["peak_rss_mb"] = raw["peak_rss_mb"]
    return m, notes


def _profile_ms(pass_, span):
    entry = pass_["profile"].get(span)
    return entry["total_ns"] / 1e6 if entry else 0.0


def per_layer(plan, raw, pass_, baseline, nproc):
    """Per-layer metrics of the traced pass; @p baseline is the
    disarmed pass of the same run (for the tracing overhead and the
    end-to-end latencies)."""
    w = plan["config"]
    m = {k: 0.0 for k in PER_LAYER}
    sv = pass_["serve"]
    m["core.cpu_util"] = pass_["cpu_s"] / (pass_["wall_s"] * nproc)
    m["setup.engine_build_s"] = p50(raw["engine_build_s"])
    if w["mode"] == "offline":
        rows = pass_["rows"]
        images = sum(r[1] for r in rows)
        busy_ms = sum(r[0] for r in rows)
        m["core.ms_per_image"] = busy_ms / images
        m["core.effective_bits_mean"] = sum(r[3] for r in rows) / images
        m["core.batches.fused"] = float(len(rows))
        m["core.batch_kernel_share"] = 1.0 if w["batch"] > 1 else 0.0
        m["engine.batch_compute_ms"] = busy_ms / len(rows)
        computed = images
        base = p50([r[0] for r in baseline["rows"]])
        traced = p50([r[0] for r in rows])
    else:
        rows = _serve_rows(pass_)
        answered = [r for r in rows if r["status"] == 0]
        queue = [r["queue_ms"] for r in answered]
        compute = [r["total_ms"] - r["queue_ms"] for r in answered]
        submit = [r["submit_us"] for r in rows]
        m["serve.submit_us_p50"] = p50(submit)
        m["serve.submit_us_tail"] = tail(submit)[0]
        m["serve.queue_ms_p50"] = p50(queue)
        m["serve.queue_ms_tail"] = tail(queue)[0]
        m["serve.compute_ms_p50"] = p50(compute)
        m["serve.compute_ms_tail"] = tail(compute)[0]
        for cls, ms in class_compute_ms(answered).items():
            m[f"serve.compute_ms_{CLASS_NAMES[cls]}"] = ms
        lat = [_latency(r) for r in answered]
        if answered:
            # How far the median queue wait plus the median compute
            # time explain the median latency (from the scheduled send)
            # of the same pass. Medians do not add, so this is near 1,
            # not 1, even when nothing else takes time; load-generator
            # lateness, time inside submit or a split of the latency
            # into modes move it away.
            m["serve.accounted_frac"] = \
                (p50(queue) + p50(compute)) / p50(lat)
            m["serve.degraded_frac"] = \
                sum(r["degraded"] for r in answered) / len(answered)
            m["core.effective_bits_mean"] = \
                sum(r["bits"] for r in answered) / len(answered)
            m["core.early_exit_rate"] = \
                sum(r["early_exit"] for r in answered) / len(answered)
        if sv["batches"]:
            m["serve.batch_size_mean"] = sv["batch_images"] / sv["batches"]
            m["core.batch_kernel_share"] = sv["batch_kernel"] / sv["batches"]
        closes = sum(sv["close"].values())
        for reason in ("full", "timeout", "expedited", "drain"):
            m[f"serve.close.{reason}"] = \
                sv["close"][reason] / closes if closes else 0.0
        # Admission refusals: the class queue cap (server) plus the
        # circuit breaker's fast rejects (registry).
        m["serve.rejected"] = float(sv["rejected"] + sv["unavailable"])
        m["serve.shed"] = float(sv["shed"])
        m["serve.cancelled"] = float(sv["cancelled"])
        for mode in ("fused", "progressive", "binary"):
            m[f"core.batches.{mode}"] = float(sv["by_mode"][mode])
        computed = sv["batch_images"]
        compute_entry = pass_["profile"].get("batch_compute")
        if compute_entry and computed:
            m["core.ms_per_image"] = compute_entry["total_ns"] / 1e6 / computed
            m["engine.batch_compute_ms"] = \
                compute_entry["total_ns"] / 1e6 / compute_entry["count"]
        m["setup.install_s"] = p50(raw["install_s"])
        m["loadgen.late_ms_tail"] = tail([r["late_ms"] for r in rows])[0]
        base = p50([_latency(r) for r in _serve_rows(baseline)
                    if r["status"] == 0])
        traced = p50(lat)
    if computed:
        for name, span in PHASE_SPANS.items():
            m[name] = _profile_ms(pass_, span) / computed
    m["trace.overhead_frac"] = (traced - base) / base if base else 0.0
    e2e = end_to_end(plan, raw, baseline)[0]
    m["latency_p50_ms"] = e2e["latency_p50_ms"]
    m["latency_tail_ms"] = e2e["latency_tail_ms"]
    return m


def absent(metrics):
    """Per-layer metrics a run did not exercise (reported as 0)."""
    return sorted(k for k, v in metrics.items() if v == 0.0)
