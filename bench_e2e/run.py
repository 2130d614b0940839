#!/usr/bin/env python3
"""bench_e2e: the repository's end-to-end benchmark.

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the bench_e2e binary from the sources in this checkout (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, checks its outputs
and prints every metric by name and unit. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A traced run also runs
the same seed untraced first, to report the tracing overhead. A detailed
record (all metrics, checks, machine fingerprint, source identity) is
written to <build dir>/results/.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# BENCHMARK.json lists the first two. adapt_data_drift stays runnable for its
# storage and data-event metrics but is not gated: its set-up and data events
# on a 2M-row table make a run too long for the benchmark's time budget, and
# its gmq_final varies more between seeds (IQR 32% of the median over 5
# seeds) than any bound BENCHMARK.json may set.
WORKLOADS = ("serve_steady", "adapt_workload_drift", "adapt_data_drift")
# Per binary invocation; a traced run makes two and must end within 180 s.
RUN_TIMEOUT_S = 80

# (name, unit) in the order BENCHMARK.json lists them. Estimate latency is
# per-layer, not gated: on a shared virtual machine the host slows this VM's
# cache-resident work 1.5-2x for seconds to minutes at a time, and no
# latency statistic of one run kept its spread over 10 seeds within the
# largest bound BENCHMARK.json may set. gmq_final is fixed by the seed.
END_TO_END = [
    ("setup_s", "s"),
    ("gmq_final", "ratio"),
    ("peak_rss_mb", "MB"),
]
PHASES = ("update_modules", "annotate", "pick", "update_model", "det_drft",
          "ingest", "eval")
PER_LAYER = [
    ("estimate_p50_us", "us"),
    ("estimate_p99_us", "us"),
    ("gmq_mean", "ratio"),
    ("estimate_qps", "req/s"),
    ("swap_p99_us", "us"),
    ("swap.samples", "count"),
    ("adapt_pass_p50_ms", "ms"),
    ("adapt_total_s", "s"),
    ("annotations", "count"),
    ("data_event_ms", "ms"),
    ("estimate.tail_us", "us"),
    ("estimate.tail_pct", "%"),
    ("estimate.samples", "count"),
    ("ce.featurize_us", "us"),
    ("nn.forward_us.b1", "us"),
    ("nn.forward_us.bmax", "us"),
    ("nn.forward_us.bmean", "us"),
    ("nn.forward_gflops", "GFLOP/s"),
    ("nn.weight_bytes_per_query", "B"),
    ("serve.overhead_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.batches", "count"),
    ("serve.shed", "ratio"),
    ("serve.expired", "ratio"),
    ("serve.swap_excess_us", "us"),
    ("serve.gate_publish_ms", "ms"),
    ("serve.publishes", "ratio"),
    ("serve.rollbacks", "ratio"),
] + [(f"core.{p}_{k}", u) for p in PHASES
     for k, u in (("ms", "ms"), ("share", "ratio"))] + [
    ("core.invoke_ms", "ms"),
    ("core.invoke_cpu_ms", "ms"),
    ("core.generated", "count"),
    ("core.picked", "count"),
    ("core.annotated", "count"),
    ("core.mode_c1", "count"),
    ("core.mode_c2", "count"),
    ("core.mode_c3", "count"),
    ("core.mode_c4", "count"),
    ("core.mode_none", "count"),
    ("core.targeted_skips", "count"),
    ("core.pi_escalations", "count"),
    ("ledger.s_per_gmq_point", "s"),
    ("ledger.gmq_first_drift", "ratio"),
    ("ledger.gmq_gain", "ratio"),
    ("ledger.harm", "count"),
    ("storage.annotate_mpredrows_s", "Mpredrows/s"),
    ("storage.blocks_pruned_frac", "ratio"),
    ("storage.rows_scanned_frac", "ratio"),
    ("storage.first_count_after_event_ms", "ms"),
    ("gen.lateness_p99_us", "us"),
    ("gen.behind", "count"),
    ("gen.sent", "count"),
    ("gen.ok", "count"),
    ("gen.failed", "count"),
    ("checks.zero_estimates", "count"),
    ("trace.attributed_pct.estimate", "%"),
    ("trace.attributed_pct.adapt_pass", "%"),
    ("trace.overhead_pct.estimate_p50", "%"),
    ("trace.overhead_pct.adapt_pass_p50", "%"),
]
ZONE_BLOCK_ROWS = 4096
# The generator is behind when its own p99 lateness exceeds this.
MAX_GEN_LATENESS_US = 1000.0


def fail(msg):
    print(f"bench_e2e: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    out = build_dir() / "bench_e2e"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "bench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return out / "bench_e2e"


def source_identity():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    h = hashlib.sha256()
    for sub in ("src", HERE.name):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return {"git_sha": sha, "tree_sha256": h.hexdigest()}


def run_binary(binary, workload, seed, seconds, trace):
    raw_path = build_dir() / "results" / f"raw-{workload}-{seed}-{int(trace)}.json"
    raw_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(raw_path)]
    # glibc's default mmap threshold moves with the allocation history, which
    # makes peak RSS differ by ~15% between identical runs; a fixed threshold
    # (an allocator setting a deployment may choose) makes it repeatable.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_=str(1 << 20))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail(f"{workload} run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"bench_e2e binary exited with {proc.returncode}")
    with open(raw_path) as f:
        return json.load(f)


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def med(xs):
    return stats.median(xs) if xs else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def compute(raw):
    """Every metric the raw record supports, plus per-phase request counts
    and the checks. Span-based metrics are 0 in an untraced record."""
    m = {}
    cfg = raw["config"]
    req = raw["requests"]
    due, sent, done, status = req["due"], req["sent"], req["done"], req["status"]
    ok = [s == 0 for s in status]
    end_ns = raw["measured_end_ns"]
    lat_us = [x / 1e3 for x in stats.due_time_latencies(due, done, ok, end_ns)]
    n = len(lat_us)
    if not stats.supported(n, 50.0):
        fail(f"only {n} open-loop requests; run for longer")
    # Reasons the timings of this run are not trustworthy; printed, and kept
    # apart from `correct`, which covers the program's outputs only.
    invalid = []
    m["setup_s"] = stats.median(raw["setup_s"])
    m["estimate_p50_us"] = stats.median(lat_us)
    m["estimate_p99_us"] = stats.percentile(lat_us, 99.0)
    if not stats.supported(n, 99.0):
        invalid.append(f"only {n} open-loop requests: p99 is not supported")
    tail_p = stats.tail_percentile(n)
    m["estimate.tail_pct"] = tail_p
    m["estimate.tail_us"] = stats.percentile(lat_us, tail_p)
    m["estimate.samples"] = n
    m["peak_rss_mb"] = raw["peak_rss_mb"]
    series = raw["gmq_series"] or [raw["gmq_start"], raw["gmq_final"]]
    m["gmq_final"] = raw["gmq_final"]
    m["gmq_mean"] = mean(series)

    closed = raw["closed"]
    closed_s = (closed["end_ns"] - closed["start_ns"]) / 1e9
    m["estimate_qps"] = ratio(closed["completed"], closed_s)

    passes = raw["passes"]
    walls = [(p["ready_ns"] - p["submit_ns"]) / 1e6 for p in passes]
    windows = sorted((p["submit_ns"], p["ready_ns"]) for p in passes)
    in_pass = []
    outside = []
    for d, l in zip(due, lat_us):
        hit = any(a <= d <= b for a, b in windows)
        (in_pass if hit else outside).append(l)
    m["swap.samples"] = len(in_pass)
    m["swap_p99_us"] = stats.percentile(in_pass, 99.0) if in_pass else 0.0
    m["serve.swap_excess_us"] = (
        m["swap_p99_us"] - stats.percentile(outside, 99.0)
        if in_pass and outside else 0.0)
    m["adapt_pass_p50_ms"] = med(walls)
    m["adapt_total_s"] = sum(walls) / 1e3
    m["annotations"] = sum(p["annotated"] for p in passes)
    events = raw["events"]
    m["data_event_ms"] = med([e["apply_ns"] / 1e6 for e in events])
    m["storage.first_count_after_event_ms"] = med(
        [e["first_count_ns"] / 1e6 for e in events])

    phase_ms = []
    for p in passes:
        d = {}
        for name, wall_s, _cpu in p["phases"]:
            key = name.split(".", 1)[-1]
            d[key] = d.get(key, 0.0) + wall_s * 1e3
        phase_ms.append(d)
    total_wall = sum(walls)
    for ph in PHASES:
        vals = [d.get(ph, 0.0) for d in phase_ms]
        m[f"core.{ph}_ms"] = med(vals)
        m[f"core.{ph}_share"] = ratio(sum(vals), total_wall)
    m["core.invoke_ms"] = med([p["invoke_wall_s"] * 1e3 for p in passes])
    m["core.invoke_cpu_ms"] = med([p["invoke_cpu_s"] * 1e3 for p in passes])
    m["serve.gate_publish_ms"] = med(
        [w - p["invoke_wall_s"] * 1e3 for w, p in zip(walls, passes)])
    for key in ("generated", "picked", "annotated"):
        m[f"core.{key}"] = sum(p[key] for p in passes)
    for i, c in enumerate(("c1", "c2", "c3", "c4")):
        m[f"core.mode_{c}"] = sum(1 for p in passes if p["mode"][i])
    m["core.mode_none"] = sum(1 for p in passes if not any(p["mode"]))
    m["core.targeted_skips"] = sum(1 for p in passes if p["targeted_skip"])
    m["core.pi_escalations"] = sum(
        p["registry"]["warper.pi_escalations"] for p in passes)
    m["serve.publishes"] = ratio(sum(p["published"] for p in passes), len(passes))
    m["serve.rollbacks"] = ratio(sum(p["rolled_back"] for p in passes), len(passes))

    first = series[0]
    gain = first - raw["gmq_final"]
    m["ledger.gmq_first_drift"] = first
    m["ledger.gmq_gain"] = gain
    harm = bool(passes) and gain <= 0
    m["ledger.harm"] = int(harm)
    m["ledger.s_per_gmq_point"] = (
        m["adapt_total_s"] / gain if passes and gain > 0 else 0.0)

    pred_rows = sum(p["registry"]["annotator.predicates"] * p["table_rows"]
                    for p in passes)
    pred_blocks = sum(p["registry"]["annotator.predicates"] *
                      math.ceil(p["table_rows"] / ZONE_BLOCK_ROWS) for p in passes)
    annotate_s = sum(d.get("annotate", 0.0) for d in phase_ms) / 1e3
    m["storage.annotate_mpredrows_s"] = ratio(pred_rows, annotate_s) / 1e6
    m["storage.blocks_pruned_frac"] = ratio(
        sum(p["registry"]["annotator.blocks_pruned"] for p in passes), pred_blocks)
    m["storage.rows_scanned_frac"] = ratio(
        sum(p["registry"]["annotator.rows_scanned"] for p in passes), pred_rows)

    # Serving registry counters over the whole measured window.
    reg_open, reg_closed = raw["registry_open"], raw["registry_closed"]
    batch_reg = reg_closed if reg_closed["serve.batch_size.count"] else reg_open
    m["serve.batch_size_mean"] = ratio(batch_reg["serve.batch_size.sum"],
                                       batch_reg["serve.batch_size.count"])
    m["serve.batches"] = batch_reg["serve.batches"]
    attempts = n + closed["completed"] + closed["failed"]
    m["serve.shed"] = ratio(reg_open["serve.shed"] + reg_closed["serve.shed"], attempts)
    m["serve.expired"] = ratio(
        reg_open["serve.expired"] + reg_closed["serve.expired"], attempts)

    lateness = stats.generator_lateness(due, sent, done, cfg["inline"])
    m["gen.lateness_p99_us"] = stats.percentile(lateness, 99.0) / 1e3
    m["gen.sent"] = n
    m["gen.ok"] = sum(ok)
    m["gen.failed"] = n - sum(ok)
    m["gen.behind"] = int(m["gen.lateness_p99_us"] > MAX_GEN_LATENESS_US)
    if m["gen.behind"]:
        invalid.append(f"generator p99 lateness {m['gen.lateness_p99_us']:.0f} us")

    checks = raw["checks"]
    m["checks.zero_estimates"] = checks["zero_estimates"]

    # Traced-only metrics: spans and direct forward probes.
    fwd = raw["forward_us"]
    m["nn.forward_us.b1"] = med(fwd["b1"])
    m["nn.forward_us.bmax"] = med(fwd["bmax"])
    m["nn.forward_us.bmean"] = med(fwd["bmean"])
    sizes = cfg["layer_sizes"]
    macs = sum(a * b for a, b in zip(sizes, sizes[1:]))
    params = sum(a * b + b for a, b in zip(sizes, sizes[1:]))
    m["nn.forward_gflops"] = ratio(2.0 * macs * cfg["batch_max"],
                                   m["nn.forward_us.bmax"] * 1e3)
    m["nn.weight_bytes_per_query"] = 8.0 * params / fwd["bmean_rows"]
    spans = raw["spans"]
    request_spans = [s for s in spans if s[3] in ("request", "ce.featurize",
                                                  "serve.estimate")]
    featurize = [(s[5] - s[4]) / 1e3 for s in spans if s[3] == "ce.featurize"]
    m["ce.featurize_us"] = med(featurize)
    m["serve.overhead_us"] = (
        m["estimate_p50_us"] - m["ce.featurize_us"] - m["nn.forward_us.bmean"]
        if spans else 0.0)
    shares = []
    for trace, per in stats.self_time_by_trace(request_spans).items():
        total = sum(per.values())
        if total > 0:
            named = per.get("ce.featurize", 0) + per.get("serve.estimate", 0)
            shares.append(100.0 * named / total)
    m["trace.attributed_pct.estimate"] = med(shares)
    pass_shares = []
    for w, p in zip(walls, passes):
        named = sum(wall for _n, wall, _c in p["phases"]) * 1e3
        named += w - p["invoke_wall_s"] * 1e3  # serve.gate_publish
        pass_shares.append(100.0 * ratio(named, w))
    m["trace.attributed_pct.adapt_pass"] = med(pass_shares) if spans else 0.0

    failed_ops = ((n - sum(ok)) + closed["failed"] + checks["bad_versions"] +
                  checks["sample_mismatches"] + checks["label_mismatches"] +
                  checks["failed_passes"])
    attempted = n + closed["completed"] + closed["failed"] + len(passes)
    if checks["samples_checked"] == 0:
        failed_ops += 1  # the equality check never ran
        print("bench_e2e: no served estimate could be re-checked", file=sys.stderr)
    phases_report = {
        "open_loop": {"sent": n, "ok": sum(ok),
                      "shed": status.count(1), "expired": status.count(2),
                      "error": status.count(3), "bad_output": status.count(4)},
        "closed_loop": {"sent": closed["completed"] + closed["failed"],
                        "ok": closed["completed"], "failed": closed["failed"]},
        "adaptation": {"sent": len(passes),
                       "ok": sum(1 for p in passes if p["ok"]),
                       "failed": checks["failed_passes"]},
    }
    return m, {"attempted": attempted, "failed": failed_ops, "invalid": invalid,
               "phases": phases_report, "checks": checks}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no sources to build: {ROOT / 'src'} is missing")

    binary = build()
    raw = run_binary(binary, args.workload, args.seed, args.seconds, False)
    metrics, outcome = compute(raw)
    if args.trace:
        traced = run_binary(binary, args.workload, args.seed, args.seconds, True)
        untraced = metrics
        metrics, outcome = compute(traced)
        metrics["trace.overhead_pct.estimate_p50"] = 100.0 * ratio(
            metrics["estimate_p50_us"] - untraced["estimate_p50_us"],
            untraced["estimate_p50_us"])
        metrics["trace.overhead_pct.adapt_pass_p50"] = 100.0 * ratio(
            metrics["adapt_pass_p50_ms"] - untraced["adapt_pass_p50_ms"],
            untraced["adapt_pass_p50_ms"])
        raw = traced
    else:
        metrics["trace.overhead_pct.estimate_p50"] = 0.0
        metrics["trace.overhead_pct.adapt_pass_p50"] = 0.0

    identity = source_identity()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print(f"source git_sha={identity['git_sha']} tree_sha256={identity['tree_sha256']}")
    print(f"machine {json.dumps(raw['fingerprint'], sort_keys=True)}")
    print(f"config {json.dumps(raw['config'], sort_keys=True)}")
    for phase, counts in outcome["phases"].items():
        print(f"{phase}: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"checks {json.dumps(outcome['checks'], sort_keys=True)}")
    print(f"estimate latency: p50 and p99 over n={metrics['estimate.samples']} "
          f"open-loop requests; highest supported tail "
          f"p{metrics['estimate.tail_pct']:g} = {metrics['estimate.tail_us']:.1f} us")
    print("nn.forward_gflops and nn.weight_bytes_per_query are computed from "
          "layer shapes, not measured bytes")
    for name, unit in END_TO_END + PER_LAYER:
        value = metrics[name]
        shown = f"{value:.6g}"
        if name == "ledger.s_per_gmq_point" and metrics["ledger.harm"]:
            shown = "harm"
        print(f"  {name:40s} {shown:>14s} {unit}")
    for reason in outcome["invalid"]:
        print(f"INVALID: {reason}")
    correct = outcome["failed"] == 0

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "correct": correct, "source": identity,
              "fingerprint": raw["fingerprint"], "config": raw["config"],
              "metrics": metrics, **outcome}
    out = build_dir() / "results" / f"{args.workload}-{args.seed}-{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))

    wanted = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted},
    }))


if __name__ == "__main__":
    main()
