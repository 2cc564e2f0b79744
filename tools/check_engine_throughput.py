#!/usr/bin/env python3
"""CI guard: the TCAM search path must stay fast.

Reads the machine-readable report emitted by

    bench_engine_throughput --engine-json=BENCH_engine.json

and fails when:

  * the packed full-match kernel is not at least MIN_KERNEL_SPEEDUP x
    faster than the unpacked TcamArray::search at the gate shape
    (4096 rows x 128 cols, single thread) -- the headline the packed
    representation must earn;
  * the AVX2 tier, when available, is not at least MIN_SIMD_SPEEDUP x
    faster than the scalar kernel on the SAME packed representation
    (this isolates the vector win from the packing win);
  * --require-simd was passed (the AVX2 CI job) but the report says the
    SIMD tier was unavailable -- a silent fallback to scalar would
    otherwise make the SIMD gate vacuous;
  * --min-qps N was passed and the best multicore configuration (or the
    over-the-wire run) fell below N queries/second;
  * the engine section is missing or degenerate (zero throughput, rates
    outside [0, 1], zero search energy) -- which would mean the harness
    silently stopped exercising the engine;
  * the engine section lacks the query-blocking / mat-skip pruning
    fields (query_block, baseline_qps, block_speedup, mats_considered,
    mats_skipped, mat_skip_rate) or reports them inconsistently;
  * --min-block-speedup X was passed and the blocked+pruned trace arm is
    not at least X times the baseline arm (query_block 1, pruning off)
    measured in the same run;
  * --min-engine-qps N was passed and the blocked trace arm fell below
    N queries/second (the ROADMAP's 2x-over-PR-7 floor in CI);
  * --approx was passed and the approximate-match section is missing,
    degenerate, or its recall@k against the brute-force reference fell
    below MIN_APPROX_RECALL (0.95) -- or fewer than MIN_RECALL_QUERIES
    sampled queries actually had a non-empty reference, which would make
    the recall gate vacuous;
  * --min-approx-qps N was passed (with --approx) and the kNN trace arm
    fell below N queries/second.

The table_load section (CPU time of load_rules_clustered on the
perfbench-sized tables) is printed when present and never gated.

Absolute qps is only gated when the caller opts in with --min-qps: CI
machines vary too much for a hardcoded number, but a caller that knows
its hardware can pin a floor.  The kernel ratios are machine-relative
and always enforced.

With --stats PATH the live kStats scrape written by --stats-json is
schema-checked too (fetcam.stats.v1: engine totals + queue gauges, stage
percentiles, slow-query log, server counters).

Usage: check_engine_throughput.py [--require-simd] [--min-qps N]
                                  [--min-block-speedup X]
                                  [--min-engine-qps N]
                                  [--approx] [--min-approx-qps N]
                                  [--stats STATS.json] BENCH_engine.json
"""

import argparse
import json
import sys

MIN_KERNEL_SPEEDUP = 4.0
MIN_SIMD_SPEEDUP = 2.0
GATE_ROWS = 4096
GATE_COLS = 128
MIN_APPROX_RECALL = 0.95
MIN_RECALL_QUERIES = 100


def check_kernel(report: dict) -> bool:
    ok = True
    kernel = report.get("kernel")
    if not kernel:
        print("FAIL: no kernel section in report")
        return False
    if kernel.get("rows") != GATE_ROWS or kernel.get("cols") != GATE_COLS:
        print(
            f"FAIL: kernel gate shape is {kernel.get('rows')}x"
            f"{kernel.get('cols')}, expected {GATE_ROWS}x{GATE_COLS}"
        )
        ok = False
    speedup = kernel.get("speedup", 0.0)
    print(
        f"kernel {kernel.get('rows')}x{kernel.get('cols')}: "
        f"unpacked {kernel.get('unpacked_us', 0.0):.1f}us, "
        f"packed {kernel.get('packed_us', 0.0):.1f}us -> {speedup:.2f}x "
        f"(two-step {kernel.get('two_step_speedup', 0.0):.2f}x)"
    )
    if speedup < MIN_KERNEL_SPEEDUP:
        print(
            f"FAIL: packed kernel speedup {speedup:.2f}x "
            f"< {MIN_KERNEL_SPEEDUP}x at {GATE_ROWS}x{GATE_COLS}"
        )
        ok = False
    if kernel.get("two_step_speedup", 0.0) <= 0.0:
        print("FAIL: two-step kernel comparison missing or degenerate")
        ok = False
    return ok


def check_simd(report: dict, require_simd: bool) -> bool:
    ok = True
    simd = report.get("simd")
    if not simd:
        print("FAIL: no simd section in report")
        return False
    available = simd.get("available", False)
    if not available:
        print(f"simd: unavailable (active tier {simd.get('active_tier')})")
        if require_simd:
            print("FAIL: --require-simd but the SIMD tier is unavailable")
            ok = False
        return ok
    speedup = simd.get("speedup", 0.0)
    print(
        f"simd ({simd.get('active_tier')}): "
        f"scalar {simd.get('scalar_us', 0.0):.1f}us, "
        f"simd {simd.get('simd_us', 0.0):.1f}us -> {speedup:.2f}x "
        f"(two-step {simd.get('two_step_speedup', 0.0):.2f}x)"
    )
    if speedup < MIN_SIMD_SPEEDUP:
        print(
            f"FAIL: SIMD kernel speedup {speedup:.2f}x "
            f"< {MIN_SIMD_SPEEDUP}x over the scalar-packed kernel"
        )
        ok = False
    if simd.get("two_step_speedup", 0.0) < MIN_SIMD_SPEEDUP:
        print(
            f"FAIL: SIMD two-step speedup "
            f"{simd.get('two_step_speedup', 0.0):.2f}x < {MIN_SIMD_SPEEDUP}x"
        )
        ok = False
    return ok


def check_scale(report: dict, min_qps: float) -> bool:
    ok = True
    multicore = report.get("multicore")
    if not multicore or not multicore.get("configs"):
        print("FAIL: no multicore section in report")
        return False
    for cfg in multicore["configs"]:
        print(
            f"multicore rules={cfg.get('rules')} "
            f"dispatch={cfg.get('dispatch_threads')}: "
            f"{cfg.get('qps', 0.0):.0f} qps"
        )
        if cfg.get("qps", 0.0) <= 0.0:
            print("FAIL: multicore configuration measured zero throughput")
            ok = False
    best = multicore.get("best_qps", 0.0)
    wire = report.get("wire")
    if not wire:
        print("FAIL: no wire section in report")
        return False
    expected_frames = wire.get("clients", 0) * wire.get("frames_per_client", 0)
    print(
        f"wire: {wire.get('clients')} clients, "
        f"{wire.get('frames_served')}/{expected_frames} frames -> "
        f"{wire.get('qps', 0.0):.0f} qps, "
        f"rtt p50={wire.get('rtt_p50_us', 0.0):.0f}us "
        f"p99={wire.get('rtt_p99_us', 0.0):.0f}us"
    )
    if wire.get("frames_served", 0) != expected_frames:
        print("FAIL: wire run dropped frames (served != sent)")
        ok = False
    if wire.get("qps", 0.0) <= 0.0:
        print("FAIL: wire run measured zero throughput")
        ok = False
    if wire.get("rtt_p50_us", 0.0) <= 0.0:
        print("FAIL: wire RTT percentiles missing or zero")
        ok = False
    if wire.get("rtt_p99_us", 0.0) < wire.get("rtt_p50_us", 0.0):
        print("FAIL: wire RTT p99 below p50 (percentile bug)")
        ok = False
    if min_qps > 0.0:
        if best < min_qps:
            print(f"FAIL: best multicore qps {best:.0f} < floor {min_qps:.0f}")
            ok = False
        if wire.get("qps", 0.0) < min_qps:
            print(
                f"FAIL: wire qps {wire.get('qps', 0.0):.0f} "
                f"< floor {min_qps:.0f}"
            )
            ok = False
    return ok


def check_engine(report: dict, min_block_speedup: float,
                 min_engine_qps: float) -> bool:
    ok = True
    engine = report.get("engine")
    if not engine:
        print("FAIL: no engine section in report")
        return False
    qps = engine.get("qps", 0.0)
    print(
        f"engine: {engine.get('searches', 0)} searches, {qps:.0f} qps, "
        f"hit_rate={engine.get('hit_rate', 0.0):.3f} "
        f"step1_miss_rate={engine.get('step1_miss_rate', 0.0):.3f} "
        f"p50={engine.get('p50_batch_us', 0.0):.0f}us "
        f"p99={engine.get('p99_batch_us', 0.0):.0f}us"
    )
    if engine.get("searches", 0) <= 0 or qps <= 0.0:
        print("FAIL: engine ran no searches (or measured zero throughput)")
        ok = False
    for rate_key in ("hit_rate", "step1_miss_rate"):
        rate = engine.get(rate_key, -1.0)
        if not 0.0 <= rate <= 1.0:
            print(f"FAIL: {rate_key}={rate} outside [0, 1]")
            ok = False
    if engine.get("energy_per_search_j", 0.0) <= 0.0:
        print("FAIL: energy accounting reported zero search energy")
        ok = False
    if engine.get("p99_batch_us", 0.0) < engine.get("p50_batch_us", 0.0):
        print("FAIL: p99 batch latency below p50 (percentile bug)")
        ok = False

    # Query-blocking / pruning schema: the A/B arms and skip counters must
    # be present and self-consistent, or the pruning win is unobservable.
    for key in ("query_block", "baseline_qps", "block_speedup",
                "mats_considered", "mats_skipped", "mat_skip_rate"):
        if key not in engine:
            print(f"FAIL: engine section missing pruning field {key!r}")
            ok = False
    block_speedup = engine.get("block_speedup", 0.0)
    skip_rate = engine.get("mat_skip_rate", -1.0)
    print(
        f"engine pruning: query_block={engine.get('query_block', 0)}, "
        f"baseline {engine.get('baseline_qps', 0.0):.0f} qps -> blocked "
        f"{qps:.0f} qps ({block_speedup:.2f}x), "
        f"mat_skip_rate={skip_rate:.3f} "
        f"({engine.get('mats_skipped', 0)}/{engine.get('mats_considered', 0)})"
    )
    if engine.get("query_block", 0) < 1:
        print("FAIL: engine query_block < 1")
        ok = False
    if not 0.0 <= skip_rate <= 1.0:
        print(f"FAIL: mat_skip_rate={skip_rate} outside [0, 1]")
        ok = False
    if engine.get("mats_skipped", 0) > engine.get("mats_considered", 0):
        print("FAIL: mats_skipped exceeds mats_considered")
        ok = False
    if engine.get("baseline_qps", 0.0) <= 0.0:
        print("FAIL: baseline arm measured zero throughput")
        ok = False
    if min_block_speedup > 0.0 and block_speedup < min_block_speedup:
        print(
            f"FAIL: blocked/pruned arm speedup {block_speedup:.2f}x "
            f"< floor {min_block_speedup:.2f}x over the baseline arm"
        )
        ok = False
    if min_engine_qps > 0.0 and qps < min_engine_qps:
        print(
            f"FAIL: engine trace qps {qps:.0f} < floor {min_engine_qps:.0f}"
        )
        ok = False
    return ok


def check_approx(report: dict, min_approx_qps: float) -> bool:
    ok = True
    approx = report.get("approx")
    if not approx:
        print("FAIL: no approx section in report")
        return False
    for key in ("digit_bits", "k", "threshold", "rules", "searches",
                "hit_rate", "recall_at_k", "recall_queries", "qps",
                "energy_per_search_j", "exact_energy_per_search_j",
                "energy_ratio", "distance_histogram"):
        if key not in approx:
            print(f"FAIL: approx section missing field {key!r}")
            ok = False
    qps = approx.get("qps", 0.0)
    recall = approx.get("recall_at_k", 0.0)
    recall_queries = approx.get("recall_queries", 0)
    print(
        f"approx (d={approx.get('digit_bits')}, k={approx.get('k')}, "
        f"t={approx.get('threshold')}): {approx.get('searches', 0)} "
        f"searches, {qps:.0f} qps, recall@k={recall:.4f} "
        f"({recall_queries} scored), "
        f"hit_rate={approx.get('hit_rate', 0.0):.3f}, "
        f"energy_ratio={approx.get('energy_ratio', 0.0):.2f}x"
    )
    if approx.get("searches", 0) <= 0 or qps <= 0.0:
        print("FAIL: approx arm ran no searches (or zero throughput)")
        ok = False
    if not 0.0 <= approx.get("hit_rate", -1.0) <= 1.0:
        print(f"FAIL: approx hit_rate={approx.get('hit_rate')} "
              "outside [0, 1]")
        ok = False
    if recall_queries < MIN_RECALL_QUERIES:
        print(
            f"FAIL: only {recall_queries} queries scored for recall "
            f"(need >= {MIN_RECALL_QUERIES} for a non-vacuous gate)"
        )
        ok = False
    if not 0.0 <= recall <= 1.0:
        print(f"FAIL: recall_at_k={recall} outside [0, 1]")
        ok = False
    elif recall < MIN_APPROX_RECALL:
        print(
            f"FAIL: recall@k {recall:.4f} < floor {MIN_APPROX_RECALL} "
            "against the brute-force reference"
        )
        ok = False
    hist = approx.get("distance_histogram")
    if not isinstance(hist, list) or \
            len(hist) != approx.get("threshold", -1) + 1:
        print("FAIL: distance_histogram is not a list of threshold+1 "
              "buckets")
        ok = False
    elif sum(hist) > approx.get("searches", 0):
        print("FAIL: distance_histogram counts exceed searches")
        ok = False
    if approx.get("energy_per_search_j", 0.0) <= 0.0:
        print("FAIL: approx arm reported zero search energy")
        ok = False
    if approx.get("exact_energy_per_search_j", 0.0) <= 0.0:
        print("FAIL: exact A/B arm reported zero search energy")
        ok = False
    # Threshold search cannot early-terminate at step 1, so it must pay
    # at least the exact path's per-search energy; a ratio below 1 means
    # the A/B arms diverged (different table or accounting bug).
    if approx.get("energy_ratio", 0.0) < 1.0:
        print(
            f"FAIL: approx/exact energy ratio "
            f"{approx.get('energy_ratio', 0.0):.3f} < 1 (single-step "
            "threshold search cannot undercut two-step exact search)"
        )
        ok = False
    if min_approx_qps > 0.0 and qps < min_approx_qps:
        print(f"FAIL: approx qps {qps:.0f} < floor {min_approx_qps:.0f}")
        ok = False
    return ok


def check_stats_snapshot(path: str) -> bool:
    """Schema check for the live kStats scrape archived next to the report
    (bench_engine_throughput --stats-json).  Shape only, no thresholds:
    the scrape must parse, carry the right schema tag, and contain the
    sections a dashboard would key on."""
    ok = True
    with open(path, encoding="utf-8") as f:
        snap = json.load(f)
    if snap.get("schema") != "fetcam.stats.v1":
        print(f"FAIL: stats snapshot schema is {snap.get('schema')!r}, "
              "expected 'fetcam.stats.v1'")
        ok = False
    engine = snap.get("engine")
    if not isinstance(engine, dict):
        print("FAIL: stats snapshot has no engine section")
        return False
    for key in ("batches", "requests", "searches", "queue_depth",
                "queue_capacity", "queue_high_watermark", "in_flight",
                "query_block", "mats_considered", "mats_skipped",
                "mat_skip_rate"):
        if key not in engine:
            print(f"FAIL: stats snapshot engine section missing {key!r}")
            ok = False
    stages = snap.get("stages")
    if not isinstance(stages, dict) or not stages:
        print("FAIL: stats snapshot has no stage percentiles")
        ok = False
    else:
        for name, stage in stages.items():
            for key in ("count", "p50_us", "p99_us", "p999_us", "max_us"):
                if key not in stage:
                    print(f"FAIL: stage {name!r} missing {key!r}")
                    ok = False
                    break
    if not isinstance(snap.get("slow_queries"), list):
        print("FAIL: stats snapshot has no slow_queries list")
        ok = False
    server = snap.get("server")
    if not isinstance(server, dict):
        print("FAIL: stats snapshot from the wire run must carry a server "
              "section")
        ok = False
    else:
        for key in ("connections_accepted", "frames_served",
                    "frames_rejected", "backpressure_stalls", "force_closes"):
            if key not in server:
                print(f"FAIL: stats snapshot server section missing {key!r}")
                ok = False
    if ok:
        served = server.get("frames_served", 0) if isinstance(server, dict) \
            else 0
        print(f"stats snapshot: {len(stages)} stages, "
              f"{len(snap['slow_queries'])} slow queries, "
              f"server frames_served={served}")
    return ok


def report_table_load(report: dict) -> None:
    """Print the table-load section; report only, no threshold."""
    load = report.get("table_load")
    if not load:
        print("table_load: section absent (report only)")
        return
    for table in load.get("tables", []):
        print(
            f"table_load {table.get('name')}: {table.get('rules')} "
            f"{table.get('trace_kind')} rules into {table.get('mats')}x"
            f"{table.get('rows_per_mat')}x{table.get('cols')} "
            f"(digit_bits {table.get('digit_bits')}): "
            f"{table.get('cpu_ms', 0.0):.1f} ms CPU, median of "
            f"{load.get('calls')} calls (report only)"
        )


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("report", help="path to BENCH_engine.json")
    parser.add_argument(
        "--require-simd",
        action="store_true",
        help="fail when the SIMD tier is unavailable (AVX2 CI job)",
    )
    parser.add_argument(
        "--min-qps",
        type=float,
        default=0.0,
        help="absolute qps floor for multicore and wire runs (0 = off)",
    )
    parser.add_argument(
        "--min-block-speedup",
        type=float,
        default=0.0,
        help="floor on the blocked+pruned trace arm's qps over the "
        "baseline arm (query_block 1) measured in the same run (0 = off)",
    )
    parser.add_argument(
        "--min-engine-qps",
        type=float,
        default=0.0,
        help="absolute qps floor for the blocked engine trace arm (0 = off)",
    )
    parser.add_argument(
        "--approx",
        action="store_true",
        help="require and schema-check the approximate-match (kNN) "
        "section, gating recall@k >= %.2f" % MIN_APPROX_RECALL,
    )
    parser.add_argument(
        "--min-approx-qps",
        type=float,
        default=0.0,
        help="absolute qps floor for the kNN trace arm "
        "(0 = off; implies nothing without --approx)",
    )
    parser.add_argument(
        "--stats",
        default="",
        help="path to the live kStats scrape (fetcam.stats.v1 JSON) to "
        "schema-check alongside the report",
    )
    args = parser.parse_args()

    with open(args.report, encoding="utf-8") as f:
        report = json.load(f)

    ok = check_kernel(report)
    ok = check_simd(report, args.require_simd) and ok
    ok = check_scale(report, args.min_qps) and ok
    ok = check_engine(report, args.min_block_speedup,
                      args.min_engine_qps) and ok
    if args.approx:
        ok = check_approx(report, args.min_approx_qps) and ok
    if args.stats:
        ok = check_stats_snapshot(args.stats) and ok
    report_table_load(report)

    print("OK" if ok else "engine perf guard failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
